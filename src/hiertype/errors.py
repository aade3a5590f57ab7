"""Shared exception base, the two input paths and the one output path; all raise
the caller's own error, so the CLI exits 2.  Text: ``text_lines`` and ``read_text``
open every text file read, as UTF-8 without a leading byte-order mark, with only
``\n``, ``\r\n`` and ``\r`` ending a line, and a byte that does not decode located
at its line.  JSON: ``parse_json`` holds the one ``json.loads``, and readers
declare each JSON field they use with ``expect``.  A shape is ``str``; ``int``
(exact, not bool); ``float`` (finite, not bool); ``dict``; ``list``; ``[shape]``;
``(shape, ...)``, a fixed list or tuple; or ``Optional(shape)``, which also takes
null.  Output: ``check_output`` checks a target, ``write_output`` writes it."""

from __future__ import annotations

import json
import os
import reprlib
import sys
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, NamedTuple


class HiertypeError(Exception):
    """Base class for data and configuration errors raised by this package."""


@contextmanager
def located_decode_errors(path: str, error: type[HiertypeError]) -> Iterator[None]:
    """Turn a UnicodeDecodeError raised while ``path`` is read as UTF-8 text
    into ``error``, located at the file's first line that does not decode."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # lines are counted as text_lines counts them: latin-1 decodes any
        # byte, and no UTF-8 sequence holds a line end byte
        with open(path, encoding="latin-1") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.encode("latin-1").decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise error(f"{path}:{line_no}: not valid UTF-8: {exc.reason}") from exc


def text_lines(path: str, error: type[HiertypeError],
               comments: bool = False) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of ``path``, without
    its line end; with ``comments``, a line whose first non-blank character
    is ``#`` is skipped too."""
    with located_decode_errors(path, error), open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            s = line.lstrip()
            if s and not (comments and s[0] == "#"):
                yield line_no, line.rstrip("\n")


def read_text(path: str, error: type[HiertypeError]) -> str:
    """The whole text of ``path``, blank lines included, so that a JSON
    parser's line and column numbers stay exact."""
    with located_decode_errors(path, error), open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def starts_json(path: str, error: type[HiertypeError]) -> bool:
    """The one JSON-or-text rule: is the first non-blank character ``{``?"""
    for _, line in text_lines(path, error):
        return line.lstrip().startswith("{")
    return False


def parse_json(text: str, where: str, error: type[HiertypeError]) -> object:
    """``json.loads``; a syntax fault, an integer longer than the interpreter
    converts, nesting beyond the parser's recursion limit, or an escaped lone
    surrogate, which no UTF-8 output holds, raises ``error`` at ``where``."""
    try:
        value = json.loads(text)
        if "\\u" in text:  # only an escape yields a surrogate
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except UnicodeEncodeError as exc:
        raise error(f"{where}: invalid JSON: lone surrogate {exc.object[exc.start]!r}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{where}: invalid JSON: {exc}") from exc


def check_output(path: str, what: str, error: type[HiertypeError]) -> bool:
    """Raise ``error`` as ``cannot write {what} {path}: {reason}`` unless
    ``write_output`` can write ``path``; true if it writes it in place."""
    in_place = os.path.exists(path) and not os.path.isfile(path)  # a device or a FIFO
    folder, real_folder = os.path.dirname(path) or ".", os.path.dirname(os.path.realpath(path))
    for bad, reason in ((not path, "the path is empty"),
                        (not os.path.exists(folder), f"directory {folder} does not exist"),
                        (not os.path.isdir(folder), f"{folder} is not a directory"),
                        (os.path.isdir(path), "it is a directory"),
                        (os.path.exists(path) and not os.access(path, os.W_OK), "it is not writable"),
                        (not in_place and not os.access(real_folder, os.W_OK | os.X_OK),
                         f"directory {real_folder} is not writable")):
        if bad:
            raise error(f"cannot write {what} {path}: {reason}")
    return in_place


def write_output(path: str, what: str, error: type[HiertypeError], chunks: Iterable,
                 binary: bool = False) -> None:
    """Write ``chunks``, UTF-8 text or bytes-like, to ``path``: a device or a FIFO
    in place, as ``open`` does; else (through a symlink) a temporary file with the
    old file's mode, which replaces it once complete and is removed on any
    exception.  No fsync: a killed process, not a power loss, keeps the old file."""
    in_place, real = check_output(path, what, error), os.path.realpath(path)
    tmp = path if in_place else f"{os.path.dirname(real)}/.{os.path.basename(real)}.{os.urandom(6).hex()}.tmp"
    try:  # os.open's 0o666 less the umask is the mode open() gives a new file
        fd = os.open(tmp, os.O_WRONLY | (os.O_TRUNC if in_place else os.O_CREAT | os.O_EXCL), 0o666)
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8") as fh:
            if os.path.isfile(real):
                os.fchmod(fd, os.stat(real).st_mode & 0o7777)
            fh.writelines(chunks)
        if not in_place:
            os.replace(tmp, real)
    except BaseException as exc:
        if not in_place:
            with suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise error(f"cannot write {what} {path}: {exc.strerror or exc}") from exc
        raise


class Optional(NamedTuple):
    shape: object


_NOUNS = {str: ("a string", "strings"), int: ("an integer", "integers"), list: ("a list", "lists"),
          float: ("a finite number", "finite numbers"), dict: ("an object", "objects")}


def _fits(value: object, shape: object) -> bool:
    if type(shape) is list:
        if not isinstance(value, list):
            return False
        if shape[0] is int:  # a list of scalars is one pass, with no call per element
            return all(type(v) is int for v in value)
        if shape[0] is str:
            return all(isinstance(v, str) for v in value)
        return all(_fits(v, shape[0]) for v in value)
    if type(shape) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(shape)
                and all(map(_fits, value, shape)))
    if type(shape) is Optional:
        return value is None or _fits(value, shape.shape)
    if shape is float:  # nan, inf and ints beyond the float range fail the comparison
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is int if shape is int else isinstance(value, shape)  # bool is an int


def _describe(shape: object, plural: bool = False) -> str:
    head = "lists" if plural else "a list"
    if type(shape) is list:
        return f"{head} of {_describe(shape[0], True)}"
    if type(shape) is tuple:
        if len(shape) in (2, 3) and all(s == shape[0] for s in shape):
            return f"{head} of {('two', 'three')[len(shape) - 2]} {_describe(shape[0], True)}"
        return f"{head} [{', '.join(map(_describe, shape))}]"
    if type(shape) is Optional:
        return _describe(shape.shape, plural) + " or null"
    return _NOUNS[shape][plural]


def expect(value: object, shape: object, what: str, error: type[HiertypeError]) -> object:
    """``value`` if it has ``shape``, else ``error``: ``{what} must be
    {description}, got {value}``, then the index path of the first bad list
    element.  Values are abbreviated, so a long or deep one cannot flood it."""
    if _fits(value, shape):
        return value
    message = f"{what} must be {_describe(shape)}, got {reprlib.repr(value)}"
    path, inner = "", shape.shape if type(shape) is Optional else shape
    while type(inner) is list and isinstance(value, list):
        i = next(i for i, item in enumerate(value) if not _fits(item, inner[0]))
        path, value, inner = f"{path}[{i}]", value[i], inner[0]
    raise error(message + (f"; item {path} is {reprlib.repr(value)}" if path else ""))
