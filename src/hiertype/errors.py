"""Shared exception base and the two input paths; both raise the reader's
own error, so the CLI exits 2.  Text: ``text_lines`` and ``read_text`` open
every text file read, as UTF-8 without a leading byte-order mark, with only
``\n``, ``\r\n`` and ``\r`` ending a line, and a byte that does not decode
located at its line.  JSON: ``parse_json`` holds the one ``json.loads``, and
readers declare each JSON field they use with ``expect``.  A shape is
``str``; ``int`` (exact, not bool); ``float`` (finite, not bool); ``dict``;
``list``; ``[shape]``; ``(shape, ...)``, a fixed list or tuple; or
``Optional(shape)``, which also takes null."""

from __future__ import annotations

import json
import reprlib
import sys
from contextlib import contextmanager
from typing import Iterator, NamedTuple


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
    converts, or nesting beyond the parser's recursion limit raises ``error``
    located at ``where``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{where}: invalid JSON: {exc}") from exc


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
