"""Shared exception base so callers (and the CLI) can classify failures uniformly."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class HiertypeError(Exception):
    """Base class for data and configuration errors raised by this package."""


@contextmanager
def located_decode_errors(path: str, error: type[HiertypeError]) -> Iterator[None]:
    """Turn a UnicodeDecodeError raised while ``path`` is read as UTF-8 text
    into ``error``, located at the file's first line that does not decode."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise error(f"{path}:{line_no}: not valid UTF-8: {exc.reason}") from exc
