"""Exceptions shared across file readers, the text and number readers they use, and their line prefix."""

from contextlib import contextmanager


class FileFormatError(ValueError):
    """An on-disk artifact (measurements, calibration, DB, report) is malformed."""


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``; bytes that are not UTF-8 raise FileFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None


def parse_number(text: str, kind: type = float):
    """``kind(text)`` for ``int`` or ``float``, without Python's digit separator.

    ``float("1_0")`` is 10.0, but neither the config nor any data file format
    has "_" in numbers, so it raises ValueError here.
    """
    if "_" in text:
        raise ValueError(f"digit separator in number: {text!r}")
    return kind(text)


@contextmanager
def at_line(origin: str, ln: int | None = None):
    """Re-raise a ValueError from the block as FileFormatError, prefixed ``origin:ln:`` or ``origin:``."""
    try:
        yield
    except ValueError as exc:
        raise FileFormatError(f"{origin}: {exc}" if ln is None else f"{origin}:{ln}: {exc}") from exc
