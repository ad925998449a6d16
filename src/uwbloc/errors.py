"""Exceptions shared across file readers, the text and number readers they use, and their line prefix."""


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


class at_line:
    """Re-raise a ValueError from the block as FileFormatError, prefixed ``origin:ln:`` or ``origin:``.

    A class, not a ``contextlib`` generator: readers enter one per data line.
    """

    __slots__ = ("origin", "ln")

    def __init__(self, origin: str, ln: int | None = None):
        self.origin, self.ln = origin, ln

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError):
            where = self.origin if self.ln is None else f"{self.origin}:{self.ln}"
            raise FileFormatError(f"{where}: {exc}") from exc
