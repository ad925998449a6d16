"""Exceptions shared across file readers, and the one text reader they use."""


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
