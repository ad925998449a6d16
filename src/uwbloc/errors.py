"""Exceptions shared across file readers, the number text the files hold, and the readers' line prefix.

``parse_number`` reads a number; ``float_text`` and ``int_text`` write numbers
an array at a time, as ``repr`` and ``str`` would, and ``text_lines`` joins
them into comma-separated lines.
"""

import functools
import sys

import numpy as np


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


# Offsets of the five tables of ``_digits``: every digit; leading zeros dropped; the
# same with 0 as "0"; trailing zeros dropped; the same with 0 as "0". Each maps 0 to
# nothing unless it says otherwise.
_FULL, _LEAD, _LEAD0, _TRAIL, _TRAIL0 = range(0, 5 * 10**4, 10**4)


@functools.cache
def _digits() -> np.ndarray:
    """The four ASCII digits of every i < 10**4 as one uint32 each, in the five tables at
    ``_FULL`` .. ``_TRAIL0``; NUL bytes stand for dropped digits. Built on first use, so a
    process that writes no file holds none of it."""
    i = np.arange(10**4)[:, None]
    place = np.array([1000, 100, 10, 1])
    tables = np.empty((5, 10**4, 4), dtype=np.uint8)
    tables[0] = i // place % 10 + ord("0")
    tables[1] = tables[0] * (i >= place)  # at or after the first nonzero digit
    tables[2] = tables[1]
    tables[3] = tables[0] * (i % (place * 10) != 0)  # at or before the last nonzero digit
    tables[4] = tables[3]
    tables[2, 0, 3] = tables[4, 0, 0] = ord("0")  # the "0" variants
    return tables.view(np.uint32).ravel()


# Python numbers, not numpy arithmetic, at import: a process that writes no file
# pages in no numpy code for these
_POINT = int.from_bytes(b"\0\0\0.", sys.byteorder)  # as a uint32 in memory order
_POW10 = np.array([10.0**i for i in range(17)])
_POW10_INT = np.array([10**i for i in range(18)], dtype=np.int64)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = np.array([_halves(v) for v in _POW10.tolist()]).T


def _put_leading(v: np.ndarray, out: np.ndarray) -> None:
    """Write the digits of each ``v`` >= 0, with its leading zeros dropped, into the uint32
    columns of ``out``: the last column takes the last four digits."""
    last = out.shape[1] - 1
    for col in range(last, -1, -1):
        rest = v // 10**4
        chunk = v - rest * 10**4
        chunk += np.where(rest == 0, _LEAD0 if col == last else _LEAD, _FULL)
        out[:, col] = _digits()[chunk]
        v = rest


def int_text(values) -> np.ndarray:
    """``str(i)`` of every integer 0 <= i < 2**63 in ``values`` as the rows of an (m, w) uint8
    array, padded with NUL bytes."""
    v = np.asarray(values, dtype=np.int64).ravel()
    top = int(v.max()) if v.size else 0
    rows = np.empty((v.shape[0], (len(str(top)) + 3) // 4), dtype=np.uint32)
    _put_leading(v, rows)
    return rows.view(np.uint8)


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer digits k of each x, and N = x * 10**(17 - k) exactly, as floor(N) and N - floor(N)."""
    k = np.searchsorted(_POW10[1:16], x, side="right") + 1
    p = 17 - k
    hi = x * _POW10[p]
    # Dekker's product: hi + lo is x * 10**p exactly, as 10**p <= 10**16 is exact
    xh, xl = _halves(x)
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    whole = np.floor(lo)
    floor_n = hi.astype(np.int64)  # hi >= 10**16 > 2**53 is an integer
    floor_n += whole.astype(np.int64)
    lo -= whole
    return k, floor_n, lo


def _zeros_to_spare(top: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The largest j such that a multiple of 10**j lies in (top - width, top], for 1 <= width < 100."""
    # top % 10**j < width; for j >= 2, top % 100 < width and 10**(j - 2) divides top // 100
    hundreds = top // 100
    last2 = top - hundreds * 100
    two = last2 < width
    j = two.astype(np.int64)
    j += last2 - last2 // 10 * 10 < width
    at = np.flatnonzero(two)
    q = hundreds[at]
    while at.size:  # top >= 10**16, so this ends
        rest = q // 10
        more = rest * 10 == q
        at, q = at[more], rest[more]
        j[at] += 1
    return j


def _shortest_text(x: np.ndarray) -> np.ndarray:
    """``float_text`` for floats 1 <= x < 2**53, whose ``repr`` has no exponent.

    ``repr`` gives the fewest significant digits that read back as x, and of
    those the closest to x (Gay's correctly rounded shortest conversion). Here
    x is scaled to 17 integer digits, N = x * 10**(17 - k) for its k integer
    digits. A decimal reads back as x when it lies within half an ulp of x, so
    the fewest digits are 17 - j for the largest j such that a multiple of
    10**j lies within half an ulp of N, scaled alike. Of the multiples of 10**j
    on either side of N, take the one inside, or the closer when both are, and
    the even one on a tie.

    Two finer points of reading back change nothing in [1, 2**53). Below a
    power of two the range is only a quarter of an ulp, but such an x is an
    integer, whose own digits are the fewest. An end of the range, halfway to
    the next float, reads back as x only for an even mantissa, but no decimal
    of at most 17 significant digits is an end, except above 2**52, where an
    end ends in 5 and x in 0.
    """
    k, floor_n, frac = _scaled(x)
    # half an ulp, scaled, is exact: 10**p * ulp / 2 is 5**p < 2**38 times a power of two
    half = np.spacing(x) * (_POW10[17 - k] * 0.5)
    # the whole steps from floor(N) down and up that stay in range
    below = np.floor(half - frac).astype(np.int64)
    above = np.floor(half + frac).astype(np.int64)
    del half
    j = _zeros_to_spare(floor_n + above, below + above + 1)
    step = _POW10_INT[j]
    digits = floor_n // step
    r = floor_n - digits * step  # floor(N) less the multiple below it
    both = np.flatnonzero((r <= below) & (step - r <= above))
    digits += r > below
    if both.size:  # twice the distance from the multiple below against the step
        twice = 2.0 * (r[both] + frac[both])
        s = step[both]
        digits[both] += (twice > s) | ((twice == s) & (digits[both] % 2 == 1))
    # 17 digits: 10**k is a float other than x and never in the range, so v < 10**17
    v = digits * step
    kept = 17 - j - k  # significant digits after the point; none when <= 0
    del below, above, frac, floor_n, j, step, digits, r  # to keep peak memory down
    split = _POW10_INT[17 - k]
    whole = v // split
    v -= whole * split
    v *= _POW10_INT[k - 1]  # the 16 digits after the point
    ints = (int(k.max(initial=1)) + 3) // 4
    rows = np.empty((x.shape[0], ints + 5), dtype=np.uint32)
    _put_leading(whole, rows[:, :ints])
    rows[:, ints] = _POINT
    high = v // 10**8
    v -= high * 10**8
    first, third = high // 10**4, v // 10**4
    for col, chunk in enumerate((first, high - first * 10**4, third, v - third * 10**4)):
        # every digit while significant ones follow; "0" for a zero fraction
        chunk += np.where(kept > 4 * col + 4, _FULL, _TRAIL0 if col == 0 else _TRAIL)
        rows[:, ints + 1 + col] = _digits()[chunk]
    return rows.view(np.uint8)


def float_text(values) -> np.ndarray:
    """``repr(v)`` of every float in ``values`` as the rows of an (m, w) uint8 array, padded
    with NUL bytes anywhere in a row. Floats in [1, 2**53) are converted an array at a time;
    the rest (0, below 1, 2**53 and above, negatives, inf and NaN) go through ``repr``."""
    x = np.asarray(values, dtype=np.float64).ravel()
    inside = (x >= 1.0) & (x < 2.0**53)
    if inside.all():
        return _shortest_text(x)
    fast = _shortest_text(x[inside]) if inside.any() else np.empty((0, 0), dtype=np.uint8)
    slow = np.array([repr(v).encode() for v in x[~inside].tolist()])
    rows = np.zeros((x.shape[0], max(fast.shape[1], slow.itemsize)), dtype=np.uint8)
    rows[inside, :fast.shape[1]] = fast
    rows[~inside, :slow.itemsize] = slow.view(np.uint8).reshape(-1, slow.itemsize)
    return rows


#: Lines a file writer converts to text at a time, which bounds the memory it holds.
WRITE_LINES = 1024


def text_lines(fields) -> str:
    """The lines ``field,field,...,field`` of NUL-padded fields with the NUL bytes dropped.

    Each field is an (m, w) uint8 array or an (m,) bytes array and gives row i
    of every line i.
    """
    m = fields[0].shape[0]
    fields = [f.view(np.uint8).reshape(m, -1) for f in fields]
    lines = np.empty((m, sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    at = 0
    for f in fields:
        lines[:, at:at + f.shape[1]] = f
        at += f.shape[1] + 1
        lines[:, at - 1] = ord(",")
    lines[:, -1] = ord("\n")
    flat = lines.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


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
