"""Synthetic UWB time-of-arrival ranging, standing in for DW1000 hardware.

A measured distance is modeled as an affine function of the true distance
plus Gaussian noise, with a multiplicative inflation once the (noisy)
reading exceeds a threshold; real tags overestimate long distances, which
is what the downstream correction step undoes.

Determinism contract: each (location, rep, anchor) measurement has its own
key, and every word its draws read is a pure function of (seed, location,
rep, anchor, purpose, attempt) built from integer multiply, xor and shift
on ``uint64`` (SplitMix64; Steele, Lea & Flood, OOPSLA 2014). Its normal is
a 256-layer ziggurat (Marsaglia & Tsang, JSS 2000) whose tests use only +,
−, ×, ÷ and sqrt. So a reading depends neither on the order or chunk it is
drawn in nor on the numpy version. ``simulate_range_batch`` draws arrays of
keys and ``simulate_range`` one ``measurement_stream`` key, both through
``_noisy_reading``, whose order of operations the golden digests and the
tests' scalar reference ``oracles.simulate_range`` pin.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    WRITE_LINES, FileFormatError, at_line, float_text, parse_number,
    read_text, text_lines,
)
from .geometry import AnchorLayout, PointMM, check_ranges, check_true_distances

__all__ = [
    "NoiseConfig",
    "Campaign",
    "MAX_REPS",
    "Visits",
    "STAGE_OBSERVATION",
    "STAGE_TRIALS",
    "STAGE_SELECTION",
    "STAGE_AUGMENT",
    "STAGE_FOREST",
    "derive_seed",
    "measurement_stream",
    "simulate_range",
    "simulate_range_batch",
    "simulate_visits",
    "simulate_campaign",
    "write_measurements",
    "read_measurements",
]

# Simulated readings never drop below this floor (mm).
MIN_SIMULATED_RANGE = 1.0

# Keys per chunk in simulate_range_batch, which bounds its working set: a full chunk traces ~3.1 MiB
# above its output and draws at ~47 ns a key (~92 ns in chunks of 4,096, whose rejection loop's fixed
# cost dominated; 2-vCPU Xeon). Every batch a pipeline draws fits in one chunk.
DRAW_CHUNK = 1 << 16

# A draw's key is (location index, rep, anchor index), each hashed as one 32-bit
# word, so a location takes at most this many visits (reps 0 .. 2**32 - 1).
MAX_REPS = 2**32

# An outlier multiplies the reading by a uniform draw from this range.
OUTLIER_MAGNITUDE = (1.5, 3.0)

# Stage tags for deriving independent seed streams from one master seed.
STAGE_OBSERVATION = 0
STAGE_TRIALS = 1
STAGE_SELECTION = 2
STAGE_AUGMENT = 3
STAGE_FOREST = 4


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of the synthetic ranging error model.

    measured = slope * true + offset + Normal(0, sigma), then multiplied
    by ``inflation_factor`` if that value exceeds ``inflation_threshold``,
    then clamped to at least 1 mm. With probability ``p_outlier`` the
    pre-inflation value is replaced by an extreme reading (1.5x to 3x).

    The defaults describe a mildly biased tag that overestimates long
    distances by one ninth, i.e. exactly what a 0.9 correction undoes.
    """

    slope: float = 1.0
    offset: float = 20.0
    sigma: float = 30.0
    inflation_threshold: float = 1000.0
    inflation_factor: float = 1.0 / 0.9
    p_outlier: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and self.slope > 0.0):
            raise ValueError(f"slope must be positive, got {self.slope}")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (math.isfinite(self.inflation_threshold) and self.inflation_threshold > 0.0):
            raise ValueError("inflation threshold must be positive")
        if not (math.isfinite(self.inflation_factor) and self.inflation_factor >= 1.0):
            raise ValueError(f"inflation factor must be >= 1, got {self.inflation_factor}")
        if not (0.0 <= self.p_outlier <= 1.0):
            raise ValueError(f"p_outlier must be in [0, 1], got {self.p_outlier}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class Visits:
    """Every reading taken at one campaign location.

    ``ranges`` has shape (k, 3): one row per visit in rep order, columns
    anchors A, B and C.
    """

    location: PointMM
    ranges: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.ranges, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"ranges must have shape (k, 3), got {arr.shape}")
        object.__setattr__(self, "ranges", arr)


@dataclass(frozen=True)
class Campaign:
    """A measurement session: every location is measured ``reps`` times."""

    locations: tuple[PointMM, ...]
    reps: int
    anchors: AnchorLayout
    noise: NoiseConfig

    def __post_init__(self) -> None:
        if len(self.locations) == 0:
            raise ValueError("campaign needs at least one location")
        if not 1 <= self.reps <= MAX_REPS:
            raise ValueError(f"reps must be in 1..{MAX_REPS}, got {self.reps}")


def derive_seed(master: int, stage: int) -> int:
    """A stage's seed: the key hash of ``master`` and the one-word key ``(stage,)``, a 64-bit int."""
    return _absorb_int(_seed_state(master, 1), stage)


def measurement_stream(seed: int, location_index: int, rep: int, anchor_index: int) -> np.ndarray:
    """The key state of one (location, rep, anchor) measurement, a one-element ``uint64`` array."""
    keys = np.array([(location_index, rep, anchor_index)])
    _check_keys(seed, keys)
    return _key_states(seed, keys)


def simulate_range(true_distance: float, noise: NoiseConfig, state: np.ndarray) -> float:
    """Draw one measured distance for a given true distance, from the key state that
    ``measurement_stream`` returns: ``simulate_range_batch``'s reading for that key."""
    check_true_distances(true_distance)
    out = np.full(1, true_distance, dtype=float)
    _noisy_reading(out, state, noise, out)
    return float(out[0])


# SplitMix64: its increment and the two multipliers of its finalizer
_U64 = np.uint64
_MASK32, _MASK64 = 0xFFFFFFFF, (1 << 64) - 1
_GAMMA, _MIX_A, _MIX_B = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_DOUBLE_UNIT = 2.0**-53


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a ``uint64`` array."""
    x ^= x >> _U64(30)
    x *= _U64(_MIX_A)
    x ^= x >> _U64(27)
    x *= _U64(_MIX_B)
    x ^= x >> _U64(31)
    return x


def _absorb_int(h: int, value: int) -> int:
    """One step of the key hash, ``mix((h ^ value) + GAMMA)``, on Python ints."""
    x = (h ^ value) + _GAMMA & _MASK64
    x = (x ^ x >> 30) * _MIX_A & _MASK64
    x = (x ^ x >> 27) * _MIX_B & _MASK64
    return x ^ x >> 31


def _seed_state(seed: int, key_words: int) -> int:
    """The key hash from 0 over the seed's and the key's number of 32-bit words, then the seed's
    words, low first."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    return functools.reduce(_absorb_int, [len(words) + key_words] + words, 0)


def _key_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """Each (n, 3) key row's state: ``_seed_state``, then the row's words two at a time, the
    first in the high half: ``location << 32 | rep``, then ``anchor``."""
    h = np.full(keys.shape[0], _seed_state(seed, 3), dtype=np.uint64)
    location, rep, anchor = keys.T.astype(np.uint64)
    location <<= _U64(32)
    location |= rep
    for value in (location, anchor):  # _absorb_int on arrays
        h ^= value
        h += _U64(_GAMMA)
        _mix(h)
    return h


def _steps(purpose: int, words: range) -> np.ndarray:
    """The state increments of ``words`` of draw ``purpose``: word n is SplitMix64's output for the
    counter ``purpose * 2**32 + n + 1``."""
    return np.array([((purpose << 32) + n + 1) * _GAMMA & _MASK64 for n in words], dtype=np.uint64)


def _unit(w: np.ndarray) -> np.ndarray:
    """``(w >> 11) * 2**-53`` of each word: a double in [0, 1)."""
    w >>= _U64(11)
    return w * _DOUBLE_UNIT


def _uniforms(h: np.ndarray, purpose: int) -> np.ndarray:
    """The uniforms of draw ``purpose`` of the key states ``h``, from its word 0."""
    return _unit(_mix(h + _steps(purpose, range(1))))


# Marsaglia & Tsang's 256-layer ziggurat: the base strip ends at R, and every layer has area V
_LAYERS = 256
_ZIGGURAT_R, _ZIGGURAT_V = "3.6541528853610088", "0.00492867323399"
_R = float(_ZIGGURAT_R)
_MAGNITUDE_SHIFT = _U64(12)  # a magnitude is a word's top 52 bits
# exp(t) = 2**k * exp(s) with t = k * ln 2 + s: ln 2 in two parts (fdlibm's), the first exact times k
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_EXP_TERMS = [1.0 / math.factorial(n) for n in range(13, -1, -1)]  # Taylor, highest degree first


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per layer: the magnitude below which a draw is inside the curve, the width of one magnitude step
    and the density ``f(x) = exp(-x*x/2)`` at its right edge, as read-only arrays.

    Layer i >= 1 spans [0, x[i]] x [f(x[i]), f(x[i-1])], with x[255] = R, x[0] = 0 and
    f(x[i-1]) = V / x[i] + f(x[i]). Layer 0 is the base strip [0, V / f(R)] x [0, f(R)], whose part
    past R stands for the tail. Decimal arithmetic rounds the same on every platform (~7 ms); it runs
    on the first draw, never at import.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 25
        r, v = decimal.Decimal(_ZIGGURAT_R), decimal.Decimal(_ZIGGURAT_V)
        x, fx = [r], [(-r * r / 2).exp()]
        for _ in range(_LAYERS - 2):
            fx.append(v / x[-1] + fx[-1])
            x.append((-2 * fx[-1].ln()).sqrt())
        x, fx = [decimal.Decimal(0)] + x[::-1], [decimal.Decimal(1)] + fx[::-1]
        top = decimal.Decimal(2) ** (64 - int(_MAGNITUDE_SHIFT))
        edges = [v / fx[-1]] + x[1:]  # each layer's width
        tables = (
            np.array([int(top * b / e) for b, e in zip([r] + x[:-1], edges)], dtype=np.uint64),
            np.array([float(e / top) for e in edges]),
            np.array([float(f) for f in fx]),
        )
    for t in tables:
        t.flags.writeable = False
    return tables


def _exp(t: np.ndarray) -> np.ndarray:
    """``exp(t)`` for ``t <= 0`` in place, from +, −, × and an exact power of two: a Taylor
    polynomial in ``s = t - k ln 2``, ``|s| <= ln 2 / 2``, times ``2**k``."""
    np.maximum(t, -800.0, out=t)  # exp(-800) is 0.0 in doubles
    k = np.rint(t / (_LN2_HI + _LN2_LO))
    t -= k * _LN2_HI
    t -= k * _LN2_LO
    p = np.full_like(t, _EXP_TERMS[0])
    for c in _EXP_TERMS[1:]:
        p *= t
        p += c
    return np.ldexp(p, k.astype(np.int32), out=p)


def _normals(h: np.ndarray, purpose: int) -> np.ndarray:
    """The standard normals of draw ``purpose`` of the key states ``h``.

    Attempt a reads words 3a .. 3a + 2. Word 3a gives the layer (low 8 bits), sign (bit 8) and
    magnitude; under the layer's fast bound the normal is ``±magnitude * width``. In the wedge of
    layer i it is that x when ``f[i] + u * (f[i-1] - f[i]) < exp(-x*x/2)``, u from word 3a + 1, and
    otherwise the key makes attempt a + 1. A key in the tail stays there: at each attempt it
    proposes ``x = R / u**(1/8)`` (Pareto), u in (0, 1] from word 3a + 1, and accepts with
    probability ``exp((R*R - x*x) / 2) * (x / R)**9``, its uniform from word 3a + 2. The wedge and
    the tail of an attempt share one ``exp`` call.
    """
    bound, width, density = _ziggurat()
    z = np.empty(0)  # attempt 0 replaces it with every key's draw
    rows, tail, hs, attempt = np.arange(h.shape[0]), np.empty(0, dtype=np.intp), h, 0
    while rows.shape[0] or tail.shape[0]:
        steps = _steps(purpose, range(3 * attempt, 3 * attempt + 3))
        w = _mix(hs + steps[0])
        layer = (w & _U64(_LAYERS - 1)).view(np.int64)
        sign = w & _U64(_LAYERS)
        sign <<= _U64(63 - 8)  # bit 8 to a double's sign bit
        w >>= _MAGNITUDE_SHIFT
        slow = np.flatnonzero(w >= bound.take(layer))
        x = width.take(layer)
        x *= w  # exact conversion: w < 2**52
        bits = x.view(np.uint64)
        bits |= sign
        if attempt:
            z[rows] = x
        else:  # attempt 0 draws every key, in order
            z = x
        base = layer.take(slow) == 0
        tail = np.concatenate([tail, rows.take(slow[base])])
        wedge = slow[~base]
        i = layer.take(wedge)
        y = _unit(_mix(hs.take(wedge) + steps[1]))
        y *= density.take(i - 1) - density.take(i)
        y += density.take(i)
        x = x.take(wedge)
        x *= x
        x *= -0.5
        ht = h.take(tail)
        u = _unit(_mix(ht + steps[1]))
        u += _DOUBLE_UNIT  # in (0, 1]
        root = np.sqrt(np.sqrt(np.sqrt(u)))
        proposal = _R / root
        test = _unit(_mix(ht + steps[2]))
        test *= u
        test *= root
        e = _exp(np.concatenate([x, (_R * _R - proposal * proposal) * 0.5]))
        rows = rows.take(wedge[y >= e[:wedge.shape[0]]])
        accept = test < e[wedge.shape[0]:]
        z[tail[accept]] = np.copysign(proposal, z.take(tail))[accept]  # z holds the sign of the tail's attempt
        tail = tail[~accept]
        hs = h.take(rows)
        attempt += 1
    return z


def _check_keys(seed: int, keys: np.ndarray) -> None:
    """Reject keys that are not integers in [0, 2**32), or a negative seed."""
    if keys.dtype.kind not in "iu":
        raise TypeError(f"keys must be integers, got {keys.dtype}")
    if seed < 0 or (keys.size and keys.min() < 0):
        raise ValueError("expected non-negative integer")
    if keys.size and keys.max() > _MASK32:
        raise ValueError(f"keys must lie in [0, 2**32), got {keys.max()}")


def simulate_range_batch(
    true_distances: np.ndarray, keys: np.ndarray, noise: NoiseConfig, seed: int,
) -> np.ndarray:
    """Draw one measured distance per ``(location, rep, anchor)`` key row.

    Row ``i`` is ``simulate_range(true_distances[i], noise, measurement_stream(seed, *keys[i]))``,
    whose bits the golden digests and ``oracles.simulate_range`` pin. Keys are processed in
    chunks of ``DRAW_CHUNK``; each must lie in [0, 2**32).
    """
    d = np.asarray(true_distances, dtype=float)
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] != 3 or d.shape != keys.shape[:1]:
        raise ValueError(f"expected (n,) distances and (n, 3) keys, got {d.shape} and {keys.shape}")
    _check_keys(seed, keys)
    check_true_distances(d)
    out = np.empty(d.size)
    for start in range(0, d.size, DRAW_CHUNK):
        chunk = slice(start, start + DRAW_CHUNK)
        _noisy_reading(d[chunk], _key_states(seed, keys[chunk]), noise, out[chunk])
    return out


def _noisy_reading(d: np.ndarray, h: np.ndarray, noise: NoiseConfig, out: np.ndarray) -> None:
    """The noise model: readings of true distances ``d`` into ``out`` (which may be ``d``) from the
    draws of the key states ``h``: draw 0 the normal and, when ``p_outlier`` > 0, draws 1 and 2 the
    outlier coin and magnitude. The golden digests and ``oracles.simulate_range`` pin its order of
    operations."""
    # an overflow gives inf silently; callers reject it
    with np.errstate(over="ignore"):
        np.multiply(d, noise.slope, out=out)
        out += noise.offset
        z = _normals(h, 0)
        z *= noise.sigma
        out += z
        if noise.p_outlier > 0.0:
            low, high = OUTLIER_MAGNITUDE
            magnitude = _uniforms(h, 2)
            magnitude *= high - low
            magnitude += low
            np.multiply(out, magnitude, out=out, where=_uniforms(h, 1) < noise.p_outlier)
        np.multiply(out, noise.inflation_factor, out=out, where=out > noise.inflation_threshold)
    np.maximum(out, MIN_SIMULATED_RANGE, out=out)


def simulate_visits(
    locations: np.ndarray | Sequence[tuple[float, float]], anchors: AnchorLayout, reps: int,
    noise: NoiseConfig, seed: int,
) -> np.ndarray:
    """Measured ranges of ``reps`` visits to each (x, y) row of ``locations``, shape (m, reps, 3).

    Visit ``rep`` to location ``i`` measures anchor ``j`` with the key
    ``(i, rep, j)``; the last axis holds anchors A, B and C.
    """
    xy = np.asarray(locations, dtype=float).reshape(-1, 2)
    m = xy.shape[0]
    true_d = anchors.true_distances(xy)
    keys = np.indices((m, reps, 3), dtype=np.uint32).reshape(3, -1).T
    d = np.broadcast_to(true_d[:, None, :], (m, reps, 3))
    return simulate_range_batch(d.ravel(), keys, noise, seed).reshape(m, reps, 3)


def simulate_campaign(campaign: Campaign) -> list[Visits]:
    """Run a full campaign: one record per ``Campaign.locations`` entry, in that order."""
    ranges = simulate_visits(
        [loc.as_tuple() for loc in campaign.locations], campaign.anchors, campaign.reps,
        campaign.noise, campaign.noise.seed,
    )
    return [Visits(loc, visits) for loc, visits in zip(campaign.locations, ranges)]


MEASUREMENT_HEADER = "loc_x,loc_y,d_a,d_b,d_c"


def write_measurements(path: str, records: list[Visits]) -> None:
    """Write campaign records as delimited text, one row per reading, with full float precision."""
    ranges = np.concatenate([rec.ranges for rec in records]) if records else np.empty((0, 3))
    prefixes = np.array([f"{rec.location.x!r},{rec.location.y!r}".encode() for rec in records])
    owner = np.repeat(np.arange(len(records)), [len(rec.ranges) for rec in records])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MEASUREMENT_HEADER + "\n")
        # a slice of readings at a time, which bounds the text held in memory
        for start in range(0, ranges.shape[0], WRITE_LINES):
            rows = ranges[start:start + WRITE_LINES]
            da, db, dc = float_text(rows).reshape(rows.shape[0], 3, -1).transpose(1, 0, 2)
            fh.write(text_lines([prefixes[owner[start:start + WRITE_LINES]], da, db, dc]))


def read_measurements(path: str) -> list[Visits]:
    """Parse a measurement file into one record per distinct (x, y), in order of first appearance.

    A location's readings keep their file order, wherever its rows fall. The
    non-blank lines convert in one ``np.loadtxt`` call, which reads a number
    as ``float`` does or rejects it; a file it rejects, or that holds a bad
    value, is read again line by line, and its first bad line raises.
    """
    text = read_text(path)
    # numpy strips U+001F around a number as whitespace, where float rejects it
    convert = "\x1f" not in text
    lines = text.splitlines()
    del text
    if not lines or lines[0].strip() != MEASUREMENT_HEADER:
        raise FileFormatError(f"{path}: expected header '{MEASUREMENT_HEADER}'")
    data = [line for line in lines[1:] if line.strip()]
    try:
        rows = np.loadtxt(data, delimiter=",", comments=None, ndmin=2) if convert and data else None
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != 5 or not (np.isfinite(rows[:, :2]).all() and (
            (rows[:, 2:] > 0.0) & (rows[:, 2:] < math.inf)).all()):  # NaN fails too
        readings = (_reading(path, ln, line) for ln, line in enumerate(lines[1:], start=2))
        rows = np.array([r for r in readings if r is not None]).reshape(-1, 5)
    del lines, data  # the text of every line, no longer needed while the rows are grouped
    return _group_by_location(rows)


def _reading(path: str, ln: int, line: str) -> list[float] | None:
    """The five numbers on line ``ln``, or None if it is blank; a bad line raises FileFormatError."""
    if not line.strip():
        return None
    parts = line.split(",")
    if len(parts) != 5:
        raise FileFormatError(f"{path}:{ln}: expected 5 fields, got {len(parts)}")
    with at_line(path, ln):
        values = [parse_number(p) for p in parts]
        PointMM(*values[:2])  # rejects a non-finite coordinate
        if not all(0.0 < v < math.inf for v in values[2:]):  # NaN fails too
            check_ranges(values[2:])
    return values


def _group_by_location(rows: np.ndarray) -> list[Visits]:
    """One record per distinct (x, y) of ``(n, 5)`` rows, in order of first appearance."""
    if not len(rows):
        return []
    # np.unique compares values, so -0.0 and 0.0 key one location, as in a dict
    keys = np.ascontiguousarray(rows[:, :2]).view(np.complex128).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    # rows by their location's first appearance, each location's rows in file order
    ranges = rows[np.argsort(first[inverse.ravel()], kind="stable"), 2:]
    points = rows[first[order], :2].tolist()
    per_location = np.split(ranges, np.cumsum(counts[order])[:-1])
    return [Visits(PointMM(x, y), r) for (x, y), r in zip(points, per_location)]
