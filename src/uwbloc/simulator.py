"""Synthetic UWB time-of-arrival ranging, standing in for DW1000 hardware.

A measured distance is modeled as an affine function of the true distance
plus Gaussian noise, with a multiplicative inflation once the (noisy)
reading exceeds a threshold; real tags overestimate long distances, which
is what the downstream correction step undoes.

Determinism contract: every single measurement has its own random
substream, derived as ``SeedSequence((seed, location_index, rep,
anchor_index))`` feeding a PCG64 generator. Measurements therefore do not
depend on the order in which they are generated, and a campaign can be
reproduced draw-by-draw or in parallel.

``measurement_stream`` and ``simulate_range`` are that contract for one
draw. ``simulate_range_batch`` reproduces it bit for bit for arrays of keys,
in numpy array arithmetic:

- it hashes the keys the way ``SeedSequence`` does (``uint32`` arrays), then
  applies PCG64's seeding step, ``state = (inc + initstate) * MULT + inc``,
  its first step and its XSL-RR output, ``rotr64(hi ^ lo, hi >> 58)``, on
  128-bit numbers held as (hi, lo) ``uint64`` pairs (O'Neill 2014);
- numpy's standard normal is a 256-layer ziggurat (Marsaglia & Tsang 2000)
  on that raw output r: layer ``r & 0xff``, sign bit 8, ``rabs = (r >> 9) &
  (2**52 - 1)``, and whenever ``rabs < ki[layer]`` the value is ``±rabs *
  wi[layer]``. The outlier coin and magnitude then come from the 2nd and 3rd
  raw outputs as ``random()`` does, ``(r >> 11) * 2**-53``;
- the ~1.5% of keys off that fast path (the tail of layer 0, all of layer
  1, and ``rabs >= ki``) have their seeded state set on a PCG64 generator
  that the draw creates for itself (~5 µs), which draws as ``simulate_range``
  does, so concurrent draws share no state.

numpy does not expose ``ki`` and ``wi``. The first batch draw in a process
(never the import) reads them off numpy's own generator: with ``inc = 1``
and ``state = (r - 1) * MULT**-1``, the next raw output is exactly r, so a
probe at ``rabs = 1`` gives ``wi[layer]``, and ``ki[layer]`` is the least
``rabs`` whose normal leaves the state more than one step on, which
Marsaglia & Tsang's formula predicts to within one on every layer that has
a guess. The tables are then checked against the per-key generator on a
fixed key set, ~6 ms in all; should the check fail, a ``RuntimeWarning`` says so and every key takes
the per-key path, which is still bit-exact. A draw costs ~0.2–0.3 µs in
chunks of 4,096 keys (2 cores, numpy 2.4.6), against ~3.5 µs per key on the
per-key path and ~35 µs through ``measurement_stream``. A chunk's fixed cost
is ~150 array calls, so smaller chunks cost more per draw; its working set is
~130 bytes per key, ~0.5 MiB at 4,096.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

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

# Keys per chunk in simulate_range_batch, which bounds its working set.
DRAW_CHUNK = 4096

# A draw's key is (location index, rep, anchor index), each one 32-bit word of its
# seed's entropy, so a location takes at most this many visits (reps 0 .. 2**32 - 1).
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
    """Deterministically derive a stage seed from the single master seed."""
    ss = np.random.SeedSequence((master, stage))
    return int(ss.generate_state(1, np.uint64)[0])


def measurement_stream(seed: int, location_index: int, rep: int, anchor_index: int) -> np.random.Generator:
    """The dedicated random stream of one (location, rep, anchor) measurement."""
    ss = np.random.SeedSequence((seed, location_index, rep, anchor_index))
    return np.random.Generator(np.random.PCG64(ss))


def simulate_range(true_distance: float, noise: NoiseConfig, rng: np.random.Generator) -> float:
    """Draw one measured distance for a given true distance.

    Draw order on ``rng`` is fixed: Gaussian disturbance first, then (only
    when ``p_outlier`` > 0) the outlier coin and the outlier magnitude.
    """
    check_true_distances(true_distance)
    base = noise.slope * true_distance + noise.offset + rng.normal(0.0, noise.sigma)
    if noise.p_outlier > 0.0:
        if rng.random() < noise.p_outlier:
            base *= rng.uniform(*OUTLIER_MAGNITUDE)
    if base > noise.inflation_threshold:
        base *= noise.inflation_factor
    return max(base, MIN_SIMULATED_RANGE)


# numpy's SeedSequence hash (bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_SHIFT16 = np.uint32(16)

# PCG64 (pcg64.h): a 128-bit LCG stepped before each XSL-RR output; 128-bit
# numbers are (hi, lo) pairs of uint64 arrays
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_U64 = np.uint64
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & ((1 << 64) - 1))
_LIMB = _U64(_MASK32)

# numpy's standard normal (distributions.c) is a 256-layer ziggurat on one
# raw output r: layer r & 0xff, sign bit 8, magnitude (r >> 9) & (2**52 - 1)
_LAYERS = 256
_RABS_BITS = 52
_RABS_MASK = _U64((1 << _RABS_BITS) - 1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # next_double: (r >> 11) * 2**-53


def _uint32_words(n: int) -> list[int]:
    """An entropy integer as SeedSequence splits it: 32-bit words, low first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.cache
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constants of ``calls`` successive ``hashmix`` calls, as a read-only column.

    ``hashmix`` advances its constant on every call, so call ``j`` xors with
    entry ``j`` and multiplies by entry ``j + 1``.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray | np.uint32, consts: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """SeedSequence's ``hashmix``, one call per row of the result on ``values`` (broadcast).

    ``consts`` is a slice of a ``_hash_consts`` column, one entry longer
    than the number of calls.
    """
    out = np.bitwise_xor(values, consts[:-1], out=out)
    out *= consts[1:]
    out ^= out >> _SHIFT16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> None:
    """SeedSequence's ``mix(x, y)``, written into ``x``; ``y`` (broadcast) is overwritten."""
    x *= _MIX_MULT_L
    y *= _MIX_MULT_R
    x -= y
    x ^= x >> _SHIFT16


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each ``a * b``, from 32-bit limbs, in a new array."""
    b0, b1 = b & _LIMB, b >> _U64(32)
    a0, a1 = a & _LIMB, a >> _U64(32)
    carry = a0 * b0
    carry >>= _U64(32)
    mid = a1 * b0
    mid += carry  # at most (2**32 - 1)**2 + 2**32 - 1: no wrap
    np.bitwise_and(mid, _LIMB, out=carry)
    a0 *= b1
    a0 += carry  # likewise
    mid >>= _U64(32)
    a0 >>= _U64(32)
    a1 *= b1
    a1 += mid
    a1 += a0
    return a1


def _add128(a: tuple, b: tuple) -> tuple:
    """``a += b`` mod 2**128, in place; returns ``a``."""
    hi, lo = a
    lo += b[1]
    hi += b[0]
    hi += lo < b[1]
    return a


def _pcg_step(state: tuple, inc: tuple) -> tuple:
    """``state * MULT + inc`` mod 2**128, in new arrays."""
    hi, lo = state
    new_hi = _mulhi64(lo, _MULT_LO)
    term = lo * _MULT_HI
    new_hi += term
    np.multiply(hi, _MULT_LO, out=term)
    new_hi += term
    return _add128((new_hi, np.multiply(lo, _MULT_LO, out=term)), inc)


def _xsl_rr(state: tuple) -> np.ndarray:
    """PCG64's output of a stepped state: ``rotr64(hi ^ lo, hi >> 58)``."""
    hi, lo = state
    v = hi ^ lo
    rot = hi >> _U64(58)
    out = v >> rot
    np.subtract(_U64(64), rot, out=rot)
    rot &= _U64(63)
    v <<= rot
    out |= v
    return out


def _pcg64_seeded(seed: int, keys: np.ndarray) -> tuple[tuple, tuple]:
    """``PCG64(SeedSequence((seed, *key)))``'s (state, inc) for each key row.

    The keys must lie in [0, 2**32), so that each is one entropy word.
    """
    n = keys.shape[0]
    entropy = [np.uint32(w) for w in _uint32_words(seed)] + list(keys.astype(np.uint32, copy=False).T)
    # mix_entropy: one hashmix call per pool word, then each pool word mixed
    # into every other one (its calls all hash the same value), then every
    # further entropy word mixed into each pool word: four calls per word
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = np.empty((_POOL_SIZE, n), dtype=np.uint32)
    for row, word in zip(pool, entropy):
        row[...] = word
    _hashmix(pool, consts[:_POOL_SIZE + 1], out=pool)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        hashed = _hashmix(pool[src], consts[k:k + _POOL_SIZE])
        k += _POOL_SIZE - 1
        _mix(pool[:src], hashed[:src])
        _mix(pool[src + 1:], hashed[src:])
    for word in entropy[_POOL_SIZE:]:
        _mix(pool, _hashmix(word, consts[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    del entropy
    # generate_state(4, np.uint64): eight words cycling over the pool, then
    # each pair of words (low first) as one uint64
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = np.empty((2 * _POOL_SIZE, n), dtype=np.uint32)
    _hashmix(pool, consts[:_POOL_SIZE + 1], out=words[:_POOL_SIZE])
    _hashmix(pool, consts[_POOL_SIZE:], out=words[_POOL_SIZE:])
    del pool
    pairs = words[1::2].astype(np.uint64)
    pairs <<= _U64(32)
    pairs |= words[::2]
    del words
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1; state = 0, step,
    # state += initstate, step; so state = (inc + initstate) * MULT + inc
    init_hi, init_lo, inc_hi, inc_lo = pairs
    inc_hi <<= _U64(1)
    inc_hi |= inc_lo >> _U64(63)
    inc_lo <<= _U64(1)
    inc_lo |= _U64(1)
    inc = (inc_hi, inc_lo)
    return _pcg_step(_add128((init_hi, init_lo), inc), inc), inc


def _settable_generator() -> tuple[np.random.Generator, Callable[[int, int], None]]:
    """A new PCG64 generator, and a function that sets its 128-bit (state, inc)."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_gen = rng.bit_generator
    full = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
            "has_uint32": 0, "uinteger": 0}

    def set_state(state: int, inc: int) -> None:
        full["state"]["state"], full["state"]["inc"] = state, inc
        bit_gen.state = full

    return rng, set_state


def _draw_per_key(state: tuple, inc: tuple, outliers: bool) -> np.ndarray:
    """numpy's own draws from seeded PCG64 states, one row per state.

    Each state is set in turn on one generator of this call's own, which then
    draws as ``simulate_range`` does: the standard normal, then (with
    ``outliers``) the outlier coin and the ``random()`` that ``uniform``
    scales into the magnitude.
    """
    rng, set_state = _settable_generator()
    halves = [a.tolist() for a in (*state, *inc)]
    draws = []
    for sh, sl, ih, il in zip(*halves):
        set_state(sh << 64 | sl, ih << 64 | il)
        draws.append(rng.standard_normal())
        if outliers:
            draws += (rng.random(), rng.random())
    return np.array(draws, dtype=np.float64).reshape(len(halves[0]), 3 if outliers else 1)


def _draw(seed: int, keys: np.ndarray, outliers: bool, tables: tuple) -> tuple:
    """The draws of ``_draw_per_key`` for each key row, and which rows took the array path.

    A row whose first raw output takes the ziggurat's fast path (``rabs <
    ki[layer]``, so the normal is ``±rabs * wi[layer]``) is computed here
    from PCG64's first three outputs; every other row is drawn per key.
    """
    ki, wi = tables
    state, inc = _pcg64_seeded(seed, keys)
    stepped = _pcg_step(state, inc)
    r = _xsl_rr(stepped)
    layer = (r & _U64(_LAYERS - 1)).astype(np.intp)
    negative = (r & _U64(_LAYERS)).astype(bool)
    r >>= _U64(9)
    rabs = np.bitwise_and(r, _RABS_MASK, out=r)
    draws = np.empty((keys.shape[0], 3 if outliers else 1))
    z = draws[:, 0]
    z[...] = rabs
    z *= wi[layer]
    np.negative(z, out=z, where=negative)
    fast = rabs < ki[layer]
    del r, rabs, layer, negative
    for column in range(1, draws.shape[1]):
        # the outlier coin and magnitude: random() of the 2nd and 3rd outputs
        stepped = _pcg_step(stepped, inc)
        r = _xsl_rr(stepped)
        r >>= _U64(11)
        draws[:, column] = r
        draws[:, column] *= _DOUBLE_UNIT
    slow = np.flatnonzero(~fast)
    if slow.size:
        draws[slow] = _draw_per_key(
            tuple(a[slow] for a in state), tuple(a[slow] for a in inc), outliers)
    return draws, fast


# the draws _ziggurat_tables checks against the per-key generator
_CHECK_KEYS = np.column_stack([np.arange(512), np.arange(512) * 37 % 600, np.arange(512) % 3])
_CHECK_MIN_FAST = 0.95


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ``ki`` and ``wi`` tables of numpy's ziggurat, recovered once per process.

    numpy does not expose them, so each entry is read off numpy's own
    standard normal through crafted PCG64 states, then the array path is
    checked against the per-key generator on a fixed key set. Should that
    check fail, a ``RuntimeWarning`` says so and the tables come back as
    zeros, which sends every key down the per-key path.
    """
    tables = _recover_tables()
    if tables is not None:
        draws, fast = _draw(0, _CHECK_KEYS, True, tables)
        per_key = _draw_per_key(*_pcg64_seeded(0, _CHECK_KEYS), True)
        if fast.mean() >= _CHECK_MIN_FAST and np.array_equal(
                draws[fast].view(np.uint64), per_key[fast].view(np.uint64)):
            return tables
    warnings.warn(
        "this numpy's standard normal does not match the ziggurat the batched draw "
        "models; every range is drawn per key, bit-exact but slower", RuntimeWarning,
        stacklevel=3,
    )
    return np.zeros(_LAYERS, dtype=np.uint64), np.zeros(_LAYERS)


def _recover_tables() -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ziggurat ``(ki, wi)``, probed with crafted PCG64 states; None if they do not fit.

    With ``inc = 1`` and ``state = (r - 1) * MULT**-1``, the next raw output
    is exactly ``r`` (stepping lands on ``state = r``, whose high word is 0,
    so XSL-RR neither mixes nor rotates). A normal drawn from there took the
    fast path if it left the state one step on, at ``r``.
    """
    rng, set_state = _settable_generator()

    def probe(layer: int, rabs: int) -> tuple[float, bool]:
        r = rabs << 9 | layer
        set_state((r - 1) * _PCG_MULT_INV & _MASK128, 1)
        z = rng.standard_normal()
        return z, rng.bit_generator.state["state"]["state"] == r

    ki, wi = np.zeros(_LAYERS, dtype=np.uint64), np.zeros(_LAYERS)
    top = 1 << _RABS_BITS
    for layer in range(_LAYERS):
        z, fast = probe(layer, 1)
        if not fast:
            # a layer whose fast path is at most rabs == 0, where z is ±0.0 for any wi
            ki[layer] = int(probe(layer, 0)[1])
            continue
        wi[layer] = z
        # Marsaglia & Tsang: ki[i] = floor(2**52 * x[i-1] / x[i]), wi[i] = x[i] / 2**52
        guess = None
        if layer >= 2 and wi[layer - 1] > 0.0:
            guess = int(wi[layer - 1] / wi[layer] * top)
        ki[layer] = _least_slow(lambda v: probe(layer, v)[1], 1, top, guess)
    return (ki, wi) if wi.any() else None


def _least_slow(is_fast, lo: int, hi: int, guess: int | None) -> int:
    """The least v in (lo, hi] for which ``is_fast(v)`` is false, with ``is_fast(lo)`` true.

    ``is_fast`` must be monotone and ``hi`` counts as slow unprobed. Up to
    three probes walk from the guess toward the answer, which settles a guess
    one off either way; ``bisect`` searches what is left, or everything without a guess.
    """
    if guess is not None:
        v = min(max(guess, lo + 1), hi - 1)  # probe inside (lo, hi) only
        for _ in range(3):
            if not lo < v < hi:
                break
            if is_fast(v):
                lo, v = v, v + 1
            else:
                hi, v = v, v - 1
    return bisect.bisect_left(range(lo + 1, hi), True, key=lambda v: not is_fast(v)) + lo + 1


def simulate_range_batch(
    true_distances: np.ndarray, keys: np.ndarray, noise: NoiseConfig, seed: int,
) -> np.ndarray:
    """Draw one measured distance per ``(location, rep, anchor)`` key row.

    Row ``i`` is bit-identical to ``simulate_range(true_distances[i], noise,
    measurement_stream(seed, *keys[i]))``. Keys are processed in chunks of
    ``DRAW_CHUNK``; each must lie in [0, 2**32).
    """
    d = np.asarray(true_distances, dtype=float)
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] != 3 or d.shape != keys.shape[:1]:
        raise ValueError(f"expected (n,) distances and (n, 3) keys, got {d.shape} and {keys.shape}")
    if keys.dtype.kind not in "iu":
        raise TypeError(f"keys must be integers, got {keys.dtype}")
    if seed < 0 or (keys.size and keys.min() < 0):
        raise ValueError("expected non-negative integer")
    if keys.size and keys.max() > _MASK32:
        raise ValueError(f"keys must lie in [0, 2**32), got {keys.max()}")
    check_true_distances(d)
    out = np.empty(d.size)
    outliers = noise.p_outlier > 0.0
    tables = _ziggurat_tables() if d.size else None  # an empty batch recovers nothing
    for start in range(0, d.size, DRAW_CHUNK):
        chunk = slice(start, start + DRAW_CHUNK)
        draws, _ = _draw(seed, keys[chunk], outliers, tables)
        _noisy_reading(d[chunk], draws, noise, out[chunk])
    return out


def _noisy_reading(d: np.ndarray, draws: np.ndarray, noise: NoiseConfig, out: np.ndarray) -> None:
    """simulate_range's arithmetic on arrays, in its operation order, written into ``out``.

    ``draws`` holds one row per distance: the standard normal, then (only
    when ``p_outlier`` > 0) the outlier coin and the ``random()`` of the
    magnitude; it is overwritten.
    """
    # an overflow gives inf silently, as in simulate_range; callers reject it
    with np.errstate(over="ignore"):
        np.multiply(d, noise.slope, out=out)
        out += noise.offset
        # Generator.normal(0, sigma) returns 0 + sigma * z
        z = draws[:, 0]
        z *= noise.sigma
        z += 0.0
        out += z
        if noise.p_outlier > 0.0:
            # Generator.uniform(low, high) returns low + (high - low) * random()
            low, high = OUTLIER_MAGNITUDE
            magnitude = draws[:, 2]
            magnitude *= high - low
            magnitude += low
            np.multiply(out, magnitude, out=out, where=draws[:, 1] < noise.p_outlier)
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
    keys = np.empty((m, reps, 3, 3), dtype=np.uint32)  # one entropy word each, as the draw needs
    keys[..., 0] = np.arange(m)[:, None, None]
    keys[..., 1] = np.arange(reps)[:, None]
    keys[..., 2] = np.arange(3)
    d = np.broadcast_to(true_d[:, None, :], (m, reps, 3))
    return simulate_range_batch(d.ravel(), keys.reshape(-1, 3), noise, seed).reshape(m, reps, 3)


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
