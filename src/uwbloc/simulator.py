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
draw. ``simulate_range_batch`` reproduces it for arrays of keys: it hashes
the keys the way ``SeedSequence`` does, seeds the PCG64 states the way
``PCG64`` does, and sets each state on one reused generator, so every
value is bit-identical to the single-draw path without building a
generator per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import FileFormatError, parse_number, read_text
from .geometry import AnchorLayout, PointMM, check_ranges, distances

__all__ = [
    "NoiseConfig",
    "IDENTITY_NOISE",
    "Campaign",
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
DRAW_CHUNK = 1024

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


#: Noise-free pass-through model: measured == true. Handy in tests.
IDENTITY_NOISE = NoiseConfig(slope=1.0, offset=0.0, sigma=0.0, inflation_factor=1.0)


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
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")


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
    if not (math.isfinite(true_distance) and true_distance >= 0.0):
        raise ValueError(f"true distance must be finite and >= 0, got {true_distance}")
    base = noise.slope * true_distance + noise.offset + rng.normal(0.0, noise.sigma)
    if noise.p_outlier > 0.0:
        if rng.random() < noise.p_outlier:
            base *= rng.uniform(1.5, 3.0)
    if base > noise.inflation_threshold:
        base *= noise.inflation_factor
    return max(base, MIN_SIMULATED_RANGE)


# numpy's SeedSequence hash (bit_generator.pyx) and PCG64 seeding (pcg64.c)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """An entropy integer as SeedSequence splits it: 32-bit words, low first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


class _HashMix:
    """SeedSequence's ``hashmix``, whose multiplier advances on every call."""

    def __init__(self, init: int, mult: int) -> None:
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _pcg64_states(seed: int, keys: np.ndarray) -> Iterator[dict]:
    """``PCG64(SeedSequence((seed, *key))).state``, key row by key row.

    The keys must lie in [0, 2**32), so that each is one entropy word. One
    dict is updated in place and yielded for every key.
    """
    n = keys.shape[0]
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy += [keys[:, j].astype(np.uint32) for j in range(3)]
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state(4, np.uint64): eight words cycling over the pool
    hashmix = _HashMix(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | (words[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)
    )
    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
             "has_uint32": 0, "uinteger": 0}
    pcg = state["state"]
    for sh, sl, ih, il in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg_setseq_128_srandom_r: state = 0, step, state += initstate, step
        inc = (((ih << 64) | il) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + ((sh << 64) | sl)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        yield state


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
    bad = ~(np.isfinite(d) & (d >= 0.0))
    if bad.any():
        v = float(d[np.argmax(bad)])
        raise ValueError(f"true distance must be finite and >= 0, got {v}")
    outliers = noise.p_outlier > 0.0
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    normal, coin, magnitude = rng.standard_normal, rng.random, rng.uniform
    out = np.empty(d.size)
    for start in range(0, d.size, DRAW_CHUNK):
        chunk = slice(start, min(start + DRAW_CHUNK, d.size))
        draws = np.empty((chunk.stop - start, 3 if outliers else 1))
        for row, state in enumerate(_pcg64_states(seed, keys[chunk])):
            bit_gen.state = state
            # the draw order of simulate_range
            draws[row] = (normal(), coin(), magnitude(1.5, 3.0)) if outliers else normal()
        out[chunk] = _noisy_reading(d[chunk], draws, noise)
    return out


def _noisy_reading(d: np.ndarray, draws: np.ndarray, noise: NoiseConfig) -> np.ndarray:
    """simulate_range's arithmetic on arrays, in its operation order.

    ``draws`` holds one row per distance: the standard normal, then (only
    when ``p_outlier`` > 0) the outlier coin and magnitude.
    """
    # an overflow gives inf silently, as in simulate_range; callers reject it
    with np.errstate(over="ignore"):
        # Generator.normal(0, sigma) returns 0 + sigma * z
        base = noise.slope * d + noise.offset + (0.0 + noise.sigma * draws[:, 0])
        if noise.p_outlier > 0.0:
            base = np.where(draws[:, 1] < noise.p_outlier, base * draws[:, 2], base)
        base = np.where(base > noise.inflation_threshold, base * noise.inflation_factor, base)
    return np.maximum(base, MIN_SIMULATED_RANGE)


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
    true_d = np.array([distances(xy, a) for a in anchors.as_tuple()]).reshape(3, m).T
    keys = np.empty((m, reps, 3, 3), dtype=np.int64)
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
    lines = [MEASUREMENT_HEADER]
    for rec in records:
        x, y = rec.location.as_tuple()
        lines += (f"{x!r},{y!r},{da!r},{db!r},{dc!r}" for da, db, dc in rec.ranges.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measurements(path: str) -> list[Visits]:
    """Parse a measurement file into one record per distinct (x, y), in order of first appearance.

    A location's readings keep their file order, wherever its rows fall.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != MEASUREMENT_HEADER:
        raise FileFormatError(f"{path}: expected header '{MEASUREMENT_HEADER}'")
    groups: dict[tuple[float, float], tuple[PointMM, list[float]]] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FileFormatError(f"{path}:{ln}: expected 5 fields, got {len(parts)}")
        try:
            x, y, *ranges = (parse_number(p) for p in parts)
            # PointMM rejects a non-finite coordinate before it can become a key
            if (x, y) not in groups:
                groups[(x, y)] = (PointMM(x, y), [])
            check_ranges(ranges)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln}: {exc}") from exc
        groups[(x, y)][1].extend(ranges)
    return [Visits(loc, np.reshape(values, (-1, 3))) for loc, values in groups.values()]
