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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, read_text
from .geometry import AnchorLayout, PointMM, RangeTriple, distance

__all__ = [
    "NoiseConfig",
    "IDENTITY_NOISE",
    "Campaign",
    "MeasurementSet",
    "STAGE_OBSERVATION",
    "STAGE_TRIALS",
    "STAGE_SELECTION",
    "STAGE_AUGMENT",
    "STAGE_FOREST",
    "derive_seed",
    "measurement_stream",
    "simulate_range",
    "simulate_campaign",
    "write_measurements",
    "read_measurements",
]

# Simulated readings never drop below this floor (mm).
MIN_SIMULATED_RANGE = 1.0

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


@dataclass(frozen=True)
class MeasurementSet:
    """One synchronized reading: where the tag stood and what it measured."""

    location: PointMM
    ranges: RangeTriple


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


def simulate_campaign(campaign: Campaign) -> list[MeasurementSet]:
    """Run a full campaign and return its rows in (location, rep) order."""
    rows: list[MeasurementSet] = []
    anchor_points = campaign.anchors.as_tuple()
    for li, loc in enumerate(campaign.locations):
        true_d = [distance(loc, a) for a in anchor_points]
        for rep in range(campaign.reps):
            vals = [
                simulate_range(true_d[ai], campaign.noise,
                               measurement_stream(campaign.noise.seed, li, rep, ai))
                for ai in range(3)
            ]
            rows.append(MeasurementSet(loc, RangeTriple(*vals)))
    return rows


MEASUREMENT_HEADER = "loc_x,loc_y,d_a,d_b,d_c"


def write_measurements(path: str, rows: list[MeasurementSet]) -> None:
    """Write campaign rows as delimited text with full float precision."""
    lines = [MEASUREMENT_HEADER]
    for row in rows:
        x, y = row.location.as_tuple()
        da, db, dc = row.ranges.as_tuple()
        lines.append(f"{x!r},{y!r},{da!r},{db!r},{dc!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measurements(path: str) -> list[MeasurementSet]:
    """Parse a measurement file back into campaign rows."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != MEASUREMENT_HEADER:
        raise FileFormatError(f"{path}: expected header '{MEASUREMENT_HEADER}'")
    rows: list[MeasurementSet] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FileFormatError(f"{path}:{ln}: expected 5 fields, got {len(parts)}")
        try:
            x, y, da, db, dc = (float(p) for p in parts)
            rows.append(MeasurementSet(PointMM(x, y), RangeTriple(da, db, dc)))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln}: {exc}") from exc
    return rows
