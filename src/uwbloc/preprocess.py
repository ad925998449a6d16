"""Cleanup of repeated range measurements: outlier rejection and bias correction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import RangeTriple, check_ranges

__all__ = [
    "EmptySeriesError",
    "CorrectionPolicy",
    "MAD_SCALE_NORMAL",
    "check_mad_setting",
    "mad_keep_mask",
    "correct_range_batch",
    "correct_triple",
]

# Consistency constant that makes the MAD estimate sigma for normal data.
MAD_SCALE_NORMAL = 1.4826


class EmptySeriesError(ValueError):
    """A sample series has no entries."""


def check_mad_setting(k: float, scale: float) -> None:
    """Reject a MAD rule whose ``k`` or ``scale`` is not positive and finite."""
    if not (0.0 < k < np.inf and 0.0 < scale < np.inf):
        raise ValueError(f"k and scale must be positive and finite, got k={k}, scale={scale}")


def mad_keep_mask(values: Sequence[float], k: float = 3.0, scale: float = MAD_SCALE_NORMAL) -> np.ndarray:
    """Boolean mask of the samples that survive the MAD outlier rule.

    ``values`` is one series, or an (n, c) array whose c columns are
    series; each column has its own median and cutoff. A value is kept
    when |v - median| <= k * scale * MAD, where MAD is the median absolute
    deviation from the median. The rule is a pure inequality: a zero MAD
    keeps only values exactly equal to the median.
    """
    check_mad_setting(k, scale)
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"samples must be one series or an (n, c) array of them, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptySeriesError("sample series is empty")
    check_ranges(arr)
    dev = np.abs(arr - np.median(arr, axis=0))
    return dev <= k * scale * np.median(dev, axis=0)


@dataclass(frozen=True)
class CorrectionPolicy:
    """Multiplicative shrink applied to suspiciously long measurements.

    Measured distances above ``threshold`` mm are scaled by ``ratio``;
    everything at or below the threshold passes through untouched.
    ``ratio`` = 1.0 disables the correction.
    """

    threshold: float = 1000.0
    ratio: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not (math.isfinite(self.ratio) and 0.0 < self.ratio <= 1.0):
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")


def correct_range_batch(measured: np.ndarray, policy: CorrectionPolicy) -> np.ndarray:
    """Apply the long-range correction to every measured distance in an array.

    The distances must be valid ranges (``check_ranges``).
    """
    arr = np.asarray(measured, dtype=float)
    check_ranges(arr)
    return np.where(arr > policy.threshold, arr * policy.ratio, arr)


def correct_triple(ranges: RangeTriple, policy: CorrectionPolicy) -> RangeTriple:
    """Apply the long-range correction to each component of a triple."""
    return RangeTriple(*correct_range_batch(ranges.as_tuple(), policy).tolist())
