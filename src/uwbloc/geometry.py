"""Planar geometry primitives and the closed-form trilateration solver.

Every length in this package is a millimeter. Positions live in a
rectangular test area whose origin is the lower-left corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CollinearAnchorsError",
    "NonFiniteRangeError",
    "PointMM",
    "AnchorLayout",
    "RangeTriple",
    "DEFAULT_ANCHORS",
    "distance",
    "triangle_area",
    "check_ranges",
    "check_true_distances",
    "trilaterate",
]

# Anchor triangles flatter than this (mm^2) are rejected as collinear.
MIN_ANCHOR_TRIANGLE_AREA = 1e-6

# Rows AnchorLayout.true_distances converts at a time, which bounds its peak memory.
_DISTANCE_ROWS = 1 << 12


class CollinearAnchorsError(ValueError):
    """Anchor triangle is degenerate; the position system is singular."""


class NonFiniteRangeError(ValueError):
    """A range value is NaN or infinite."""


@dataclass(frozen=True)
class PointMM:
    """A 2-D position in millimeters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def is_within(self, width: float, height: float) -> bool:
        """True if the point lies inside [0, width] x [0, height] (borders included)."""
        return 0.0 <= self.x <= width and 0.0 <= self.y <= height

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def distance(xy: np.ndarray, p: PointMM | np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of an (..., 2) array to ``p``, in mm.

    ``p`` is a point or an array of points that broadcasts against the rows
    of ``xy``. Each distance is ``sqrt(dx*dx + dy*dy)`` in doubles: IEEE 754
    rounds each step correctly and numpy fuses none, so the bits are the same
    on every platform. Where the sum of squares is exact, as on a grid of whole
    millimetres, the distance is correctly rounded. A square above the double
    range gives inf.
    """
    p = np.asarray(p.as_tuple() if isinstance(p, PointMM) else p, dtype=float)
    dx = xy[..., 0] - p[..., 0]
    dy = xy[..., 1] - p[..., 1]
    # an overflowing square is inf, which check_true_distances and check_ranges reject
    with np.errstate(over="ignore"):
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)


def triangle_area(a: PointMM, b: PointMM, c: PointMM) -> float:
    """Unsigned area of the triangle spanned by three points."""
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2.0


def _solver_terms(a: PointMM, b: PointMM, c: PointMM) -> tuple[float, ...]:
    """The anchor-only terms of the trilateration system for anchors A, B, C.

    Returns the matrix entries m11, m12, m21, m22, its determinant, and
    the squared norms of the three anchors.
    """
    (ax, ay), (bx, by), (cx, cy) = a.as_tuple(), b.as_tuple(), c.as_tuple()
    m11 = 2.0 * (ax - bx)
    m12 = 2.0 * (ay - by)
    m21 = 2.0 * (ax - cx)
    m22 = 2.0 * (ay - cy)
    det = m11 * m22 - m12 * m21
    return m11, m12, m21, m22, det, ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy


@dataclass(frozen=True)
class AnchorLayout:
    """Fixed positions of the three ranging anchors A, B and C.

    The anchors must form a proper triangle; a flat layout cannot resolve
    a 2-D position and is rejected at construction time.
    """

    a: PointMM
    b: PointMM
    c: PointMM

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, PointMM):
                object.__setattr__(self, name, PointMM(*v))
        corners = f"{self.a.as_tuple()}, {self.b.as_tuple()}, {self.c.as_tuple()}"
        area = triangle_area(self.a, self.b, self.c)
        # written so that a NaN area (overflow) counts as collinear
        if not area > MIN_ANCHOR_TRIANGLE_AREA:
            raise CollinearAnchorsError(f"anchors {corners} are (nearly) collinear")
        if not all(math.isfinite(v) for v in (area, *_solver_terms(self.a, self.b, self.c))):
            raise ValueError(f"anchors {corners} overflow the trilateration system")

    def as_tuple(self) -> tuple[PointMM, PointMM, PointMM]:
        return (self.a, self.b, self.c)

    def true_distances(self, xy: np.ndarray) -> np.ndarray:
        """Distance from each row of an (n, 2) array to anchors A, B and C: an (n, 3) array."""
        d = np.empty((xy.shape[0], 3))
        anchors = np.array([a.as_tuple() for a in self.as_tuple()])
        for start in range(0, len(d), _DISTANCE_ROWS):
            d[start : start + _DISTANCE_ROWS] = distance(xy[start : start + _DISTANCE_ROWS, None], anchors)
        return d


#: Corner deployment used by the reference hardware setup: A at the origin,
#: B at the far end of the y axis, C at the far end of the x axis.
DEFAULT_ANCHORS = AnchorLayout(PointMM(0.0, 0.0), PointMM(0.0, 2000.0), PointMM(1000.0, 0.0))


@dataclass(frozen=True)
class RangeTriple:
    """One synchronized distance measurement to anchors A, B and C (mm)."""

    d_a: float
    d_b: float
    d_c: float

    def __post_init__(self) -> None:
        for v in (self.d_a, self.d_b, self.d_c):
            _check_range(v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d_a, self.d_b, self.d_c)


def _check_range(v: float) -> None:
    if not math.isfinite(v):
        raise NonFiniteRangeError(f"range must be finite, got {v}")
    if v <= 0.0:
        raise ValueError(f"range must be positive, got {v}")


def check_ranges(ranges: np.ndarray) -> None:
    """Reject an array of ranges the way RangeTriple rejects one value.

    Training vectors, fingerprints, observation sets, MAD samples and measured
    ranges are all checked here. The first bad entry in row-major order decides the error.
    """
    flat = np.asarray(ranges, dtype=float).ravel()
    bad = ~(np.isfinite(flat) & (flat > 0.0))
    if bad.any():
        _check_range(float(flat[np.argmax(bad)]))


def check_true_distances(true_distances: float | np.ndarray) -> None:
    """Reject the first true distance, in row-major order, that is not finite and >= 0."""
    d = np.asarray(true_distances, dtype=float).ravel()
    bad = ~(np.isfinite(d) & (d >= 0.0))
    if bad.any():
        raise ValueError(f"true distance must be finite and >= 0, got {float(d[np.argmax(bad)])}")


def trilaterate(anchors: AnchorLayout, ranges: np.ndarray) -> np.ndarray:
    """Solve for the positions implied by rows of anchor distances.

    ``ranges`` is (n, 3), columns A, B and C; the result is (n, 2), columns
    x and y. Subtracting anchor A's circle equation from B's and C's
    removes the quadratic terms and leaves a 2x2 linear system per row,
    solved exactly by Cramer's rule. Positions are not clamped to the test
    area; callers that care about the area check it themselves.

    Raises:
        NonFiniteRangeError: a range is NaN or infinite.
        ValueError: a range is not positive, or a solved position is not finite.
    """
    r = np.asarray(ranges, dtype=float)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ValueError(f"expected (n, 3) ranges, got shape {r.shape}")
    check_ranges(r)

    # never singular: |det| is exactly 8x the anchor triangle area, which AnchorLayout keeps > 1e-6
    m11, m12, m21, m22, det, norm_a, norm_b, norm_c = _solver_terms(*anchors.as_tuple())
    da, db, dc = r.T
    # overflow ends in a non-finite position, reported below, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = (db * db - da * da) + norm_a - norm_b
        r2 = (dc * dc - da * da) + norm_a - norm_c
        xy = np.column_stack(((r1 * m22 - m12 * r2) / det, (m11 * r2 - r1 * m21) / det))
    nonfinite = ~np.isfinite(xy).all(axis=1)
    if nonfinite.any():
        x, y = xy[np.argmax(nonfinite)].tolist()
        raise ValueError(f"coordinates must be finite, got ({x}, {y})")
    return xy

