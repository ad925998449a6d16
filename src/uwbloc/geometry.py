"""Planar geometry primitives and the closed-form trilateration solver.

Every length in this package is a millimeter. Positions live in a
rectangular test area whose origin is the lower-left corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CollinearAnchorsError",
    "NonFiniteRangeError",
    "PointMM",
    "AnchorLayout",
    "RangeTriple",
    "DEFAULT_ANCHORS",
    "distance",
    "triangle_area",
    "trilaterate",
]

# Anchor triangles flatter than this (mm^2) are rejected as collinear.
MIN_ANCHOR_TRIANGLE_AREA = 1e-6


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


def distance(p: PointMM, q: PointMM) -> float:
    """Euclidean distance between two points, in mm."""
    return math.hypot(p.x - q.x, p.y - q.y)


def triangle_area(a: PointMM, b: PointMM, c: PointMM) -> float:
    """Unsigned area of the triangle spanned by three points."""
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2.0


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
        # written so that a NaN area (overflow) counts as collinear
        if not triangle_area(self.a, self.b, self.c) > MIN_ANCHOR_TRIANGLE_AREA:
            raise CollinearAnchorsError(
                f"anchors {self.a.as_tuple()}, {self.b.as_tuple()}, "
                f"{self.c.as_tuple()} are (nearly) collinear"
            )

    def as_tuple(self) -> tuple[PointMM, PointMM, PointMM]:
        return (self.a, self.b, self.c)


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
            if not math.isfinite(v):
                raise NonFiniteRangeError(f"range must be finite, got {v}")
            if v <= 0.0:
                raise ValueError(f"range must be positive, got {v}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d_a, self.d_b, self.d_c)


def trilaterate(anchors: AnchorLayout, ranges: RangeTriple) -> PointMM:
    """Solve for the position implied by three anchor distances.

    Subtracting anchor A's circle equation from B's and C's removes the
    quadratic terms and leaves a 2x2 linear system, solved exactly by
    Cramer's rule. The result is not clamped to the test area; callers
    that care about the area check it themselves.

    Raises:
        CollinearAnchorsError: the linear system is singular.
        NonFiniteRangeError: a range is NaN or infinite.
    """
    for v in ranges.as_tuple():
        if not math.isfinite(v):
            raise NonFiniteRangeError(f"range must be finite, got {v}")

    (ax, ay), (bx, by), (cx, cy) = (p.as_tuple() for p in anchors.as_tuple())
    da, db, dc = ranges.as_tuple()

    m11 = 2.0 * (ax - bx)
    m12 = 2.0 * (ay - by)
    m21 = 2.0 * (ax - cx)
    m22 = 2.0 * (ay - cy)
    r1 = (db * db - da * da) + (ax * ax + ay * ay) - (bx * bx + by * by)
    r2 = (dc * dc - da * da) + (ax * ax + ay * ay) - (cx * cx + cy * cy)

    det = m11 * m22 - m12 * m21
    if abs(det) < 1e-9:
        raise CollinearAnchorsError("anchor geometry yields a singular system")

    x = (r1 * m22 - m12 * r2) / det
    y = (m11 * r2 - r1 * m21) / det
    return PointMM(x, y)
