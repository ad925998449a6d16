import collections
import decimal
import math
import sys
import tracemalloc

import numpy as np
import pytest

from uwbloc import geometry
from uwbloc.geometry import (
    AnchorLayout,
    CollinearAnchorsError,
    DEFAULT_ANCHORS,
    NonFiniteRangeError,
    PointMM,
    RangeTriple,
    distance,
    check_ranges,
    triangle_area,
    trilaterate,
)
from uwbloc.fingerprint import GridSpec, cell_vertices

import oracles


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PointMM(math.nan, 0.0)
    with pytest.raises(ValueError):
        PointMM(0.0, math.inf)


def test_point_is_within_includes_borders():
    assert PointMM(0.0, 0.0).is_within(1000.0, 2000.0)
    assert PointMM(1000.0, 2000.0).is_within(1000.0, 2000.0)
    assert not PointMM(1000.0001, 0.0).is_within(1000.0, 2000.0)
    assert not PointMM(0.0, -0.0001).is_within(1000.0, 2000.0)


def test_distance_known_value():
    # 800^2 + 1800^2 = 3880000
    (d,) = distance(np.array([[100.0, 100.0]]), PointMM(900.0, 1900.0))
    assert math.isclose(d, math.sqrt(3880000.0), rel_tol=1e-12)
    empty = distance(np.empty((0, 2)), PointMM(0.0, 0.0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# a point that may hold inf or NaN, which PointMM rejects
_Pair = collections.namedtuple("_Pair", "x y")


def _assert_same_bits(got, want):
    """Equal bit for bit, where a NaN equals any NaN."""
    want = np.array(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_distance_matches_the_pair_oracle_bit_for_bit():
    # what the pipelines measure: grid vertices, test points and trilaterated
    # positions (some outside the area) against anchors and test points
    rng = np.random.default_rng(5)
    xy = np.vstack([
        np.stack(np.meshgrid(np.arange(41) * 25.0, np.arange(81) * 25.0), axis=-1).reshape(-1, 2),
        rng.uniform((-500.0, -500.0), (1500.0, 2500.0), size=(2000, 2)),
        [[250.0, 1500.0], [500.0, 0.0], [1e-300, -0.0]],
    ])
    for p in (*DEFAULT_ANCHORS.as_tuple(), PointMM(250.0, 1500.0), PointMM(333.3, 1e-9)):
        want = [oracles.distance(PointMM(x, y), p) for x, y in xy.tolist()]
        got = distance(xy, p)
        assert isinstance(got, np.ndarray) and got.shape == (xy.shape[0],)
        _assert_same_bits(got, want)
    # the whole double range: squares that underflow to 0 or overflow to inf, and NaN
    big, tiny = sys.float_info.max, sys.float_info.min
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, -tiny, 5.225277735244087e-309,
             5.76415034495e-313, 1e-300, -1e-300, 1.0, 1e300, -1e300, big, -big, math.inf,
             -math.inf, math.nan]
    dx, dy = (a.ravel() for a in np.meshgrid(edges, edges))
    rng = np.random.default_rng(9)
    n = 200_000
    wide = [np.where(rng.random(n) < 0.5, -1.0, 1.0) * np.ldexp(rng.uniform(1.0, 2.0, n),
                                                                  rng.integers(-1074, 1024, n))
            for _ in range(2)]
    # close exponents: neither square is negligible beside the other
    e = rng.integers(-1020, 990, n)
    close = [np.ldexp(rng.uniform(0.5, 1.0, n), e),
             np.ldexp(rng.uniform(0.5, 1.0, n), e + rng.integers(-30, 30, n))]
    # mm-scale differences, whole and fractional
    mm = [rng.uniform(-3000.0, 3000.0, n), np.round(rng.uniform(-3000.0, 3000.0, n), 1)]
    # the pair as given, and its difference from a point: the subtraction is exact only from 0
    for p in (PointMM(0.0, 0.0), PointMM(1.0, -2.0)):
        for x, y in ((dx, dy), wide, close, mm):
            want = [oracles.distance(q, p) for q in map(_Pair, x.tolist(), y.tolist())]
            _assert_same_bits(distance(np.column_stack([x, y]), p), want)


def test_true_distances_are_exact_on_the_grid():
    # the rule is exact where the pipelines use it: vertices and anchors have
    # whole-mm coordinates, so dx*dx + dy*dy is an exact integer and its rounded
    # root is the correctly rounded distance. 40 digits decide the rounding: an
    # irrational root lies > 1e-33 (relative) from every midpoint between doubles.
    ctx = decimal.Context(prec=40)
    anchors = np.array([a.as_tuple() for a in DEFAULT_ANCHORS.as_tuple()], dtype=np.int64)
    for spacing in (25.0, 10.0):
        xy = cell_vertices(GridSpec(spacing=spacing))
        got = DEFAULT_ANCHORS.true_distances(xy)
        whole = xy.astype(np.int64)
        assert np.array_equal(whole, xy)
        n2 = ((whole[:, None] - anchors) ** 2).sum(axis=-1)
        want = [float(ctx.sqrt(v)) for v in n2.ravel().tolist()]
        assert got.ravel().tolist() == want


def test_distance_broadcasts_an_array_of_points():
    rng = np.random.default_rng(10)
    xy = rng.uniform(-500.0, 2500.0, size=(7, 5, 2))
    points = rng.uniform(0.0, 2000.0, size=(7, 2))
    got = distance(xy, points[:, None])
    assert got.shape == (7, 5)
    for i, p in enumerate(points.tolist()):
        assert got[i].tobytes() == distance(xy[i], PointMM(*p)).tobytes()


def test_true_distances_are_the_three_distance_columns_bit_for_bit():
    rng = np.random.default_rng(6)
    grid = np.stack(np.meshgrid(np.arange(41) * 25.0, np.arange(81) * 25.0), axis=-1).reshape(-1, 2)
    signed_zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 2000.0],
                             [1000.0, -0.0]])
    layouts = (
        DEFAULT_ANCHORS,
        AnchorLayout(PointMM(-0.0, -0.0), PointMM(-0.0, 2000.0), PointMM(1000.0, -0.0)),
        AnchorLayout(PointMM(120.5, -30.0), PointMM(-7.25, 1999.9), PointMM(1e3, 3e3)),
    )
    for xy in (grid, rng.uniform((-500.0, -500.0), (1500.0, 2500.0), size=(2000, 2)), signed_zeros,
               np.empty((0, 2))):
        for anchors in layouts:
            want = np.column_stack([distance(xy, a) for a in anchors.as_tuple()])
            got = anchors.true_distances(xy)
            assert got.shape == (xy.shape[0], 3)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_true_distances_are_the_distance_columns_across_slice_edges(monkeypatch, rows):
    monkeypatch.setattr(geometry, "_DISTANCE_ROWS", rows)
    rng = np.random.default_rng(7)
    anchors = AnchorLayout(PointMM(120.5, -30.0), PointMM(-7.25, 1999.9), PointMM(1e3, 3e3))
    for n in sorted({0, 1, rows - 1, rows, rows + 1, 3 * rows, 3 * rows + 2, 200}):
        xy = rng.uniform((-500.0, -500.0), (1500.0, 2500.0), size=(n, 2))
        want = np.column_stack([distance(xy, a) for a in anchors.as_tuple()])
        assert anchors.true_distances(xy).tobytes() == want.tobytes()


def test_true_distances_peak_stays_near_the_table(monkeypatch):
    # a slice of rows at a time: Python floats for all 50,000 rows would take ~5x the table
    monkeypatch.setattr(geometry, "_DISTANCE_ROWS", 1 << 12, raising=False)
    xy = np.random.default_rng(8).uniform(0.0, 2000.0, size=(50_000, 2))
    tracemalloc.start()
    try:
        d = DEFAULT_ANCHORS.true_distances(xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * d.nbytes


def test_triangle_area_right_triangle():
    a = PointMM(0.0, 0.0)
    b = PointMM(0.0, 2000.0)
    c = PointMM(1000.0, 0.0)
    assert triangle_area(a, b, c) == 1_000_000.0


def test_default_anchors_are_the_corner_deployment():
    assert DEFAULT_ANCHORS.a.as_tuple() == (0.0, 0.0)
    assert DEFAULT_ANCHORS.b.as_tuple() == (0.0, 2000.0)
    assert DEFAULT_ANCHORS.c.as_tuple() == (1000.0, 0.0)


def test_anchor_layout_rejects_collinear():
    with pytest.raises(CollinearAnchorsError):
        AnchorLayout(PointMM(0.0, 0.0), PointMM(500.0, 500.0), PointMM(1000.0, 1000.0))
    with pytest.raises(CollinearAnchorsError):  # the area overflows to NaN
        AnchorLayout(PointMM(0.0, 0.0), PointMM(1e300, 1e300), PointMM(2e300, 2e300))


@pytest.mark.parametrize("b, c", [
    ((0.0, 1e308), (1e308, 0.0)),  # the area overflows to inf
    ((0.0, 2e154), (1e150, 0.0)),  # the area is finite, the squared norm of B is not
    ((0.0, 1e154), (1.3e154, 0.0)),  # the area and norms are finite, the determinant is not
])
def test_anchor_layout_rejects_overflowing_coordinates(b, c):
    with pytest.raises(ValueError, match="overflow"):
        AnchorLayout(PointMM(0.0, 0.0), PointMM(*b), PointMM(*c))


def test_anchor_layout_coerces_tuples():
    layout = AnchorLayout((0.0, 0.0), (0.0, 10.0), (10.0, 0.0))
    assert isinstance(layout.a, PointMM)
    assert layout.b.y == 10.0


def test_range_triple_validation():
    with pytest.raises(NonFiniteRangeError):
        RangeTriple(math.nan, 1.0, 1.0)
    with pytest.raises(NonFiniteRangeError):
        RangeTriple(1.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        RangeTriple(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RangeTriple(1.0, 1.0, -3.0)
    assert RangeTriple(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)


def _true_ranges(xy):
    """(n, 3) distances from each row of ``xy`` to the default anchors A, B and C."""
    return np.column_stack([distance(xy, a) for a in DEFAULT_ANCHORS.as_tuple()])


def test_trilaterate_hand_checked_case():
    # A(0,0), B(0,10), C(10,0), tag at (3,4): the 2x2 system solves exactly.
    layout = AnchorLayout(PointMM(0.0, 0.0), PointMM(0.0, 10.0), PointMM(10.0, 0.0))
    ranges = (5.0, math.sqrt(45.0), math.sqrt(65.0))
    (est,) = trilaterate(layout, [ranges]).tolist()
    assert est == list(_reference_trilaterate(layout, *ranges))
    assert math.isclose(est[0], 3.0, abs_tol=1e-9)
    assert math.isclose(est[1], 4.0, abs_tol=1e-9)


def test_trilaterate_recovers_random_points():
    rng = np.random.default_rng(11)
    xy = rng.uniform((1.0, 1.0), (999.0, 1999.0), size=(50, 2))
    est = trilaterate(DEFAULT_ANCHORS, _true_ranges(xy))
    assert np.hypot(*(est - xy).T).max() < 1e-9


def test_trilaterate_result_is_not_clamped():
    # ranges consistent with a point outside the 1m x 2m area
    x, y = trilaterate(DEFAULT_ANCHORS, _true_ranges(np.array([[1500.0, 2500.0]])))[0]
    assert x > 1000.0 and y > 2000.0


def test_trilaterate_rejects_non_finite_ranges():
    with pytest.raises(NonFiniteRangeError):
        trilaterate(DEFAULT_ANCHORS, [[math.inf, 100.0, 100.0]])


def _reference_trilaterate(anchors, da, db, dc):
    """The per-triple solver in Python floats, as it stood before the array path."""
    (ax, ay), (bx, by), (cx, cy) = (p.as_tuple() for p in anchors.as_tuple())
    m11, m12, m21, m22 = 2.0 * (ax - bx), 2.0 * (ay - by), 2.0 * (ax - cx), 2.0 * (ay - cy)
    r1 = (db * db - da * da) + (ax * ax + ay * ay) - (bx * bx + by * by)
    r2 = (dc * dc - da * da) + (ax * ax + ay * ay) - (cx * cx + cy * cy)
    det = m11 * m22 - m12 * m21
    return (r1 * m22 - m12 * r2) / det, (m11 * r2 - r1 * m21) / det


def test_trilaterate_matches_the_per_triple_solver_bit_for_bit():
    rng = np.random.default_rng(3)
    layout = AnchorLayout(PointMM(-3.5, 7.25), PointMM(40.0, 2300.0), PointMM(1100.0, -15.0))
    ranges = rng.uniform(1.0, 3000.0, size=(500, 3))
    got = trilaterate(layout, ranges)
    want = np.array([_reference_trilaterate(layout, *row) for row in ranges.tolist()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert trilaterate(layout, np.empty((0, 3))).shape == (0, 2)


def test_trilaterate_rejects_bad_rows():
    with pytest.raises(NonFiniteRangeError, match="got nan"):
        trilaterate(DEFAULT_ANCHORS, [[1.0, 2.0, 3.0], [4.0, np.nan, np.inf]])
    with pytest.raises(ValueError, match="coordinates must be finite"):
        trilaterate(DEFAULT_ANCHORS, [[1.0, 2.0, 3.0], [1e200, 1.0, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        trilaterate(DEFAULT_ANCHORS, [1.0, 2.0, 3.0])


def test_trilaterate_rejects_non_positive_ranges():
    # rows that solve to (500, 250) and (-0, -0) are rejected as check_ranges rejects them
    with pytest.raises(ValueError, match="^range must be positive, got -1000.0$"):
        trilaterate(DEFAULT_ANCHORS, [[-1000, 2000, 1000], [0, 2000, 1000]])


def test_check_ranges_raises_what_range_triple_raises_for_the_first_bad_entry():
    check_ranges(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(NonFiniteRangeError, match="got inf"):
        check_ranges(np.array([[1.0, 2.0, 3.0], [np.inf, -1.0, 2.0]]))
    with pytest.raises(ValueError, match="positive, got -1.0"):
        check_ranges(np.array([[1.0, 2.0, 3.0], [1.0, -1.0, np.inf]]))
