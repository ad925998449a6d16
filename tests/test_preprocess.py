import numpy as np
import pytest

from uwbloc.preprocess import (
    CorrectionPolicy,
    EmptySeriesError,
    MAD_SCALE_NORMAL,
    correct_range_batch,
    correct_triple,
    mad_keep_mask,
)
from uwbloc.geometry import RangeTriple

import oracles


def _kept(values):
    """The values the MAD rule keeps, in their order."""
    arr = np.asarray(values, dtype=float)
    return arr[mad_keep_mask(arr)].tolist()


def test_mad_filter_drops_the_obvious_outlier():
    # median 100.5, MAD 1.5, cutoff 3 * 1.4826 * 1.5 = 6.6717
    assert _kept([98.0, 99.0, 100.0, 101.0, 102.0, 500.0]) == [98.0, 99.0, 100.0, 101.0, 102.0]


def test_mad_zero_keeps_only_median_equal_values():
    # MAD is 0 here, and the rule is a pure inequality
    assert _kept([10.0, 10.0, 10.0, 10.0, 25.0]) == [10.0, 10.0, 10.0, 10.0]


def test_mad_filter_preserves_order():
    values = [105.0, 95.0, 100.0, 98.0, 103.0]
    assert _kept(values) == values


def test_mad_filter_never_empty():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        values = rng.uniform(1.0, 5000.0, size=n)
        assert mad_keep_mask(values).any()


def test_mad_survivors_satisfy_the_rule_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        values = rng.uniform(50.0, 150.0, size=int(rng.integers(3, 60)))
        med = float(np.median(values))
        mad = float(np.median(np.abs(values - med)))
        cutoff = 3.0 * MAD_SCALE_NORMAL * mad
        mask = mad_keep_mask(values)
        expected = np.abs(values - med) <= cutoff
        assert np.array_equal(mask, expected)


def test_mad_columns_match_one_series_at_a_time():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 8, 9, 40, 41):
        arr = rng.uniform(50.0, 150.0, size=(n, 5))
        arr[:, 1] = rng.integers(1, 4, size=n)  # ties
        arr[:, 2] = 7.0  # zero MAD, every value on the median
        arr[: n // 2 + 1, 3] = 9.0  # zero MAD, the other values off it
        for k, scale in ((3.0, MAD_SCALE_NORMAL), (0.5, 2.0)):
            got = mad_keep_mask(arr, k, scale)
            assert got.shape == arr.shape
            for j in range(arr.shape[1]):
                assert np.array_equal(got[:, j], mad_keep_mask(arr[:, j], k, scale))
                assert np.array_equal(got[:, j], oracles.mad_keep_mask(arr[:, j], k, scale))
            assert np.array_equal(mad_keep_mask(arr[:, :1], k, scale)[:, 0], got[:, 0])


def test_mad_validation():
    with pytest.raises(EmptySeriesError):
        mad_keep_mask([])
    with pytest.raises(ValueError):
        mad_keep_mask([1.0, -2.0])
    with pytest.raises(ValueError):
        mad_keep_mask([1.0, float("nan")])
    with pytest.raises(EmptySeriesError):
        mad_keep_mask(np.empty((0, 3)))
    with pytest.raises(ValueError, match=r"one series or an \(n, c\) array of them, got shape \(1, 2, 2\)"):
        mad_keep_mask([[[1.0, 2.0], [3.0, 4.0]]])
    with pytest.raises(ValueError):
        mad_keep_mask([1.0, 2.0], k=0.0)
    with pytest.raises(ValueError):
        mad_keep_mask([1.0, 2.0], scale=-1.0)
    # NaN fails every comparison, so a plain "<= 0" check lets it through
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="k and scale must be positive"):
            mad_keep_mask([1.0, 2.0], k=bad)
        with pytest.raises(ValueError, match="k and scale must be positive"):
            mad_keep_mask([1.0, 2.0], scale=bad)


def test_correction_policy_validation():
    with pytest.raises(ValueError):
        CorrectionPolicy(ratio=0.0)
    with pytest.raises(ValueError):
        CorrectionPolicy(ratio=1.2)
    with pytest.raises(ValueError):
        CorrectionPolicy(threshold=-5.0)
    assert CorrectionPolicy().ratio == 1.0
    assert CorrectionPolicy().threshold == 1000.0


def test_correct_range_boundary_passes_through():
    policy = CorrectionPolicy(ratio=0.9)
    got = correct_range_batch([1000.0, 999.99, 1000.5, 2000.0], policy)
    assert got.tolist() == [1000.0, 999.99, 1000.5 * 0.9, 1800.0]


def test_correct_range_unit_ratio_is_identity():
    policy = CorrectionPolicy(ratio=1.0)
    assert correct_range_batch([5.0, 1000.0, 4321.5], policy).tolist() == [5.0, 1000.0, 4321.5]


def test_correct_range_rejects_bad_values():
    policy = CorrectionPolicy()
    with pytest.raises(ValueError):
        correct_range_batch([0.0], policy)
    with pytest.raises(ValueError):
        correct_range_batch([float("inf")], policy)


def test_correct_triple_componentwise():
    policy = CorrectionPolicy(ratio=0.8)
    out = correct_triple(RangeTriple(500.0, 1500.0, 1000.0), policy)
    assert out.as_tuple() == (500.0, 1500.0 * 0.8, 1000.0)


def test_correct_range_batch_matches_the_scalar_rule_and_keeps_the_shape():
    policy = CorrectionPolicy(threshold=1000.0, ratio=0.85)
    measured = np.array([[999.0, 1000.0, np.nextafter(1000.0, 2000.0)], [1.0, 2500.0, 1e300]])
    want = [[m * 0.85 if m > 1000.0 else m for m in row] for row in measured.tolist()]
    assert correct_range_batch(measured, policy).tolist() == want


def test_correct_range_batch_names_the_first_bad_entry():
    policy = CorrectionPolicy()
    with pytest.raises(ValueError, match="got 0.0"):
        correct_range_batch(np.array([[5.0, 0.0], [np.nan, 2.0]]), policy)
    with pytest.raises(ValueError, match="got nan"):
        correct_range_batch(np.array([[5.0, 6.0], [np.nan, -2.0]]), policy)
