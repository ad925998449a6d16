import math
import warnings

import numpy as np
import pytest

from uwbloc.calibration import (
    CalibrationModel,
    DegeneratePairError,
    InsufficientDataError,
    LinearRangingEq,
    MissingReferencePointError,
    ModelKind,
    NonPositiveSlopeError,
    ObservationData,
    REFERENCE_POINTS,
    clean_observation_rows,
    fit_model,
    format_calibration,
    parse_calibration,
    read_calibration,
    write_calibration,
)
from uwbloc.errors import FileFormatError
from uwbloc.geometry import DEFAULT_ANCHORS, NonFiniteRangeError, PointMM
from uwbloc.preprocess import MAD_SCALE_NORMAL, CorrectionPolicy
from uwbloc.simulator import Campaign, NoiseConfig, Visits, read_measurements, simulate_campaign

import oracles
from oracles import distance, fit_pair


def _true_distances():
    """true_d[point][anchor] for the default geometry."""
    anchor_points = DEFAULT_ANCHORS.as_tuple()
    return [[distance(p, a) for a in anchor_points] for p in REFERENCE_POINTS]


def _obs_from_world(a, b, n_sets=1):
    """Exact observation data for a world where measured = a * true + b."""
    true_d = _true_distances()
    sets = np.array(
        [[[a * true_d[pi][ai] + b for ai in range(3)] for pi in range(4)]] * n_sets
    )
    return ObservationData(REFERENCE_POINTS, sets)


def test_reference_points_are_the_corner_offsets():
    assert tuple(p.as_tuple() for p in REFERENCE_POINTS) == (
        (100.0, 100.0),
        (900.0, 100.0),
        (100.0, 1900.0),
        (900.0, 1900.0),
    )


def test_fit_pair_known_line():
    eq = fit_pair(100.0, 110.0, 900.0, 930.0)
    assert eq.a == (930.0 - 110.0) / (900.0 - 100.0)
    assert eq.b == 110.0 - eq.a * 100.0
    assert math.isclose(eq.a, 1.025, rel_tol=1e-12)
    assert math.isclose(eq.b, 7.5, rel_tol=1e-12)


def test_fit_pair_rejects_degenerate_and_flat_pairs():
    with pytest.raises(DegeneratePairError):
        fit_pair(100.0, 110.0, 100.0, 120.0)
    with pytest.raises(NonPositiveSlopeError):
        fit_pair(100.0, 200.0, 200.0, 100.0)
    with pytest.raises(ValueError):
        fit_pair(-1.0, 110.0, 900.0, 930.0)
    with pytest.raises(ValueError):
        fit_pair(100.0, math.nan, 900.0, 930.0)


def test_linear_eq_rejects_non_positive_slope():
    with pytest.raises(NonPositiveSlopeError):
        LinearRangingEq(0.0, 5.0)
    with pytest.raises(NonPositiveSlopeError):
        LinearRangingEq(-1.0, 5.0)


def test_observation_data_shape_checks():
    with pytest.raises(ValueError):
        ObservationData(REFERENCE_POINTS, np.ones((5, 3, 3)))
    with pytest.raises(InsufficientDataError):
        ObservationData(REFERENCE_POINTS, np.ones((0, 4, 3)))
    with pytest.raises(ValueError):
        ObservationData(REFERENCE_POINTS, np.full((2, 4, 3), -1.0))


def _records_for(points, sets):
    """One campaign record per point, its readings in set order."""
    return [Visits(p, sets[pi]) for pi, p in enumerate(points)]


def test_clean_groups_and_aligns_sets():
    base = [[(100.0 + s, 2000.0 + s, 1000.0 + s) for s in range(5)] for _ in range(4)]
    base[2].append((100.0, 2000.0, 1000.0))  # extra rep at point 2 gets trimmed
    obs = clean_observation_rows(_records_for(REFERENCE_POINTS, base))
    assert obs.n_sets == 5
    assert obs.sets[:, 0, 0].tolist() == [100.0, 101.0, 102.0, 103.0, 104.0]


def test_clean_drops_whole_set_on_any_outlier():
    # one wild value in set 3 at (point 1, anchor 2) must remove set 3
    base = [[[100.0 + s, 2000.0 + s, 1000.0 + s] for s in range(7)] for _ in range(4)]
    base[1][3][2] = 9000.0
    obs = clean_observation_rows(_records_for(REFERENCE_POINTS, base))
    assert obs.n_sets == 6
    assert 103.0 not in obs.sets[:, 0, 0].tolist()


def test_clean_requires_every_reference_point():
    base = [[(100.0, 2000.0, 1000.0)] for _ in range(3)]
    records = _records_for(REFERENCE_POINTS[:3], base)
    with pytest.raises(MissingReferencePointError):
        clean_observation_rows(records)


def test_clean_applies_correction_after_filtering():
    base = [[(500.0, 1200.0, 800.0)] * 4 for _ in range(4)]
    obs = clean_observation_rows(
        _records_for(REFERENCE_POINTS, base), policy=CorrectionPolicy(ratio=0.9)
    )
    # only the value above the 1000 threshold is scaled
    assert obs.sets[0, 0, 0] == 500.0
    assert obs.sets[0, 0, 1] == 1200.0 * 0.9
    assert obs.sets[0, 0, 2] == 800.0


def test_clean_raises_when_nothing_survives():
    # three sets, three columns with zero MAD, each killing a different set:
    # the surviving intersection is empty
    base = [[[100.0, 200.0, 300.0] for _ in range(3)] for _ in range(4)]
    base[0][0][0] = 150.0
    base[1][1][0] = 150.0
    base[2][2][0] = 150.0
    with pytest.raises(InsufficientDataError):
        clean_observation_rows(_records_for(REFERENCE_POINTS, base))


def test_clean_reports_the_first_bad_reading_of_the_sets_in_row_major_order():
    # the NaN (set 0, point 1, anchor C) comes before the -1 (set 1, point 0, anchor A)
    # in the (n, 12) block of sets, though not in (point, anchor) column order
    base = [[[100.0 + s, 2000.0 + s, 1000.0 + s] for s in range(3)] for _ in range(4)]
    base[0][1][0] = -1.0
    base[1][0][2] = math.nan
    with pytest.raises(NonFiniteRangeError, match="got nan"):
        clean_observation_rows(_records_for(REFERENCE_POINTS, base))


@pytest.mark.parametrize("p_outlier", [0.05, 0.3])
@pytest.mark.parametrize("mad_k, mad_scale", [(3.0, MAD_SCALE_NORMAL), (1.5, 1.0)])
def test_clean_keeps_the_sets_of_one_mad_call_per_column(p_outlier, mad_k, mad_scale):
    kept = []
    for seed, reps in ((1, 1), (2, 2), (3, 7), (4, 40), (5, 2001)):
        noise = NoiseConfig(p_outlier=p_outlier, seed=seed)
        records = simulate_campaign(Campaign(REFERENCE_POINTS, reps, DEFAULT_ANCHORS, noise))
        records.append(Visits(REFERENCE_POINTS[2], records[2].ranges[:3]))  # trimmed away
        want = oracles.kept_sets(records, REFERENCE_POINTS, mad_k, mad_scale)
        kept.append(want.shape[0])
        if want.shape[0] == 0:
            with pytest.raises(InsufficientDataError):
                clean_observation_rows(records, mad_k=mad_k, mad_scale=mad_scale)
            continue
        got = clean_observation_rows(records, mad_k=mad_k, mad_scale=mad_scale)
        assert got.sets.tobytes() == want.tobytes()
    # the rule drops some sets and keeps others: at p_outlier 0.3 and mad_k 1.5 it keeps ~0.3%
    assert 0 < kept[-1] < 2001


def _reading(pi, r):
    return (100.0 * pi + 150.0 + r, 100.0 * pi + 1500.0 + r, 100.0 * pi + 800.0 + r)


def test_clean_pools_interleaved_file_rows_in_order(tmp_path):
    # rows of each point come in several runs, other locations in between,
    # and the points have 4, 5, 4 and 3 readings: pooled in file order and
    # trimmed to 3 sets, of which set 1 (an outlier at point 1) is dropped
    order = [0, 0, 1, 1, 1, 2, 0, 0, 3, 2, 1, 1, 3, 2, 2, 3]
    seen = [0, 0, 0, 0]
    lines = ["loc_x,loc_y,d_a,d_b,d_c"]
    for pi in order:
        values = list(_reading(pi, seen[pi]))
        if (pi, seen[pi]) == (1, 1):
            values[1] = 9000.0
        seen[pi] += 1
        x, y = REFERENCE_POINTS[pi].as_tuple()
        lines.append(",".join(repr(v) for v in (x, y, *values)))
        if pi == 2:
            lines.append("500.0,700.0,1.0,2.0,3.0")
    path = tmp_path / "interleaved.csv"
    path.write_text("\n".join(lines) + "\n")
    obs = clean_observation_rows(read_measurements(str(path)), REFERENCE_POINTS)
    want = np.array([[_reading(pi, r) for pi in range(4)] for r in (0, 2)])
    assert obs.sets.shape == want.shape
    assert np.array_equal(obs.sets, want)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_fit_model_rejects_points_equidistant_from_an_anchor(kind):
    # points 1 and 4 are both 500 mm from anchor A, and every kind fits
    # anchor A (or reuses its data) through that pair
    points = (PointMM(300.0, 400.0), PointMM(900.0, 100.0), PointMM(100.0, 1900.0),
              PointMM(400.0, 300.0))
    anchor_points = DEFAULT_ANCHORS.as_tuple()
    sets = np.array([[[1.1 * distance(p, a) + 5.0 for a in anchor_points] for p in points]] * 3)
    # three sets, fewer than n_select: the fit warns, then meets the degenerate pair
    with pytest.warns(UserWarning, match="measurement sets available"), pytest.raises(DegeneratePairError):
        fit_model(kind, ObservationData(points, sets), DEFAULT_ANCHORS)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_fit_model_recovers_exact_world(kind):
    obs = _obs_from_world(1.1, 5.0, n_sets=60)
    model = fit_model(kind, obs, DEFAULT_ANCHORS)
    for name in ("A", "B", "C"):
        eq = model.equation(name)
        assert math.isclose(eq.a, 1.1, rel_tol=1e-9)
        assert math.isclose(eq.b, 5.0, rel_tol=1e-6, abs_tol=1e-6)


def test_model_one_shares_a_and_c():
    obs = _obs_from_world(1.2, 10.0, n_sets=60)
    model = fit_model(ModelKind.ONE, obs, DEFAULT_ANCHORS)
    assert model.eq_a.a == model.eq_c.a
    assert model.eq_a.b == model.eq_c.b


def _perturbed_obs():
    """One observation set with distinct per-(point, anchor) offsets.

    Plain enough that every pairing keeps a positive slope, lopsided
    enough that the four model kinds all disagree.
    """
    true_d = _true_distances()
    bump = [[3.0, -4.0, 7.0], [-6.0, 9.0, 1.0], [8.0, -2.0, -5.0], [0.0, 5.0, -7.0]]
    sets = np.array(
        [[[1.2 * true_d[pi][ai] + 30.0 + bump[pi][ai] for ai in range(3)] for pi in range(4)]]
    )
    return ObservationData(REFERENCE_POINTS, sets), true_d, sets[0]


def _mean_eq(fits):
    a = sum(f.a for f in fits) / len(fits)
    b = sum(f.b for f in fits) / len(fits)
    return a, b


def test_pairing_rules_against_hand_built_oracle():
    obs, true_d, m = _perturbed_obs()

    def pair(src, i, j):
        return fit_pair(true_d[i][src], float(m[i][src]), true_d[j][src], float(m[j][src]))

    expected = {
        ModelKind.ONE: (
            _mean_eq([pair(0, 0, 3)]),
            _mean_eq([pair(0, 1, 2)]),
            _mean_eq([pair(0, 0, 3)]),
        ),
        ModelKind.TWO: (
            _mean_eq([pair(0, 0, 3)]),
            _mean_eq([pair(1, 1, 2)]),
            _mean_eq([pair(2, 0, 3)]),
        ),
        ModelKind.THREE: (
            _mean_eq([pair(0, 0, 1), pair(0, 0, 2), pair(0, 0, 3)]),
            _mean_eq([pair(1, 2, 0), pair(1, 2, 1), pair(1, 2, 3)]),
            _mean_eq([pair(2, 3, 0), pair(2, 3, 1), pair(2, 3, 2)]),
        ),
        ModelKind.FOUR: (
            _mean_eq([pair(0, 0, 1), pair(0, 0, 2), pair(0, 0, 3)]),
            _mean_eq([pair(1, 2, 0), pair(1, 2, 1), pair(1, 2, 3)]),
            _mean_eq([pair(2, 0, 3)]),
        ),
    }
    for kind, eqs in expected.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_model(kind, obs, DEFAULT_ANCHORS)
        for got, (a, b) in zip((model.eq_a, model.eq_b, model.eq_c), eqs):
            assert math.isclose(got.a, a, rel_tol=1e-12), kind
            assert math.isclose(got.b, b, rel_tol=1e-12, abs_tol=1e-9), kind


def test_fit_model_selection_is_seeded_and_clamped():
    obs = _obs_from_world(1.05, 8.0, n_sets=10)
    with pytest.warns(UserWarning, match="using all"):
        m1 = fit_model(ModelKind.TWO, obs, DEFAULT_ANCHORS, n_select=60, seed=4)
    with pytest.warns(UserWarning):
        m2 = fit_model(ModelKind.TWO, obs, DEFAULT_ANCHORS, n_select=60, seed=99)
    # all sets identical, so the clamped fits agree regardless of seed
    assert m1.eq_a == m2.eq_a

    big = _obs_from_world(1.05, 8.0, n_sets=120)
    m3 = fit_model(ModelKind.TWO, big, DEFAULT_ANCHORS, n_select=60, seed=4)
    m4 = fit_model(ModelKind.TWO, big, DEFAULT_ANCHORS, n_select=60, seed=4)
    assert m3.eq_b == m4.eq_b


def test_fit_model_skips_sets_with_non_positive_slope():
    true_d = _true_distances()
    good = [[1.1 * true_d[pi][ai] + 10.0 for ai in range(3)] for pi in range(4)]
    # the bad set has a perfectly fittable anchor B with a different slope,
    # but its anchor A pair is flipped; model TWO must drop the whole set,
    # so anchor B cannot end up averaged to 1.2
    bad = [[1.3 * true_d[pi][ai] + 20.0 for ai in range(3)] for pi in range(4)]
    bad[0][0], bad[3][0] = bad[3][0], bad[0][0]
    obs = ObservationData(REFERENCE_POINTS, np.array([good, bad]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_model(ModelKind.TWO, obs, DEFAULT_ANCHORS)
    assert math.isclose(model.eq_a.a, 1.1, rel_tol=1e-12)
    assert math.isclose(model.eq_b.a, 1.1, rel_tol=1e-12)

    all_bad = ObservationData(REFERENCE_POINTS, np.array([bad]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(InsufficientDataError):
            fit_model(ModelKind.TWO, all_bad, DEFAULT_ANCHORS)


def test_calibration_file_round_trip(tmp_path):
    model = CalibrationModel(
        ModelKind.FOUR,
        LinearRangingEq(1.0783, 7.53),
        LinearRangingEq(1.0846, 4.21),
        LinearRangingEq(1.2230, -183.21),
    )
    path = tmp_path / "cal.csv"
    write_calibration(str(path), model)
    back = read_calibration(str(path))
    assert back == model
    assert back.equation("C") == model.eq_c
    with pytest.raises(ValueError, match=r"^unknown anchor 'D', expected one of \('A', 'B', 'C'\)$"):
        back.equation("D")


def test_parse_calibration_rejects_malformed_text():
    with pytest.raises(FileFormatError, match="4 lines"):
        parse_calibration("kind,one\nA,1.0,0.0\n")
    with pytest.raises(FileFormatError, match="kind"):
        parse_calibration("model,one\nA,1.0,0.0\nB,1.0,0.0\nC,1.0,0.0\n")
    with pytest.raises(FileFormatError, match="unknown model kind"):
        parse_calibration("kind,five\nA,1.0,0.0\nB,1.0,0.0\nC,1.0,0.0\n")
    with pytest.raises(FileFormatError):
        parse_calibration("kind,one\nA,x,0.0\nB,1.0,0.0\nC,1.0,0.0\n")
    with pytest.raises(FileFormatError, match="need all"):
        parse_calibration("kind,one\nA,1.0,0.0\nA,1.0,0.0\nC,1.0,0.0\n")
    # a written non-positive slope is invalid data, not a crash
    with pytest.raises(FileFormatError):
        parse_calibration("kind,one\nA,-1.0,0.0\nB,1.0,0.0\nC,1.0,0.0\n")


def test_parse_calibration_names_lines_by_their_file_position():
    # blank lines before the kind line and between anchors still count
    text = "\n\nkind,four\nA,1.0,2.0\n\n  \nB,x,2.0\nC,1.0,2.0\n"
    with pytest.raises(FileFormatError, match="^cal.csv:7: could not convert"):
        parse_calibration(text, "cal.csv")
    with pytest.raises(FileFormatError, match="^cal.csv:3: unknown model kind 'five'"):
        parse_calibration(text.replace("four", "five"), "cal.csv")
    with pytest.raises(FileFormatError, match="^cal.csv:8: expected '<A|B|C>,a,b'"):
        parse_calibration(text.replace("B,x,2.0\nC,", "B,1.0,2.0\nD,"), "cal.csv")


def test_format_calibration_is_exact():
    model = CalibrationModel(
        ModelKind.TWO,
        LinearRangingEq(1.0 / 3.0, 2.0 / 7.0),
        LinearRangingEq(1.5, -0.25),
        LinearRangingEq(2.0, 0.125),
    )
    assert parse_calibration(format_calibration(model)) == model
