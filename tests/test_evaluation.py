import math

import numpy as np
import pytest

from uwbloc import evaluation
from uwbloc.calibration import InsufficientDataError, ModelKind, REFERENCE_POINTS
from uwbloc.errors import FileFormatError
from uwbloc.evaluation import (
    ComparisonTable,
    ErrorReport,
    MismatchedTestPointsError,
    PipelineConfig,
    PointErrors,
    TEST_POINTS,
    compare,
    format_comparison,
    format_report,
    list_reference_reports,
    load_reference_report,
    parse_report,
    read_report,
    run_baseline,
    run_ml,
    write_report,
)
from uwbloc.fingerprint import GridSpec, OutOfAreaError
from uwbloc.geometry import DEFAULT_ANCHORS, PointMM
from uwbloc.learners import KnnClassifier, SoftVoteClassifier, TrainingSet, TreeClassifier, VoteWeights
from uwbloc.simulator import MAX_REPS, NoiseConfig

from oracles import IDENTITY_NOISE, cell_vertex, distance


COARSE_GRID = GridSpec(1000.0, 2000.0, 250.0)  # 4 x 8 cells, cheap to search


def _fast_cfg(**kw):
    defaults = dict(
        model_kind=ModelKind.ONE,
        noise=NoiseConfig(sigma=10.0),
        classifier="knn",
        n_trials=8,
        obs_sets=30,
        n_select=20,
        seed=5,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_test_points_constant():
    assert tuple(p.as_tuple() for p in TEST_POINTS) == (
        (250.0, 1500.0),
        (250.0, 500.0),
        (500.0, 0.0),
        (500.0, 2000.0),
        (750.0, 1500.0),
        (750.0, 500.0),
    )


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(classifier="svm")
    with pytest.raises(ValueError):
        PipelineConfig(n_trials=0)
    with pytest.raises(ValueError):
        PipelineConfig(test_points=())
    with pytest.raises(ValueError):
        PipelineConfig(reference_points=REFERENCE_POINTS[:3])
    with pytest.raises(ValueError):
        PipelineConfig(augment=-1)
    assert PipelineConfig().params_hash() == PipelineConfig().params_hash()
    assert PipelineConfig().params_hash() != PipelineConfig(seed=1).params_hash()


# one out-of-range value per rule, each of which a run used to meet only once it
# reached the field (or allocated for it)
@pytest.mark.parametrize("field, value, error", [
    ("n_trials", MAX_REPS + 1, "n_trials must be in 1.."),
    ("obs_sets", MAX_REPS + 1, "obs_sets must be in 1.."),
    ("augment", MAX_REPS + 1, "augment must be in 0.."),
    ("tree_max_depth", 0, "max_depth must be >= 1 or None, got 0"),
    ("forest_features", 4, "features_per_split must be in 1..3, got 4"),
    ("reference_points", REFERENCE_POINTS[:3] + REFERENCE_POINTS[:1], "4 distinct"),
    ("mad_k", math.nan, "k and scale must be positive"),
    ("mad_scale", -1.0, "k and scale must be positive"),
])
def test_pipeline_config_rejects_an_out_of_range_field(field, value, error):
    with pytest.raises(ValueError, match=error):
        PipelineConfig(**{field: value})


def test_point_errors_validation():
    p = PointMM(1.0, 2.0)
    with pytest.raises(ValueError):
        PointErrors(p, 10.0, 5.0)
    with pytest.raises(ValueError):
        PointErrors(p, -1.0, 5.0)
    assert PointErrors(p, 5.0, None).max_error is None


def test_error_report_accessors():
    entries = (PointErrors(PointMM(1.0, 2.0), 3.0, 4.0),)
    report = ErrorReport(entries, {"k": "v"})
    assert report.points == (PointMM(1.0, 2.0),)
    with pytest.raises(ValueError):
        ErrorReport((), {})


def test_run_baseline_is_deterministic_and_rounds():
    cfg = PipelineConfig(model_kind=None, n_trials=12, seed=3)
    r1 = run_baseline(cfg, DEFAULT_ANCHORS)
    r2 = run_baseline(cfg, DEFAULT_ANCHORS)
    assert r1.entries == r2.entries
    assert r1.metadata["failed_trials"] == "0"
    for e in r1.entries:
        assert e.avg_error == round(e.avg_error, 5)
        assert e.max_error == round(e.max_error, 5)


def test_run_baseline_noiseless_is_exact():
    cfg = PipelineConfig(model_kind=None, noise=IDENTITY_NOISE, n_trials=4, seed=0)
    report = run_baseline(cfg, DEFAULT_ANCHORS)
    for e in report.entries:
        assert e.avg_error == 0.0
        assert e.max_error == 0.0


def test_run_baseline_rejects_ml_config():
    with pytest.raises(ValueError):
        run_baseline(_fast_cfg(), DEFAULT_ANCHORS)
    with pytest.raises(ValueError):
        run_ml(PipelineConfig(model_kind=None), DEFAULT_ANCHORS, COARSE_GRID)


def test_run_ml_noiseless_matches_fingerprint_oracle():
    cfg = _fast_cfg(noise=IDENTITY_NOISE, n_trials=3,
                    test_points=(PointMM(600.0, 900.0), PointMM(250.0, 500.0)))
    report = run_ml(cfg, DEFAULT_ANCHORS, COARSE_GRID)
    # noiseless identity world: the DB holds exact distances and queries are
    # exact, so 1-NN picks the cell whose distance triple is closest to the
    # query triple (NOT in general the geometrically closest vertex)
    anchor_points = DEFAULT_ANCHORS.as_tuple()

    def fingerprint(p):
        return [max(distance(p, a), 1.0) for a in anchor_points]

    for e in report.entries:
        q = fingerprint(e.point)

        def fp_gap(lb):
            f = fingerprint(cell_vertex(COARSE_GRID, lb))
            return sum((qi - fi) ** 2 for qi, fi in zip(q, f))

        best = min(range(COARSE_GRID.cell_count), key=lambda lb: (fp_gap(lb), lb))
        want = round(distance(cell_vertex(COARSE_GRID, best), e.point), 5)
        assert e.avg_error == want
        assert e.max_error == want
    assert report.metadata["eq_A"] == "1.0,0.0"


def test_run_ml_rejects_out_of_area_points():
    cfg = _fast_cfg(test_points=(PointMM(5000.0, 5000.0),))
    with pytest.raises(OutOfAreaError, match=r"^point \(5000.0, 5000.0\) outside the 1000.0 x 2000.0 mm area$"):
        run_ml(cfg, DEFAULT_ANCHORS, COARSE_GRID)


@pytest.mark.parametrize("value", (math.nan, math.inf), ids=("nan", "inf"))
@pytest.mark.parametrize("setting", ("mad_k", "mad_scale"))
def test_run_ml_rejects_a_non_finite_mad_setting(setting, value):
    # NaN passes a plain `<= 0` check, then drops every set as an outlier
    with pytest.raises(ValueError, match="k and scale must be positive") as info:
        run_ml(_fast_cfg(**{setting: value}), DEFAULT_ANCHORS, COARSE_GRID)
    assert not isinstance(info.value, InsufficientDataError)


def test_run_ml_augmentation_changes_the_training_set():
    # at the default sigma of 30 mm; at 10 mm most seeds' queries all land on their own cells
    base = _fast_cfg(seed=2, noise=NoiseConfig())
    augmented = _fast_cfg(seed=2, augment=3, noise=NoiseConfig())
    r0 = run_ml(base, DEFAULT_ANCHORS, COARSE_GRID)
    r1 = run_ml(augmented, DEFAULT_ANCHORS, COARSE_GRID)
    r2 = run_ml(augmented, DEFAULT_ANCHORS, COARSE_GRID)
    assert r1.entries == r2.entries
    assert r0.entries != r1.entries


def test_vote_builds_its_tree_only_when_the_tree_can_decide(monkeypatch):
    built = []

    def counting_tree(*args, **kwargs):
        built.append(args)
        return TreeClassifier(*args, **kwargs)

    monkeypatch.setattr(evaluation, "TreeClassifier", counting_tree)
    knn = _fast_cfg(classifier="knn", seed=9)
    vote = _fast_cfg(classifier="vote", seed=9)
    rk = run_ml(knn, DEFAULT_ANCHORS, COARSE_GRID)
    rv = run_ml(vote, DEFAULT_ANCHORS, COARSE_GRID)
    assert rv.metadata["classifier"] == "vote"
    assert rv.metadata["vote_weights"] == "3.0:1.0"
    assert rk.metadata.get("vote_weights") is None
    # the default 3:1 vote at k = 1 is the 1-NN answer, with no tree
    assert built == []
    assert rv.entries == rk.entries
    for changes in (dict(vote_weights=VoteWeights(1.0, 1.0)), dict(knn_k=3)):
        built.clear()
        run_ml(_fast_cfg(classifier="vote", seed=9, **changes), DEFAULT_ANCHORS, COARSE_GRID)
        assert len(built) == 1


def test_build_classifier_returns_the_knn_itself_when_the_tree_cannot_decide():
    rng = np.random.default_rng(3)
    train = TrainingSet(rng.uniform(1.0, 100.0, size=(20, 3)), rng.integers(0, 4, size=20))
    clf = evaluation._build_classifier(_fast_cfg(classifier="vote"), train)
    assert type(clf) is KnnClassifier and clf.k == 1
    for changes in (dict(vote_weights=VoteWeights(1.0, 1.0)), dict(knn_k=3)):
        clf = evaluation._build_classifier(_fast_cfg(classifier="vote", **changes), train)
        assert type(clf) is SoftVoteClassifier
        assert type(clf.knn) is KnnClassifier and type(clf.tree) is TreeClassifier


def test_compare_requires_matching_points():
    a = ErrorReport((PointErrors(PointMM(1.0, 1.0), 10.0, 20.0),), {})
    b = ErrorReport((PointErrors(PointMM(2.0, 2.0), 5.0, 20.0),), {})
    with pytest.raises(MismatchedTestPointsError):
        compare([a, b])
    with pytest.raises(MismatchedTestPointsError):
        compare([a])


def test_compare_reduction_formula():
    p = PointMM(1.0, 1.0)
    base = ErrorReport((PointErrors(p, 200.0, 300.0),), {})
    cand = ErrorReport((PointErrors(p, 50.0, 80.0),), {})
    table = compare([base, cand])
    assert table.baseline_avg == (200.0,)
    assert table.candidates[0].avg == (50.0,)
    assert table.candidates[0].reduction_pct == (75.0,)

    zero = ErrorReport((PointErrors(p, 0.0, 0.0),), {})
    assert compare([zero, zero]).candidates[0].reduction_pct == (0.0,)
    assert math.isnan(compare([zero, cand]).candidates[0].reduction_pct[0])


def test_compare_headline_reduction_from_reference_tables():
    base = load_reference_report("no_ml_avg_max")
    cand = load_reference_report("model_four_vote")
    table = compare([base, cand])
    text = format_comparison(table)
    line = [ln for ln in text.splitlines() if ln.startswith("500.00000,2000.00000")][0]
    assert line.endswith(",95.48")
    assert "25.00000" in line


def test_comparison_extra_candidates_get_numbered_columns():
    p = PointMM(1.0, 1.0)
    base = ErrorReport((PointErrors(p, 200.0, None),), {})
    c1 = ErrorReport((PointErrors(p, 100.0, None),), {})
    c2 = ErrorReport((PointErrors(p, 50.0, None),), {})
    text = format_comparison(compare([base, c1, c2]))
    header = text.splitlines()[0]
    assert header.endswith("reduction_pct,avg_error_mm_2,max_error_mm_2,reduction_pct_2")
    assert ",50.00000,,75.00" in text
    with pytest.raises(ValueError, match="^unknown comparison format 'json'$"):
        format_comparison(compare([base, c1, c2]), "json")


def test_report_round_trip_is_exact(tmp_path):
    cfg = PipelineConfig(model_kind=None, n_trials=9, seed=12)
    report = run_baseline(cfg, DEFAULT_ANCHORS)
    path = tmp_path / "report.csv"
    write_report(str(path), report)
    back = read_report(str(path))
    assert back.entries == report.entries
    assert back.metadata == dict(report.metadata)


def test_format_report_text_mode():
    report = ErrorReport(
        (PointErrors(PointMM(250.0, 1500.0), 100.0, None),), {"pipeline": "baseline"}
    )
    text = format_report(report, "text")
    assert "(250,1500)" in text
    assert "100.00000" in text
    assert "-" in text  # missing max renders as a dash
    with pytest.raises(ValueError):
        format_report(report, "json")


def test_parse_report_rejects_malformed_text():
    with pytest.raises(FileFormatError, match="header"):
        parse_report("1.0,2.0,3.0,4.0\n")
    with pytest.raises(FileFormatError, match="4 fields"):
        parse_report("point_x,point_y,avg_error_mm,max_error_mm\n1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError):
        parse_report("point_x,point_y,avg_error_mm,max_error_mm\n1.0,2.0,x,4.0\n")
    with pytest.raises(FileFormatError, match="no data rows"):
        parse_report("point_x,point_y,avg_error_mm,max_error_mm\n")
    with pytest.raises(FileFormatError, match="metadata"):
        parse_report("# broken line\npoint_x,point_y,avg_error_mm,max_error_mm\n1,2,3,4\n")
    # avg above max is invalid data
    with pytest.raises(FileFormatError):
        parse_report("point_x,point_y,avg_error_mm,max_error_mm\n1.0,2.0,9.0,4.0\n")


def test_reference_tables_ship_complete():
    names = list_reference_reports()
    assert len(names) == 18
    assert "no_ml_avg_max" in names
    assert "model_four_vote" in names
    for name in names:
        report = load_reference_report(name)
        assert report.points == TEST_POINTS
    with pytest.raises(KeyError):
        load_reference_report("not_a_table")


def test_reference_avg_only_tables_have_no_max():
    report = load_reference_report("ml_avg_ratio90")
    assert all(e.max_error is None for e in report.entries)
    assert load_reference_report("no_ml_avg_max").entries[0].max_error is not None
