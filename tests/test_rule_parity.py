"""Each rule on an input has one home, so every site that applies it raises the same error.

A range array is checked by ``geometry.check_ranges`` wherever it enters the
package, and a true distance by ``geometry.check_true_distances``; the CART settings by ``learners.check_cart_setting`` and the fit
settings by ``calibration.check_fit_setting``, whether a learner, a fit or a
``PipelineConfig`` meets them. A point on the grid is checked by
``GridSpec.check_inside``, whether ``run_ml`` or a config meets it.
"""

import math

import numpy as np
import pytest

from uwbloc.calibration import (
    REFERENCE_POINTS,
    ModelKind,
    ObservationData,
    clean_observation_rows,
    fit_model,
)
from uwbloc.config import ConfigError, resolve_config
from uwbloc.evaluation import TEST_POINTS, PipelineConfig, run_ml
from uwbloc.fingerprint import DEFAULT_GRID, FingerprintDB, GridSpec, OutOfAreaError
from uwbloc.geometry import DEFAULT_ANCHORS, PointMM, check_ranges, check_true_distances, trilaterate
from uwbloc.learners import ForestClassifier, TrainingSet, TreeClassifier
from uwbloc.preprocess import CorrectionPolicy, correct_range_batch, mad_keep_mask
from uwbloc.simulator import NoiseConfig, Visits, measurement_stream, simulate_range, simulate_range_batch

# twelve valid ranges with bad entries at (row-major index: value); the first
# bad entry decides the error even where a later one is of another kind
BAD_RANGES = [
    {5: math.nan},
    {0: math.inf},
    {11: -math.inf},
    {7: 0.0},
    {3: -1.0},
    {2: -1.0, 8: math.nan},
    {4: math.nan, 9: -1.0},
    {6: 0.0, 10: math.inf},
    {1: math.inf, 3: 0.0},
]

# every consumer of a range array, given the twelve values in its own shape
RANGE_SITES = {
    "TrainingSet": lambda v: TrainingSet(v.reshape(4, 3), np.arange(4)),
    "FingerprintDB": lambda v: FingerprintDB(GridSpec(50.0, 50.0, 25.0), v.reshape(4, 3)),
    "ObservationData": lambda v: ObservationData(REFERENCE_POINTS, v.reshape(1, 4, 3)),
    "mad_keep_mask": mad_keep_mask,
    "mad_keep_mask (n, c)": lambda v: mad_keep_mask(v.reshape(4, 3)),
    "clean_observation_rows": lambda v: clean_observation_rows(
        [Visits(p, r) for p, r in zip(REFERENCE_POINTS, v.reshape(4, 1, 3))]),
    "correct_range_batch": lambda v: correct_range_batch(v.reshape(4, 3), CorrectionPolicy()),
    "trilaterate": lambda v: trilaterate(DEFAULT_ANCHORS, v.reshape(4, 3)),
}


def _error(build, value) -> BaseException:
    with pytest.raises(ValueError) as caught:
        build(value)
    return caught.value


@pytest.mark.parametrize("site", sorted(RANGE_SITES))
@pytest.mark.parametrize("bad", BAD_RANGES, ids=str)
def test_every_range_site_raises_what_check_ranges_raises(site, bad):
    values = np.linspace(100.0, 1200.0, 12)
    values[list(bad)] = list(bad.values())
    want = _error(check_ranges, values)
    got = _error(RANGE_SITES[site], values)
    assert (type(got), str(got)) == (type(want), str(want))


# every consumer of true distances, given the twelve values
TRUE_DISTANCE_SITES = {
    "simulate_range": lambda v: [simulate_range(d, NoiseConfig(), measurement_stream(0, 0, 0, 0))
                                 for d in v.tolist()],
    "simulate_range_batch": lambda v: simulate_range_batch(
        v, np.zeros((v.size, 3), dtype=np.int64), NoiseConfig(), 0),
}


@pytest.mark.parametrize("site", sorted(TRUE_DISTANCE_SITES))
@pytest.mark.parametrize("bad", [{5: math.nan}, {0: math.inf}, {7: -1.0}, {2: -math.inf, 8: math.nan}],
                         ids=str)
def test_every_true_distance_site_raises_what_check_true_distances_raises(site, bad):
    values = np.linspace(0.0, 1100.0, 12)
    values[list(bad)] = list(bad.values())
    want = _error(check_true_distances, values)
    got = _error(TRUE_DISTANCE_SITES[site], values)
    assert (type(got), str(got)) == (type(want), str(want))


def _train():
    rng = np.random.default_rng(3)
    return TrainingSet(rng.uniform(1.0, 100.0, size=(12, 3)), rng.integers(0, 3, size=12))


def _obs():
    rng = np.random.default_rng(4)
    return ObservationData(REFERENCE_POINTS, rng.uniform(100.0, 2000.0, size=(5, 4, 3)))


# (PipelineConfig field, bad value, the learner or fit given that value)
SETTING_SITES = [
    ("tree_max_depth", 0, lambda v: TreeClassifier(_train(), max_depth=v)),
    ("tree_max_depth", -2, lambda v: ForestClassifier(_train(), n_trees=2, max_depth=v)),
    ("tree_min_leaf", 0, lambda v: TreeClassifier(_train(), min_leaf=v)),
    ("tree_min_leaf", -1, lambda v: ForestClassifier(_train(), n_trees=2, min_leaf=v)),
    ("forest_trees", 0, lambda v: ForestClassifier(_train(), n_trees=v)),
    ("forest_features", 0, lambda v: ForestClassifier(_train(), n_trees=2, features_per_split=v)),
    ("forest_features", 4, lambda v: ForestClassifier(_train(), n_trees=2, features_per_split=v)),
    ("n_select", 0, lambda v: fit_model(ModelKind.FOUR, _obs(), DEFAULT_ANCHORS, n_select=v)),
    ("reference_points", REFERENCE_POINTS[:3],
     lambda v: ObservationData(v, np.ones((1, 4, 3)))),
    ("reference_points", REFERENCE_POINTS[:3] + REFERENCE_POINTS[:1],
     lambda v: ObservationData(v, np.ones((1, 4, 3)))),
    ("reference_points", REFERENCE_POINTS + REFERENCE_POINTS[:1],
     lambda v: ObservationData(v, np.ones((1, 4, 3)))),
]


@pytest.mark.parametrize("field, value, build", SETTING_SITES,
                         ids=[f"{f}={len(v) if isinstance(v, tuple) else v}"
                              for f, v, _ in SETTING_SITES])
def test_pipeline_config_raises_what_the_learner_or_fit_raises(field, value, build):
    want = _error(build, value)
    got = _error(lambda v: PipelineConfig(**{field: v}), value)
    assert (type(got), str(got)) == (type(want), str(want))


# a point just off each edge of the default 1000 x 2000 mm area
OFF_AREA = [
    PointMM(math.nextafter(0.0, -math.inf), 700.0),
    PointMM(math.nextafter(1000.0, math.inf), 700.0),
    PointMM(300.0, math.nextafter(0.0, -math.inf)),
    PointMM(300.0, math.nextafter(2000.0, math.inf)),
]

# every site that checks points against the grid area, given the point off it; run_ml
# checks before it simulates anything
AREA_SITES = {
    "GridSpec.check_inside": lambda p: DEFAULT_GRID.check_inside((p,)),
    "run_ml test point": lambda p: run_ml(
        PipelineConfig(model_kind=ModelKind.FOUR, test_points=TEST_POINTS[:2] + (p,)),
        DEFAULT_ANCHORS, DEFAULT_GRID),
    "run_ml reference point": lambda p: run_ml(
        PipelineConfig(model_kind=ModelKind.FOUR, reference_points=REFERENCE_POINTS[:3] + (p,)),
        DEFAULT_ANCHORS, DEFAULT_GRID),
}


def _area_error(p: PointMM) -> str:
    return f"point {p.as_tuple()} outside the 1000.0 x 2000.0 mm area"


@pytest.mark.parametrize("site", sorted(AREA_SITES))
@pytest.mark.parametrize("point", OFF_AREA, ids=str)
def test_every_area_site_raises_what_check_inside_raises(site, point):
    got = _error(AREA_SITES[site], point)
    assert (type(got), str(got)) == (OutOfAreaError, _area_error(point))


@pytest.mark.parametrize("key", ["calibration.reference_points", "eval.test_points", "campaign.locations"])
@pytest.mark.parametrize("point", OFF_AREA, ids=str)
def test_a_config_point_key_raises_what_check_inside_raises(key, point):
    points = (REFERENCE_POINTS[:3] if key == "calibration.reference_points" else ()) + (point,)
    value = ";".join(f"{p.x!r},{p.y!r}" for p in points)
    got = _error(lambda v: resolve_config({key: v}, origin="area.cfg"), value)
    assert (type(got), str(got)) == (ConfigError, f"area.cfg: {key}: {_area_error(point)}")
