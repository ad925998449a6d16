"""Acceptance suite.

One test per criterion.  Each prints its own PASS/FAIL line even under
pytest's capture so the run log always shows the verdict list.
"""

import contextlib
import math
import time
import warnings

import numpy as np
import pytest

from uwbloc.calibration import (
    CalibrationModel,
    LinearRangingEq,
    ModelKind,
    ObservationData,
    REFERENCE_POINTS,
    fit_model,
)
from uwbloc.cli import main
from uwbloc.evaluation import PipelineConfig, run_baseline, run_ml
from uwbloc.fingerprint import DEFAULT_GRID, build_db
from uwbloc.geometry import (
    DEFAULT_ANCHORS,
    PointMM,
    distance,
    trilaterate,
)
from uwbloc.learners import (
    ForestClassifier,
    KnnClassifier,
    TrainingSet,
    TreeClassifier,
    VoteWeights,
)
from uwbloc.preprocess import CorrectionPolicy, correct_range_batch, mad_keep_mask
from uwbloc.simulator import (
    Campaign,
    NoiseConfig,
    measurement_stream,
    simulate_campaign,
    simulate_range,
)

import oracles
from oracles import IDENTITY_NOISE, probabilities, soft_vote


@pytest.fixture
def announce(request):
    n, name = request.node.get_closest_marker("criterion").args

    @contextlib.contextmanager
    def run(capsys):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {n}] {name}: FAIL")
            raise
        dt = time.monotonic() - start
        with capsys.disabled():
            print(f"[criterion {n}] {name}: PASS ({dt:.2f}s)")

    return run


@pytest.mark.criterion(1, "noise-free trilateration is exact")
def test_trilateration_recovers_random_tags(announce, capsys):
    with announce(capsys):
        rng = np.random.default_rng(20260822)
        start = time.monotonic()
        tags = rng.uniform((0.0, 0.0), (1000.0, 2000.0), size=(1000, 2))
        ranges = np.column_stack([distance(tags, a) for a in DEFAULT_ANCHORS.as_tuple()])
        got = trilaterate(DEFAULT_ANCHORS, np.maximum(ranges, 1e-9))
        err = np.hypot(*(got - tags).T)
        worst = int(np.argmax(err))
        assert err[worst] < 1e-6, f"{tags[worst]} reconstructed {err[worst]} mm off"
        assert time.monotonic() - start < 1.0


@pytest.mark.criterion(2, "noiseless grid pipeline pins the corner-point error")
def test_identity_pipeline_exact_cell_error(announce, capsys):
    with announce(capsys):
        start = time.monotonic()
        cfg = PipelineConfig(
            model_kind=ModelKind.ONE,
            noise=IDENTITY_NOISE,
            classifier="knn",
            knn_k=1,
            n_trials=400,
            test_points=(PointMM(500.0, 2000.0),),
            obs_sets=20,
            n_select=10,
            seed=0,
        )
        report = run_ml(cfg, DEFAULT_ANCHORS, DEFAULT_GRID)
        entry = report.entries[0]
        assert entry.avg_error == 25.0
        assert entry.max_error == 25.0
        assert time.monotonic() - start < 10.0


@pytest.mark.criterion(3, "calibration recovers known channels exactly")
def test_calibration_inverts_random_worlds(announce, capsys):
    with announce(capsys):
        rng = np.random.default_rng(7)
        anchors = DEFAULT_ANCHORS.as_tuple()
        start = time.monotonic()
        for trial in range(100):
            a = rng.uniform(0.8, 1.3)
            b = rng.uniform(-50.0, 100.0)
            sets = np.empty((1, 4, 3))
            for pi, p in enumerate(REFERENCE_POINTS):
                for ai, anchor in enumerate(anchors):
                    sets[0, pi, ai] = a * oracles.distance(p, anchor) + b
            obs = ObservationData(points=REFERENCE_POINTS, sets=sets)
            kind = list(ModelKind)[trial % 4]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                model = fit_model(kind, obs, DEFAULT_ANCHORS, n_select=1,
                                  seed=0)
            for eq in (model.eq_a, model.eq_b, model.eq_c):
                assert math.isclose(eq.a, a, rel_tol=1e-9, abs_tol=1e-9)
                assert math.isclose(eq.b, b, rel_tol=1e-9, abs_tol=1e-9)
        assert time.monotonic() - start < 5.0


@pytest.mark.criterion(4, "outlier filter keeps exactly the in-band values")
def test_mad_filter_properties(announce, capsys):
    with announce(capsys):
        rng = np.random.default_rng(99)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            values = rng.normal(1000.0, 50.0, size=n)
            if rng.random() < 0.3:
                values[rng.integers(0, n)] *= rng.uniform(2.0, 5.0)
            if rng.random() < 0.2:
                values[:] = values[0]  # zero-spread series
            kept = values[mad_keep_mask(values, k=3.0)].tolist()
            kept_again = values[mad_keep_mask(values, k=3.0)].tolist()
            values = values.tolist()
            assert kept == kept_again
            assert kept, "filter must never empty a series"
            med = float(np.median(values))
            mad = float(np.median([abs(v - med) for v in values]))
            cutoff = 3.0 * 1.4826 * mad
            expected = [v for v in values if abs(v - med) <= cutoff]
            assert kept == expected
            assert any(abs(v - med) <= cutoff / 2 or v == med for v in kept)
        assert time.monotonic() - start < 5.0


@pytest.mark.criterion(5, "range correction inverts the inflation it targets")
def test_correction_inverts_inflation(announce, capsys):
    with announce(capsys):
        noise = NoiseConfig(slope=1.0, offset=0.0, sigma=0.0,
                            inflation_factor=1.0 / 0.9, seed=0)
        policy = CorrectionPolicy(threshold=1000.0, ratio=0.9)
        rng = np.random.default_rng(5)
        for i in range(500):
            d = rng.uniform(1000.0, 3000.0)
            if d <= 1000.0:
                continue
            stream = measurement_stream(0, 0, i, 0)
            measured = simulate_range(d, noise, stream)
            corrected = correct_range_batch([measured], policy)[0]
            assert math.isclose(corrected, d, rel_tol=1e-9)
        for i in range(500):
            d = rng.uniform(1.0, 1000.0)
            stream = measurement_stream(1, 0, i, 0)
            measured = simulate_range(d, noise, stream)
            assert correct_range_batch([measured], policy)[0] == d


@pytest.mark.criterion(6, "classifier cross-checks against independent oracles")
def test_classifier_oracles(announce, capsys):
    with announce(capsys):
        start = time.monotonic()
        rng = np.random.default_rng(31337)

        # exhaustive nearest-neighbour oracle, exact probability match
        for _ in range(20):
            n = int(rng.integers(5, 500))
            X = rng.uniform(0.0, 3000.0, size=(n, 3))
            y = rng.integers(0, max(2, n // 3), size=n)
            ts = TrainingSet(X=X, y=y)
            k = int(rng.integers(1, min(10, n) + 1))
            knn = KnnClassifier(ts, k=k)
            for _ in range(100):
                q = rng.uniform(1.0, 3000.0, size=3)
                d2 = ((X - q) ** 2).sum(axis=1)
                order = sorted(range(n), key=lambda i: (d2[i], y[i]))[:k]
                mass = {}
                for i in order:
                    mass[int(y[i])] = mass.get(int(y[i]), 0.0) + 1.0 / k
                want = min(
                    mass, key=lambda lb: (-mass[lb], lb)
                )
                assert knn.predict_batch([q])[0] == want
                assert probabilities(knn, [q])[0] == mass

        # a one-tree forest with every feature available and no bootstrap
        # must be the plain tree, bit for bit
        identity = CalibrationModel(
            ModelKind.ONE, LinearRangingEq(1.0, 0.0),
            LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0))
        ident = build_db(identity, DEFAULT_GRID, DEFAULT_ANCHORS)
        ts = TrainingSet.from_db(ident)
        tree = TreeClassifier(ts)
        forest = ForestClassifier(ts, n_trees=1, features_per_split=3,
                                  bootstrap=False, seed=12)
        probe = np.random.default_rng(4)
        queries = probe.uniform(1.0, 3000.0, size=(500, 3))
        assert np.array_equal(tree.predict_batch(queries),
                              forest.predict_batch(queries))
        assert probabilities(tree, queries[:50]) == probabilities(forest, queries[:50])

        # weight-scale invariance of the soft vote
        for _ in range(1000):
            labels = rng.integers(0, 50, size=6)
            pa = {int(l): float(p) for l, p in
                  zip(labels[:3], rng.dirichlet(np.ones(3)))}
            pb = {int(l): float(p) for l, p in
                  zip(labels[3:], rng.dirichlet(np.ones(3)))}
            v1 = soft_vote(pa, pb, VoteWeights(1.0, 2.0))
            v2 = soft_vote(pa, pb, VoteWeights(2.0, 4.0))
            assert v1 == v2
        assert time.monotonic() - start < 30.0


@pytest.mark.criterion(7, "learned pipeline beats plain trilateration")
def test_ml_beats_baseline_at_defaults(announce, capsys):
    with announce(capsys):
        start = time.monotonic()
        base_cfg = PipelineConfig(model_kind=None, seed=0)
        ml_cfg = PipelineConfig(model_kind=ModelKind.FOUR,
                                classifier="vote", seed=0)
        baseline = run_baseline(base_cfg, DEFAULT_ANCHORS)
        learned = run_ml(ml_cfg, DEFAULT_ANCHORS, DEFAULT_GRID)
        assert baseline.points == learned.points
        under_150 = 0
        for b, m in zip(baseline.entries, learned.entries):
            assert m.avg_error < b.avg_error, (
                f"at {b.point}: {m.avg_error} !< {b.avg_error}")
            if m.avg_error < 150.0:
                under_150 += 1
        assert under_150 >= 5, f"only {under_150} points under 150 mm"
        assert time.monotonic() - start < 120.0


@pytest.mark.criterion(8, "identical seeds give byte-identical artifacts")
def test_full_runs_are_reproducible(announce, capsys, tmp_path):
    with announce(capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("grid.spacing = 250\neval.n_trials = 10\n"
                       "calibration.obs_sets = 30\ncalibration.n_select = 10\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["evaluate", "--config", str(cfg), "--model", "four",
                     "--out", str(a)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--model", "four",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        m1 = tmp_path / "m1.csv"
        m2 = tmp_path / "m2.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(m1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

        # any single draw is recomputable in isolation from its coordinates
        noise = NoiseConfig(seed=123)
        campaign = Campaign(
            locations=(PointMM(100.0, 100.0), PointMM(700.0, 1300.0)),
            reps=4, anchors=DEFAULT_ANCHORS, noise=noise)
        records = simulate_campaign(campaign)
        anchors = DEFAULT_ANCHORS.as_tuple()
        loc_idx, rep, anchor_idx = 1, 2, 1
        stream = measurement_stream(123, loc_idx, rep, anchor_idx)
        d = oracles.distance(campaign.locations[loc_idx], anchors[anchor_idx])
        want = simulate_range(d, noise, stream)
        assert records[loc_idx].ranges[rep].tolist()[anchor_idx] == want
