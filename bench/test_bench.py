"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
from harness import TraceTotals, percentile, tail_percentile  # noqa: E402
from tracing import Span, Tracer, layer_busy, self_times  # noqa: E402
from workloads import RATIOS, eval_seed, make_workload  # noqa: E402


# -- percentile with at least ten samples beyond it ---------------------------


def test_tail_needs_ten_samples_beyond_and_sits_above_the_median():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile(list(range(20))) is None  # p51 would leave only 9 above
    p, v = tail_percentile(list(range(30)))
    assert (p, v) == (66, 19)  # rank ceil(0.66 * 30) = 20 leaves 10 above; p67 leaves 9


@pytest.mark.parametrize("n", [21, 37, 100, 250, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    values = [float(i) for i in range(n)][::-1]
    p, v = tail_percentile(values)
    assert sum(x > v for x in values) >= 10
    next_rank = -(-(p + 1) * n // 100)
    assert p == 99 or n - next_rank < 10


def test_tail_of_one_hundred_is_p90():
    assert tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)


def test_nearest_rank_percentile_of_few_samples():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 90) == 5.0  # rank ceil(4.5) = 5
    assert percentile([float(i) for i in range(12)], 90) == 10.0  # rank ceil(10.8) = 11
    assert percentile([7.0], 90) == 7.0
    assert percentile([1.0, 2.0], 50) == 1.0


# -- spans and self time --------------------------------------------------------


def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(tracing, "_clock", lambda: next(it))


def test_self_time_subtracts_direct_children_only(monkeypatch):
    # evaluation 0..10 holds simulator 1..4 (which holds simulator 2..3)
    # and learners 5..9 (which holds learners 6..8, same name: no span)
    _fake_clock(monkeypatch, [0, 1, 2, 3, 4, 5, 9, 10])
    tr = Tracer()

    def learners():
        return tr.call("learners.knn.predict", lambda: None)

    def run():
        tr.call("simulator.simulate_campaign",
                lambda: tr.call("simulator.simulate_range", lambda: None))
        tr.call("learners.knn.predict", learners)

    tr.call("evaluation.run_ml", run)
    names = [s.name for s in tr.spans]
    assert names == ["evaluation.run_ml", "simulator.simulate_campaign",
                     "simulator.simulate_range", "learners.knn.predict"]
    assert self_times(tr.spans) == [10 - 3 - 4, 3 - 1, 1, 4]
    busy = layer_busy(tr.spans)
    assert busy == {"evaluation": 10, "simulator": 3, "learners": 4}


def test_span_closes_when_the_call_raises(monkeypatch):
    _fake_clock(monkeypatch, [0, 2])
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        tr.call("geometry.trilaterate", lambda: 1 / 0)
    assert tr.spans[0].duration == 2 and tr.current() is None


def test_evaluation_self_time_and_coverage():
    tr = Tracer()
    tr.spans = [
        Span("evaluation.run_ml", -1, 0.0, 10.0),
        Span("simulator.simulate_campaign", 0, 1.0, 3.0),
        Span("learners.vote.predict", 0, 4.0, 9.0),
        Span("learners.knn.predict", 2, 4.0, 8.0),
    ]
    tr.counters.update({"learners.queries": 100})
    totals = TraceTotals()
    totals.add(tr)
    m = totals.metrics()
    assert m["evaluation.self_s"][0] == pytest.approx(3.0)
    assert m["evaluation.span_coverage"][0] == pytest.approx(0.7)
    assert m["simulator.share"][0] == pytest.approx(0.2)
    # the vote span already holds the knn span it caused
    assert m["learners.predict_s"][0] == pytest.approx(5.0)
    assert m["learners.us_per_query"][0] == pytest.approx(5.0 / 100 * 1e6)


# -- seed -> per-evaluation configuration ---------------------------------------


def test_eval_seed_is_deterministic_and_distinct():
    assert eval_seed("ml_vote", 3, 7) == eval_seed("ml_vote", 3, 7)
    seeds = {eval_seed("ml_vote", s, i) for s in range(5) for i in range(50)}
    assert len(seeds) == 250
    assert eval_seed("ml_vote", 3, 7) != eval_seed("baseline", 3, 7)
    assert all(0 <= s < 2**32 for s in seeds)


@pytest.mark.parametrize("name", ["baseline", "ml_vote", "ml_forest"])
def test_pipeline_configs_are_deterministic(name, tmp_path):
    a, b = make_workload(name), make_workload(name)
    a.setup(tmp_path)
    b.setup(tmp_path)
    for i in range(6):
        assert a.config(11, i) == b.config(11, i)
        assert a.config(11, i).params_hash() == b.config(11, i).params_hash()
    assert a.config(11, 0).seed != a.config(11, 1).seed
    assert a.config(11, 0).seed != a.config(12, 0).seed


def test_baseline_cycles_the_correction_ratios(tmp_path):
    w = make_workload("baseline")
    w.setup(tmp_path)
    ratios = [w.config(0, i).correction.ratio for i in range(8)]
    assert ratios == list(RATIOS) * 2
    assert all(w.config(0, i).model_kind is None for i in range(4))


def test_ml_workloads_use_the_user_defaults(tmp_path):
    vote, forest = make_workload("ml_vote"), make_workload("ml_forest")
    vote.setup(tmp_path)
    forest.setup(tmp_path)
    cfg = vote.config(0, 0)
    assert (cfg.model_kind.value, cfg.classifier, cfg.knn_k, cfg.augment) == ("four", "vote", 1, 0)
    assert (cfg.vote_weights.w_knn, cfg.vote_weights.w_tree) == (3.0, 1.0)
    assert vote.grid.cell_count == 3200
    assert forest.config(0, 0).classifier == "forest"
