"""Measurement loop, metrics and result lines of the uwbloc benchmark."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import CLASSIFIERS, Tracer, instrumented, layer_busy, name_totals, self_times
from workloads import FIXED_EVALS, make_workload

from uwbloc.config import load_config

SETUP_PROBES = 10
# A fresh interpreter made ready to evaluate: argv is a config path ("" for
# none) followed by key=value overrides.
SETUP_PROBE = """\
import sys
from uwbloc.config import load_config
path, *pairs = sys.argv[1:]
cfg = load_config(path or None, dict(p.split("=", 1) for p in pairs))
cfg.pipeline(); cfg.anchors(); cfg.grid()
"""
CLI_COMMANDS = ("simulate", "fit", "build-db", "evaluate", "compare")
EVAL_SPANS = ("evaluation.run_baseline", "evaluation.run_ml")
#: traced-run values that ROADMAP items cite by name, per workload
FINDINGS = {
    "baseline": ("geometry.solve_failures", "simulator.share"),
    "ml_vote": ("learners.vote.tree_decisive_ratio",),
    "ml_forest": ("learners.forest.train_share",),
    "cli_dense": (),
}
_clock = time.perf_counter


def percentile(values: list[float], p: int) -> float:
    """Nearest rank: the ceil(p * n / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest whole percentile above the median with ``beyond`` samples above it.

    None when even the 51st percentile leaves fewer than ``beyond`` above.
    """
    n = len(values)
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p, percentile(values, p)
    return None


def environment(thread_vars) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


class SetupProbe:
    """Fresh interpreters getting ready to evaluate, spread evenly over a run."""

    def __init__(self, workload, root: Path, seconds: float):
        self.cmd = [sys.executable, "-c", SETUP_PROBE, *workload.setup_args()]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.problems: list[str] = []

    def due(self, elapsed: float) -> bool:
        return len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.interval

    def run(self) -> None:
        t0 = _clock()
        proc = subprocess.run(self.cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=60)
        self.times.append(_clock() - t0)
        if proc.returncode != 0:
            self.problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]!r}")


class Loop:
    """Runs evaluations back to back and keeps what the checks reported."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fixed: list = []  # outcomes of the first FIXED_EVALS evaluations

    def run_one(self, index: int, tracer: Tracer | None = None):
        """Execute (timed, traced when given a tracer), then verify (untimed).

        Returns (seconds, outcome), or (None, None) when the evaluation raised.
        """
        t0 = _clock()
        try:
            if tracer is None:
                result = self.w.execute(self.seed, index)
            else:
                with instrumented(tracer):
                    result = self.w.execute(self.seed, index, tracer.call)
            seconds = _clock() - t0
            outcome = self.w.verify(result)
        except Exception:  # an evaluation that raises is a failed one; keep going
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"evaluation {index} raised:\n{traceback.format_exc()}")
            return None, None
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        return seconds, outcome

    def keep(self, index: int, outcome) -> None:
        if index < FIXED_EVALS[self.w.name] and outcome is not None:
            self.fixed.append(outcome)

    def error_summary(self) -> dict:
        reports = [o.report for o in self.fixed if o.report is not None]
        if not reports:
            return {}
        entries = [e for r in reports for e in r.entries]
        # per-point max averaged like the avg column: the single largest max
        # of a run swings by +-13% between seeds, too wide for a bound
        digest = hashlib.sha256(b"".join(o.artifact for o in self.fixed)).hexdigest()
        return {
            "mean_error_mm": statistics.fmean(e.avg_error for e in entries),
            "max_error_mm": statistics.fmean(e.max_error for e in entries),
            "report_sha256": digest,
        }


def measure(name: str, seed: int, seconds: float, work_dir: Path, root: Path) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics."""
    w = make_workload(name)
    try:
        w.setup(work_dir)
        probe = SetupProbe(w, root, seconds)
        loop = Loop(w, seed)
        times = []
        start = _clock()
        index = 0
        while index < FIXED_EVALS[name] or _clock() - start < seconds:
            while probe.due(_clock() - start):
                probe.run()
            t, outcome = loop.run_one(index)
            if t is not None:
                times.append(t)
            loop.keep(index, outcome)
            index += 1
        while probe.due(math.inf):
            probe.run()
        loop.problems += probe.problems
    finally:
        w.cleanup()
    errors = loop.error_summary()
    metrics = {
        # p90, not the median or the mean: on a shared host the machine runs in
        # a fast or a slow mode for tens of seconds at a time, and a run's
        # median and mean move with the mix of the two (see README.md); the
        # set-up probes are spread over the run for the same reason
        "eval_s_p90": (percentile(times, 90) if times else math.nan, "s"),
        "setup_s": (statistics.median(probe.times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_error_mm": (errors.get("mean_error_mm", math.nan), "mm"),
        "max_error_mm": (errors.get("max_error_mm", math.nan), "mm"),
    }
    tail = tail_percentile(times)
    detail = {
        "evaluations": len(times),
        "eval_s_p50": statistics.median(times) if times else None,
        "eval_s_mean": statistics.fmean(times) if times else None,
        "eval_s_tail": None if tail is None else
        {"percentile": tail[0], "value": tail[1], "unit": "s", "samples": len(times)},
        "setup_s_samples": probe.times,
        "failed_ratio": loop.failed / max(loop.attempted, 1),
        "report_sha256": errors.get("report_sha256"),
    }
    return _result(loop, metrics), detail


class TraceTotals:
    """Span and counter sums over the traced evaluations of one run."""

    def __init__(self) -> None:
        self.evals = 0
        self.busy: Counter = Counter()
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.top_s = 0.0  # time in top-level spans: the traced evaluations themselves
        self.eval_s = 0.0
        self.eval_self_s = 0.0
        self.learners_predict_s = 0.0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0

    def add(self, tracer: Tracer) -> None:
        self.evals += 1
        spans = tracer.spans
        seconds, calls = name_totals(spans)
        self.seconds += seconds
        self.calls += calls
        self.busy += layer_busy(spans)
        self.counters += tracer.counters
        for s, own in zip(spans, self_times(spans)):
            if s.parent < 0:
                self.top_s += s.duration
            if s.name in EVAL_SPANS:
                self.eval_s += s.duration
                self.eval_self_s += own
            if (s.layer == "learners" and s.name.endswith(".predict")
                    and (s.parent < 0 or spans[s.parent].layer != "learners")):
                self.learners_predict_s += s.duration

    def metrics(self) -> dict[str, tuple[float, str]]:
        n = max(self.evals, 1)
        c, sec, busy = self.counters, self.seconds, self.busy

        def per_eval(v):
            return v / n

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {
            "simulator.draws": (per_eval(c["simulator.draws"]), "count"),
            "simulator.busy_s": (per_eval(busy["simulator"]), "s"),
            "simulator.us_per_draw": (ratio(busy["simulator"], c["simulator.draws"]) * 1e6, "us"),
            "simulator.share": (ratio(busy["simulator"], self.top_s), "ratio"),
            "geometry.solves": (per_eval(c["geometry.solves"]), "count"),
            "geometry.busy_s": (per_eval(busy["geometry"]), "s"),
            "geometry.solve_failures": (per_eval(c["geometry.solve_failures"]), "count"),
            "preprocess.busy_s": (per_eval(busy["preprocess"]), "s"),
            "preprocess.corrected_ratio":
                (ratio(c["preprocess.ranges_shrunk"], c["preprocess.ranges"]), "ratio"),
            "calibration.busy_s": (per_eval(busy["calibration"]), "s"),
            "calibration.sets_kept_ratio":
                (ratio(c["calibration.sets_kept"], c["calibration.sets_in"]), "ratio"),
            "calibration.fit_sets_skipped": (per_eval(c["calibration.fit_sets_skipped"]), "count"),
            "fingerprint.busy_s": (per_eval(busy["fingerprint"]), "s"),
            "fingerprint.cells": (per_eval(c["fingerprint.cells"]), "count"),
            "fingerprint.us_per_cell":
                (ratio(sec["fingerprint.build_db"], c["fingerprint.cells"]) * 1e6, "us"),
        }
        train_s = sum(sec[f"learners.{k}.train"] for k in CLASSIFIERS.values())
        train_rows = sum(c[f"learners.{k}.train_rows"] for k in CLASSIFIERS.values())
        m.update({
            "learners.train_s": (per_eval(train_s), "s"),
            "learners.train_rows": (per_eval(train_rows), "count"),
            "learners.predict_s": (per_eval(self.learners_predict_s), "s"),
            "learners.queries": (per_eval(c["learners.queries"]), "count"),
            "learners.us_per_query":
                (ratio(self.learners_predict_s, c["learners.queries"]) * 1e6, "us"),
        })
        for k in CLASSIFIERS.values():
            predict_s, queries = sec[f"learners.{k}.predict"], c[f"learners.{k}.queries"]
            m.update({
                f"learners.{k}.train_s": (per_eval(sec[f"learners.{k}.train"]), "s"),
                f"learners.{k}.train_rows": (per_eval(c[f"learners.{k}.train_rows"]), "count"),
                f"learners.{k}.predict_s": (per_eval(predict_s), "s"),
                f"learners.{k}.queries": (per_eval(queries), "count"),
                f"learners.{k}.us_per_query": (ratio(predict_s, queries) * 1e6, "us"),
            })
        m.update({
            "learners.tree_nodes": (per_eval(c["learners.tree_nodes"]), "count"),
            "learners.vote.tree_decisive_ratio":
                (ratio(c["learners.vote.decisive"], c["learners.vote.checked"]), "ratio"),
            "learners.forest.train_share": (ratio(sec["learners.forest.train"], self.top_s), "ratio"),
            "evaluation.self_s": (per_eval(self.eval_self_s), "s"),
            "evaluation.span_coverage": (ratio(self.eval_s - self.eval_self_s, self.eval_s), "ratio"),
            "config.load_s":
                (ratio(sec["config.load_config"], self.calls["config.load_config"]), "s"),
        })
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = (per_eval(sec[f"cli.{cmd}"]), "s")
        io_s = sum(v for k, v in sec.items() if k.startswith("cli.io."))
        m.update({
            "cli.io_s": (per_eval(io_s), "s"),
            "cli.bytes_written": (per_eval(c["cli.bytes_written"]), "B"),
            "cli.bytes_read": (per_eval(c["cli.bytes_read"]), "B"),
            "trace.overhead_ratio": (ratio(self.traced_wall, self.untraced_wall), "ratio"),
        })
        return m


def _check_votes(tracer: Tracer) -> tuple[int, int]:
    """(vote queries, those whose label differs from the KNN voter's own answer).

    Runs after the traced evaluation has been added up; the spans it opens
    are discarded with the tracer's next reset.
    """
    checked = decisive = 0
    for knn, X, labels in tracer.vote_checks:
        knn_labels = type(knn).predict_batch(knn, X)
        checked += len(labels)
        decisive += int(np.count_nonzero(knn_labels != labels))
    return checked, decisive


def measure_traced(name: str, seed: int, seconds: float, work_dir: Path) -> tuple[dict, dict]:
    """Traced run: each evaluation runs untraced, then traced, with identical output."""
    w = make_workload(name)
    tracer = Tracer()
    totals = TraceTotals()
    try:
        w.setup(work_dir, lambda *a: tracer.call("config.load_config", load_config, *a))
        setup_seconds, setup_calls = name_totals(tracer.spans)
        totals.seconds += setup_seconds
        totals.calls += setup_calls
        tracer.reset()
        loop = Loop(w, seed)
        start = _clock()
        index = 0
        while index < FIXED_EVALS[name] or _clock() - start < seconds:
            plain_s, plain = loop.run_one(index)
            traced_s, traced = loop.run_one(index, tracer)
            if traced is not None:
                totals.add(tracer)
                checked, decisive = _check_votes(tracer)
                totals.counters["learners.vote.checked"] += checked
                totals.counters["learners.vote.decisive"] += decisive
            tracer.reset()
            if plain is not None and traced is not None:
                totals.untraced_wall += plain_s
                totals.traced_wall += traced_s
                if plain.artifact != traced.artifact:
                    loop.problems.append(f"evaluation {index}: traced output differs from untraced")
                    loop.failed += 1
            loop.keep(index, traced)
            index += 1
    finally:
        w.cleanup()
    metrics = totals.metrics()
    detail = {
        "evaluations": totals.evals,
        "failed_ratio": loop.failed / max(loop.attempted, 1),
        **loop.error_summary(),
        "findings": {f"{name}.{k}": metrics[k][0] for k in FINDINGS[name]},
    }
    return _result(loop, metrics), detail


def _result(loop: Loop, metrics: dict[str, tuple[float, str]]) -> dict:
    ok = loop.failed == 0 and not loop.problems and all(
        math.isfinite(v) for v, _ in metrics.values())
    for p in loop.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
