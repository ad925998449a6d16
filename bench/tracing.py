"""Span recorder and runtime instrumentation of the uwbloc modules.

Nothing here changes the package on disk. ``instrumented(tracer)``
replaces, for the duration of a ``with`` block and inside this process
only, the names that ``uwbloc.evaluation`` and ``uwbloc.cli`` import from
the other modules (plus the draw functions ``simulate_campaign`` calls and
the MAD mask ``clean_observation_rows`` calls), so that each call into a
layer opens a span. A span's layer is the first dotted part
of its name, which is always a package module name.
"""

from __future__ import annotations

import contextlib
import os
import re
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counters of one traced evaluation, kept in memory.

    A call nested directly in a span of the same name (a method that calls
    its own public sibling, such as ``predict_batch`` calling
    ``predict_proba_batch``) is part of that span and opens none.
    """

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    vote_checks: list = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def current(self) -> Span | None:
        """The innermost open span."""
        return self.spans[self._open[-1]] if self._open else None

    def call(self, name, fn, *args, **kwargs):
        outer = self.current()
        if outer is not None and outer.name == name:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else -1
        span = Span(name, parent, 0.0)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = _clock()
            self._open.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.vote_checks.clear()


# -- reading spans -----------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span never overlap (the process is single-threaded),
    so the covered part is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_busy(spans: list[Span]) -> Counter:
    """Seconds per layer, counting only spans not nested in the same layer."""
    busy: Counter = Counter()
    for s in spans:
        if s.parent < 0 or spans[s.parent].layer != s.layer:
            busy[s.layer] += s.duration
    return busy


def name_totals(spans: list[Span]) -> tuple[Counter, Counter]:
    """Summed duration and call count per span name."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        seconds[s.name] += s.duration
        calls[s.name] += 1
    return seconds, calls


# -- instrumentation ---------------------------------------------------------

_EVALUATION_NAMES = {
    "measurement_stream": "simulator",
    "simulate_range": "simulator",
    "simulate_campaign": "simulator",
    "derive_seed": "simulator",
    "correct_triple": "preprocess",
    "clean_observation_rows": "calibration",
    "fit_model": "calibration",
    "build_db": "fingerprint",
    "cell_vertex": "fingerprint",
    "trilaterate": "geometry",
    "distance": "geometry",
}
_CLI_NAMES = {
    "load_config": "config",
    "simulate_campaign": "simulator",
    "derive_seed": "simulator",
    "clean_observation_rows": "calibration",
    "fit_model": "calibration",
    "build_db": "fingerprint",
    "run_baseline": "evaluation",
    "run_ml": "evaluation",
    "compare": "evaluation",
    "format_report": "evaluation",
    "format_comparison": "evaluation",
}
# file readers and writers the CLI calls; their spans belong to the cli layer
_CLI_IO_NAMES = (
    "read_measurements", "write_measurements", "read_calibration", "write_calibration",
    "write_db", "read_report", "write_report", "write_comparison",
)
CLASSIFIERS = {
    "KnnClassifier": "knn",
    "TreeClassifier": "tree",
    "ForestClassifier": "forest",
    "SoftVoteClassifier": "vote",
}
_SKIPPED_SETS = re.compile(r"skipped (\d+) measurement set")


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def _wrap_trilaterate(tracer: Tracer, fn, collinear_error):
    def traced(*args, **kwargs):
        tracer.count("geometry.solves")
        try:
            return tracer.call("geometry.trilaterate", fn, *args, **kwargs)
        except collinear_error:
            tracer.count("geometry.solve_failures")
            raise

    return traced


def _wrap_fit_model(tracer: Tracer, fn):
    def traced(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = tracer.call("calibration.fit_model", fn, *args, **kwargs)
        for w in caught:
            m = _SKIPPED_SETS.search(str(w.message))
            if m:
                tracer.count("calibration.fit_sets_skipped", int(m.group(1)))
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    return traced


def _wrap_predict(tracer: Tracer, kind: str, inst, method: str):
    fn = getattr(inst, method)
    name = f"learners.{kind}.predict"

    def traced(X):
        outer = tracer.current()
        labels = tracer.call(name, fn, X)
        if outer is None or outer.layer != "learners":
            tracer.count("learners.queries", len(X))
        if outer is None or outer.name != name:
            tracer.count(f"learners.{kind}.queries", len(X))
            if kind == "vote" and method == "predict_batch":
                tracer.vote_checks.append((inst.knn, X, labels))
        return labels

    setattr(inst, method, traced)


def _wrap_classifier(tracer: Tracer, cls, kind: str):
    def traced(*args, **kwargs):
        inst = tracer.call(f"learners.{kind}.train", cls, *args, **kwargs)
        if kind != "vote":
            tracer.count(f"learners.{kind}.train_rows", len(args[0]))
        if kind == "tree":
            tracer.count("learners.tree_nodes", inst.node_count)
        for method in ("predict_batch", "predict_proba_batch"):
            if hasattr(inst, method):
                _wrap_predict(tracer, kind, inst, method)
        return inst

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route calls between uwbloc modules through ``tracer`` while open."""
    from uwbloc import calibration, cli, evaluation, simulator
    from uwbloc.geometry import CollinearAnchorsError

    def count_corrected(args, kwargs, result):
        before, after = args[0].as_tuple(), result.as_tuple()
        tracer.count("preprocess.ranges", 3)
        tracer.count("preprocess.ranges_shrunk", sum(a < b for a, b in zip(after, before)))

    def count_sets(args, kwargs, result):
        points = args[1] if len(args) > 1 else kwargs.get("points", calibration.REFERENCE_POINTS)
        per_location = Counter(row.location for row in args[0])
        tracer.count("calibration.sets_in", min(per_location[p] for p in points))
        tracer.count("calibration.sets_kept", result.n_sets)

    def count_cells(args, kwargs, result):
        tracer.count("fingerprint.cells", len(result))

    def count_draws(args, kwargs, result):
        tracer.count("simulator.draws")

    def io_bytes(direction):
        def after(args, kwargs, result):
            tracer.count(f"cli.bytes_{direction}", os.path.getsize(args[0]))

        return after

    hooks = {
        "correct_triple": count_corrected,
        "clean_observation_rows": count_sets,
        "build_db": count_cells,
        "simulate_range": count_draws,
    }
    patches = []  # (module, attribute, wrapper)
    for module, names in ((evaluation, _EVALUATION_NAMES), (cli, _CLI_NAMES)):
        for attr, layer in names.items():
            fn = getattr(module, attr)
            if attr == "trilaterate":
                wrapper = _wrap_trilaterate(tracer, fn, CollinearAnchorsError)
            elif attr == "fit_model":
                wrapper = _wrap_fit_model(tracer, fn)
            else:
                wrapper = _wrap(tracer, f"{layer}.{attr}", fn, hooks.get(attr))
            patches.append((module, attr, wrapper))
    for attr in _CLI_IO_NAMES:
        direction = "read" if attr.startswith("read_") else "written"
        patches.append(
            (cli, attr, _wrap(tracer, f"cli.io.{attr}", getattr(cli, attr), io_bytes(direction)))
        )
    for attr, kind in CLASSIFIERS.items():
        patches.append((evaluation, attr, _wrap_classifier(tracer, getattr(evaluation, attr), kind)))
    # draws inside simulate_campaign and the MAD mask inside clean_observation_rows
    for attr in ("measurement_stream", "simulate_range"):
        patches.append(
            (simulator, attr, _wrap(tracer, f"simulator.{attr}", getattr(simulator, attr),
                                    hooks.get(attr)))
        )
    patches.append(
        (calibration, "mad_keep_mask",
         _wrap(tracer, "preprocess.mad_keep_mask", calibration.mad_keep_mask))
    )

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
