"""End-to-end evaluation: baseline and fingerprint pipelines, reports, comparison.

Both pipelines measure the same thing: simulate repeated visits to a set
of test points, position each visit, and report the average and maximum
2-D error per point in millimeters. The baseline positions by plain
trilateration of the (corrected) measured ranges; the fingerprint
pipeline first fits a calibration model from a simulated reference-point
campaign, predicts a fingerprint DB over the grid, and classifies each
visit into a cell.

``run_ml`` composes two stage functions that the CLI calls too:
``observation_campaign`` (the ``simulate`` command) and
``fit_calibration`` (the ``fit`` command). So ``simulate`` with
``campaign.locations`` set to the reference points and ``campaign.reps``
to ``calibration.obs_sets``, then ``fit``, writes exactly the equations
that ``run_ml`` records as ``eq_A``..``eq_C``.

All randomness flows from ``PipelineConfig.seed``; observation campaign,
model-fit set selection, forest training, and test trials each use a
derived stage seed, so the two pipelines see identical test measurements.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, Mapping, Sequence

import numpy as np

from .calibration import (
    REFERENCE_POINTS,
    ANCHOR_NAMES,
    CalibrationModel,
    ModelKind,
    ObservationData,
    check_fit_setting,
    clean_observation_rows,
    fit_model,
)
from .errors import FileFormatError, at_line, parse_number, read_text
from .fingerprint import FingerprintDB, GridSpec, build_db, cell_vertex, cell_vertices
from .geometry import AnchorLayout, PointMM, distance, trilaterate
from .learners import (
    ForestClassifier,
    KnnClassifier,
    SoftVoteClassifier,
    TrainingSet,
    TreeClassifier,
    VoteWeights,
    check_cart_setting,
)
from .preprocess import MAD_SCALE_NORMAL, CorrectionPolicy, check_mad_setting, correct_range_batch
from .simulator import (
    MAX_REPS,
    Campaign,
    NoiseConfig,
    STAGE_AUGMENT,
    STAGE_FOREST,
    STAGE_OBSERVATION,
    STAGE_SELECTION,
    STAGE_TRIALS,
    Visits,
    derive_seed,
    simulate_campaign,
    simulate_visits,
)

# Not called here: bench/tracing.py instruments these names on this module.
from .preprocess import correct_triple
from .simulator import measurement_stream, simulate_range

__all__ = [
    "MismatchedTestPointsError",
    "TEST_POINTS",
    "CLASSIFIERS",
    "PipelineConfig",
    "PointErrors",
    "ErrorReport",
    "ComparisonColumn",
    "ComparisonTable",
    "observation_campaign",
    "fit_calibration",
    "run_baseline",
    "run_ml",
    "compare",
    "format_report",
    "parse_report",
    "write_report",
    "read_report",
    "format_comparison",
    "write_comparison",
    "load_reference_report",
    "list_reference_reports",
]

#: The six positions used by the reference evaluation, in report order.
TEST_POINTS = (
    PointMM(250.0, 1500.0),
    PointMM(250.0, 500.0),
    PointMM(500.0, 0.0),
    PointMM(500.0, 2000.0),
    PointMM(750.0, 1500.0),
    PointMM(750.0, 500.0),
)

#: The classifier kinds a fingerprint run can use, by config name.
CLASSIFIERS = ("knn", "tree", "forest", "vote")


class MismatchedTestPointsError(ValueError):
    """Reports cannot be compared point-by-point."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one evaluation run depends on.

    ``model_kind`` None selects the trilateration baseline; any other kind
    selects the fingerprint pipeline with the given classifier.
    """

    model_kind: ModelKind | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    correction: CorrectionPolicy = field(default_factory=CorrectionPolicy)
    classifier: str = "vote"
    vote_weights: VoteWeights = field(default_factory=VoteWeights)
    n_trials: int = 400
    test_points: tuple[PointMM, ...] = TEST_POINTS
    reference_points: tuple[PointMM, ...] = REFERENCE_POINTS
    seed: int = 0
    knn_k: int = 1
    tree_max_depth: int | None = None
    tree_min_leaf: int = 1
    forest_trees: int = 100
    forest_features: int = 1
    forest_bootstrap: bool = True
    obs_sets: int = 300
    n_select: int = 60
    mad_k: float = 3.0
    mad_scale: float = MAD_SCALE_NORMAL
    augment: int = 0

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"classifier must be one of {CLASSIFIERS}, got {self.classifier!r}")
        if len(self.test_points) == 0:
            raise ValueError("at least one test point required")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.knn_k < 1:  # the rest of KnnClassifier's rule, k <= n, needs the DB size
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        # each counts the visits to one location, and a visit is one word of a draw's key
        for n, v, lo in (("n_trials", self.n_trials, 1), ("obs_sets", self.obs_sets, 1),
                         ("augment", self.augment, 0)):
            if not lo <= v <= MAX_REPS:
                raise ValueError(f"{n} must be in {lo}..{MAX_REPS}, got {v}")
        check_fit_setting(self.reference_points, self.n_select)
        check_cart_setting(self.tree_max_depth, self.tree_min_leaf, self.forest_trees,
                           self.forest_features)
        check_mad_setting(self.mad_k, self.mad_scale)

    def params_hash(self) -> str:
        """Stable digest of this configuration, stored in report metadata."""
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PointErrors:
    """Aggregated positioning error at one test point (mm, 5 decimals).

    ``max_error`` may be None for externally sourced tables that only
    publish averages.
    """

    point: PointMM
    avg_error: float
    max_error: float | None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.avg_error) and self.avg_error >= 0.0):
            raise ValueError(f"avg_error must be finite and >= 0, got {self.avg_error}")
        if self.max_error is not None:
            if not math.isfinite(self.max_error):
                raise ValueError("max_error must be finite")
            if self.max_error < self.avg_error:
                raise ValueError(
                    f"max_error {self.max_error} smaller than avg_error {self.avg_error}"
                )


@dataclass(frozen=True)
class ErrorReport:
    """Per-point error statistics plus run metadata."""

    entries: tuple[PointErrors, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("report has no entries")

    @property
    def points(self) -> tuple[PointMM, ...]:
        return tuple(e.point for e in self.entries)


def _measured_triples(
    cfg: PipelineConfig, stage: int, xy: np.ndarray | Sequence[tuple[float, float]], reps: int,
    anchors: AnchorLayout,
) -> np.ndarray:
    """Corrected range triples of ``reps`` visits to each (x, y) row of ``xy``, shape (m, reps, 3)."""
    ranges = simulate_visits(xy, anchors, reps, cfg.noise, derive_seed(cfg.seed, stage))
    return correct_range_batch(ranges, cfg.correction)


def observation_campaign(
    cfg: PipelineConfig, anchors: AnchorLayout, locations: tuple[PointMM, ...], reps: int,
) -> Campaign:
    """``reps`` visits to each of ``locations``, drawn from the observation-stage seed."""
    return Campaign(locations, reps, anchors,
                    replace(cfg.noise, seed=derive_seed(cfg.seed, STAGE_OBSERVATION)))


def fit_calibration(
    cfg: PipelineConfig, records: list[Visits], anchors: AnchorLayout,
) -> tuple[ObservationData, CalibrationModel]:
    """Clean ``records`` at the reference points, then fit ``cfg.model_kind`` from them."""
    obs = clean_observation_rows(
        records,
        cfg.reference_points,
        mad_k=cfg.mad_k,
        mad_scale=cfg.mad_scale,
        policy=cfg.correction,
    )
    model = fit_model(
        cfg.model_kind, obs, anchors,
        n_select=cfg.n_select,
        seed=derive_seed(cfg.seed, STAGE_SELECTION),
    )
    return obs, model


def _point_errors(point: PointMM, errors: list[float]) -> PointErrors:
    """A point's mean and max error, each rounded to 5 decimals.

    The mean of values never exceeds their max, but their float sum can: with equal errors at a
    scale where 5 decimals no longer absorb an ulp, the mean is clamped to the max."""
    worst = round(max(errors), 5)
    return PointErrors(point, min(round(sum(errors) / len(errors), 5), worst), worst)


def _score(
    cfg: PipelineConfig, anchors: AnchorLayout, locate: Callable[[np.ndarray], np.ndarray],
    metadata: Mapping[str, str],
) -> ErrorReport:
    """Draw the test visits, position them with ``locate`` and report each point's errors.

    ``locate`` maps (n, 3) range triples to (n, 2) positions. It runs after
    the draws, so their scratch memory is freed before it builds anything.
    """
    test_xy = [p.as_tuple() for p in cfg.test_points]
    queries = _measured_triples(cfg, STAGE_TRIALS, test_xy, cfg.n_trials, anchors)
    positions = locate(queries.reshape(-1, 3)).reshape(queries.shape[:2] + (2,))
    # Python floats: sum adds them in order, as the report's bytes need
    errors = distance(positions, np.array(test_xy)[:, None]).tolist()
    entries = tuple(_point_errors(p, e) for p, e in zip(cfg.test_points, errors))
    return ErrorReport(entries, {
        "pipeline": "baseline" if cfg.model_kind is None else "fingerprint",
        "seed": str(cfg.seed),
        "n_trials": str(cfg.n_trials),
        # a classifier labels every query, and trilaterate solves every row or fails the run
        "failed_trials": "0",
        "correction_ratio": repr(cfg.correction.ratio),
        "params_hash": cfg.params_hash(),
        **metadata,
    })


def run_baseline(cfg: PipelineConfig, anchors: AnchorLayout) -> ErrorReport:
    """Trilateration-only evaluation; the reference everything else beats."""
    if cfg.model_kind is not None:
        raise ValueError("baseline run must have model_kind None")
    return _score(cfg, anchors, lambda X: trilaterate(anchors, X), {})


def _training_set(cfg: PipelineConfig, db: FingerprintDB, anchors: AnchorLayout) -> TrainingSet:
    base = TrainingSet.from_db(db)
    if cfg.augment == 0:
        return base
    # noisy copies of each cell, drawn like query-time measurements
    extra = _measured_triples(cfg, STAGE_AUGMENT, cell_vertices(db.spec), cfg.augment, anchors)
    X = np.vstack([base.X, extra.reshape(-1, 3)])
    y = np.concatenate([base.y, np.repeat(np.arange(len(db), dtype=np.int64), cfg.augment)])
    return TrainingSet(X, y, db.spec)


def _build_classifier(cfg: PipelineConfig, train: TrainingSet):
    if cfg.classifier == "knn":
        return KnnClassifier(train, cfg.knn_k)
    if cfg.classifier == "tree":
        return TreeClassifier(train, cfg.tree_max_depth, cfg.tree_min_leaf)
    if cfg.classifier == "forest":
        return ForestClassifier(
            train,
            n_trees=cfg.forest_trees,
            features_per_split=cfg.forest_features,
            max_depth=cfg.tree_max_depth,
            min_leaf=cfg.tree_min_leaf,
            seed=derive_seed(cfg.seed, STAGE_FOREST),
            bootstrap=cfg.forest_bootstrap,
        )
    knn = KnnClassifier(train, cfg.knn_k)
    if not cfg.vote_weights.tree_can_decide(knn.k):
        return knn  # the vote's answers are the KNN's
    tree = TreeClassifier(train, cfg.tree_max_depth, cfg.tree_min_leaf)
    return SoftVoteClassifier(knn, tree, cfg.vote_weights)


def run_ml(cfg: PipelineConfig, anchors: AnchorLayout, spec: GridSpec) -> ErrorReport:
    """Full fingerprint pipeline: observe, fit, build DB, train, evaluate."""
    if cfg.model_kind is None:
        raise ValueError("fingerprint run needs a model kind; use run_baseline for none")
    spec.check_inside(cfg.test_points + cfg.reference_points)

    campaign = observation_campaign(cfg, anchors, cfg.reference_points, cfg.obs_sets)
    _, model = fit_calibration(cfg, simulate_campaign(campaign), anchors)
    db = build_db(model, spec, anchors)

    def locate(queries: np.ndarray) -> np.ndarray:
        clf = _build_classifier(cfg, _training_set(cfg, db, anchors))
        return cell_vertex(spec, clf.predict_batch(queries))

    metadata = {"model": cfg.model_kind.value, "classifier": cfg.classifier}
    for name in ANCHOR_NAMES:
        metadata[f"eq_{name}"] = model.equation(name).as_text()
    if cfg.classifier == "vote":
        metadata["vote_weights"] = cfg.vote_weights.as_text()
    return _score(cfg, anchors, locate, metadata)


# -- comparison -------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonColumn:
    """One candidate report laid against the baseline."""

    avg: tuple[float, ...]
    max: tuple[float | None, ...]
    reduction_pct: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonTable:
    points: tuple[PointMM, ...]
    baseline_avg: tuple[float, ...]
    candidates: tuple[ComparisonColumn, ...]


def compare(reports: Sequence[ErrorReport]) -> ComparisonTable:
    """Side-by-side error comparison; the first report is the baseline.

    Reduction is (baseline_avg - candidate_avg) / baseline_avg * 100 per
    point. All reports must cover the same points in the same order.
    """
    if len(reports) < 2:
        raise MismatchedTestPointsError(f"need at least two reports, got {len(reports)}")
    base = reports[0]
    points = base.points
    for r in reports[1:]:
        if r.points != points:
            raise MismatchedTestPointsError(
                f"test points differ: {[p.as_tuple() for p in points]} vs "
                f"{[p.as_tuple() for p in r.points]}"
            )
    baseline_avg = tuple(e.avg_error for e in base.entries)
    candidates = []
    for r in reports[1:]:
        avgs = tuple(e.avg_error for e in r.entries)
        maxes = tuple(e.max_error for e in r.entries)
        reductions = []
        for b, c in zip(baseline_avg, avgs):
            if b > 0.0:
                reductions.append((b - c) / b * 100.0)
            else:
                reductions.append(0.0 if c == 0.0 else math.nan)
        candidates.append(ComparisonColumn(avgs, maxes, tuple(reductions)))
    return ComparisonTable(points, baseline_avg, tuple(candidates))


# -- serialization ----------------------------------------------------------

REPORT_HEADER = "point_x,point_y,avg_error_mm,max_error_mm"
COMPARISON_HEADER = REPORT_HEADER + ",baseline_avg_mm,reduction_pct"


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.5f}"


def _text_table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns, two spaces apart, each as wide as its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows) + "\n"


def format_report(report: ErrorReport, fmt: str = "delimited") -> str:
    """Render a report as 'delimited' (machine) or 'text' (human) output."""
    if fmt == "delimited":
        lines = [f"# {k} = {report.metadata[k]}" for k in sorted(report.metadata)]
        lines.append(REPORT_HEADER)
        for e in report.entries:
            lines.append(
                f"{e.point.x:.5f},{e.point.y:.5f},{_fmt(e.avg_error)},{_fmt(e.max_error)}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "text":
        rows = [("Point", "Avg error (mm)", "Max error (mm)")]
        for e in report.entries:
            rows.append(
                (f"({e.point.x:g},{e.point.y:g})", f"{e.avg_error:.5f}",
                 "-" if e.max_error is None else f"{e.max_error:.5f}")
            )
        return _text_table(rows)
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str, origin: str = "<report>") -> ErrorReport:
    """Parse delimited report text; the inverse of format_report('delimited')."""
    metadata: dict[str, str] = {}
    entries: list[PointErrors] = []
    header_seen = False
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if not sep:
                raise FileFormatError(f"{origin}:{ln}: metadata line needs 'key = value'")
            metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line.strip() != REPORT_HEADER:
                raise FileFormatError(f"{origin}:{ln}: expected header '{REPORT_HEADER}'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FileFormatError(f"{origin}:{ln}: expected 4 fields, got {len(parts)}")
        with at_line(origin, ln):
            x, y, avg = (parse_number(p) for p in parts[:3])
            mx = None if parts[3] == "" else parse_number(parts[3])
            entries.append(PointErrors(PointMM(x, y), avg, mx))
    if not header_seen:
        raise FileFormatError(f"{origin}: missing header '{REPORT_HEADER}'")
    if not entries:
        raise FileFormatError(f"{origin}: report has no data rows")
    return ErrorReport(tuple(entries), metadata)


def write_report(path: str, report: ErrorReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report, "delimited"))


def read_report(path: str) -> ErrorReport:
    return parse_report(read_text(path), origin=path)


def format_comparison(table: ComparisonTable, fmt: str = "delimited") -> str:
    """Render a comparison table.

    The delimited single-candidate header is ``COMPARISON_HEADER``; each
    further candidate appends numbered avg/max/reduction columns.
    """
    if fmt == "delimited":
        header = COMPARISON_HEADER
        for j in range(2, len(table.candidates) + 1):
            header += f",avg_error_mm_{j},max_error_mm_{j},reduction_pct_{j}"
        lines = [header]
        for i, p in enumerate(table.points):
            first = table.candidates[0]
            cells = [
                f"{p.x:.5f}", f"{p.y:.5f}",
                _fmt(first.avg[i]), _fmt(first.max[i]),
                _fmt(table.baseline_avg[i]), f"{first.reduction_pct[i]:.2f}",
            ]
            for cand in table.candidates[1:]:
                cells += [_fmt(cand.avg[i]), _fmt(cand.max[i]), f"{cand.reduction_pct[i]:.2f}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        rows = [("Point", "Baseline avg", "Candidate avg", "Reduction")]
        for i, p in enumerate(table.points):
            for cand in table.candidates:
                rows.append(
                    (f"({p.x:g},{p.y:g})", f"{table.baseline_avg[i]:.5f}",
                     f"{cand.avg[i]:.5f}", f"{cand.reduction_pct[i]:.2f}%")
                )
        return _text_table(rows)
    raise ValueError(f"unknown comparison format {fmt!r}")


def write_comparison(path: str, table: ComparisonTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_comparison(table, "delimited"))


# -- shipped hardware reference tables --------------------------------------


def list_reference_reports() -> list[str]:
    """Names of the bundled hardware-measured error tables."""
    pkg = resources.files("uwbloc.fixtures")
    return sorted(p.name[: -len(".csv")] for p in pkg.iterdir() if p.name.endswith(".csv"))


def load_reference_report(name: str) -> ErrorReport:
    """Load one bundled hardware table (see list_reference_reports)."""
    pkg = resources.files("uwbloc.fixtures")
    res = pkg.joinpath(f"{name}.csv")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no reference table named {name!r}") from None
    return parse_report(text, origin=f"fixtures/{name}.csv")
