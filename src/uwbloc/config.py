"""Flat key/value run configuration.

Config files are UTF-8 text, one ``section.key = value`` per line, with
``#`` comment lines and blank lines ignored. Every key has a default, so
an empty (or absent) file is a valid full configuration. Unknown keys
and duplicate keys are rejected with the offending line number. A value
is parsed by its type only; the dataclass field it sets checks its range,
and a value either rejects is a ConfigError that names the key.

A resolved :class:`RunConfig` knows which keys were set explicitly,
formats the full resolved configuration canonically (for report metadata
and hashing), and builds the domain objects the pipeline consumes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping

from .calibration import REFERENCE_POINTS, ModelKind
from .errors import FileFormatError, parse_number, read_text
from .evaluation import TEST_POINTS, PipelineConfig, observation_campaign
from .fingerprint import DEFAULT_GRID, GridSpec
from .geometry import DEFAULT_ANCHORS, AnchorLayout, PointMM
from .learners import VoteWeights
from .preprocess import CorrectionPolicy
from .simulator import Campaign, NoiseConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config_text", "resolve_config"]


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or contradiction."""


# -- per-key type parsing ---------------------------------------------------


def _to_int(s: str) -> int:
    try:
        return parse_number(s, int)
    except ValueError:
        raise ValueError(f"not an integer: {s!r}") from None


def _to_float(s: str) -> float:
    try:
        v = parse_number(s)
    except ValueError:
        raise ValueError(f"not a number: {s!r}") from None
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"not finite: {s!r}")
    return v


def _to_bool(s: str) -> bool:
    low = s.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ValueError(f"expected true or false, got {s!r}")


def _to_points(s: str) -> tuple[PointMM, ...]:
    points = []
    for chunk in s.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty point entry")
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"point must be 'x,y', got {chunk!r}")
        points.append(PointMM(_to_float(parts[0]), _to_float(parts[1])))
    return tuple(points)


def _to_weights(s: str) -> VoteWeights:
    parts = s.split(":")
    if len(parts) != 2:
        raise ValueError(f"weights must be 'KNN:TREE', got {s!r}")
    return VoteWeights(_to_float(parts[0]), _to_float(parts[1]))


def _to_depth(s: str) -> int | None:
    return None if s.strip().lower() == "none" else _to_int(s)


def _to_model_kind(s: str) -> ModelKind | None:
    low = s.strip().lower()
    try:
        return None if low == "none" else ModelKind(low)
    except ValueError:
        names = "/".join(k.value for k in ModelKind)
        raise ValueError(f"expected one of {names}/none, got {s!r}") from None


def _to_name(s: str) -> str:
    return s.strip().lower()


# -- canonical value formatting ----------------------------------------------


def _fmt_value(v: object) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, ModelKind):
        return v.value
    if isinstance(v, VoteWeights):
        return v.as_text()
    if isinstance(v, tuple):  # points
        return ";".join(f"{p.x!r},{p.y!r}" for p in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# key -> (type parser, destination). A parser reads the value's type only: the
# field the key sets checks its range, so a key's rules are its field's rules.
# grid.* and anchors.* name fields of GridSpec and AnchorLayout, campaign.*
# fields of Campaign, anything else a PipelineConfig field.
_SCHEMA: dict[str, tuple[Callable[[str], object], str]] = {
    "run.seed": (_to_int, "seed"),
    "grid.width": (_to_float, "grid.width"),
    "grid.height": (_to_float, "grid.height"),
    "grid.spacing": (_to_float, "grid.spacing"),
    "anchors.ax": (_to_float, "anchors.a.x"),
    "anchors.ay": (_to_float, "anchors.a.y"),
    "anchors.bx": (_to_float, "anchors.b.x"),
    "anchors.by": (_to_float, "anchors.b.y"),
    "anchors.cx": (_to_float, "anchors.c.x"),
    "anchors.cy": (_to_float, "anchors.c.y"),
    "noise.slope": (_to_float, "noise.slope"),
    "noise.offset": (_to_float, "noise.offset"),
    "noise.sigma": (_to_float, "noise.sigma"),
    "noise.inflation_threshold": (_to_float, "noise.inflation_threshold"),
    "noise.inflation_factor": (_to_float, "noise.inflation_factor"),
    "noise.p_outlier": (_to_float, "noise.p_outlier"),
    "correction.threshold": (_to_float, "correction.threshold"),
    "correction.ratio": (_to_float, "correction.ratio"),
    "preprocess.mad_k": (_to_float, "mad_k"),
    "preprocess.mad_scale": (_to_float, "mad_scale"),
    "calibration.kind": (_to_model_kind, "model_kind"),
    "calibration.n_select": (_to_int, "n_select"),
    "calibration.obs_sets": (_to_int, "obs_sets"),
    "calibration.reference_points": (_to_points, "reference_points"),
    "classifier.kind": (_to_name, "classifier"),
    "classifier.k": (_to_int, "knn_k"),
    "classifier.max_depth": (_to_depth, "tree_max_depth"),
    "classifier.min_leaf": (_to_int, "tree_min_leaf"),
    "classifier.trees": (_to_int, "forest_trees"),
    "classifier.features_per_split": (_to_int, "forest_features"),
    "classifier.bootstrap": (_to_bool, "forest_bootstrap"),
    "classifier.weights": (_to_weights, "vote_weights"),
    "eval.n_trials": (_to_int, "n_trials"),
    "eval.test_points": (_to_points, "test_points"),
    "campaign.reps": (_to_int, "campaign.reps"),
    "campaign.locations": (_to_points, "campaign.locations"),
    "fingerprint.augment": (_to_int, "augment"),
}


# What the first name of a destination refers to, at the keys' defaults. Those
# are the fields' defaults, but for calibration.kind (four, where PipelineConfig's
# None selects the baseline) and the campaign, whose dataclass has none.
_DEFAULT_ROOTS = {
    "grid": DEFAULT_GRID,
    "anchors": DEFAULT_ANCHORS,
    "campaign": Campaign(REFERENCE_POINTS + TEST_POINTS, 500, DEFAULT_ANCHORS, NoiseConfig()),
    **vars(PipelineConfig(model_kind=ModelKind.FOUR)),
}


def _field_default(dest: str) -> object:
    head, *rest = dest.split(".")
    return reduce(getattr, rest, _DEFAULT_ROOTS[head])


_DEFAULTS = {key: _field_default(dest) for key, (_, dest) in _SCHEMA.items()}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Extract raw key/value strings, rejecting unknown and duplicate keys."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{origin}:{ln}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}:{ln}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(
                f"{origin}:{ln}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        raw[key] = value
        first_line[key] = ln
    return raw


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A fully resolved configuration, the set of explicitly given keys, and
    the domain objects built from it."""

    values: Mapping[str, object]
    explicit: frozenset[str]
    _grid: GridSpec
    _anchors: AnchorLayout
    _pipeline: PipelineConfig
    _campaign: Campaign

    def grid(self) -> GridSpec:
        return self._grid

    def anchors(self) -> AnchorLayout:
        return self._anchors

    def pipeline(self) -> PipelineConfig:
        return self._pipeline

    def campaign(self) -> Campaign:
        """The simulate command's ``observation_campaign`` at ``campaign.locations``."""
        return self._campaign

    # canonical form ---------------------------------------------------

    def resolved_lines(self) -> list[str]:
        """Every key with its resolved value, canonically formatted, sorted."""
        return [f"{k} = {_fmt_value(self.values[k])}" for k in sorted(self.values)]

    def config_hash(self) -> str:
        text = "\n".join(self.resolved_lines())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _build(values: Mapping[str, object]) -> tuple[GridSpec, AnchorLayout, PipelineConfig, Campaign]:
    """The objects the keys' destinations name, from one value per key."""
    args: dict[str, dict] = {}  # constructor arguments, nested by destination
    for key, (_, dest) in _SCHEMA.items():
        *path, name = dest.split(".")
        node = args
        for part in path:
            node = node.setdefault(part, {})
        node[name] = values[key]
    grid = GridSpec(**args.pop("grid"))
    anchors = AnchorLayout(**{n: PointMM(**p) for n, p in args.pop("anchors").items()})
    campaign = args.pop("campaign")
    pipeline = PipelineConfig(
        noise=NoiseConfig(**args.pop("noise")),
        correction=CorrectionPolicy(**args.pop("correction")),
        **args,
    )
    campaign = observation_campaign(pipeline, anchors, campaign["locations"], campaign["reps"])
    # last, so that a dataclass's own error comes first
    grid.check_inside(pipeline.reference_points + pipeline.test_points + campaign.locations)
    return grid, anchors, pipeline, campaign


def _error(values: Mapping[str, object], keys: list[str]) -> str | None:
    """The error the values of ``keys`` raise, with every other key at its default."""
    try:
        _build({**_DEFAULTS, **{k: values[k] for k in keys}})
    except ValueError as exc:
        return str(exc)
    return None


def _blame(values: Mapping[str, object], explicit: frozenset[str], error: str) -> str:
    """The key or section a failed build's ``error`` is blamed on.

    That is the first explicitly set key whose value alone raises this error,
    else the first whose value alone fails at all, else the first section whose
    explicitly set keys together fail.
    """
    keys = [k for k in _SCHEMA if k in explicit]
    alone = {k: _error(values, [k]) for k in keys}
    sections = dict.fromkeys(k.partition(".")[0] for k in keys)
    blamed = ([k for k in keys if alone[k] == error] or [k for k in keys if alone[k]]
              or [s for s in sections if _error(values, [k for k in keys if k.startswith(s + ".")])])
    return blamed[0] if blamed else ", ".join(sections)


def resolve_config(
    raw: Mapping[str, str], origin: str = "<config>"
) -> RunConfig:
    """Reject unknown keys, parse raw strings, fill defaults, build the objects and cross-validate."""
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}: unknown key {key!r}")
    values: dict[str, object] = {}
    for key, (parse, _) in _SCHEMA.items():
        try:
            values[key] = parse(raw[key]) if key in raw else _DEFAULTS[key]
        except ValueError as exc:
            raise ConfigError(f"{origin}: {key}: {exc}") from None
    explicit = frozenset(raw)
    try:
        grid, anchors, pipeline, campaign = _build(values)
    except ValueError as exc:
        raise ConfigError(f"{origin}: {_blame(values, explicit, str(exc))}: {exc}") from None

    # cross-key constraints
    if values["calibration.kind"] is None:
        clashing = sorted(k for k in explicit if k.startswith("classifier."))
        if clashing:
            raise ConfigError(
                f"{origin}: calibration.kind = none runs the trilateration baseline; "
                f"classifier settings have no effect: {', '.join(clashing)}"
            )
    # the rest of KnnClassifier's rule k <= n: a DB row per grid cell, plus its augmented copies
    rows = grid.cell_count * (1 + values["fingerprint.augment"])
    if values["classifier.kind"] in ("knn", "vote") and values["classifier.k"] > rows:
        raise ConfigError(
            f"{origin}: classifier.k: k={values['classifier.k']} with {rows} training rows "
            f"(grid cells x (1 + fingerprint.augment))"
        )
    return RunConfig(values, explicit, grid, anchors, pipeline, campaign)


def load_config(
    path: str | None, overrides: Mapping[str, str] | None = None
) -> RunConfig:
    """Read an optional config file, apply flag overrides, and resolve.

    Override values go through the same checks as file values and count as
    explicitly set. An error the overrides raise on their own is blamed on
    ``<override>``.
    """
    raw: dict[str, str] = {}
    origin = path if path is not None else "<defaults>"
    if path is not None:
        try:
            text = read_text(path)
        except (OSError, FileFormatError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        raw = parse_config_text(text, origin=path)
    overrides = overrides or {}
    try:
        return resolve_config({**raw, **overrides}, origin=origin)
    except ConfigError as exc:
        error = exc
    resolve_config(overrides, origin="<override>")  # raises if the flags fail on their own
    raise error
