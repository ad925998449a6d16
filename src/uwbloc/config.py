"""Flat key/value run configuration.

Config files are UTF-8 text, one ``section.key = value`` per line, with
``#`` comment lines and blank lines ignored. Every key has a default, so
an empty (or absent) file is a valid full configuration. Unknown keys
and duplicate keys are rejected with the offending line number; so is
any value that fails its key's validation.

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
from .evaluation import CLASSIFIERS, TEST_POINTS, PipelineConfig, observation_campaign
from .fingerprint import DEFAULT_GRID, GridSpec
from .geometry import DEFAULT_ANCHORS, AnchorLayout, PointMM
from .learners import VoteWeights
from .preprocess import CorrectionPolicy
from .simulator import NoiseConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config_text", "resolve_config"]


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or contradiction."""


# -- per-key value conversion ------------------------------------------------


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
    if s.strip().lower() == "none":
        return None
    v = _to_int(s)
    if v < 1:
        raise ValueError(f"depth must be >= 1 or none, got {v}")
    return v


def _to_model_kind(s: str) -> ModelKind | None:
    low = s.strip().lower()
    if low == "none":
        return None
    try:
        return ModelKind(low)
    except ValueError:
        raise ValueError(
            f"expected one of one/two/three/four/none, got {s!r}"
        ) from None


def _to_classifier(s: str) -> str:
    low = s.strip().lower()
    if low not in CLASSIFIERS:
        raise ValueError(f"expected one of {'/'.join(CLASSIFIERS)}, got {s!r}")
    return low


def _int_min(minimum: int) -> Callable[[str], int]:
    def conv(s: str) -> int:
        v = _to_int(s)
        if v < minimum:
            raise ValueError(f"must be >= {minimum}, got {v}")
        return v

    return conv


def _float_min(minimum: float, inclusive: bool = True) -> Callable[[str], float]:
    def conv(s: str) -> float:
        v = _to_float(s)
        if (v < minimum) if inclusive else (v <= minimum):
            op = ">=" if inclusive else ">"
            raise ValueError(f"must be {op} {minimum}, got {v}")
        return v

    return conv


def _to_ratio(s: str) -> float:
    v = _to_float(s)
    if not 0.0 < v <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {v}")
    return v


def _to_probability(s: str) -> float:
    v = _to_float(s)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"must be in [0, 1], got {v}")
    return v


def _int_range(lo: int, hi: int) -> Callable[[str], int]:
    def conv(s: str) -> int:
        v = _to_int(s)
        if not lo <= v <= hi:
            raise ValueError(f"must be in {lo}..{hi}, got {v}")
        return v

    return conv


# campaign.reps, calibration.obs_sets, eval.n_trials and fingerprint.augment
# count the visits per location of a campaign, and a visit index is one
# 32-bit word of a draw's key (simulator.simulate_range_batch)
MAX_REPS = 2**32


# -- canonical value formatting ----------------------------------------------


def _fmt_value(v: object) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, ModelKind):
        return v.value
    if isinstance(v, VoteWeights):
        return f"{v.w_knn!r}:{v.w_tree!r}"
    if isinstance(v, tuple):  # points
        return ";".join(f"{p.x!r},{p.y!r}" for p in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# key -> (converter, destination). Converters check a single value; cross-key
# constraints are checked in resolve_config. The destination is the field the
# key sets: grid.* and anchors.* name fields of GridSpec and AnchorLayout,
# campaign.* fields of Campaign, anything else a PipelineConfig field.
_SCHEMA: dict[str, tuple[Callable[[str], object], str]] = {
    "run.seed": (_int_min(0), "seed"),
    "grid.width": (_float_min(0.0, inclusive=False), "grid.width"),
    "grid.height": (_float_min(0.0, inclusive=False), "grid.height"),
    "grid.spacing": (_float_min(0.0, inclusive=False), "grid.spacing"),
    "anchors.ax": (_to_float, "anchors.a.x"),
    "anchors.ay": (_to_float, "anchors.a.y"),
    "anchors.bx": (_to_float, "anchors.b.x"),
    "anchors.by": (_to_float, "anchors.b.y"),
    "anchors.cx": (_to_float, "anchors.c.x"),
    "anchors.cy": (_to_float, "anchors.c.y"),
    "noise.slope": (_float_min(0.0, inclusive=False), "noise.slope"),
    "noise.offset": (_to_float, "noise.offset"),
    "noise.sigma": (_float_min(0.0), "noise.sigma"),
    "noise.inflation_threshold": (_float_min(0.0, inclusive=False), "noise.inflation_threshold"),
    "noise.inflation_factor": (_float_min(1.0), "noise.inflation_factor"),
    "noise.p_outlier": (_to_probability, "noise.p_outlier"),
    "correction.threshold": (_float_min(0.0, inclusive=False), "correction.threshold"),
    "correction.ratio": (_to_ratio, "correction.ratio"),
    "preprocess.mad_k": (_float_min(0.0, inclusive=False), "mad_k"),
    "preprocess.mad_scale": (_float_min(0.0, inclusive=False), "mad_scale"),
    "calibration.kind": (_to_model_kind, "model_kind"),
    "calibration.n_select": (_int_min(1), "n_select"),
    "calibration.obs_sets": (_int_range(1, MAX_REPS), "obs_sets"),
    "calibration.reference_points": (_to_points, "reference_points"),
    "classifier.kind": (_to_classifier, "classifier"),
    "classifier.k": (_int_min(1), "knn_k"),
    "classifier.max_depth": (_to_depth, "tree_max_depth"),
    "classifier.min_leaf": (_int_min(1), "tree_min_leaf"),
    "classifier.trees": (_int_min(1), "forest_trees"),
    "classifier.features_per_split": (_int_range(1, 3), "forest_features"),
    "classifier.bootstrap": (_to_bool, "forest_bootstrap"),
    "classifier.weights": (_to_weights, "vote_weights"),
    "eval.n_trials": (_int_range(1, MAX_REPS), "n_trials"),
    "eval.test_points": (_to_points, "test_points"),
    "campaign.reps": (_int_range(1, MAX_REPS), "campaign.reps"),
    "campaign.locations": (_to_points, "campaign.locations"),
    "fingerprint.augment": (_int_range(0, MAX_REPS), "augment"),
}


# The three keys whose field has no default to read: PipelineConfig's None
# model kind selects the baseline, and Campaign has no defaults.
_OWN_DEFAULTS = {
    "calibration.kind": ModelKind.FOUR,
    "campaign.reps": 500,
    "campaign.locations": REFERENCE_POINTS + TEST_POINTS,
}
# what the first name of a destination refers to, with its defaults
_DEFAULT_ROOTS = {"grid": DEFAULT_GRID, "anchors": DEFAULT_ANCHORS, **vars(PipelineConfig())}


def _field_default(dest: str) -> object:
    head, *rest = dest.split(".")
    return reduce(getattr, rest, _DEFAULT_ROOTS[head])


_DEFAULTS = {
    key: _OWN_DEFAULTS[key] if key in _OWN_DEFAULTS else _field_default(dest)
    for key, (_, dest) in _SCHEMA.items()
}


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

    def grid(self) -> GridSpec:
        return self._grid

    def anchors(self) -> AnchorLayout:
        return self._anchors

    def pipeline(self) -> PipelineConfig:
        return self._pipeline

    def campaign(self):
        """The simulate command's ``observation_campaign`` at ``campaign.locations``."""
        v = self.values
        return observation_campaign(
            self._pipeline, self._anchors, v["campaign.locations"], v["campaign.reps"])

    # canonical form ---------------------------------------------------

    def resolved_lines(self) -> list[str]:
        """Every key with its resolved value, canonically formatted, sorted."""
        return [f"{k} = {_fmt_value(self.values[k])}" for k in sorted(self.values)]

    def config_hash(self) -> str:
        text = "\n".join(self.resolved_lines())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def resolve_config(
    raw: Mapping[str, str], origin: str = "<config>"
) -> RunConfig:
    """Convert raw strings, fill defaults, cross-validate, and build the objects."""
    values: dict[str, object] = {}
    args: dict[str, dict] = {}  # constructor arguments, nested by destination
    for key, (conv, dest) in _SCHEMA.items():
        try:
            values[key] = conv(raw[key]) if key in raw else _DEFAULTS[key]
        except ValueError as exc:
            raise ConfigError(f"{origin}: {key}: {exc}") from None
        *path, name = dest.split(".")
        node = args
        for part in path:
            node = node.setdefault(part, {})
        node[name] = values[key]
    explicit = frozenset(raw)

    # cross-key constraints
    try:
        grid = GridSpec(**args.pop("grid"))
    except ValueError as exc:
        raise ConfigError(f"{origin}: grid: {exc}") from None
    try:
        anchors = AnchorLayout(**{n: PointMM(**p) for n, p in args.pop("anchors").items()})
    except ValueError as exc:
        raise ConfigError(f"{origin}: anchors: {exc}") from None

    refs = values["calibration.reference_points"]
    if len(refs) != 4:
        raise ConfigError(
            f"{origin}: calibration.reference_points: exactly 4 points required, got {len(refs)}"
        )
    if len(set(p.as_tuple() for p in refs)) != 4:
        raise ConfigError(f"{origin}: calibration.reference_points: points must be distinct")
    for group in ("calibration.reference_points", "eval.test_points", "campaign.locations"):
        pts = values[group]
        if len(pts) == 0:
            raise ConfigError(f"{origin}: {group}: at least one point required")
        for p in pts:
            if not p.is_within(grid.width, grid.height):
                raise ConfigError(
                    f"{origin}: {group}: point {p.as_tuple()} outside the "
                    f"{grid.width} x {grid.height} mm area"
                )

    if values["calibration.kind"] is None:
        clashing = sorted(k for k in explicit if k.startswith("classifier."))
        if clashing:
            raise ConfigError(
                f"{origin}: calibration.kind = none runs the trilateration baseline; "
                f"classifier settings have no effect: {', '.join(clashing)}"
            )

    del args["campaign"]  # built per call by RunConfig.campaign
    pipeline = PipelineConfig(
        noise=NoiseConfig(**args.pop("noise")),
        correction=CorrectionPolicy(**args.pop("correction")),
        **args,
    )
    return RunConfig(values, explicit, grid, anchors, pipeline)


def load_config(
    path: str | None, overrides: Mapping[str, str] | None = None
) -> RunConfig:
    """Read an optional config file, apply flag overrides, and resolve.

    Override values go through the same per-key validation as file values
    and count as explicitly set.
    """
    raw: dict[str, str] = {}
    origin = path if path is not None else "<defaults>"
    if path is not None:
        try:
            text = read_text(path)
        except (OSError, FileFormatError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        raw = parse_config_text(text, origin=path)
    for key, value in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"<override>: unknown key {key!r}")
        try:  # converted here too, so that a bad value is blamed on the flag
            _SCHEMA[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"<override>: {key}: {exc}") from None
        raw[key] = value
    return resolve_config(raw, origin=origin)
