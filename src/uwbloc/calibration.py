"""Affine calibration of the ranging error from reference-point observations.

The tag is parked on four known reference points and repeatedly measures
its distance to the three anchors. Fitting a line through two such
measurements gives, per anchor, a model

    measured = a * true + b

which ``fingerprint.build_db`` later applies to grid distances to predict
fingerprints.
Four model variants differ only in which reference points, and whose
anchor's data, feed each anchor's line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FileFormatError, at_line, parse_number, read_text
from .geometry import AnchorLayout, PointMM, check_ranges
from .preprocess import MAD_SCALE_NORMAL, CorrectionPolicy, correct_range_batch, mad_keep_mask
from .simulator import Visits

__all__ = [
    "DegeneratePairError",
    "NonPositiveSlopeError",
    "InsufficientDataError",
    "MissingReferencePointError",
    "ModelKind",
    "ANCHOR_NAMES",
    "REFERENCE_POINTS",
    "LinearRangingEq",
    "ObservationData",
    "CalibrationModel",
    "check_fit_setting",
    "fit_model",
    "clean_observation_rows",
    "write_calibration",
    "read_calibration",
    "format_calibration",
    "parse_calibration",
]

ANCHOR_NAMES = ("A", "B", "C")

#: Default reference points: 100 mm inside each corner of the 1 m x 2 m area.
REFERENCE_POINTS = (
    PointMM(100.0, 100.0),
    PointMM(900.0, 100.0),
    PointMM(100.0, 1900.0),
    PointMM(900.0, 1900.0),
)


class DegeneratePairError(ValueError):
    """Both calibration points share the same true distance; no line fits."""


class NonPositiveSlopeError(ValueError):
    """A fitted slope came out <= 0, which no physical ranging error does."""


class InsufficientDataError(ValueError):
    """Not enough usable measurement sets to fit a model."""


class MissingReferencePointError(ValueError):
    """An observation file lacks rows for a required reference point."""


class ModelKind(str, Enum):
    """Which reference points feed each anchor's calibration line.

    one:   every anchor reuses anchor A's data; line through points 1 & 4
           for A and C, through points 2 & 3 for B. A and C coincide.
    two:   like ``one`` but each anchor uses its own data.
    three: per anchor, average of the three lines through point pairs
           (1,2), (1,3), (1,4) for A; (3,1), (3,2), (3,4) for B;
           (4,1), (4,2), (4,3) for C, each using that anchor's data.
    four:  anchors A and B as in ``three``, anchor C as in ``two``.
    """

    ONE = "one"
    TWO = "two"
    THREE = "three"
    FOUR = "four"


# (source anchor index, list of reference-point index pairs) per anchor.
# Point indices are 0-based; the docstring above uses the 1-based labels.
_THREE_PAIRING = {
    0: (0, ((0, 1), (0, 2), (0, 3))),
    1: (1, ((2, 0), (2, 1), (2, 3))),
    2: (2, ((3, 0), (3, 1), (3, 2))),
}
_PAIRINGS: dict[ModelKind, dict[int, tuple[int, tuple[tuple[int, int], ...]]]] = {
    ModelKind.ONE: {
        0: (0, ((0, 3),)),
        1: (0, ((1, 2),)),
        2: (0, ((0, 3),)),
    },
    ModelKind.TWO: {
        0: (0, ((0, 3),)),
        1: (1, ((1, 2),)),
        2: (2, ((0, 3),)),
    },
    ModelKind.THREE: _THREE_PAIRING,
    ModelKind.FOUR: {
        0: _THREE_PAIRING[0],
        1: _THREE_PAIRING[1],
        2: (2, ((0, 3),)),
    },
}


@dataclass(frozen=True)
class LinearRangingEq:
    """One anchor's affine ranging model: measured = a * true + b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"parameters must be finite, got a={self.a}, b={self.b}")
        if self.a <= 0.0:
            raise NonPositiveSlopeError(f"slope must be positive, got {self.a}")

    def as_text(self) -> str:
        """``a,b`` at full precision, as calibration files and report metadata write it."""
        return f"{self.a!r},{self.b!r}"


def _check_pair(true1: float, true2: float) -> None:
    """A line fits only through two distinct, finite and positive true distances."""
    for v in (true1, true2):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"distances must be finite and positive, got {v}")
    if true1 == true2:
        raise DegeneratePairError(f"both points have true distance {true1}")


def check_fit_setting(points: tuple[PointMM, ...], n_select: int = 1) -> None:
    """Reject fit settings no model can be fitted with."""
    if len(points) != 4 or len(set(points)) != 4:
        raise ValueError(f"exactly 4 distinct reference points required, "
                         f"got {len(points)} ({len(set(points))} distinct)")
    if n_select < 1:
        raise ValueError(f"n_select must be >= 1, got {n_select}")


@dataclass(frozen=True, eq=False)
class ObservationData:
    """Cleaned reference-point measurements, aligned into synchronized sets.

    ``sets`` has shape (n_sets, 4, 3): set index, reference point index,
    anchor index. One set is a simultaneous reading of all four points
    against all three anchors, so per-set line fits combine values that
    belong together.
    """

    points: tuple[PointMM, PointMM, PointMM, PointMM]
    sets: np.ndarray

    def __post_init__(self) -> None:
        check_fit_setting(self.points)
        arr = np.asarray(self.sets, dtype=float)
        if arr.ndim != 3 or arr.shape[1:] != (4, 3):
            raise ValueError(f"sets must have shape (n, 4, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise InsufficientDataError("observation data holds no measurement sets")
        check_ranges(arr)
        object.__setattr__(self, "sets", arr)

    @property
    def n_sets(self) -> int:
        return int(self.sets.shape[0])


def clean_observation_rows(
    records: list[Visits],
    points: tuple[PointMM, ...] = REFERENCE_POINTS,
    *,
    mad_k: float = 3.0,
    mad_scale: float = MAD_SCALE_NORMAL,
    policy: CorrectionPolicy = CorrectionPolicy(),
) -> ObservationData:
    """Pool the campaign records of each reference point and clean them into sets.

    A point's readings are those of every record at exactly its
    coordinates, in record order; a point without readings raises
    MissingReferencePointError. Reps are aligned across points (trimmed
    to the shortest), the MAD rule is evaluated per (point, anchor)
    column of the (n, 12) block of sets, and a set survives only if all
    twelve of its values pass. The correction policy is applied to the
    surviving measured values; the default ratio 1.0 keeps every bit.
    """
    pooled = []
    for p in points:
        ranges = np.concatenate([np.empty((0, 3))] + [r.ranges for r in records if r.location == p])
        if len(ranges) == 0:
            raise MissingReferencePointError(f"no measurements at reference point {p.as_tuple()}")
        pooled.append(ranges)
    n = min(len(r) for r in pooled)
    raw = np.stack([r[:n] for r in pooled], axis=1)

    cleaned = raw[mad_keep_mask(raw.reshape(n, -1), mad_k, mad_scale).all(axis=1)]
    if cleaned.shape[0] == 0:
        raise InsufficientDataError("outlier filtering removed every measurement set")

    return ObservationData(tuple(points), correct_range_batch(cleaned, policy))


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted per-anchor ranging lines plus the variant that produced them."""

    kind: ModelKind
    eq_a: LinearRangingEq
    eq_b: LinearRangingEq
    eq_c: LinearRangingEq

    def equation(self, anchor: str) -> LinearRangingEq:
        """Look up one anchor's line by name ("A", "B" or "C")."""
        try:
            idx = ANCHOR_NAMES.index(anchor)
        except ValueError:
            raise ValueError(f"unknown anchor {anchor!r}, expected one of {ANCHOR_NAMES}") from None
        return (self.eq_a, self.eq_b, self.eq_c)[idx]


def fit_model(
    kind: ModelKind,
    obs: ObservationData,
    anchors: AnchorLayout,
    n_select: int = 60,
    seed: int = 0,
) -> CalibrationModel:
    """Fit one calibration model from cleaned observation data.

    ``n_select`` measurement sets are drawn uniformly without replacement
    (seeded); each selected set yields one (a, b) per anchor according to
    the model kind's pairing rule, and the final parameters are the means
    over selected sets. A set in which any pair fits a non-positive slope
    is skipped and counted in a warning rather than failing the whole fit.

    All selected sets are fitted at once. A pair's line is
    ``a = (m2 - m1) / (t2 - t1)``, ``b = m1 - a * t1`` (``fit_pair`` in
    ``tests/oracles.py`` is its scalar reference); each anchor's (a, b) is
    the mean of its pair fits summed left to right, and the final means
    sum the kept sets in selection order.
    """
    kind = ModelKind(kind)
    check_fit_setting(obs.points, n_select)

    true_d = anchors.true_distances(np.array([p.as_tuple() for p in obs.points]))

    if obs.n_sets >= n_select:
        rng = np.random.default_rng(seed)
        selected = rng.choice(obs.n_sets, size=n_select, replace=False)
    else:
        warnings.warn(
            f"only {obs.n_sets} measurement sets available, wanted {n_select}; using all",
            stacklevel=2,
        )
        selected = np.arange(obs.n_sets)

    m = obs.sets[selected]
    params = np.empty((len(selected), 3, 2))  # set, anchor, (a, b)
    fitted = np.ones(len(selected), dtype=bool)
    for ai, (src, pairs) in _PAIRINGS[kind].items():
        i, j = np.array(pairs).T
        for t1, t2 in zip(true_d[i, src].tolist(), true_d[j, src].tolist()):
            _check_pair(t1, t2)
        a = (m[:, j, src] - m[:, i, src]) / (true_d[j, src] - true_d[i, src])  # (set, pair)
        b = m[:, i, src] - a * true_d[i, src]
        fitted &= (a > 0.0).all(axis=1)
        params[:, ai, 0] = np.cumsum(a, axis=1)[:, -1] / len(pairs)
        params[:, ai, 1] = np.cumsum(b, axis=1)[:, -1] / len(pairs)
    used = int(fitted.sum())
    skipped = len(selected) - used

    if used == 0:
        raise InsufficientDataError("every selected measurement set failed to fit")
    if skipped:
        warnings.warn(f"skipped {skipped} measurement set(s) with non-positive fitted slope",
                      stacklevel=2)

    sums = np.cumsum(params[fitted], axis=0)[-1].tolist()
    eqs = [LinearRangingEq(sa / used, sb / used) for sa, sb in sums]
    return CalibrationModel(kind, *eqs)


def format_calibration(model: CalibrationModel) -> str:
    """Serialize a model: a kind header, then one full-precision line per anchor."""
    lines = [f"kind,{model.kind.value}"]
    for name in ANCHOR_NAMES:
        lines.append(f"{name},{model.equation(name).as_text()}")
    return "\n".join(lines) + "\n"


def parse_calibration(text: str, origin: str = "<calibration>") -> CalibrationModel:
    # (file line number, line) of each non-blank line
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if len(lines) != 4:
        raise FileFormatError(f"{origin}: expected 4 lines (kind + 3 anchors), got {len(lines)}")
    (head_ln, head_line), *anchor_lines = lines
    head = head_line.split(",")
    if len(head) != 2 or head[0] != "kind":
        raise FileFormatError(f"{origin}:{head_ln}: expected 'kind,<{'|'.join(k.value for k in ModelKind)}>'")
    try:
        kind = ModelKind(head[1])
    except ValueError as exc:
        raise FileFormatError(f"{origin}:{head_ln}: unknown model kind {head[1]!r}") from exc

    eqs: dict[str, LinearRangingEq] = {}
    for ln, line in anchor_lines:
        parts = line.split(",")
        if len(parts) != 3 or parts[0] not in ANCHOR_NAMES:
            raise FileFormatError(f"{origin}:{ln}: expected '<A|B|C>,a,b'")
        with at_line(origin, ln):
            eqs[parts[0]] = LinearRangingEq(parse_number(parts[1]), parse_number(parts[2]))
    if set(eqs) != set(ANCHOR_NAMES):
        raise FileFormatError(f"{origin}: anchors {sorted(eqs)} found, need all of {ANCHOR_NAMES}")
    return CalibrationModel(kind, eqs["A"], eqs["B"], eqs["C"])


def write_calibration(path: str, model: CalibrationModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_calibration(model))


def read_calibration(path: str) -> CalibrationModel:
    return parse_calibration(read_text(path), origin=path)
