"""Scalar reference forms of package rules, for tests only.

The package works on arrays: it predicts through ``(query, label, mass)``
arrays, fits every calibration pair of every set at once, measures distances
and maps labels to grid vertices an array at a time, applies the MAD rule to
every (point, anchor) column of the observation sets in one call, and
converts a measurement file's lines in one numpy call, writes a DB or
measurement file a slice of lines at a time through an array form of
``repr``, and draws ranges for arrays of keys. These are the same rules written
over one query's ``{label: mass}`` dict, one pair of distances, one pair of
points, one grid label, one column of readings, one line of a file or one
draw's key. The distance of one pair of points takes the
same IEEE 754 steps in Python floats as the package in numpy, so the two agree
bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from uwbloc.calibration import DegeneratePairError, LinearRangingEq, NonPositiveSlopeError
from uwbloc.errors import FileFormatError, parse_number, read_text
from uwbloc.fingerprint import FingerprintDB, GridSpec, _grid_axes
from uwbloc.geometry import PointMM, check_ranges
from uwbloc.learners import VoteWeights
from uwbloc import simulator
from uwbloc.simulator import MEASUREMENT_HEADER, NoiseConfig, Visits

ClassProbabilities = dict[int, float]

#: Noise-free pass-through model: measured == true.
IDENTITY_NOISE = NoiseConfig(slope=1.0, offset=0.0, sigma=0.0, inflation_factor=1.0)


def fit_pair(true1: float, meas1: float, true2: float, meas2: float) -> LinearRangingEq:
    """The line through two (true, measured) distance pairs, with ``fit_model``'s arithmetic."""
    for v in (true1, meas1, true2, meas2):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"distances must be finite and positive, got {v}")
    if true1 == true2:
        raise DegeneratePairError(f"both points have true distance {true1}")
    a = (meas2 - meas1) / (true2 - true1)
    if a <= 0.0:
        raise NonPositiveSlopeError(f"fitted slope {a} is not positive")
    return LinearRangingEq(a, meas1 - a * true1)


def distance(p: PointMM, q: PointMM) -> float:
    """Euclidean distance between two points, in mm (``geometry.distance`` for one pair).

    ``*``, not ``**``: a square above the double range is inf, as in numpy.
    """
    dx, dy = p.x - q.x, p.y - q.y
    return math.sqrt(dx * dx + dy * dy)


def cell_vertex(spec: GridSpec, label: int) -> PointMM:
    """The lower-left vertex of one cell (``fingerprint.cell_vertex`` for one label)."""
    col = label % spec.cols
    row = label // spec.cols
    return PointMM(col * spec.spacing, row * spec.spacing)


def mad_keep_mask(values: np.ndarray, k: float, scale: float) -> np.ndarray:
    """The MAD rule over one series (``preprocess.mad_keep_mask`` for one column)."""
    med = float(np.median(values))
    dev = np.abs(values - med)
    return dev <= k * scale * float(np.median(dev))


def kept_sets(records: list[Visits], points: tuple[PointMM, ...], k: float, scale: float) -> np.ndarray:
    """The sets ``calibration.clean_observation_rows`` keeps, before any correction.

    Pools and trims the readings at each point as the package does, then
    applies the MAD rule one (point, anchor) column at a time.
    """
    pooled = [np.concatenate([r.ranges for r in records if r.location == p]) for p in points]
    n = min(len(r) for r in pooled)
    raw = np.stack([r[:n] for r in pooled], axis=1)
    keep = np.ones(n, dtype=bool)
    for pi in range(len(points)):
        for ai in range(3):
            keep &= mad_keep_mask(raw[:, pi, ai], k, scale)
    return raw[keep]


def probabilities(clf, X) -> list[ClassProbabilities]:
    """Each query's ``{label: mass}`` dict, read off the classifier's mass arrays."""
    X = np.asarray(X, dtype=float)
    out: list[ClassProbabilities] = [{} for _ in range(X.shape[0])]
    for qi, label, mass in zip(*(a.tolist() for a in clf._masses(X))):
        out[qi][label] = mass
    return out


def argmax_label(probs: ClassProbabilities) -> int:
    """Label with the largest mass; equal masses go to the lower label."""
    if not probs:
        raise ValueError("empty probability mapping")
    best_label = -1
    best_mass = -math.inf
    for label in sorted(probs):
        if probs[label] > best_mass:
            best_mass = probs[label]
            best_label = label
    return best_label


def soft_vote(p_knn: ClassProbabilities, p_tree: ClassProbabilities, weights: VoteWeights) -> int:
    """Label with the largest weighted probability mass across both voters."""
    combined: ClassProbabilities = {}
    for label, p in p_knn.items():
        combined[label] = weights.w_knn * p
    for label, p in p_tree.items():
        combined[label] = combined.get(label, 0.0) + weights.w_tree * p
    return argmax_label(combined)


def read_measurements(path: str) -> list[Visits]:
    """``simulator.read_measurements`` one line at a time, grouping in a dict keyed by (x, y)."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != MEASUREMENT_HEADER:
        raise FileFormatError(f"{path}: expected header '{MEASUREMENT_HEADER}'")
    groups: dict[tuple[float, float], tuple[PointMM, list[float]]] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FileFormatError(f"{path}:{ln}: expected 5 fields, got {len(parts)}")
        try:
            x, y, *ranges = (parse_number(p) for p in parts)
            # PointMM rejects a non-finite coordinate before it can become a key
            if (x, y) not in groups:
                groups[(x, y)] = (PointMM(x, y), [])
            if not all(0.0 < v < math.inf for v in ranges):  # NaN fails too
                check_ranges(ranges)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln}: {exc}") from exc
        groups[(x, y)][1].extend(ranges)
    return [Visits(loc, np.reshape(values, (-1, 3))) for loc, values in groups.values()]


def write_db(path: str, db: FingerprintDB) -> None:
    """``fingerprint.write_db`` one f-string line per cell."""
    s = db.spec
    xs, ys = ([repr(v) for v in axis.tolist()] for axis in _grid_axes(s))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{s.spacing!r},{s.width!r},{s.height!r}\n")
        for label, (fa, fb, fc) in enumerate(db.vectors.tolist()):
            fh.write(f"{label},{xs[label % s.cols]},{ys[label // s.cols]},{fa!r},{fb!r},{fc!r}\n")


def write_measurements(path: str, records: list[Visits]) -> None:
    """``simulator.write_measurements`` one f-string line per reading."""
    lines = [MEASUREMENT_HEADER]
    for rec in records:
        x, y = rec.location.as_tuple()
        lines += (f"{x!r},{y!r},{da!r},{db!r},{dc!r}" for da, db, dc in rec.ranges.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


MASK64 = (1 << 64) - 1


def splitmix(x: int) -> int:
    """SplitMix64's finalizer on one 64-bit int."""
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & MASK64
    return x ^ x >> 31


def key_state(seed: int, key: tuple[int, ...]) -> int:
    """The hash of a draw's key: the word count, the seed's 32-bit words, then the key's words two
    at a time, the first in the high half."""
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    values = [len(words) + len(key)] + words
    values += [key[i] << 32 | key[i + 1] if i + 1 < len(key) else key[i] for i in range(0, len(key), 2)]
    h = 0
    for v in values:
        h = splitmix((h ^ v) + 0x9E3779B97F4A7C15 & MASK64)
    return h


def exp_nonpositive(t: float) -> float:
    """The kernel's ``exp`` for ``t <= 0``, in Python floats."""
    t = max(t, -800.0)
    k = round(t / (simulator._LN2_HI + simulator._LN2_LO))
    t = t - k * simulator._LN2_HI - k * simulator._LN2_LO
    p = 0.0
    for c in simulator._EXP_TERMS:
        p = p * t + c
    return math.ldexp(p, k)


class DrawStream:
    """``simulator.measurement_stream`` in Python ints and floats, one word at a time.

    ``events`` lists what each attempt of each normal did: ``fast``, ``wedge-accept``,
    ``wedge-reject``, ``tail`` (entered), ``tail-reject`` and ``tail-accept``.
    """

    def __init__(self, seed: int, key: tuple[int, ...]):
        self.state, self.drawn, self.events = key_state(seed, key), 0, []

    def _word(self, n: int) -> int:
        return splitmix(self.state + (((self.drawn << 32) + n + 1) * 0x9E3779B97F4A7C15) & MASK64)

    def _unit(self, n: int) -> float:
        return (self._word(n) >> 11) * 2.0**-53

    def _standard_normal(self) -> float:
        bound, width, density = (t.tolist() for t in simulator._ziggurat())
        r, tail = simulator._R, False
        for attempt in itertools.count():
            if not tail:
                w = self._word(3 * attempt)
                layer, negative, magnitude = w & 0xFF, w >> 8 & 1, w >> 12
                x = magnitude * width[layer]
                if magnitude < bound[layer]:
                    self.events.append("fast")
                    return -x if negative else x
                if layer > 0:
                    y = self._unit(3 * attempt + 1) * (density[layer - 1] - density[layer]) + density[layer]
                    self.events.append("wedge-accept" if y < exp_nonpositive(x * x * -0.5) else "wedge-reject")
                    if self.events[-1] == "wedge-accept":
                        return -x if negative else x
                    continue
                self.events.append("tail")
                tail = True
            # in the tail from this attempt on: propose x = R / u**(1/8) and test it
            u = self._unit(3 * attempt + 1) + 2.0**-53
            root = math.sqrt(math.sqrt(math.sqrt(u)))
            x = r / root
            if self._unit(3 * attempt + 2) * u * root < exp_nonpositive((r * r - x * x) * 0.5):
                self.events.append("tail-accept")
                return -x if negative else x
            self.events.append("tail-reject")

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        z = self._standard_normal()
        self.drawn += 1
        return loc + scale * z

    def random(self) -> float:
        u = self._unit(0)
        self.drawn += 1
        return u

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self.random()
