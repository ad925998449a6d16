"""Scalar reference forms of package rules, for tests only.

The package works on arrays: it predicts through ``(query, label, mass)``
arrays and fits every calibration pair of every set at once. These are the
same rules written over one query's ``{label: mass}`` dict or one pair of
distances.
"""

from __future__ import annotations

import math

import numpy as np

from uwbloc.calibration import DegeneratePairError, LinearRangingEq, NonPositiveSlopeError
from uwbloc.learners import VoteWeights
from uwbloc.simulator import NoiseConfig

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
