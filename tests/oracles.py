"""Scalar reference forms of the classifiers' label rules, for tests only.

The package predicts through ``(query, label, mass)`` arrays; these are the
same rules written over one query's ``{label: mass}`` dict.
"""

from __future__ import annotations

import math

from uwbloc.learners import VoteWeights

ClassProbabilities = dict[int, float]


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
