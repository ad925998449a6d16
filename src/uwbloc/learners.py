"""Native classifiers over fingerprint vectors: KNN, CART tree, forest, voting.

All classifiers consume (range triple, cell label) training rows and emit
(query, label, mass) arrays, summed and read by one shared path. Every tie
(neighbor distance, split quality, argmax) breaks toward the lower label,
lower feature index, or lower threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fingerprint import FingerprintDB, GridSpec, LabelOutOfRangeError
from .geometry import RangeTriple

__all__ = [
    "EmptyTrainingSetError",
    "KOutOfRangeError",
    "TrainingSet",
    "VoteWeights",
    "KnnClassifier",
    "TreeClassifier",
    "ForestClassifier",
    "SoftVoteClassifier",
    "argmax_label",
    "soft_vote",
]

ClassProbabilities = dict[int, float]


class EmptyTrainingSetError(ValueError):
    """No training rows were supplied."""


class KOutOfRangeError(ValueError):
    """k must satisfy 1 <= k <= number of training rows."""


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Fingerprint vectors with their cell labels.

    ``spec`` is optional; when present, labels are checked against it.
    """

    X: np.ndarray  # (n, 3) range vectors, anchors A/B/C
    y: np.ndarray  # (n,) cell labels
    spec: GridSpec | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != 3 or y.shape != (X.shape[0],):
            raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
        if X.shape[0] == 0:
            raise EmptyTrainingSetError("training set is empty")
        if not np.all(np.isfinite(X)) or np.any(X <= 0.0):
            raise ValueError("training vectors must be finite and positive")
        if np.any(y < 0):
            raise LabelOutOfRangeError("labels must be non-negative")
        if self.spec is not None and np.any(y >= self.spec.cell_count):
            raise LabelOutOfRangeError(f"labels must be < {self.spec.cell_count}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[RangeTriple, int]], spec: GridSpec | None = None) -> "TrainingSet":
        if len(rows) == 0:
            raise EmptyTrainingSetError("training set is empty")
        X = np.array([r.as_tuple() for r, _ in rows], dtype=float)
        y = np.array([label for _, label in rows], dtype=np.int64)
        return cls(X, y, spec)

    @classmethod
    def from_db(cls, db: FingerprintDB) -> "TrainingSet":
        """Each DB cell becomes one training row labeled with itself."""
        return cls(db.vectors, np.arange(len(db), dtype=np.int64), db.spec)


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


#: Float64 elements of one query chunk's distance matrix in the KNN search;
#: a chunk holds max(1, _CHUNK_ELEMENTS // n_rows) queries.
_CHUNK_ELEMENTS = 1 << 16


def _query_batch(X: np.ndarray) -> np.ndarray:
    """``X`` as an (m, 3) float array of query range vectors."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"query batch must have shape (m, 3), got {X.shape}")
    return X


def _accumulate(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate ``(query, label, mass)`` parts and sum the mass per (query, label).

    One entry per pair, sorted by query, then label. A pair's masses are
    added in input order from 0.0, as a loop of ``+=`` over the parts would.
    """
    query, label, mass = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((label, query))  # stable: equal pairs keep their input order
    query, label = query[order], label[order]
    new = (np.diff(query, prepend=-1) != 0) | (np.diff(label, prepend=-1) != 0)
    return query[new], label[new], np.bincount(np.cumsum(new) - 1, weights=mass[order])


class _Classifier:
    """Label prediction from ``_masses(X) -> (query, label, mass)``.

    ``_masses`` gives every query at least one entry, one per (query,
    label), sorted by query, then label.
    """

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Each query's label of largest mass; equal masses go to the lower label."""
        X = _query_batch(X)
        query, label, mass = self._masses(X)
        order = np.lexsort((label, -mass, query))
        return label[order[np.searchsorted(query[order], np.arange(X.shape[0]))]]

    def predict(self, ranges: RangeTriple) -> int:
        return int(self.predict_batch(np.asarray([ranges.as_tuple()], dtype=float))[0])


class _ProbabilisticClassifier(_Classifier):
    """A classifier whose masses are probabilities, also given as label dicts."""

    def predict_proba_batch(self, X: np.ndarray) -> list[ClassProbabilities]:
        X = _query_batch(X)
        out: list[ClassProbabilities] = [{} for _ in range(X.shape[0])]
        for qi, label, mass in zip(*(a.tolist() for a in self._masses(X))):
            out[qi][label] = mass
        return out

    def predict_proba(self, ranges: RangeTriple) -> ClassProbabilities:
        return self.predict_proba_batch(np.asarray([ranges.as_tuple()], dtype=float))[0]


class KnnClassifier(_ProbabilisticClassifier):
    """Exact k-nearest-neighbor over fingerprint vectors.

    Neighbors are ranked by squared Euclidean distance
    ``((X[r] - q)**2).sum()``, ties by lower label, then lower row, and
    each of the k winners contributes 1/k probability mass.
    """

    def __init__(self, train: TrainingSet, k: int = 1):
        if not (1 <= k <= len(train)):
            raise KOutOfRangeError(f"k={k} with {len(train)} training rows")
        self._X = train.X
        self._y = train.y
        # the filter's inputs; overflow here only widens the filter
        with np.errstate(over="ignore"):
            self._xx = (self._X ** 2).sum(axis=1)
        self._xx_max = float(self._xx.max())
        self.k = k

    def _neighbors_batch(self, Q: np.ndarray) -> np.ndarray:
        """Row indices of each query's k nearest rows, in rank order: (m, k).

        Two stages per chunk of queries. The expanded form
        ``xx - 2 q.x + qq`` (one matmul) rules out every row that is
        provably farther than the k-th nearest; the survivors are ranked by
        the exact expression above, so the result does not depend on how
        the matmul rounds.
        """
        X, y, k = self._X, self._y, self.k
        n = X.shape[0]
        eps = np.finfo(float).eps
        tiny = np.finfo(float).smallest_subnormal
        out = np.empty((Q.shape[0], k), dtype=np.int64)
        step = max(1, _CHUNK_ELEMENTS // n)
        for start in range(0, Q.shape[0], step):
            q = Q[start : start + step]
            with np.errstate(over="ignore", invalid="ignore"):
                qq = (q ** 2).sum(axis=1)
                approx = (-2.0 * q) @ X.T
                approx += self._xx
                approx += qq[:, None]
                if k == 1:  # the k = 1 partition, at a tenth of its cost
                    kth = approx.min(axis=1)
                else:
                    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
                # Rounding bound, with u = eps/2 and S = max_r |x_r|^2 + |q|^2:
                # xx and qq are within 3u of their true sums, the matmul within
                # 3u of sum |q_i x_i| <= S/2 in any summation order, with or
                # without FMA (the -2 scaling is exact), and the two additions
                # add u each on at most 2S, so |approx - d2| <= 10u*S. The exact
                # expression is within a relative 5u of d2 <= 2S. If row r ranks
                # within the exact top k, one of the k rows with the smallest
                # approx (s, with approx_s <= kth) does not rank before r, so
                # approx_r <= d2_r + 10u*S <= d2_s + 30u*S <= kth + 40u*S, below
                # kth + 32*eps*S. The subnormal term covers underflow, which
                # adds at most half the smallest subnormal per operation. 8*S
                # overflows before any intermediate can, and an inf or NaN
                # tolerance (overflow, non-finite query) keeps every row.
                tol = 4.0 * eps * (8.0 * (self._xx_max + qq)) + 64.0 * tiny
            qi, rows = np.divmod(np.flatnonzero(~(approx > (kth + tol)[:, None])), n)
            d2 = ((X[rows] - q[qi]) ** 2).sum(axis=1)
            ranked = rows[np.lexsort((rows, y[rows], d2, qi))]
            counts = np.bincount(qi, minlength=q.shape[0])
            first = np.cumsum(counts) - counts
            out[start : start + q.shape[0]] = ranked[first[:, None] + np.arange(k)]
        return out

    def _masses(self, X: np.ndarray):
        labels = self._y[self._neighbors_batch(X)]
        query = np.repeat(np.arange(labels.shape[0]), self.k)
        return _accumulate([(query, labels.ravel(), np.full(labels.size, 1.0 / self.k))])


def _occurrence_index(codes: np.ndarray) -> np.ndarray:
    """For each element, how many earlier elements carry the same code."""
    n = codes.shape[0]
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sc[1:] != sc[:-1]
    group_start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n) - group_start
    return occ


class TreeClassifier(_ProbabilisticClassifier):
    """CART decision tree with Gini impurity over the three range features.

    Split thresholds are midpoints of consecutive sorted distinct values;
    rows with value <= threshold go left. Growth stops on pure nodes, at
    ``max_depth``, or when a node is smaller than 2 * ``min_leaf``; leaves
    keep their label frequencies. Given a feature RNG, every split attempt
    draws a fresh feature subset (DFS pre-order, left child first), which
    is how the forest decorrelates its members.
    """

    # Internal switch for the fast path on all-distinct-label nodes;
    # the equivalence with the generic sweep is covered by tests.
    _fast_unique_path = True

    def __init__(
        self,
        train: TrainingSet,
        max_depth: int | None = None,
        min_leaf: int = 1,
        *,
        feature_rng: np.random.Generator | None = None,
        features_per_split: int | None = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        if min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
        if features_per_split is not None and not (1 <= features_per_split <= 3):
            raise ValueError(f"features_per_split must be in 1..3, got {features_per_split}")
        self._X = train.X
        self._y = train.y
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._rng = feature_rng
        self._fps = features_per_split
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._leaf_labels: list[np.ndarray | None] = []
        self._leaf_probs: list[np.ndarray | None] = []
        self._build()
        # node i's leaf entries are _labels/_probs[_first[i] : _first[i] + _size[i]]
        self._size = np.array([0 if p is None else p.shape[0] for p in self._leaf_probs])
        self._first = np.cumsum(self._size) - self._size
        self._labels = np.concatenate([a for a in self._leaf_labels if a is not None])
        self._probs = np.concatenate([a for a in self._leaf_probs if a is not None])
        del self._leaf_labels, self._leaf_probs  # the build's per-node scratch

    # -- construction ------------------------------------------------------

    def _new_node(self) -> int:
        self._feature.append(-1)
        self._threshold.append(math.nan)
        self._left.append(-1)
        self._right.append(-1)
        self._leaf_labels.append(None)
        self._leaf_probs.append(None)
        return len(self._feature) - 1

    def _make_leaf(self, nid: int, rows: np.ndarray) -> None:
        labels, counts = np.unique(self._y[rows], return_counts=True)
        self._leaf_labels[nid] = labels
        self._leaf_probs[nid] = counts / rows.shape[0]

    def _split_features(self) -> list[int]:
        if self._rng is None or self._fps is None or self._fps >= 3:
            return [0, 1, 2]
        picked = self._rng.choice(3, size=self._fps, replace=False)
        return sorted(int(f) for f in picked)

    def _build(self) -> None:
        n = self._X.shape[0]
        root = self._new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
        while stack:
            nid, rows, depth = stack.pop()
            yn = self._y[rows]
            if (
                np.all(yn == yn[0])
                or (self.max_depth is not None and depth >= self.max_depth)
                or rows.shape[0] < 2 * self.min_leaf
            ):
                self._make_leaf(nid, rows)
                continue
            split = self._best_split(rows, self._split_features())
            if split is None:
                self._make_leaf(nid, rows)
                continue
            f, thr = split
            self._feature[nid] = f
            self._threshold[nid] = thr
            mask = self._X[rows, f] <= thr
            left = self._new_node()
            right = self._new_node()
            self._left[nid] = left
            self._right[nid] = right
            stack.append((right, rows[~mask], depth + 1))
            stack.append((left, rows[mask], depth + 1))

    def _best_split(self, rows: np.ndarray, features: list[int]) -> tuple[int, float] | None:
        n = rows.shape[0]
        codes = np.unique(self._y[rows], return_inverse=True)[1]
        n_classes = int(codes.max()) + 1

        if self._fast_unique_path and self.min_leaf == 1 and n_classes == n:
            # Every class occurs once, so every candidate split scores the
            # same weighted Gini of (n-2)/n and the generic sweep would pick
            # the first candidate of the first splittable feature.
            for f in features:
                col = self._X[rows, f]
                lo = col.min()
                above = col[col > lo]
                if above.shape[0] == 0:
                    continue
                return f, self._guarded_threshold(float(lo), float(above.min()))
            return None

        totals = np.bincount(codes, minlength=n_classes)
        best_imp = math.inf
        best: tuple[int, float] | None = None
        for f in features:
            col = self._X[rows, f]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            sy = codes[order]
            change = np.flatnonzero(sv[1:] != sv[:-1]) + 1
            cand = change[(change >= self.min_leaf) & (change <= n - self.min_leaf)]
            if cand.shape[0] == 0:
                continue
            occ = _occurrence_index(sy)
            # moving row j left grows the left sum of squared counts by
            # 2*occ[j] + 1; same trick from the right for the right side
            left_sumsq = np.cumsum(2 * occ + 1)
            occ_r = totals[sy] - 1 - occ
            right_sumsq = np.concatenate(
                [np.cumsum((2 * occ_r + 1)[::-1])[::-1], np.zeros(1, dtype=np.int64)]
            )
            nl = cand.astype(float)
            nr = float(n) - nl
            imp = 1.0 - (left_sumsq[cand - 1] / nl + right_sumsq[cand] / nr) / n
            j = int(np.argmin(imp))
            if imp[j] < best_imp:
                best_imp = float(imp[j])
                best = (f, self._guarded_threshold(float(sv[cand[j] - 1]), float(sv[cand[j]])))
        return best

    @staticmethod
    def _guarded_threshold(lo: float, hi: float) -> float:
        # midpoint can round up to hi for adjacent floats; keep right side non-empty
        thr = (lo + hi) / 2.0
        return lo if thr >= hi else thr

    # -- prediction --------------------------------------------------------

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each query row."""
        X = _query_batch(X)
        out = np.empty(X.shape[0], dtype=np.int64)
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
        while stack:
            nid, idxs = stack.pop()
            if self._feature[nid] < 0:
                out[idxs] = nid
            elif idxs.shape[0] > 0:
                mask = X[idxs, self._feature[nid]] <= self._threshold[nid]
                stack += [(self._left[nid], idxs[mask]), (self._right[nid], idxs[~mask])]
        return out

    def _masses(self, X: np.ndarray):
        leaf = self.apply_batch(X)
        size = self._size[leaf]
        query = np.repeat(np.arange(leaf.shape[0]), size)
        entry = np.arange(query.shape[0]) + np.repeat(self._first[leaf] - np.cumsum(size) + size, size)
        return query, self._labels[entry], self._probs[entry]

    @property
    def node_count(self) -> int:
        return len(self._feature)


class ForestClassifier(_ProbabilisticClassifier):
    """Bagged ensemble of CART trees with per-split feature sampling.

    Member i trains on a same-size bootstrap resample (unless ``bootstrap``
    is off) drawn from a generator seeded with ``seed + i``; the same
    generator then feeds that member's per-split feature subsets. The
    ensemble probability is the member-order sum over ``n_trees``.
    """

    def __init__(
        self,
        train: TrainingSet,
        n_trees: int = 100,
        features_per_split: int = 1,
        max_depth: int | None = None,
        min_leaf: int = 1,
        seed: int = 0,
        bootstrap: bool = True,
    ):
        if n_trees < 1:  # features_per_split is checked by each member tree
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self._trees: list[TreeClassifier] = []
        n = len(train)
        for i in range(n_trees):
            rng = np.random.default_rng(seed + i)
            if bootstrap:
                idx = rng.integers(0, n, size=n)
                member_train = TrainingSet(train.X[idx], train.y[idx], train.spec)
            else:
                member_train = train
            self._trees.append(TreeClassifier(
                member_train, max_depth, min_leaf, feature_rng=rng, features_per_split=features_per_split
            ))

    def _masses(self, X: np.ndarray):
        query, label, mass = _accumulate([tree._masses(X) for tree in self._trees])
        return query, label, mass / self.n_trees


@dataclass(frozen=True)
class VoteWeights:
    """Relative weights of the KNN and tree opinions in the soft vote."""

    w_knn: float = 3.0
    w_tree: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_knn) and math.isfinite(self.w_tree)):
            raise ValueError("weights must be finite")
        if self.w_knn < 0.0 or self.w_tree < 0.0 or self.w_knn + self.w_tree <= 0.0:
            raise ValueError(f"weights must be >= 0 with a positive sum, got {self}")


def soft_vote(p_knn: ClassProbabilities, p_tree: ClassProbabilities, weights: VoteWeights) -> int:
    """Label with the largest weighted probability mass across both voters."""
    combined: ClassProbabilities = {}
    for label, p in p_knn.items():
        combined[label] = weights.w_knn * p
    for label, p in p_tree.items():
        combined[label] = combined.get(label, 0.0) + weights.w_tree * p
    return argmax_label(combined)


class SoftVoteClassifier(_Classifier):
    """Weighted probability vote between a KNN and a tree classifier, as in ``soft_vote``."""

    def __init__(self, knn: KnnClassifier, tree: TreeClassifier, weights: VoteWeights):
        self.knn = knn
        self.tree = tree
        self.weights = weights

    def _masses(self, X: np.ndarray):
        (qk, lk, pk), (qt, lt, pt) = self.knn._masses(X), self.tree._masses(X)
        return _accumulate([(qk, lk, pk * self.weights.w_knn), (qt, lt, pt * self.weights.w_tree)])
