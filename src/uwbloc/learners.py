"""Native classifiers over fingerprint vectors: KNN, CART tree, forest, voting.

All classifiers consume (range triple, cell label) training rows and emit
(query, label, mass) arrays, summed and read by one shared path. Every tie
(neighbor distance, split quality, argmax) breaks toward the lower label,
lower feature index, or lower threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fingerprint import FingerprintDB, GridSpec, LabelOutOfRangeError
from .geometry import check_ranges

__all__ = [
    "EmptyTrainingSetError",
    "KOutOfRangeError",
    "TrainingSet",
    "VoteWeights",
    "check_cart_setting",
    "KnnClassifier",
    "TreeClassifier",
    "ForestClassifier",
    "SoftVoteClassifier",
]


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
        y = np.asarray(self.y)
        if X.ndim != 2 or X.shape[1] != 3 or y.shape != (X.shape[0],):
            raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
        if X.shape[0] == 0:
            raise EmptyTrainingSetError("training set is empty")
        if y.dtype.kind not in "iu":  # as cell_vertex: a float, str or bool label is no cell
            raise TypeError(f"labels must be integers, got {y.dtype}")
        y = y.astype(np.int64, copy=False)
        check_ranges(X)
        if np.any(y < 0):
            raise LabelOutOfRangeError("labels must be non-negative")
        if self.spec is not None and np.any(y >= self.spec.cell_count):
            raise LabelOutOfRangeError(f"labels must be < {self.spec.cell_count}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @classmethod
    def from_db(cls, db: FingerprintDB) -> "TrainingSet":
        """Each DB cell becomes one training row labeled with itself."""
        return cls(db.vectors, np.arange(len(db), dtype=np.int64), db.spec)


#: Float64 elements of one query chunk's stripe bounds and of one piece of candidate rows in the
#: KNN search, rows per chunk of the tree scan, half the slots (a member's distinct rows) per
#: batch of trees grown together, which bounds a forest build's memory, and a quarter of the leaf
#: entries per piece of queries a forest predicts, which bounds its prediction's.
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
    """Label prediction from ``_masses(X) -> (query, label, mass)``, read a piece of queries at a time.

    ``_masses`` gives every query at least one entry, one per (query,
    label), sorted by query, then label.
    """

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Each query's label of largest mass; equal masses go to the lower label."""
        X = _query_batch(X)
        labels = []
        for a, b, query, label, mass in self._pieces(X):
            queries = np.arange(a, b)
            best = np.maximum.reduceat(mass, np.searchsorted(query, queries))  # each query's largest mass
            hit = np.flatnonzero(mass == best[query - a])  # in (query, label) order
            labels.append(label[hit[np.searchsorted(query[hit], queries)]])  # first hit: lowest label
        return np.concatenate(labels)

    def _pieces(self, X: np.ndarray):
        """``_masses`` of queries a .. b - 1 as ``(a, b, query, label, mass)``, here in one piece."""
        yield 0, X.shape[0], *self._masses(X)


#: Rows per block, at most, of the KNN search's Sort-Tile-Recursive packing.
_LEAF = 16


def _sum_sq(term) -> np.ndarray:
    """``(term(0)**2 + term(1)**2) + term(2)**2``, the order in which ``((x - q)**2).sum(axis=1)``
    adds. Each ``term(f)`` is a fresh array, squared in place and freed before the next is made."""
    total = _squared(term(0))
    total += _squared(term(1))
    total += _squared(term(2))
    return total


def _squared(a: np.ndarray) -> np.ndarray:
    a *= a
    return a


def _gap(q, lo, hi) -> np.ndarray:
    """``clamp(q, lo, hi) - q``: ``lo - q`` below a box, ``hi - q`` (exactly ``-(q - hi)``) above
    it, 0 inside, so its square is ``max(lo - q, q - hi, 0)**2``; NaN for a NaN ``q``."""
    g = np.maximum(q, lo)
    np.minimum(g, hi, out=g)
    g -= q
    return g


def _padded(first, end, width) -> tuple[np.ndarray, np.ndarray]:
    """Items ``first[i] .. end[i] - 1`` as the rows of an (m, width) array, padded with ``end[i] - 1``,
    and a mask of the items that are not padding."""
    items = first[:, None] + np.arange(width)
    real = items < end[:, None]
    np.minimum(items, (end - 1)[:, None], out=items)
    return items, real


class KnnClassifier(_Classifier):
    """Exact k-nearest-neighbor over fingerprint vectors.

    Neighbors are ranked by squared Euclidean distance
    ``((X[r] - q)**2).sum()``, ties by lower label, then lower row, and
    each of the k winners contributes 1/k probability mass.

    The rows are packed once by Sort-Tile-Recursive (Leutenegger, Lopez &
    Edgington, ICDE 1997): ``s = ceil((n / _LEAF) ** (1/3))`` slabs by
    feature 0, each cut into ``s`` stripes by feature 1, each cut into ``s``
    blocks by feature 2, with a lo/hi box per block and per stripe.
    """

    def __init__(self, train: TrainingSet, k: int = 1):
        if not (1 <= k <= len(train)):
            raise KOutOfRangeError(f"k={k} with {len(train)} training rows")
        self._y = train.y
        self.k = k
        n = len(train)
        s = math.ceil((n / _LEAF) ** (1 / 3))
        order, group, rank = np.arange(n), np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        for f in range(3):  # group: the slab, then stripe, then block of each sorted position
            rank[np.argsort(train.X[:, f])] = np.arange(n)  # ties fall either way: only the layout moves
            order = order[np.argsort(group * n + rank[order])]
            at = np.arange(n) - np.searchsorted(group, group)  # place in the group
            group = group * s + at * s // np.bincount(group)[group]
        # position p ranks _tie[p]-th by (label, row): the order of ties in d2
        rank[np.argsort(train.y, kind="stable")] = np.arange(n)
        self._order, self._tie = order, rank[order]
        self._by_tie = np.argsort(self._tie)  # the position at each tie rank
        self._XT = train.X.T.take(order, axis=1)  # C-contiguous (3, n)
        block = np.flatnonzero(np.diff(group, prepend=-1))
        stripe = np.flatnonzero(np.diff(group[block] // s, prepend=-1))
        # (3, B) and (3, S) boxes; block b holds positions _bstart[b] .. _bstart[b + 1] - 1,
        # stripe t blocks _sfirst[t] .. _sfirst[t + 1] - 1
        self._lo, self._hi = (u.reduceat(self._XT, block, axis=1) for u in (np.minimum, np.maximum))
        self._slo = np.minimum.reduceat(self._lo, stripe, axis=1)
        self._shi = np.maximum.reduceat(self._hi, stripe, axis=1)
        self._bstart, self._sfirst = np.append(block, n), np.append(stripe, block.shape[0])
        self._rows_max, self._blocks_max = np.diff(self._bstart).max(), np.diff(self._sfirst).max()
        self._stripe_rows = np.diff(self._bstart[self._sfirst])
        # each query's first upper bound comes from `_window` rows; a chunk of `_step` queries
        # holds its stripe bounds and those rows in about _CHUNK_ELEMENTS elements
        self._window = min(n, max(k, _LEAF))
        self._step = max(1, _CHUNK_ELEMENTS // (stripe.shape[0] + self._window))

    def _neighbors_batch(self, Q: np.ndarray) -> np.ndarray:
        """Row indices of each query's k nearest rows, in rank order: (m, k)."""
        out = np.empty((Q.shape[0], self.k), dtype=np.int64)
        for start in range(0, Q.shape[0], self._step):
            out[start : start + self._step] = self._search(Q[start : start + self._step])
        return out

    def _search(self, q: np.ndarray) -> np.ndarray:
        """The k nearest rows of each query of one chunk, in rank order: (c, k).

        For a row x inside a box and IEEE rounding, ``fl(x - q) >= fl(lo - q) >= 0``
        below the box and ``fl(x - q) <= fl(hi - q) <= 0`` above it (rounding is
        monotone), and squaring a magnitude and adding are monotone too. So a box's
        bound, its gaps squared and summed in the order ``(f0 + f1) + f2`` that
        every d2 here and in the ranking uses, never exceeds the d2 of a row in the
        box. ``ub`` is the k-th smallest d2 over some k rows, hence at least the
        k-th nearest row's: a box whose bound is ``> ub`` holds no winner, and no
        winner has d2 ``> ub``, with no tolerance. A NaN bound or ``ub`` (a NaN or
        infinite query) fails every ``>`` and keeps every block and row.
        """
        qT = q.T
        ub, qi, st = self._stripes(qT)
        # candidates in pieces of whole stripes, about _CHUNK_ELEMENTS rows each
        rows = np.cumsum(self._stripe_rows[st])
        cuts = np.searchsorted(rows, np.arange(_CHUNK_ELEMENTS, rows[-1], _CHUNK_ELEMENTS))
        found, held = [], 0
        for piece in zip(np.split(qi, cuts), np.split(st, cuts)):
            found.append(self._survivors(qT, ub, *piece))
            held += found[-1][0].shape[0]
            if held > _CHUNK_ELEMENTS // 4:  # the merge takes about 8 arrays of the held length
                found = [self._best(found, ub)]
                held = found[0][0].shape[0]
        return self._order[self._best(found, ub)[1]].reshape(q.shape[0], self.k)

    def _stripes(self, qT):
        """Each query's first ``ub``, and the (query, stripe) pairs whose bound is not above it.

        ``ub`` is taken over the ``_window`` rows from the best block of the query's best stripe."""
        XT, sfirst, k = self._XT, self._sfirst, self.k
        with np.errstate(over="ignore", invalid="ignore"):
            bound = _sum_sq(lambda f: _gap(qT[f][:, None], self._slo[f], self._shi[f]))
            best = bound.argmin(axis=1)
            blk = _padded(sfirst[best], sfirst[best + 1], self._blocks_max)[0]
            blk_bound = _sum_sq(lambda f: _gap(qT[f][:, None], self._lo[f][blk], self._hi[f][blk]))
            blk = np.take_along_axis(blk, blk_bound.argmin(axis=1)[:, None], axis=1)
            win = np.minimum(self._bstart[blk], XT.shape[1] - self._window) + np.arange(self._window)
            d2 = _sum_sq(lambda f: XT[f][win] - qT[f][:, None])
            ub = np.partition(d2, k - 1, axis=1)[:, k - 1]  # a row is all NaN or free of NaN
            return (ub, *np.nonzero(~(bound > ub[:, None])))

    def _survivors(self, qT, ub, qi, st):
        """(query, position, d2) of the rows of stripes ``st`` that may rank within ``qi``'s k best."""
        b, keep = _padded(self._sfirst[st], self._sfirst[st + 1], self._blocks_max)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = _sum_sq(lambda f: _gap(qT[f][qi][:, None], self._lo[f][b], self._hi[f][b]))
        keep &= ~(bound > ub[qi][:, None])
        i, j = np.nonzero(keep)
        qi, b = qi[i], b[i, j]
        pos, keep = _padded(self._bstart[b], self._bstart[b + 1], self._rows_max)
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = _sum_sq(lambda f: self._XT[f][pos] - qT[f][qi][:, None])
        keep &= ~(d2 > ub[qi][:, None])
        i, j = np.nonzero(keep)
        return qi[i], pos[i, j], d2[i, j]

    def _best(self, found, ub):
        """The k best of ``found`` (query, position, d2) parts per query, ranked, sorted by query.

        Lowers each ``ub`` with k of them to the k-th one's d2. The parts' queries never
        decrease: pairs come in (query, stripe) order, pieces are cut in that order and
        every merged part is sorted by query."""
        qi, pos, d2 = (np.concatenate(a) for a in zip(*found))
        if self.k == 1:  # each query's least (d2, tie): a NaN query's rows, all NaN, all tie at d2
            first = np.flatnonzero(np.diff(qi, prepend=-1))
            best = np.fmin.reduceat(d2, first)
            at = np.repeat(best, np.diff(first, append=qi.shape[0]))
            tie = np.where((d2 == at) | np.isnan(at), self._tie[pos], len(self._tie))
            win = self._by_tie[np.minimum.reduceat(tie, first)]
            qi = qi[first]
            ub[qi] = best
            return qi, win, best
        order = np.lexsort((self._tie[pos], d2, qi))
        qi, pos, d2 = qi[order], pos[order], d2[order]
        rank = np.arange(qi.shape[0]) - np.searchsorted(qi, qi)
        ub[qi[rank == self.k - 1]] = d2[rank == self.k - 1]
        return tuple(a[rank < self.k] for a in (qi, pos, d2))

    def _masses(self, X: np.ndarray):
        labels = self._y[self._neighbors_batch(X)]
        if self.k == 1:  # one entry per query, in query order: what _accumulate would return
            return np.arange(labels.shape[0]), labels.ravel(), np.ones(labels.shape[0])
        query = np.repeat(np.arange(labels.shape[0]), self.k)
        return _accumulate([(query, labels.ravel(), np.full(labels.size, 1.0 / self.k))])


def _guarded_threshold(lo, hi):
    # midpoint can round up to hi for adjacent floats; keep right side non-empty
    thr = (lo + hi) / 2.0
    return np.where(thr >= hi, lo, thr)


def _best_splits(A, XT, sums, code, n_labels, use, start, seg_size, seg_weight, min_leaf):
    """Each segment's best split: its feature, whether it has one, its first right slot, its left weight
    and the values on either side of the cut.

    ``sums[s]`` holds slot s's weight w and w*w. Per (feature, segment) pair in ``use``, a slot adds
    2*occ*w + w*w to the left sum of squared class weights, where occ is the weight of the earlier
    slots of its label in the pair; a label of weight T in the pair, l of it on the left, adds
    (T - l)**2 = T*T - 2*T*l + l*l to the right sum. With no ``code`` (no label repeats) occ is 0,
    T = w, and no slot is sorted by label."""
    best = np.full(use.shape, np.inf)
    (hit, below), (lo, hi) = np.zeros((2,) + use.shape, dtype=np.int64), np.zeros((2,) + use.shape)
    uf, us = use.nonzero()
    pair = uf * use.shape[1] + us  # the pair's place in best, hit, below, lo and hi
    end = seg_size[us].cumsum()  # in chunks of whole pairs, about _CHUNK_ELEMENTS rows each
    cuts = [int(end.searchsorted(c)) for c in range(_CHUNK_ELEMENTS, end[-1:].sum(), _CHUNK_ELEMENTS)]
    for a, b in zip([0] + cuts, cuts + [us.shape[0]]):
        if a == b:
            continue
        pf, ps, base = uf[a:b], us[a:b], end[a - 1] if a else 0
        size = seg_size[ps]
        first, m = end[a:b] - size - base, int(end[b - 1] - base)
        slots = A.ravel()[(pf * A.shape[1] + start[ps] - first).repeat(size) + np.arange(m)]
        v = XT.ravel()[(pf * XT.shape[1]).repeat(size) + slots]
        # row i + 1: slot i's weight, left increment (and T*w); a running sum down the rows of this
        # (m + 1, 2 or 3) table costs about one pass, against one per column along rows
        past = np.empty((m + 1, 2 if code is None else 3), dtype=np.int64)
        if code is None:  # the slots are in range; "clip" skips the copy that out= takes under "raise"
            sums.take(slots, axis=0, out=past[1:], mode="clip")
        else:
            w = sums[:, 0].take(slots)
            key = np.repeat(np.arange(b - a), size) * n_labels + code[slots]
            order = np.argsort(key, kind="stable")  # by pair and label, then value
            heads = np.flatnonzero(np.diff(key[order], prepend=-1))
            wo, runs = w[order], np.diff(heads, append=m)
            occ, tot = np.empty((2, m), dtype=np.int64)
            occ[order], tot[order] = np.cumsum(wo) - wo, np.repeat(np.add.reduceat(wo, heads), runs)
            occ[order] -= np.repeat(occ[order][heads], runs)
            past[1:, 0], past[1:, 1], past[1:, 2] = w, (2 * occ + w) * w, tot * w
        total = np.add.reduceat(past[1:], first, axis=0)
        # row i becomes the sum over the pair's slots before slot i: one running sum that each
        # pair's first row restarts by taking off the previous pair's total
        past[0] = 0
        for c in range(past.shape[1]):
            past[:, c][first[1:]] -= total[:-1, c]
        np.add.accumulate(past[:m], axis=0, out=past[:m])
        nl, sq, tw = past[:m, 0], past[:m, 1], past[:m, -1]
        n = seg_weight[ps].repeat(size)
        right = total[:, 1].repeat(size) - sq  # T*T - 2*T*l + l*l summed; with no label repeats T*l = l*l
        if code is not None:
            right -= 2 * (tw - sq)
        nr = n - nl
        imp = 1.0 - (sq / np.maximum(nl, 1) + right / nr) / n
        # no cut before a pair's first slot (nl = 0 < min_leaf), nor between equal values
        bad = (nl < min_leaf) | (nr < min_leaf)
        bad[1:] |= v[1:] == v[:-1]
        np.putmask(imp, bad, np.inf)
        low = np.minimum.reduceat(imp, first)
        hits = (imp == low.repeat(size)).nonzero()[0]
        at = hits[hits.searchsorted(first)]  # the first minimum in a feature
        i = pair[a:b]
        best.ravel()[i], hit.ravel()[i], below.ravel()[i], lo.ravel()[i], hi.ravel()[i] = (
            low, at - first, nl[at], v[at - 1], v[at])
    f = best.argmin(axis=0)  # lower feature on ties across features
    pick = f * use.shape[1] + np.arange(use.shape[1])
    return (f, np.isfinite(best.ravel()[pick]), start + hit.ravel()[pick],
            *(a.ravel()[pick] for a in (below, lo, hi)))


class _Trees(_Classifier):
    """CART trees (Gini impurity, three range features) grown level by level into flat arrays.

    Thresholds are midpoints of consecutive distinct values, and rows with value <= threshold go
    left. A node is a leaf when it is pure, at ``max_depth``, smaller than 2 * ``min_leaf``, or has
    no split; leaves keep their label frequencies. Node i splits on ``_feature[i]`` (-1: leaf) at
    ``_threshold[i]`` into ``_left[i]`` and ``_left[i] + 1``; a leaf's entries are ``_labels/_probs[
    _offset[i] : _offset[i + 1]]``. Member i's root is node ``_root[i]``. A run is a chain of right
    children that split on their parent's feature; the one headed by node i has its rising thresholds
    at ``_steps[_first[i] : _stop[i]]``, then +inf, and ``_to`` their left children, then the last
    one's right child."""

    def _grow(self, train, members, rngs, features_per_split, max_depth, min_leaf) -> None:
        """Grow member i on its (distinct rows, integer weights) ``members[i]``, in batches of about
        ``2 * _CHUNK_ELEMENTS`` slots."""
        parts, start = [], np.cumsum([0] + [r.shape[0] for r, _ in members])[:-1]
        bounds = np.unique(start // (2 * _CHUNK_ELEMENTS), return_index=True)[1].tolist() + [len(members)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            parts.append(self._grow_batch(train, members[a:b], rngs[a:b], features_per_split,
                                          max_depth or math.inf, min_leaf, sum(p[0].shape[0] for p in parts)))
        tables = list(zip(*parts))
        del parts  # each batch's part of a table is freed once the table is joined
        self._feature, self._left, self._threshold, self._labels, self._probs, entries, self._root = (
            [np.concatenate(tables.pop(0)) for _ in range(len(tables))])
        self._offset, inner = np.append(0, np.cumsum(entries)), np.flatnonzero(self._feature >= 0)
        head = np.arange(self._feature.shape[0])
        same = inner[self._feature[self._left[inner] + 1] == self._feature[inner]]
        head[self._left[same] + 1] = same
        while np.any(head[head] != head):
            head = head[head]
        heads = head[inner]
        del head, same, entries  # node-sized: freed before the run tables are made
        order = np.argsort(heads, kind="stable")  # by run, then id: rising thresholds
        inner, heads = inner[order], heads[order]
        end = np.flatnonzero(np.diff(heads, append=-1)) + 1  # just past each run's last node
        run = heads[end - 1]  # the runs' heads
        del heads, order
        sentinel = end + np.arange(end.shape[0])  # run j's +inf, after j earlier ones
        node = np.ones(inner.shape[0] + end.shape[0], dtype=bool)
        node[sentinel] = False
        self._steps = np.full(node.shape[0], np.inf)
        self._to = np.empty(node.shape[0], dtype=self._left.dtype)
        self._steps[node], self._to[node] = self._threshold[inner], self._left[inner]
        self._to[sentinel] = self._to[sentinel - 1] + 1  # the last node's right child
        del inner, node
        self._first, self._stop = np.zeros((2, self._feature.shape[0]), dtype=np.int64)
        self._first[run], self._stop[run] = sentinel - np.diff(end, prepend=0), sentinel

    @staticmethod
    def _grow_batch(train, members, rngs, features_per_split, cap, min_leaf, first_id):
        """Grow a batch of members in one loop and return its tables, node ids counted from ``first_id``.

        A slot is one distinct row of a member, with its integer weight; sizes, ``min_leaf`` and leaf
        frequencies count weight. Open nodes are segments of one layout of slots; ``A[f]`` holds each
        segment's slots sorted by feature f, and a split partitions the three rows stably: all open left
        children, then all open right children. A node of one slot, of weight under ``2 * min_leaf`` or
        at ``cap`` is closed as a leaf when it is made, not carried to the next depth. Under 3 features
        per split, member i draws a depth's subsets in one ``rngs[i]`` call, in node id order."""
        slot_row, weight = (np.concatenate(a) for a in zip(*members))
        seg_size, seg_weight = np.array([(r.shape[0], w.sum()) for r, w in members]).T
        label_values, codes = np.unique(train.y, return_inverse=True)
        XT, n_labels, n_members = np.ascontiguousarray(train.X[slot_row].T), len(label_values), len(members)
        # with no label repeated, a segment of two slots is not pure and no slot is sorted by label
        code = None if n_labels == len(train) else codes[slot_row]
        sums = np.stack([weight, weight * weight], axis=1)
        rank = np.argsort(np.argsort(train.X, axis=0, kind="stable"), axis=0)[slot_row].T
        A = np.argsort(rank + np.repeat(np.arange(n_members) * len(train), seg_size), axis=1)
        feature, left = np.full((2, 2 * len(slot_row)), -1, dtype=np.int64)
        threshold = np.full(2 * len(slot_row), math.nan)
        leaf_of = np.repeat(np.arange(n_members), seg_size)  # a slot's last open node is its leaf
        side = np.empty(len(slot_row), dtype=np.int8)  # of an open slot: 0 left, 1 right, 2 or 3 closed
        child_side = np.int8([[0], [1]])

        def opens(size, weight, depth):  # whether a node may split, its labels aside
            return (size > 1) & (weight >= 2 * min_leaf) & (depth < cap)

        root = opens(seg_size, seg_weight, 0)
        A = A[:, np.repeat(root, seg_size)]
        nodes, seg_size, seg_weight = np.flatnonzero(root), seg_size[root], seg_weight[root]
        seg_member, next_id, depth = nodes, n_members, 0
        while nodes.shape[0]:
            start = seg_size.cumsum() - seg_size
            lab = None if code is None else (
                code[A[0]] + (np.arange(len(nodes)) * n_labels).repeat(seg_size))  # (segment, label) keys
            use = seg_size > 1 if lab is None else (  # not pure
                np.minimum.reduceat(lab, start) < np.maximum.reduceat(lab, start))
            peeling = False
            if min_leaf == 1 and features_per_split == 3:
                peel = use & (seg_weight == seg_size)  # unit weights: a slot of weight 2 repeats its label
                if peel.any() and lab is not None:
                    key = np.sort(lab[np.repeat(peel, seg_size)])
                    peel[key[1:][key[1:] == key[:-1]] // n_labels] = False
                peeling = peel.any()
                use &= ~peel
            tries = use[None, :].repeat(3, axis=0)  # the split attempts, per feature
            by_id = nodes.argsort()  # the segments in node id order
            if features_per_split < 3:
                att = by_id[use[by_id]]
                counts = np.bincount(seg_member[att], minlength=n_members)
                draws = np.concatenate([rng.random((c, 3)) for rng, c in zip(rngs, counts.tolist())])
                tries[:, att] = draws.argsort(axis=1, kind="stable").argsort(axis=1).T < features_per_split
            f, split, at, below, lo, hi = _best_splits(A, XT, sums, code, n_labels, tries, start, seg_size,
                                                       seg_weight, min_leaf)
            if peeling:
                next_id, peeled, peeled_leaf = _Trees._peel(
                    XT, A[0][np.repeat(peel, seg_size)], seg_size[peel], nodes[peel], depth, cap, next_id,
                    feature, threshold, left)
            # (id, size, weight, member) of each segment's left, then right child; children take ids in
            # their parents' id order, and a segment that does not split is one closed run under its id
            parent = by_id[split[by_id]]
            lid = nodes.copy()
            lid[parent] = next_id + 2 * np.arange(parent.shape[0])
            lsize = np.where(split, at - start, seg_size)
            kids = np.array([[lid, lsize, below, seg_member],
                             [lid + 1, seg_size - lsize, seg_weight - below, seg_member]])
            opened = opens(kids[:, 1], kids[:, 2], depth + 1) & split
            # each segment's slots in its split feature's row: its left run, then its right run
            run = A.ravel()[(f * A.shape[1]).repeat(seg_size) + np.arange(A.shape[1])]
            runs = kids[:, 1].T.ravel()
            side[run] = (~opened * np.int8(2) + child_side).T.ravel().repeat(runs)
            leaf_of[run] = kids[:, 0].T.ravel().repeat(runs)
            if peeling:
                leaf_of[peeled] = peeled_leaf
            node = nodes[parent]
            feature[node], left[node] = f[parent], lid[parent]
            threshold[node] = _guarded_threshold(lo[parent], hi[parent])
            # the open left children in layout order, then the open right children
            nodes, seg_size, seg_weight, seg_member = kids.transpose(1, 0, 2)[:, opened]
            # each row keeps the slots of open left children, then of open right children, in its order;
            # a slot is in every row once, so the rows keep equal lengths
            sides, slots = side.take(A).ravel(), A.ravel()
            A = np.concatenate([slots[(sides == 0).nonzero()[0]].reshape(3, -1),
                                slots[(sides == 1).nonzero()[0]].reshape(3, -1)], axis=1)
            next_id, depth = next_id + 2 * parent.shape[0], depth + 1
        # leaf entries: one per (leaf, label), sorted by leaf, then label; the weights are integers, so
        # each frequency is the same double as a ratio of row counts
        entries, entry_of = np.unique(leaf_of * n_labels + codes[slot_row], return_inverse=True)
        leaf, labels = entries // n_labels, label_values[entries % n_labels]
        probs = np.bincount(entry_of, weights=weight) / np.bincount(leaf_of, weight, next_id)[leaf]
        return (feature[:next_id].copy(), left[:next_id] + first_id, threshold[:next_id].copy(), labels,
                probs, np.bincount(leaf, minlength=next_id), first_id + np.arange(n_members))

    @staticmethod
    def _peel(XT, slots, sizes, nodes, depth, cap, next_id, feature, threshold, left):
        """Grow the subtrees of all-distinct-label segments in one step; return the next node id, the
        segments' slots and each one's leaf.

        With distinct labels, ``min_leaf`` 1 and all features, every candidate scores 1 - 2/n: a
        split takes off the lowest value group of the lowest splittable feature. Sorted by (segment,
        f0, f1, f2), a group at depth d, constant below feature ``lvl``, is a run: the node holding
        its value groups j.. on ``lvl`` splits group j off at depth d + j, below the cap."""
        s = slots[np.lexsort((*XT[::-1, slots], np.repeat(np.arange(len(sizes)), sizes)))]
        v, M = XT[:, s], s.shape[0]
        # lowest feature on which a slot differs from the previous one (3: none)
        brk = np.append(-1, np.vstack([v[:, 1:] != v[:, :-1], np.ones((1, M - 1), bool)]).argmax(axis=0))
        g_start = np.cumsum(sizes) - sizes
        brk[g_start] = -1
        g_end, g_node, g_depth = g_start + sizes, nodes, np.full(sizes.shape[0], depth)
        leaves = []  # (first slot, node) of each leaf; the leaves tile the sorted slots
        for lvl in range(3):
            inside = np.cumsum(np.bincount(g_start, minlength=M + 1) - np.bincount(g_end, minlength=M + 1))
            sub = np.flatnonzero((inside[:M] > 0) & (brk <= lvl))
            parent = np.searchsorted(g_start, sub, side="right") - 1
            head = np.searchsorted(sub, g_start)
            j = np.arange(sub.shape[0]) - head[parent]
            last = j == np.diff(np.append(head, sub.shape[0]))[parent] - 1
            d = g_depth[parent] + j
            splits = (d < cap) & ~last
            kid = next_id + 2 * (np.cumsum(splits) - 1)
            own = np.where(j == 0, g_node[parent], np.concatenate([[-1], kid[:-1] + 1]))
            at = np.flatnonzero(splits)
            feature[own[at]], left[own[at]] = lvl, kid[at]
            threshold[own[at]] = _guarded_threshold(v[lvl, sub[at + 1] - 1], v[lvl, sub[at + 1]])
            leaves.append(np.stack([sub, own])[:, d == cap])
            down = splits | (last & (d < cap))  # left children, and the last value group
            g_end = np.where(last, g_end[parent], np.append(sub[1:], M))[down]
            g_start, g_node, g_depth = sub[down], np.where(last, own, kid)[down], (d + splits)[down]
            next_id += 2 * at.shape[0]
        first, node = np.concatenate(leaves + [np.stack([g_start, g_node])], axis=1)
        order = np.argsort(first)
        return next_id, s, np.repeat(node[order], np.diff(np.append(first[order], M)))

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each (member, query), member by member."""
        X = _query_batch(X)
        values = np.where(np.isnan(X), np.inf, X).ravel()  # NaN goes right everywhere, as +inf does
        feature, first, stop, steps, to = self._feature, self._first, self._stop, self._steps, self._to
        node = self._root.repeat(X.shape[0])
        live = (feature.take(node) >= 0).nonzero()[0]
        q, nd = live % X.shape[0] * 3, node.take(live)  # each live (member, query)'s values and run head
        while live.shape[0]:
            x, at, end = values.take(q + feature.take(nd)), first.take(nd), stop.take(nd)
            # first place with x <= threshold, else the sentinel: power-of-two steps, clamped to the sentinel
            for k in range(int((end - at).max() - 1).bit_length() - 1, -1, -1):
                mid = np.minimum(at + (1 << k), end)
                at = np.where(steps.take(mid) < x, mid, at)
            at += steps.take(at) < x
            node[live] = nd = to.take(at)
            keep = (feature.take(nd) >= 0).nonzero()[0]
            live, q, nd = live.take(keep), q.take(keep), nd.take(keep)
        return node

    def _masses(self, X: np.ndarray):
        return tuple(np.concatenate(p) for p in zip(*(piece[2:] for piece in self._pieces(X))))

    def _pieces(self, X: np.ndarray):
        """``_masses`` in pieces of queries whose leaf entries number about ``4 * _CHUNK_ELEMENTS``: a
        shallow forest's leaves hold many labels."""
        leaf = self.apply_batch(X).reshape(self._root.shape[0], X.shape[0])
        size = self._offset[leaf + 1] - self._offset[leaf]
        held = size.sum(axis=0).cumsum()
        piece = 4 * _CHUNK_ELEMENTS
        cuts = np.searchsorted(held, np.arange(piece, held[-1:].sum(), piece)).tolist()
        for a, b in zip([0] + cuts, cuts + [X.shape[0]]):
            # every member's leaf entries, member by member, summed in that order
            lf, sz = leaf[:, a:b].ravel(), size[:, a:b].ravel()
            entry = np.arange(sz.sum()) + np.repeat(self._offset[lf] - np.cumsum(sz) + sz, sz)
            query = np.repeat(np.tile(np.arange(a, b), leaf.shape[0]), sz)
            query, label, mass = _accumulate([(query, self._labels[entry], self._probs[entry])])
            yield a, b, query, label, mass / self._root.shape[0]

    @property
    def node_count(self) -> int:
        return int(self._feature.shape[0])


def check_cart_setting(max_depth: int | None, min_leaf: int, n_trees: int = 1,
                       features_per_split: int = 3) -> None:
    """Reject CART settings a tree or forest cannot be grown with."""
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if not 1 <= features_per_split <= 3:
        raise ValueError(f"features_per_split must be in 1..3, got {features_per_split}")


class TreeClassifier(_Trees):
    """One CART tree over every training row and all three features per split."""

    def __init__(self, train: TrainingSet, max_depth: int | None = None, min_leaf: int = 1):
        check_cart_setting(max_depth, min_leaf)
        self._grow(train, [(np.arange(len(train)), np.ones(len(train), dtype=np.int64))], [None], 3,
                   max_depth, min_leaf)


class ForestClassifier(_Trees):
    """Bagged ensemble of CART trees with per-split feature sampling, grown together.

    Member i trains on a same-size bootstrap resample (unless ``bootstrap`` is off) drawn from a
    generator seeded with ``seed + i``, which then draws its feature subsets, one call per depth.
    The resample is kept as its distinct rows, each weighted by how often it was drawn. The ensemble
    probability is the member-order sum over ``n_trees``."""

    def __init__(self, train: TrainingSet, n_trees: int = 100, features_per_split: int = 1,
                 max_depth: int | None = None, min_leaf: int = 1, seed: int = 0, bootstrap: bool = True):
        check_cart_setting(max_depth, min_leaf, n_trees, features_per_split)
        self.n_trees = n_trees
        rngs = [np.random.default_rng(seed + i) for i in range(n_trees)]
        n = len(train)
        counts = (np.bincount(rng.integers(0, n, size=n), minlength=n) if bootstrap
                  else np.ones(n, dtype=np.int64) for rng in rngs)
        members = [(np.flatnonzero(c), c[c > 0]) for c in counts]
        self._grow(train, members, rngs, features_per_split, max_depth, min_leaf)


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

    def as_text(self) -> str:
        """``KNN:TREE`` at full precision, as config values and report metadata write it."""
        return f"{self.w_knn!r}:{self.w_tree!r}"

    def tree_can_decide(self, k: int) -> bool:
        """Whether a tree's masses can change the answer of a vote with a k-neighbour KNN.

        Not when k = 1 and ``w_knn > w_tree``: the nearest label's mass is
        ``fl(w_knn + t) >= w_knn``, and any other label's at most ``fl(w_tree * p) <= w_tree``,
        since a tree mass ``p`` is at most 1 and rounding is monotone.
        """
        return not (k == 1 and self.w_knn > self.w_tree)


class SoftVoteClassifier(_Classifier):
    """Weighted probability vote: a label's mass is its KNN mass times ``w_knn`` plus its tree mass
    times ``w_tree``. Where the tree cannot decide (``VoteWeights.tree_can_decide``), the vote
    gives the KNN's answers, so ``run_ml`` uses the KNN itself."""

    def __init__(self, knn: KnnClassifier, tree: TreeClassifier, weights: VoteWeights):
        self.knn = knn
        self.tree = tree
        self.weights = weights

    def _masses(self, X: np.ndarray):
        qk, lk, pk = self.knn._masses(X)
        qt, lt, pt = self.tree._masses(X)
        return _accumulate([(qk, lk, pk * self.weights.w_knn), (qt, lt, pt * self.weights.w_tree)])
