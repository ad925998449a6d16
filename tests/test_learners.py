import math
import tracemalloc

import numpy as np
import pytest

from uwbloc import learners
from uwbloc.calibration import CalibrationModel, LinearRangingEq, ModelKind
from uwbloc.fingerprint import GridSpec, build_db
from uwbloc.geometry import DEFAULT_ANCHORS
from uwbloc.learners import (
    EmptyTrainingSetError,
    ForestClassifier,
    KnnClassifier,
    KOutOfRangeError,
    SoftVoteClassifier,
    TrainingSet,
    TreeClassifier,
    VoteWeights,
)
from uwbloc.fingerprint import LabelOutOfRangeError

from oracles import argmax_label, probabilities, soft_vote


def _train(X, y, spec=None):
    return TrainingSet(np.asarray(X, dtype=float), np.asarray(y, dtype=np.int64), spec)


def test_training_set_validation():
    with pytest.raises(EmptyTrainingSetError):
        _train(np.empty((0, 3)), [])
    with pytest.raises(ValueError):
        _train([[1.0, 2.0]], [0])
    with pytest.raises(ValueError):
        _train([[1.0, 2.0, -3.0]], [0])
    with pytest.raises(LabelOutOfRangeError):
        _train([[1.0, 2.0, 3.0]], [-1])
    with pytest.raises(LabelOutOfRangeError):
        _train([[1.0, 2.0, 3.0]], [99], GridSpec(50.0, 50.0, 25.0))


def test_training_set_from_arrays_and_db():
    train = TrainingSet([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [5, 2])
    assert len(train) == 2
    assert train.X.dtype == np.float64
    assert train.y.tolist() == [5, 2]

    model = CalibrationModel(
        ModelKind.ONE, LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0)
    )
    db = build_db(model, GridSpec(100.0, 100.0, 50.0), DEFAULT_ANCHORS)
    from_db = TrainingSet.from_db(db)
    assert len(from_db) == 4
    assert from_db.y.tolist() == [0, 1, 2, 3]
    assert np.array_equal(from_db.X, db.vectors)


def test_argmax_label_breaks_ties_low():
    assert argmax_label({2: 0.5, 1: 0.5}) == 1
    assert argmax_label({7: 0.2, 3: 0.6, 9: 0.2}) == 3
    with pytest.raises(ValueError):
        argmax_label({})


def test_knn_equal_thirds():
    train = _train(
        [[0.0 + 1e-9, 1.0, 1.0], [10.0, 1.0, 1.0], [1.0, 10.0, 1.0], [100.0, 100.0, 100.0]],
        [0, 1, 2, 3],
    )
    knn = KnnClassifier(train, k=3)
    probs = probabilities(knn, [[1.0, 1.0, 1.0]])[0]
    w = 1.0 / 3.0
    assert probs == {0: w, 1: w, 2: w}
    assert knn.predict_batch([[1.0, 1.0, 1.0]])[0] == 0


def test_knn_distance_tie_goes_to_lower_label():
    train = _train([[10.0, 1.0, 1.0], [1.0, 10.0, 1.0]], [5, 2])
    knn = KnnClassifier(train, k=1)
    assert knn.predict_batch([[1.0, 1.0, 1.0]])[0] == 2


def test_knn_k_bounds():
    train = _train([[1.0, 1.0, 1.0]], [0])
    with pytest.raises(KOutOfRangeError):
        KnnClassifier(train, k=0)
    with pytest.raises(KOutOfRangeError):
        KnnClassifier(train, k=2)


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        X = rng.uniform(1.0, 2500.0, size=(n, 3))
        y = rng.integers(0, max(2, n // 2), size=n)
        k = int(rng.integers(1, min(n, 8) + 1))
        train = _train(X, y)
        knn = KnnClassifier(train, k=k)
        for _ in range(10):
            q = rng.uniform(1.0, 2500.0, size=3)
            d2 = ((X - q) ** 2).sum(axis=1)
            ranked = sorted(range(n), key=lambda i: (d2[i], y[i]))[:k]
            probs = {}
            for i in ranked:
                probs[int(y[i])] = probs.get(int(y[i]), 0.0) + 1.0 / k
            got = probabilities(knn, q[None, :])[0]
            assert got == probs
            assert int(knn.predict_batch(q[None, :])[0]) == argmax_label(probs)


def _reference_neighbors(X, y, Q, k):
    """The per-query search the batched one replaced: a full lexsort per query."""
    rows = np.empty((Q.shape[0], k), dtype=np.int64)
    for i, q in enumerate(Q):
        with np.errstate(over="ignore"):  # the 1e155 probes square to inf, which ranks last
            d2 = ((X - q) ** 2).sum(axis=1)
        rows[i] = np.lexsort((y, d2))[:k]
    return rows


def _ulp_ties(rng):
    # rows whose squared distances to the query differ by about one ulp
    base = np.array([1234.5, 987.25, 1500.125])
    X = np.repeat(base[None, :], 40, axis=0)
    X[:, 0] = base[0] + np.arange(-20, 20) * np.spacing(base[0])
    X[::3, 1] = np.nextafter(base[1], np.inf)
    y = rng.permutation(40) % 13
    Q = np.vstack([base, X[7], X[8] + np.spacing(X[8]), (X[3] + X[4]) / 2.0])
    return X, y, Q


def _adversarial_cases():
    rng = np.random.default_rng(61)
    cases = {}
    X = np.repeat(rng.uniform(1.0, 2500.0, size=(6, 3)), 5, axis=0)
    cases["duplicate-rows"] = (X, rng.permutation(30) % 9, np.vstack([X[::4], X[:3] + 0.5]))
    Xb = rng.uniform(1.0, 2500.0, size=(50, 3))
    Xa = np.vstack([Xb, Xb + rng.normal(0.0, 5.0, size=Xb.shape), Xb])
    ya = np.concatenate([np.arange(50), np.arange(50)[::-1], np.arange(50)])
    cases["unsorted-labels"] = (Xa, ya, rng.uniform(1.0, 2500.0, size=(25, 3)))
    cases["ulp-ties"] = _ulp_ties(rng)
    X = 1e9 + rng.uniform(0.0, 4.0, size=(80, 3))
    cases["coordinates-1e9"] = (X, rng.integers(0, 20, size=80), 1e9 + rng.uniform(0.0, 4.0, size=(9, 3)))
    X = rng.uniform(0.5, 2.0, size=(30, 3)) * 1e155
    cases["overflow-1e155"] = (X, rng.integers(0, 7, size=30), rng.uniform(0.5, 2.0, size=(6, 3)) * 1e155)
    X = np.vstack([rng.uniform(1.0, 2500.0, size=(20, 3)), rng.uniform(0.5, 2.0, size=(5, 3)) * 1e155])
    Q = np.vstack([rng.uniform(1.0, 2500.0, size=(4, 3)), [[1e155, 1.0, 1.0]]])
    cases["mixed-1e155"] = (X, rng.integers(0, 6, size=25), Q)
    X = rng.uniform(1.0, 4.0, size=(30, 3)) * 1e-160
    cases["underflow-1e-160"] = (X, rng.integers(0, 7, size=30), rng.uniform(1.0, 4.0, size=(6, 3)) * 1e-160)
    X = rng.uniform(1.0, 2500.0, size=(30, 3))
    Q = np.array([[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [-np.inf, 5.0, 5.0],
                  [np.inf, -np.inf, 1.0], [np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]])
    cases["non-finite-queries"] = (X, rng.integers(0, 8, size=30), Q)
    cases["empty-batch"] = (X, rng.integers(0, 8, size=30), np.empty((0, 3)))
    X = rng.uniform(1.0, 2500.0, size=(3000, 3))
    step = KnnClassifier(_train(X, np.zeros(3000)), k=1)._step  # queries per chunk, as for k = 4
    Q = rng.uniform(1.0, 2500.0, size=(step + 7, 3))
    cases["partial-last-chunk"] = (X, rng.integers(0, 750, size=3000), Q)
    # more rows than the budget and none prunable: one query's candidates come in pieces
    n = learners._CHUNK_ELEMENTS + 3
    Q = SPHERE_CENTER + [[0.0, 0.0, 0.0], [0.0, 1e-9, 0.0]]
    cases["rows-over-budget"] = (_sphere(rng, n), rng.integers(0, n // 4, size=n), Q)
    Q = SPHERE_CENTER + [[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]]
    cases["sphere"] = (_sphere(rng, 400), rng.integers(0, 9, size=400), Q)
    centers = rng.uniform(1.0, 1e6, size=(6, 3))
    X = np.repeat(centers, 30, axis=0) + rng.normal(0.0, 10.0, size=(180, 3))
    Q = np.vstack([centers + 1.0, (centers[:3] + centers[3:]) / 2.0])
    cases["far-clusters"] = (X, rng.integers(0, 40, size=180), Q)
    X = rng.uniform(1.0, 2500.0, size=(1, 3))
    cases["one-row"] = (X, [3], np.vstack([X, rng.uniform(1.0, 2500.0, size=(4, 3))]))
    X = rng.uniform(1.0, 2500.0, size=(5, 3))
    cases["under-one-block"] = (X, [2, 0, 2, 1, 0], np.vstack([X, rng.uniform(1.0, 2500.0, size=(6, 3))]))
    X = rng.uniform(1.0, 2500.0, size=(120, 3))
    cases["k-leaf-plus-one"] = (X, rng.integers(0, 30, size=120), rng.uniform(1.0, 2500.0, size=(20, 3)))
    X = rng.uniform(1.0, 2500.0, size=(40, 3))
    cases["k-equals-n"] = (X, rng.integers(0, 10, size=40), rng.uniform(1.0, 2500.0, size=(20, 3)))
    # runs of 40 equal rows, each over three blocks, with few labels: ties in d2 and label
    X = np.repeat(rng.uniform(1.0, 2500.0, size=(4, 3)), 40, axis=0)[rng.permutation(160)]
    cases["duplicates-across-blocks"] = (X, rng.integers(0, 3, size=160), np.vstack([X[:4], X[:4] + 0.25]))
    # a coarse lattice puts rows on the faces of many boxes; query the block and stripe corners and faces
    X = rng.integers(1, 9, size=(300, 3)).astype(float)
    knn = KnnClassifier(_train(X, np.zeros(300)), k=1)
    Q = []
    for lo, hi in ((knn._lo, knn._hi), (knn._slo, knn._shi)):
        for b in range(0, lo.shape[1], 3):
            corners = np.where(np.indices((2, 2, 2)).reshape(3, -1).T == 1, hi[:, b], lo[:, b])
            faces = np.repeat(((lo[:, b] + hi[:, b]) / 2.0)[None, :], 6, axis=0)
            faces[np.arange(6), np.arange(6) % 3] = np.concatenate([lo[:, b], hi[:, b]])
            Q += [corners, faces]
    cases["box-faces-and-corners"] = (X, rng.integers(0, 12, size=300), np.vstack(Q))
    return cases


SPHERE_CENTER = np.array([2000.0, 2000.0, 2000.0])


def _sphere(rng, n):
    """n rows at distance 1000 from SPHERE_CENTER; a box over some of them is never farther from
    the center than they are, so no block prunes for a query there."""
    u = rng.normal(size=(n, 3))
    return SPHERE_CENTER + 1000.0 * u / np.linalg.norm(u, axis=1)[:, None]


_ADVERSARIAL = _adversarial_cases()
# the k of each case, when not 1 and 4
_ADVERSARIAL_K = {"one-row": (1,), "k-leaf-plus-one": (learners._LEAF + 1,), "k-equals-n": (40,)}


@pytest.mark.parametrize("name, k", [(name, k) for name in sorted(_ADVERSARIAL)
                                     for k in _ADVERSARIAL_K.get(name, (1, 4))])
def test_knn_batch_search_matches_per_query_reference(name, k):
    X, y, Q = _ADVERSARIAL[name]
    train = _train(X, y)
    knn = KnnClassifier(train, k=k)
    ref = _reference_neighbors(train.X, train.y, Q, k)
    assert np.array_equal(knn._neighbors_batch(Q), ref)
    ref_probs = []
    for labels in train.y[ref]:
        probs = {}
        for label in labels:
            probs[int(label)] = probs.get(int(label), 0.0) + 1.0 / k
        ref_probs.append(probs)
    assert probabilities(knn, Q) == ref_probs
    labels = knn.predict_batch(Q)
    assert labels.dtype == np.int64 and labels.shape == (Q.shape[0],)
    assert labels.tolist() == [argmax_label(p) for p in ref_probs]


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
def test_knn_masses_at_k1_are_what_accumulate_gives(name):
    X, y, Q = _ADVERSARIAL[name]
    # with probe rows of NaN and of +-inf, alone and mixed with finite values
    Q = np.vstack([Q, [[np.nan] * 3, [np.inf] * 3, [-np.inf] * 3, [np.inf, -np.inf, np.nan],
                       [X[0, 0], np.nan, X[0, 2]]]])
    knn = KnnClassifier(_train(X, y), k=1)
    labels = knn._y[knn._neighbors_batch(Q)]
    want = learners._accumulate([(np.arange(Q.shape[0]), labels.ravel(), np.full(Q.shape[0], 1.0))])
    for got, ref in zip(knn._masses(Q), want, strict=True):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("chunk", [1, 50])
def test_knn_search_in_small_chunks_matches_reference(monkeypatch, chunk):
    # at 1: one query per chunk, one stripe per piece and a merge after every piece,
    # each lowering ub to its k-th best; at 50: a few of each, and queries whose
    # candidates span pieces; a NaN query keeps every row. k = 1 takes the sort-free merge,
    # the others lexsort
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", chunk)
    for name in ("unsorted-labels", "duplicates-across-blocks", "far-clusters", "k-leaf-plus-one",
                 "non-finite-queries"):
        X, y, Q = _ADVERSARIAL[name]
        train = _train(X, y)
        for k in (1, 4, learners._LEAF + 1):
            got = KnnClassifier(train, k=k)._neighbors_batch(Q)
            assert np.array_equal(got, _reference_neighbors(train.X, train.y, Q, k)), (name, k)


def test_knn_memory_stays_within_the_chunk_budget():
    # nothing prunes around a sphere's center, so every query reaches every row; the
    # search must still work in pieces instead of allocating queries x rows
    rng = np.random.default_rng(79)
    n = 20_000
    X, y = _sphere(rng, n), rng.integers(0, 50, size=n)
    knn = KnnClassifier(_train(X, y), k=1)
    Q = SPHERE_CENTER + rng.normal(0.0, 1e-3, size=(64, 3))
    tracemalloc.start()
    try:
        got = knn._neighbors_batch(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * learners._CHUNK_ELEMENTS * 8  # one float64 per (query, row) is 19.5x
    assert np.array_equal(got, _reference_neighbors(X, y, Q, 1))


def test_knn_over_the_5mm_grid_matches_the_reference():
    # 80,000 rows: exact at a scale the benchmark does not reach; work quadratic
    # in the rows (6.4e9 pairs) would take minutes here
    model = CalibrationModel(
        ModelKind.ONE, LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0)
    )
    train = TrainingSet.from_db(build_db(model, GridSpec(1000.0, 2000.0, 5.0), DEFAULT_ANCHORS))
    assert len(train) == 80_000
    rng = np.random.default_rng(83)
    Q = train.X[rng.integers(0, len(train), size=50)] + rng.normal(0.0, 20.0, size=(50, 3))
    for k in (1, 3):
        got = KnnClassifier(train, k=k)._neighbors_batch(Q)
        assert np.array_equal(got, _reference_neighbors(train.X, train.y, Q, k))


def _query_shape_classifiers():
    rng = np.random.default_rng(67)
    train = _train(rng.uniform(1.0, 100.0, size=(20, 3)), rng.integers(0, 4, size=20))
    knn = KnnClassifier(train, k=3)
    tree = TreeClassifier(train)
    return {
        "knn": knn,
        "tree": tree,
        "forest": ForestClassifier(train, n_trees=2, seed=5),
        "vote": SoftVoteClassifier(knn, tree, VoteWeights()),
    }


@pytest.mark.parametrize("kind", ["knn", "tree", "forest", "vote"])
@pytest.mark.parametrize("bad", [[100.0, 200.0, 300.0], np.ones((2, 2)), np.ones((1, 3, 1)), 5.0])
def test_batch_methods_reject_anything_but_m_by_3(kind, bad):
    clf = _query_shape_classifiers()[kind]
    for method in ("predict_batch", "apply_batch"):
        if hasattr(clf, method):
            with pytest.raises(ValueError, match=r"shape \(m, 3\)"):
                getattr(clf, method)(bad)


@pytest.mark.parametrize("kind", ["knn", "tree", "forest", "vote"])
def test_batch_methods_take_an_empty_batch(kind):
    clf = _query_shape_classifiers()[kind]
    labels = clf.predict_batch(np.empty((0, 3)))
    assert labels.dtype == np.int64 and labels.shape == (0,)
    assert probabilities(clf, np.empty((0, 3))) == []


def test_predict_batch_is_the_argmax_of_the_probabilities():
    # few distinct values: repeated rows give multi-label leaves and equal masses
    rng = np.random.default_rng(71)
    train = _train(rng.integers(1, 6, size=(60, 3)), rng.integers(0, 5, size=60))
    Q = rng.integers(1, 6, size=(40, 3)).astype(float)
    for clf in (KnnClassifier(train, k=4), TreeClassifier(train, max_depth=2),
                ForestClassifier(train, n_trees=5, seed=2)):
        probs = probabilities(clf, Q)
        assert clf.predict_batch(Q).tolist() == [argmax_label(p) for p in probs]
        assert [clf.predict_batch([q])[0] for q in Q] == [argmax_label(p) for p in probs]


def test_tree_pure_node_is_a_single_leaf():
    train = _train([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [7, 7])
    tree = TreeClassifier(train)
    assert tree.node_count == 1
    assert tree.predict_batch([[9.0, 9.0, 9.0]])[0] == 7
    assert probabilities(tree, [[9.0, 9.0, 9.0]])[0] == {7: 1.0}


def test_tree_splits_two_classes_at_the_midpoint():
    train = _train([[1.0, 5.0, 5.0], [2.0, 5.0, 5.0], [8.0, 5.0, 5.0], [9.0, 5.0, 5.0]],
                   [0, 0, 1, 1])
    tree = TreeClassifier(train)
    assert tree.node_count == 3
    assert tree.predict_batch([[2.5, 5.0, 5.0]])[0] == 0
    assert tree.predict_batch([[7.0, 5.0, 5.0]])[0] == 1


def test_tree_max_depth_and_min_leaf_stop_growth():
    X = [[float(i), 1.0, 1.0] for i in range(1, 9)]
    y = list(range(8))
    stump = TreeClassifier(_train(X, y), max_depth=1)
    assert stump.node_count == 3
    chunky = TreeClassifier(_train(X, y), min_leaf=4)
    assert chunky.node_count == 3
    probs = probabilities(chunky, [[1.0, 1.0, 1.0]])[0]
    assert probs == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}


def test_tree_left_side_takes_values_at_the_threshold():
    train = _train([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0]], [0, 1])
    tree = TreeClassifier(train)
    # threshold is the midpoint 2.0; a query at exactly 2.0 goes left
    assert tree.predict_batch([[2.0, 1.0, 1.0]])[0] == 0


def test_tree_separates_adjacent_float_features():
    lo = 0.1
    hi = np.nextafter(lo, np.inf)
    train = _train([[lo, 1.0, 1.0], [hi, 1.0, 1.0]], [0, 1])
    tree = TreeClassifier(train)
    assert tree.node_count == 3
    assert tree.predict_batch([[lo, 1.0, 1.0]])[0] == 0
    assert tree.predict_batch([[hi, 1.0, 1.0]])[0] == 1


def _reference_occurrence_index(codes):
    n = codes.shape[0]
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sc[1:] != sc[:-1]
    group_start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n) - group_start
    return occ


def _reference_best_split(X, y, rows, min_leaf, features=range(3)):
    n = rows.shape[0]
    codes = np.unique(y[rows], return_inverse=True)[1]
    totals = np.bincount(codes)
    best_imp, best = math.inf, None
    for f in features:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        sv, sy = col[order], codes[order]
        change = np.flatnonzero(sv[1:] != sv[:-1]) + 1
        cand = change[(change >= min_leaf) & (change <= n - min_leaf)]
        if cand.shape[0] == 0:
            continue
        occ = _reference_occurrence_index(sy)
        left_sumsq = np.cumsum(2 * occ + 1)
        occ_r = totals[sy] - 1 - occ
        right_sumsq = np.concatenate([np.cumsum((2 * occ_r + 1)[::-1])[::-1], np.zeros(1, dtype=np.int64)])
        nl = cand.astype(float)
        nr = float(n) - nl
        imp = 1.0 - (left_sumsq[cand - 1] / nl + right_sumsq[cand] / nr) / n
        j = int(np.argmin(imp))
        if imp[j] < best_imp:
            lo, hi = float(sv[cand[j] - 1]), float(sv[cand[j]])
            thr = (lo + hi) / 2.0
            best_imp, best = float(imp[j]), (f, lo if thr >= hi else thr)
    return best


def _reference_tree(X, y, max_depth=None, min_leaf=1, rng=None, features_per_split=3):
    """The node-at-a-time build that the level-synchronous one replaced, with its
    generic sweep only: a list of [feature, threshold, left, right, leaf
    probabilities] per node. It goes level by level, a level's nodes in id order
    (children in their parents' order, left first). Under 3 features per split
    it draws as a forest member does: one ``rng.random((attempts, 3))`` per
    depth over that depth's split attempts in id order, each attempt keeping its
    ``features_per_split`` features of smallest draw (the lower feature on a tie)."""
    nodes = [[-1, math.nan, -1, -1, None]]
    level, depth = [(0, np.arange(X.shape[0]))], 0
    while level:
        attempts = [nid for nid, rows in level
                    if not (np.all(y[rows] == y[rows[0]]) or (max_depth is not None and depth >= max_depth)
                            or rows.shape[0] < 2 * min_leaf)]
        features = dict.fromkeys(attempts, range(3))
        if features_per_split < 3:
            for nid, draw in zip(attempts, rng.random((len(attempts), 3)).tolist()):
                features[nid] = sorted(sorted(range(3), key=lambda f: (draw[f], f))[:features_per_split])
        below = []
        for nid, rows in level:
            split = _reference_best_split(X, y, rows, min_leaf, features[nid]) if nid in features else None
            if split is None:
                labels, counts = np.unique(y[rows], return_counts=True)
                nodes[nid][4] = dict(zip(labels.tolist(), (counts / rows.shape[0]).tolist()))
                continue
            f, thr = split
            mask = X[rows, f] <= thr
            nodes[nid][:4] = [f, thr, len(nodes), len(nodes) + 1]
            below += [(len(nodes), rows[mask]), (len(nodes) + 1, rows[~mask])]
            nodes += [[-1, math.nan, -1, -1, None], [-1, math.nan, -1, -1, None]]
        level, depth = below, depth + 1
    return nodes


def _reference_proba(nodes, Q):
    out = []
    for q in Q:
        nid = 0
        while nodes[nid][0] >= 0:
            nid = nodes[nid][2] if q[nodes[nid][0]] <= nodes[nid][1] else nodes[nid][3]
        out.append(nodes[nid][4])
    return out


def _reference_splits(nodes):
    return sorted((f, thr) for f, thr, *_ in nodes if f >= 0)


def _splits(clf):
    """The (feature, threshold) pairs of the internal nodes, sorted."""
    inner = clf._feature >= 0
    return sorted(zip(clf._feature[inner].tolist(), clf._threshold[inner].tolist()))


def _tree_problems():
    rng = np.random.default_rng(31)
    cases = {}
    X = rng.uniform(1.0, 2500.0, size=(70, 3))
    cases["distinct-labels"] = (X, rng.permutation(70))
    # few values per feature: value groups, identical rows, all labels distinct
    cases["distinct-labels-coarse"] = (rng.integers(1, 4, size=(60, 3)).astype(float), rng.permutation(60))
    cases["repeated-labels"] = (rng.uniform(1.0, 2500.0, size=(90, 3)), rng.integers(0, 30, size=90))
    X = np.repeat(rng.uniform(1.0, 2500.0, size=(12, 3)), 5, axis=0)
    cases["duplicate-rows"] = (X, rng.integers(0, 6, size=60))
    X = 1000.0 + rng.integers(-3, 4, size=(50, 3)) * np.spacing(1000.0)
    cases["ulp-adjacent"] = (X, rng.integers(0, 8, size=50))
    col = rng.uniform(1.0, 2500.0, size=50)
    cases["ties-across-features"] = (np.stack([col, col, col[::-1]], axis=1), rng.integers(0, 5, size=50))
    return cases


_TREE_PROBLEMS = _tree_problems()


def _probe_queries(X):
    """The rows, the midpoints of consecutive rows, random points in their box, and rows with a NaN,
    a +inf or a -inf: NaN and +inf go right at every split, -inf goes left."""
    rng = np.random.default_rng(len(X))
    Q = np.vstack([X, (X[:-1] + X[1:]) / 2.0, rng.uniform(X.min(), X.max(), size=(30, 3))])
    return np.vstack([Q] + [np.where(np.eye(3, dtype=bool), odd, X[:3]) for odd in (np.nan, np.inf, -np.inf)])


@pytest.mark.parametrize("max_depth", [None, 1, 3])
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_TREE_PROBLEMS))
def test_tree_matches_reference_builder(name, min_leaf, max_depth):
    X, y = _TREE_PROBLEMS[name]
    tree = TreeClassifier(_train(X, y), max_depth, min_leaf)
    ref = _reference_tree(X, y, max_depth, min_leaf)
    assert tree.node_count == len(ref)
    assert _splits(tree) == _reference_splits(ref)
    Q = _probe_queries(X)
    probs = _reference_proba(ref, Q)
    assert probabilities(tree, Q) == probs
    assert tree.predict_batch(Q).tolist() == [argmax_label(p) for p in probs]


def _member_probs(clf, Q):
    """Each member's leaf probabilities per query, read from the flat leaf table."""
    out = []
    for leaves in clf.apply_batch(Q).reshape(-1, len(Q)):
        spans = [slice(clf._offset[leaf], clf._offset[leaf + 1]) for leaf in leaves]
        out.append([dict(zip(clf._labels[s].tolist(), clf._probs[s].tolist())) for s in spans])
    return out


@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
@pytest.mark.parametrize("name", ["distinct-labels", "distinct-labels-coarse", "repeated-labels",
                                  "duplicate-rows"])
def test_forest_members_match_reference_builder_on_their_bootstraps(name, min_leaf, max_depth):
    # with every feature per split nothing is drawn after the bootstrap, so member i is
    # the reference tree on default_rng(seed + i)'s resample with its rows duplicated;
    # the forest weights each distinct row instead (labels never repeat in the first
    # two problems, so their scan sorts no labels)
    X, y = _TREE_PROBLEMS[name]
    forest = ForestClassifier(_train(X, y), n_trees=4, features_per_split=3, seed=9,
                              max_depth=max_depth, min_leaf=min_leaf)
    Q = _probe_queries(X)
    refs = [_reference_tree(X[idx], y[idx], max_depth, min_leaf) for idx in
            (np.random.default_rng(9 + i).integers(0, len(X), size=len(X)) for i in range(4))]
    assert _member_probs(forest, Q) == [_reference_proba(ref, Q) for ref in refs]
    assert forest.node_count == sum(len(ref) for ref in refs)
    assert _splits(forest) == sorted(pair for ref in refs for pair in _reference_splits(ref))


def _preorder(feature, threshold, children, leaf, root):
    """A tree's nodes in preorder: (feature, threshold) of a split, a leaf's probabilities."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((feature(node), threshold(node)) if feature(node) >= 0 else leaf(node))
        stack += children(node)[::-1] if feature(node) >= 0 else []
    return out


def _member_preorder(clf, i):
    def leaf(node):
        s = slice(clf._offset[node], clf._offset[node + 1])
        return dict(zip(clf._labels[s].tolist(), clf._probs[s].tolist()))
    return _preorder(lambda node: int(clf._feature[node]), lambda node: float(clf._threshold[node]),
                     lambda node: [int(clf._left[node]), int(clf._left[node]) + 1], leaf, int(clf._root[i]))


def _reference_preorder(nodes):
    return _preorder(lambda nid: nodes[nid][0], lambda nid: nodes[nid][1], lambda nid: nodes[nid][2:4],
                     lambda nid: nodes[nid][4], 0)


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("features", [1, 2])
@pytest.mark.parametrize("min_leaf, max_depth", [(1, None), (2, None), (1, 3)])
@pytest.mark.parametrize("name", ["distinct-labels", "repeated-labels", "duplicate-rows", "ulp-adjacent"])
def test_sampled_forest_members_match_reference_builder(name, min_leaf, max_depth, features, bootstrap):
    # member i's generator draws the bootstrap, then per depth its feature subsets, as the
    # reference does on the resample with its rows duplicated; split for split, leaf for leaf
    X, y = _TREE_PROBLEMS[name]
    forest = ForestClassifier(_train(X, y), n_trees=3, features_per_split=features, seed=13,
                              max_depth=max_depth, min_leaf=min_leaf, bootstrap=bootstrap)
    refs = []
    for i in range(3):
        rng = np.random.default_rng(13 + i)
        idx = rng.integers(0, len(X), size=len(X)) if bootstrap else np.arange(len(X))
        refs.append(_reference_tree(X[idx], y[idx], max_depth, min_leaf, rng, features))
        assert _member_preorder(forest, i) == _reference_preorder(refs[-1])
    assert forest.node_count == sum(len(ref) for ref in refs)
    Q = _probe_queries(X)
    assert _member_probs(forest, Q) == [_reference_proba(ref, Q) for ref in refs]


class _TiedDraws:
    """A generator whose uniform draws are rounded to 0, 0.5 or 1, so that a split's three feature
    draws often tie; its bootstrap integers are the real generator's. Counts the tied rows drawn."""

    real = staticmethod(np.random.default_rng)
    tied_rows = 0

    def __init__(self, seed):
        self._rng = self.real(seed)

    def random(self, size=None):
        draws = np.round(self._rng.random(size) * 2) / 2
        sorted_draws = np.sort(draws, axis=-1)
        _TiedDraws.tied_rows += int(np.any(sorted_draws[..., 1:] == sorted_draws[..., :-1], axis=-1).sum())
        return draws

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("features", [1, 2])
@pytest.mark.parametrize("name", ["distinct-labels", "repeated-labels"])
def test_sampled_forest_members_break_tied_draws_toward_the_lower_feature(monkeypatch, name, features,
                                                                          bootstrap):
    # real PCG64 draws never tie here; rounded ones do, and the kept features must still be the
    # reference's: the features_per_split of smallest draw, the lower feature on a tie
    monkeypatch.setattr(np.random, "default_rng", _TiedDraws)
    monkeypatch.setattr(_TiedDraws, "tied_rows", 0)
    X, y = _TREE_PROBLEMS[name]
    forest = ForestClassifier(_train(X, y), n_trees=3, features_per_split=features, seed=13,
                              bootstrap=bootstrap)
    assert _TiedDraws.tied_rows > 0
    refs = []
    for i in range(3):
        rng = np.random.default_rng(13 + i)
        idx = rng.integers(0, len(X), size=len(X)) if bootstrap else np.arange(len(X))
        refs.append(_reference_tree(X[idx], y[idx], None, 1, rng, features))
        assert _member_preorder(forest, i) == _reference_preorder(refs[-1])
    assert forest.node_count == sum(len(ref) for ref in refs)


@pytest.mark.parametrize("features", [1, 2])
def test_forest_member_depends_only_on_its_seed(features):
    rng = np.random.default_rng(73)
    train = _train(rng.uniform(1.0, 100.0, size=(80, 3)), rng.integers(0, 12, size=80))
    Q = rng.uniform(1.0, 100.0, size=(40, 3))
    three = ForestClassifier(train, n_trees=3, features_per_split=features, seed=21)
    five = ForestClassifier(train, n_trees=5, features_per_split=features, seed=21)
    assert _member_probs(three, Q) == _member_probs(five, Q)[:3]
    assert _member_probs(five, Q)[3] != _member_probs(five, Q)[4]


@pytest.mark.parametrize("chunk", [1, 37, 50])
def test_tree_scan_in_chunks_matches_one_chunk(monkeypatch, chunk):
    # the scan splits a level into chunks of whole (feature, node) pairs, and a pair
    # larger than a chunk gets a chunk of its own; the same constant splits the
    # forest's 90-row members into batches grown together: one member per batch
    # at 1 and 37, members {0, 1} and {2} at 50
    X, y = _TREE_PROBLEMS["repeated-labels"]
    Q = np.vstack([X, np.random.default_rng(5).uniform(1.0, 2500.0, size=(20, 3))])
    build = [lambda: ForestClassifier(_train(X, y), n_trees=3, seed=4),
             lambda: TreeClassifier(_train(X, y), min_leaf=2)]
    whole = [clf() for clf in build]
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", chunk)
    for one, chunked in zip(whole, (clf() for clf in build)):
        assert chunked.node_count == one.node_count and _splits(chunked) == _splits(one)
        assert _member_probs(chunked, Q) == _member_probs(one, Q)


def test_forest_grows_members_in_batches_of_bounded_slots(monkeypatch):
    # a slot is one distinct row of a member, weighted by its count in the bootstrap;
    # a batch takes the members that start within one span of 2 * _CHUNK_ELEMENTS
    # slots, so a forest's working memory does not grow with n_trees
    slots, grow = [], learners._Trees._grow_batch
    def spy(train, members, *args):
        for rows, weight in members:
            assert np.unique(rows).shape == rows.shape and weight.min() >= 1 and weight.sum() == len(train)
        slots.append(sum(rows.shape[0] for rows, _ in members))
        return grow(train, members, *args)
    monkeypatch.setattr(learners._Trees, "_grow_batch", staticmethod(spy))
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", 50)
    rng = np.random.default_rng(8)
    ForestClassifier(_train(rng.uniform(1.0, 100.0, size=(40, 3)), rng.integers(0, 5, size=40)), n_trees=7)
    distinct = [np.count_nonzero(np.bincount(np.random.default_rng(i).integers(0, 40, size=40)))
                for i in range(7)]
    first = np.cumsum([0] + distinct[:-1]) // 100
    assert slots == [sum(d for d, b in zip(distinct, first) if b == batch) for batch in np.unique(first)]
    assert len(slots) > 1 and sum(slots) < 7 * 40


def test_forest_build_memory_stays_within_its_batch_budget(monkeypatch):
    # members grow in batches of about 2 * _CHUNK_ELEMENTS slots, so a build's working memory does
    # not grow with the number of trees, and the batches' tables are joined one table at a time,
    # each batch's part freed as it is joined. Here the 24 members span six batches and the build
    # peaks at ~1.45x its node tables, while the run tables are made after the join from the inner
    # nodes alone; holding every node's run head and entry count while they were made peaked at
    # ~1.88x, joining every table at once at ~2.45x, and growing all 24 members in one batch at ~4.1x
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", 1000)
    rng = np.random.default_rng(83)
    train = _train(rng.uniform(1.0, 2500.0, size=(800, 3)), rng.integers(0, 4, size=800))
    tracemalloc.start()
    try:
        forest = ForestClassifier(train, n_trees=24, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = sum(a.nbytes for a in vars(forest).values() if isinstance(a, np.ndarray))
    assert peak < 1.7 * tables


def test_shallow_forest_predicts_in_pieces_of_bounded_memory(monkeypatch):
    # depth-3 members over 600 distinct labels keep ~75 labels a leaf, so 200 queries reach ~250,000
    # (query, member, label) entries: one piece at the default _CHUNK_ELEMENTS, which peaks at ~22 MiB.
    # In pieces of about 4 * 250 entries the prediction peaks at ~240 KiB and gives the same labels
    rng = np.random.default_rng(59)
    forest = ForestClassifier(_train(rng.uniform(1.0, 2500.0, size=(600, 3)), np.arange(600)),
                              n_trees=4, max_depth=3, seed=2)
    Q = rng.uniform(1.0, 2500.0, size=(200, 3))
    leaf = forest.apply_batch(Q)
    assert 50 * len(Q) < (forest._offset[leaf + 1] - forest._offset[leaf]).sum() < 4 * learners._CHUNK_ELEMENTS
    want = forest.predict_batch(Q)
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", 250)
    tracemalloc.start()
    try:
        got = forest.predict_batch(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 2**19
    # the masses the vote reads are the one-piece ones too
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", 1 << 16)
    whole = forest._masses(Q)
    monkeypatch.setattr(learners, "_CHUNK_ELEMENTS", 250)
    assert all(np.array_equal(a, b) for a, b in zip(forest._masses(Q), whole))


def test_tree_over_the_10mm_grid_recovers_every_training_label():
    # 20,000 distinct labels: a build quadratic in the rows takes seconds here
    model = CalibrationModel(
        ModelKind.ONE, LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0), LinearRangingEq(1.0, 0.0)
    )
    train = TrainingSet.from_db(build_db(model, GridSpec(1000.0, 2000.0, 10.0), DEFAULT_ANCHORS))
    tree = TreeClassifier(train)
    assert len(train) == 20_000 and tree.node_count == 2 * len(train) - 1
    assert np.array_equal(tree.predict_batch(train.X), train.y)


def test_tree_batch_and_scalar_predictions_agree():
    rng = np.random.default_rng(37)
    X = rng.uniform(1.0, 100.0, size=(40, 3))
    y = rng.integers(0, 6, size=40)
    tree = TreeClassifier(_train(X, y))
    Q = rng.uniform(1.0, 100.0, size=(25, 3))
    batch = tree.predict_batch(Q)
    for qi in range(25):
        assert tree.predict_batch([Q[qi]])[0] == batch[qi]


def test_tree_parameter_validation():
    train = _train([[1.0, 1.0, 1.0]], [0])
    with pytest.raises(ValueError):
        TreeClassifier(train, max_depth=0)
    with pytest.raises(ValueError):
        TreeClassifier(train, min_leaf=0)
    for features in (0, 4):
        with pytest.raises(ValueError):
            ForestClassifier(train, n_trees=1, features_per_split=features)


def test_forest_is_deterministic_per_seed():
    rng = np.random.default_rng(41)
    X = rng.uniform(1.0, 100.0, size=(50, 3))
    y = rng.integers(0, 8, size=50)
    Q = rng.uniform(1.0, 100.0, size=(20, 3))
    f1 = ForestClassifier(_train(X, y), n_trees=10, seed=3)
    f2 = ForestClassifier(_train(X, y), n_trees=10, seed=3)
    f3 = ForestClassifier(_train(X, y), n_trees=10, seed=4)
    assert np.array_equal(f1.predict_batch(Q), f2.predict_batch(Q))
    assert probabilities(f1, Q) == probabilities(f2, Q)
    # a different seed should disagree somewhere on this noisy problem
    assert not all(
        a == b for a, b in zip(probabilities(f1, Q), probabilities(f3, Q))
    )


def test_forest_single_full_tree_equals_plain_tree():
    rng = np.random.default_rng(43)
    X = rng.uniform(1.0, 100.0, size=(30, 3))
    y = rng.integers(0, 5, size=30)
    tree = TreeClassifier(_train(X, y))
    forest = ForestClassifier(_train(X, y), n_trees=1, features_per_split=3, bootstrap=False)
    Q = rng.uniform(1.0, 100.0, size=(40, 3))
    assert np.array_equal(tree.predict_batch(Q), forest.predict_batch(Q))
    assert probabilities(tree, Q) == probabilities(forest, Q)


def test_forest_probabilities_sum_to_one():
    rng = np.random.default_rng(47)
    X = rng.uniform(1.0, 100.0, size=(40, 3))
    y = rng.integers(0, 6, size=40)
    forest = ForestClassifier(_train(X, y), n_trees=7, seed=1)
    for probs in probabilities(forest, rng.uniform(1.0, 100.0, size=(10, 3))):
        assert math.isclose(sum(probs.values()), 1.0, rel_tol=1e-12)


def test_vote_weights_validation():
    with pytest.raises(ValueError):
        VoteWeights(-1.0, 2.0)
    with pytest.raises(ValueError, match="^weights must be finite$"):
        VoteWeights(math.inf, 1.0)
    with pytest.raises(ValueError):
        VoteWeights(0.0, 0.0)
    assert VoteWeights().w_knn == 3.0
    assert VoteWeights().w_tree == 1.0


def test_soft_vote_combines_and_breaks_ties_low():
    p_knn = {0: 0.6, 1: 0.4}
    p_tree = {1: 1.0}
    # 3:1 -> label 0 scores 1.8, label 1 scores 1.2 + 1.0
    assert soft_vote(p_knn, p_tree, VoteWeights(3.0, 1.0)) == 1
    assert soft_vote(p_knn, p_tree, VoteWeights(10.0, 1.0)) == 0
    assert soft_vote({0: 0.5, 4: 0.5}, {0: 0.5, 4: 0.5}, VoteWeights(1.0, 1.0)) == 0


def test_soft_vote_is_scale_invariant():
    rng = np.random.default_rng(53)
    for _ in range(200):
        labels = rng.choice(50, size=int(rng.integers(1, 8)), replace=False)
        p_knn = {int(l): float(rng.random()) for l in labels}
        p_tree = {int(l): float(rng.random()) for l in rng.choice(labels, size=len(labels) // 2 + 1)}
        assert soft_vote(p_knn, p_tree, VoteWeights(1.0, 2.0)) == soft_vote(
            p_knn, p_tree, VoteWeights(2.0, 4.0)
        )


def test_soft_vote_classifier_matches_member_probabilities():
    rng = np.random.default_rng(59)
    X = rng.uniform(1.0, 100.0, size=(30, 3))
    y = rng.integers(0, 5, size=30)
    train = _train(X, y)
    knn = KnnClassifier(train, k=3)
    tree = TreeClassifier(train)
    weights = VoteWeights(3.0, 1.0)
    clf = SoftVoteClassifier(knn, tree, weights)
    Q = rng.uniform(1.0, 100.0, size=(15, 3))
    got = clf.predict_batch(Q)
    pk = probabilities(knn, Q)
    pt = probabilities(tree, Q)
    for qi in range(15):
        assert got[qi] == soft_vote(pk[qi], pt[qi], weights)
        assert clf.predict_batch([Q[qi]])[0] == got[qi]


def _vote_queries(X):
    """``_probe_queries`` and rows of NaN and of +-inf, alone and mixed with finite values."""
    odd = [[np.nan] * 3, [np.inf] * 3, [-np.inf] * 3, [np.inf, -np.inf, np.nan], [X[0, 0], np.inf, X[0, 2]]]
    return np.vstack([_probe_queries(X), odd])


#: (k, weights) of votes whose tree cannot change an answer, and of votes whose tree can
_TREE_FREE_VOTES = [(1, (3.0, 1.0)), (1, (1.0000000000000002, 1.0)), (1, (1.0, 0.0))]
_TREE_VOTES = [(1, (1.0, 1.0)), (1, (1.0, 2.0)), (3, (3.0, 1.0))]


def _vote_members(name, k, w, max_depth=None):
    X, y = _TREE_PROBLEMS[name]
    train = _train(X, y)
    knn, tree = KnnClassifier(train, k), TreeClassifier(train, max_depth)
    Q = _vote_queries(X)
    weights = VoteWeights(*w)
    pk, pt = probabilities(knn, Q), probabilities(tree, Q)
    return knn, tree, weights, Q, [soft_vote(a, b, weights) for a, b in zip(pk, pt)]


@pytest.mark.parametrize("max_depth", [None, 2])
@pytest.mark.parametrize("k, w", _TREE_FREE_VOTES)
@pytest.mark.parametrize("name", ["distinct-labels", "repeated-labels", "duplicate-rows"])
def test_vote_without_its_tree_matches_the_vote_with_it(name, k, w, max_depth):
    knn, tree, weights, Q, want = _vote_members(name, k, w, max_depth)
    assert not weights.tree_can_decide(k)
    assert knn.predict_batch(Q).tolist() == want
    assert SoftVoteClassifier(knn, tree, weights).predict_batch(Q).tolist() == want


@pytest.mark.parametrize("k, w", _TREE_VOTES)
def test_vote_whose_tree_can_decide_needs_it(k, w):
    knn, tree, weights, Q, want = _vote_members("repeated-labels", k, w)
    assert weights.tree_can_decide(k)
    got = SoftVoteClassifier(knn, tree, weights).predict_batch(Q).tolist()
    assert got == want
    assert got != knn.predict_batch(Q).tolist()  # the tree does change some answer

