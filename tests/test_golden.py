"""Golden digests: SHA-256 of ``format_report`` bytes for a fixed run matrix.

The digests pin every report byte for a given config and seed, so a change
that is meant to keep outputs byte-identical (a faster kernel, a refactor)
is checked rather than assumed. The range draws are the package's own
arithmetic, so the baseline digests hold on every numpy. A fingerprint run
also draws through numpy's ``Generator`` (``fit_model``'s set selection, the
forest's bootstrap and feature draws), whose streams NumPy's NEP 19 does not
keep stable across versions: those digests hold for one numpy version only
and skip on any other.

The node-table digests pin every forest node itself, where a report only
sees the answers for its queries.

To regenerate after a deliberate contract change, print
``_digest(case)`` for every case in ``CASES`` (and ``_table_digest`` for
every case in ``FOREST_CASES``) and name the change in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from uwbloc.calibration import ModelKind
from uwbloc.evaluation import (
    PipelineConfig,
    _build_classifier,
    _training_set,
    fit_calibration,
    format_report,
    observation_campaign,
    run_baseline,
    run_ml,
)
from uwbloc.fingerprint import GridSpec, build_db
from uwbloc.geometry import DEFAULT_ANCHORS
from uwbloc.learners import VoteWeights
from uwbloc.preprocess import CorrectionPolicy
from uwbloc.simulator import NoiseConfig, simulate_campaign

NUMPY_VERSION = "2.4.6"

PINNED_NUMPY = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests through numpy's Generator hold for numpy {NUMPY_VERSION}, found {np.__version__}",
)

COARSE = GridSpec(spacing=250.0)  # 32 cells: one KNN chunk
DENSE = GridSpec(spacing=10.0)  # 20,000 cells: many KNN chunks, the last one partial
SEED = 11

# (case id, config overrides, grid or None for the baseline)
CASES = [
    ("baseline-r1.0", dict(correction=CorrectionPolicy(ratio=1.0)), None),
    ("baseline-r0.9", dict(correction=CorrectionPolicy(ratio=0.9)), None),
]
for _model in ModelKind:
    for _name, _clf in (("knn1", dict(classifier="knn", knn_k=1)),
                        ("knn3", dict(classifier="knn", knn_k=3)),
                        ("vote", dict(classifier="vote"))):
        for _augment in (0, 2):
            CASES.append((f"{_model.value}-{_name}-aug{_augment}",
                          dict(model_kind=_model, augment=_augment, **_clf), COARSE))
CASES.append(("four-knn1-dense", dict(model_kind=ModelKind.FOUR, classifier="knn"), DENSE))
# the outlier branch draws a coin and a magnitude after the normal on each stream;
# at 0.05 about half the 40 observation sets pass the 12-value MAD rule
FEW_OUTLIERS = NoiseConfig(p_outlier=0.05)
CASES += [
    ("baseline-outlier0.3-r0.9",
     dict(noise=NoiseConfig(p_outlier=0.3), correction=CorrectionPolicy(ratio=0.9)), None),
    ("baseline-outlier1.0", dict(noise=NoiseConfig(p_outlier=1.0)), None),
    ("four-knn1-aug2-outlier0.05",
     dict(model_kind=ModelKind.FOUR, classifier="knn", augment=2, noise=FEW_OUTLIERS), COARSE),
    ("two-vote-aug2-outlier0.05",
     dict(model_kind=ModelKind.TWO, classifier="vote", augment=2, noise=FEW_OUTLIERS), COARSE),
]
# depth 3 leaves hold several labels, often at equal frequency, so these cases pin
# the leaf probabilities, their member-order sums and the lower-label tie rule
FOUR = dict(model_kind=ModelKind.FOUR)
CASES += [
    ("four-tree", dict(FOUR, classifier="tree"), COARSE),
    ("four-tree-depth3", dict(FOUR, classifier="tree", tree_max_depth=3), COARSE),
    ("four-forest5", dict(FOUR, classifier="forest", forest_trees=5), COARSE),
    ("four-forest5-nobootstrap-f2",
     dict(FOUR, classifier="forest", forest_trees=5, forest_bootstrap=False, forest_features=2),
     COARSE),
    ("four-forest5-aug2", dict(FOUR, classifier="forest", forest_trees=5, augment=2), COARSE),
]
for _w in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0)):
    CASES.append((f"four-vote-knn3-depth3-w{_w[0]:g}:{_w[1]:g}",
                  dict(FOUR, classifier="vote", knn_k=3, tree_max_depth=3,
                       vote_weights=VoteWeights(*_w)), COARSE))

DIGESTS = {
    "baseline-r1.0": "a801bbcfc88ceebe3c7746dbb9eeef52ab42b7169d0209b02b114915be04b65d",
    "baseline-r0.9": "fc8c8b49d2aa7271cf4ed26682f056bcb6399c498dd228f28b932621ce8bb41e",
    "one-knn1-aug0": "32ed4853e71dab6e9c2358193e0d9af961278f9d6b6f036cb7b9fe1120addbd9",
    "one-knn1-aug2": "728c3805e5ab79f44566d2ef4396fdb7898bbbe4ef1b61894dc5ff7ee8ffdc20",
    "one-knn3-aug0": "1eff3111c5f0d2e2ca00347ddb0d25bd57b351a97aed9466629d2a929ba0bc56",
    "one-knn3-aug2": "f63c489aefeecc35a70218c6cb590ea9f5b48690994d0fdaf55152783bdbfe5b",
    "one-vote-aug0": "16efc8d64d0b706d77e1a75fccd2206e3aff2274c4a6d4dd540ad6761aefdbaa",
    "one-vote-aug2": "2748c7792032e4675c1ad382d7ed52011cba1c0905d0ac25d4a0b1d4c97631aa",
    "two-knn1-aug0": "8f06074f3c68d2ec4a856e25fd294531b3b7762f133aeb697f1843e6ea436632",
    "two-knn1-aug2": "df47105512a80310088e2e7b0972b7bf19f4349f26c976cf5aeb12769312acef",
    "two-knn3-aug0": "39f3a47c04ad79ff20402182c1a6ba517ad66acb88a3c81b110d6fcf04bbe5eb",
    "two-knn3-aug2": "a1819d4d848877025f6875dde6d37eddc934256f62d21d1bb5d67982b12648b4",
    "two-vote-aug0": "7a4f5b94ed772de3e7eacb8378017c8fe9e2c51466137546f4c1942d26277942",
    "two-vote-aug2": "9359b7dffe19e95648a8557afe518e24ecd150071ee1ab2f9128db2b08da9c51",
    "three-knn1-aug0": "900d52cf079c47c61fa505d35e09cbf8bdae0b8202e764f2180ab5aa331b8776",
    "three-knn1-aug2": "1b996e9ecc3d0f18039b1620016fca9da781b1ca7c0d93e0ec5660f6ac975135",
    "three-knn3-aug0": "d8f92d1f52d1cbe30cf055e77bd00552c6fef3b3edbafaa130923ae28242e664",
    "three-knn3-aug2": "4c3e9c2c49d565abbbdd96f804f2920c2e19c90856ca3155e366ec3629e1f1a8",
    "three-vote-aug0": "e95f38150d66c3fbff11309cc009c09549e4d4a084a8522f0d6217e81cad5cc5",
    "three-vote-aug2": "fc2abae2fa84dc2229194dbd20c91a7812c8185eb4560a4abe72854b2da988d3",
    "four-knn1-aug0": "f123dcdf159d6aad5fcacdde64b63bc088b91c50780a0bc48a3853e29be8b7ca",
    "four-knn1-aug2": "a8da0f753b8bdf98b0fc52dd272b31ae46cc30cb08cbb9a4fd89b7daeaed04eb",
    "four-knn3-aug0": "d782ad13e05267c06e05949e26f879f1d402cdac2c1a632a6366ca81b310b29e",
    "four-knn3-aug2": "527e4efd7363b133e5bced8fe5d83ff491833ca67ee644f86b0a8e5fe0eb9f10",
    "four-vote-aug0": "c8906bc651862a9de0a84cda5b14081a4a0be3c3c8e4c250579f2bfc14d976f3",
    "four-vote-aug2": "be68b082d02114af410fd97b3d847d99dc443ac7ccbbfbaf061b773e69f90f59",
    "four-knn1-dense": "4b3c28f7d782c0c4529ab3af22895ebd8eb4b6dbddbbe7bf10930520f7c3bb33",
    "baseline-outlier0.3-r0.9": "63b40b0a3a170dd2a721d305bfcb71e4d56197eab9e57a749c06414e297edbdd",
    "baseline-outlier1.0": "a5e1fcb5e0289bbce2bf3ce8dd9b4a5b98548a2b1b0a25adc5b5a0ebc41db373",
    "four-knn1-aug2-outlier0.05": "12464c678b44ebf8728c324e0b689ce5813e2e495af794a991c6e65c5aabaaa9",
    "two-vote-aug2-outlier0.05": "18cde6b88bdd80105a8ec9cd9e7f38a95b7cde5c70a4eac3e9b1b8d176370aa7",
    "four-tree": "a70974573948625a6d67491577e061272a8597376e84efc12ecd52e2702fce25",
    "four-tree-depth3": "d8895a00c6ba814f07a5f7de3a7f793448108383eb4bf325c7cd6cf45e28d23e",
    "four-forest5": "890f8a738f0f5e9e920cd5527cf992396cdeb69129c11492a1a12cfd5c555254",
    "four-forest5-nobootstrap-f2": "fcd3b877983d6fec59fd9764034456efd240b50deec578e368c6f8ba304c36f4",
    "four-forest5-aug2": "40ae5d57f1393b045c58df9a3928f144720570cf87d8afb0d430dc2b199c956b",
    "four-vote-knn3-depth3-w1:1": "1ebab58b6831b5a9243a80cad29c794920bfa143896fb88150a791c28bc9081c",
    "four-vote-knn3-depth3-w0:1": "6332349bd602a64a6b670f1b3dc61b0ae0847741877862bdaf41791ef586656c",
    "four-vote-knn3-depth3-w1:0": "98111185c5fa24ccb4fbfe311953eba3cdc4a7c6cea0064d4a36da930149f310",
}


def _digest(case) -> str:
    _, overrides, grid = case
    cfg = PipelineConfig(seed=SEED, n_trials=20, obs_sets=40, n_select=20, **overrides)
    if grid is None:
        report = run_baseline(cfg, DEFAULT_ANCHORS)
    else:
        report = run_ml(cfg, DEFAULT_ANCHORS, grid)
    return hashlib.sha256(format_report(report).encode("utf-8")).hexdigest()


def test_matrix_is_complete():
    assert sorted(DIGESTS) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", [pytest.param(c, id=c[0], marks=() if c[2] is None else PINNED_NUMPY)
                                  for c in CASES])
def test_report_digest(case):
    assert _digest(case) == DIGESTS[case[0]]


# 4-member forests on the default 25 mm DB (3,200 cells) at seed 0
FOREST_CASES = {
    "forest4": {},
    "forest4-nobootstrap-f2": dict(forest_bootstrap=False, forest_features=2),
    "forest4-aug2": dict(augment=2),
}

TABLE_DIGESTS = {
    "forest4": "f569f27ea4f9dfd1239f074b3249eaea643bb878d61d11c381e48594b07dfb80",
    "forest4-nobootstrap-f2": "dc9e1a0f48e06f5832e808ae3f9a6d4f411b10997c9131a61d800b4625222cb8",
    "forest4-aug2": "21e2a69d1818ba0af48ad49403a4a1039db6e99ab48b228b2453afe1b25aa322",
}


def _forest(overrides):
    """The forest ``run_ml`` trains for the default config with ``overrides``."""
    cfg = PipelineConfig(model_kind=ModelKind.FOUR, classifier="forest", forest_trees=4, **overrides)
    campaign = observation_campaign(cfg, DEFAULT_ANCHORS, cfg.reference_points, cfg.obs_sets)
    _, model = fit_calibration(cfg, simulate_campaign(campaign), DEFAULT_ANCHORS)
    db = build_db(model, GridSpec(), DEFAULT_ANCHORS)
    return _build_classifier(cfg, _training_set(cfg, db, DEFAULT_ANCHORS))


def _table_digest(clf) -> str:
    """SHA-256 of the node table: each internal node's id, feature, threshold and left child, each
    leaf's id and (label, frequency) entries, and the members' roots, floats in hex."""
    lines = ["roots " + " ".join(map(str, clf._root.tolist()))]
    for i, (f, left) in enumerate(zip(clf._feature.tolist(), clf._left.tolist())):
        if f >= 0:
            lines.append(f"{i} {f} {clf._threshold[i].hex()} {left}")
        else:
            s = slice(clf._offset[i], clf._offset[i + 1])
            entries = zip(clf._labels[s].tolist(), clf._probs[s].tolist())
            lines.append(f"{i} leaf " + " ".join(f"{label}:{p.hex()}" for label, p in entries))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_table_matrix_is_complete():
    assert sorted(TABLE_DIGESTS) == sorted(FOREST_CASES)


@PINNED_NUMPY
@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_node_table_digest(name):
    assert _table_digest(_forest(FOREST_CASES[name])) == TABLE_DIGESTS[name]
