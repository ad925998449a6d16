"""Golden digests: SHA-256 of ``format_report`` bytes for a fixed run matrix.

The digests pin every report byte for a given config and seed, so a change
that is meant to keep outputs byte-identical (a faster kernel, a refactor)
is checked rather than assumed. NumPy NEP 19 promises no ``Generator``
stream stability across versions, so the digests hold for one numpy
version only and the tests skip on any other.

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

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden digests hold for numpy {NUMPY_VERSION}, found {np.__version__}",
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
    "baseline-r1.0": "2485a2ceac271bf0dae5a383cc7f823770d48c196524d4d9fca96cbc1c031614",
    "baseline-r0.9": "14c98e17e21acaaa4bb4999f5d593daf8edc348cef6e5e90a2b864d323abdcc9",
    "one-knn1-aug0": "e94283ca18c1567410d7c3594ba1198aae85354900c47a729891fd5891230759",
    "one-knn1-aug2": "31767a1d2b414dcb461d388152911c51f4dd9e7b41bce301982cba46df9d3e70",
    "one-knn3-aug0": "c0620effdd8e01f6891612dd937eaa93dcdc45d077eba26089b91b3597e506b9",
    "one-knn3-aug2": "b2ea2eb0849c0c40af35873d59834adc2353323c383674bcbcf2aef5dede3254",
    "one-vote-aug0": "0d913aad9fdecb1a367afc2ec816f89a06586f942c1eac2019a8a1fea1887f44",
    "one-vote-aug2": "72fd3be8a4c46e04a179408c776bc557e019f037db1d9002ebd3270ceecadd31",
    "two-knn1-aug0": "d97172022fd92e4cc61a6341f519363814b569bb491d57a51f3d3b89cccc2f4a",
    "two-knn1-aug2": "204caa52fe02c04bb7e429ca54c7c3dd54dcfabba4551aa81cc93b7cb1b52c33",
    "two-knn3-aug0": "a7ba4f182a450cbe6234b0834099b3372937788abf9e9bc07f50639f70c1f5d7",
    "two-knn3-aug2": "ce186baeef37158c3aabfa18d9264a5e35bcef784dd4d2cc434ed45579665c02",
    "two-vote-aug0": "086879c06ab9536db3fbdc323fac52c2cf2c8816ac555561fb1ba863c15d409e",
    "two-vote-aug2": "12759650955c95a1a6e7f8474f6aa9575bba27a7adbcfcf814c386c3e8bb3be9",
    "three-knn1-aug0": "3b80421519fb1ea3ee176f6028d54eea29d1a1e4ba5723b28ca5af09ca250534",
    "three-knn1-aug2": "b13cefcae1c43bde0666b299182710343b9c496e95a834559e1f09e76f010b09",
    "three-knn3-aug0": "448d1e9b159fec4f995396247886ac7d5623c2823ab88ab8a752f436ec61e32f",
    "three-knn3-aug2": "f3fb71339dc8f791adcd06bf7a1ed545555d42c4d3578abe1a49315f07a868c7",
    "three-vote-aug0": "254bbf743c1a6ce94f944cefb1e615e5c02485d5dd738b97367e4028e3d8bad4",
    "three-vote-aug2": "46157c7ff830c719ea625fcd4d0506aa5d1c786b9ea697079ee7cf3540375243",
    "four-knn1-aug0": "766e4810676bd6be9b20b0f76a30aefd1e3509c984740c34e4f876374befbd11",
    "four-knn1-aug2": "d588b704be4f84a9480d229779a7fb7e26bb21ec3c8d56b9189350e856710f28",
    "four-knn3-aug0": "cbb06348d5eb787784733e98374ad471096aaeca3e78d043ea36abca2b7ef3e6",
    "four-knn3-aug2": "87addda364645d0a33fabb89ff6a61c1ef65af2544e9d7574c706ac30b573b8e",
    "four-vote-aug0": "0e94d0d670e06474465f0b1b999daa3f0800e0c4caa50dc8b6749a9fc98dea14",
    "four-vote-aug2": "5a82f15d74294d38e63c1e2adba3941f22199a6b4f5d1e24969b065548c5b5d3",
    "four-knn1-dense": "1d835ab2f91ee3307833bd4f2a32b059dab44e731172b090c74806ab7e262f76",
    "baseline-outlier0.3-r0.9": "000f12589bf55905c55bc8020d32aa5c36db05e1cfe6ddd4e03c2e93cc3f7e0c",
    "baseline-outlier1.0": "e90fc4cdc6b30c33693a37472ac3f0e7b3c961468c9ab8aed1bbfd6d83693927",
    "four-knn1-aug2-outlier0.05": "bb568c03d696eb7e91eccf060b0c124552af5cb122bd3abb4463631f6e605c6b",
    "two-vote-aug2-outlier0.05": "8d7e8d0e44d6003a79e513cce220a368afa8660e653d3185ca40f7921cbe0f65",
    "four-tree": "7a5f70b9d902c20277deafbdfb908315af00d2e6484accb37de1c074adad53c6",
    "four-tree-depth3": "36dbaf52ec5044c8caaacdcc89c7aa3d50b9c9b05727dc630f8618cb9dfddd8b",
    "four-forest5": "27eb93ae6fcd52cdc64fb0f04c92fd4fcc746bb4f2321bb5d50d62317415235e",
    "four-forest5-nobootstrap-f2": "2d340c41a06d26d5a9ce3f6c3edca914a5d81a8a0eea0618f7838803383be469",
    "four-forest5-aug2": "37c6fd64489f0621c3a6bc8d10fe41fd81f8b7f0bb5d3e9265c73f427363ecc1",
    "four-vote-knn3-depth3-w1:1": "e7dace6fc80816d8648be8c5a224da7dc62f583c37d58f5fd4ed88c05844342e",
    "four-vote-knn3-depth3-w0:1": "81dc19d5d2f74af8c2061356824925bab6fad93e6f1a63141744ecec5b2abd16",
    "four-vote-knn3-depth3-w1:0": "a6bf5284b3c50c621c1c28e1896a8e81a206a1bb4c039ade328cefd7e613ef7e",
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


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_digest(case):
    assert _digest(case) == DIGESTS[case[0]]


# 4-member forests on the default 25 mm DB (3,200 cells) at seed 0
FOREST_CASES = {
    "forest4": {},
    "forest4-nobootstrap-f2": dict(forest_bootstrap=False, forest_features=2),
    "forest4-aug2": dict(augment=2),
}

TABLE_DIGESTS = {
    "forest4": "604e05864f4dc9255a335889b5b04d61544629f1264d77864f5fab369ef37c04",
    "forest4-nobootstrap-f2": "f2c6daaee94da9e8f5e03c50b104afa1326361ed531b8e5bc659edfb5365e473",
    "forest4-aug2": "a151fc98478784d7fc25ab826396bc0274ab633747b5f8153da1575c816c90ee",
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


@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_node_table_digest(name):
    assert _table_digest(_forest(FOREST_CASES[name])) == TABLE_DIGESTS[name]
