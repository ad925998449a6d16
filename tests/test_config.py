"""Config parsing and resolution: every bad input is a ConfigError naming its key."""

import random
from dataclasses import replace

import pytest

from uwbloc.calibration import REFERENCE_POINTS
from uwbloc.config import _SCHEMA, ConfigError, load_config, parse_config_text, resolve_config
from uwbloc.evaluation import TEST_POINTS, PipelineConfig
from uwbloc.fingerprint import DEFAULT_GRID
from uwbloc.geometry import DEFAULT_ANCHORS
from uwbloc.simulator import Campaign, NoiseConfig

EDGE_VALUES = ("0", "-1", "5e-324", "1e308", "1e309", "nan", "", "1_0", "none", "0:0")

# one value per key that fails that key's own check
BAD_VALUES = {
    "run.seed": "-1",
    "grid.width": "0",
    "grid.height": "-5",
    "grid.spacing": "inf",
    "anchors.ax": "nan",
    "anchors.ay": "1e309",
    "anchors.bx": "x",
    "anchors.by": "",
    "anchors.cx": "-inf",
    "anchors.cy": "1,2",
    "noise.slope": "0",
    "noise.offset": "nan",
    "noise.sigma": "-0.5",
    "noise.inflation_threshold": "0",
    "noise.inflation_factor": "0.9",
    "noise.p_outlier": "1.5",
    "correction.threshold": "-1",
    "correction.ratio": "0",
    "preprocess.mad_k": "0",
    "preprocess.mad_scale": "-1",
    "calibration.kind": "five",
    "calibration.n_select": "0",
    "calibration.obs_sets": "1.5",
    "calibration.reference_points": "1,2,3",
    "classifier.kind": "svm",
    "classifier.k": "0",
    "classifier.max_depth": "0",
    "classifier.min_leaf": "-1",
    "classifier.trees": "none",
    "classifier.features_per_split": "4",
    "classifier.bootstrap": "yes",
    "classifier.weights": "0:0",
    "eval.n_trials": "0",
    "eval.test_points": "1;2",
    "campaign.reps": "0",
    "campaign.locations": "",
    "fingerprint.augment": "-1",
}


# the keys that count visits per campaign location, whose visit index is one
# 32-bit word of a draw's key
REP_KEYS = ("campaign.reps", "calibration.obs_sets", "eval.n_trials", "fingerprint.augment")

# further bad values of one key each: Python's digit separators, and run
# sizes past 2**32 (which would fail only after allocating for them)
MORE_BAD_VALUES = [("classifier.k", "1_0"), ("noise.sigma", "1_000.5")] + [
    (key, str(2**32 + 1)) for key in REP_KEYS
]


def _resolve(text: str) -> None:
    resolve_config(parse_config_text(text))


def test_every_key_has_a_bad_value():
    assert sorted(BAD_VALUES) == sorted(_SCHEMA)


@pytest.mark.parametrize(
    "key, value", sorted(BAD_VALUES.items()) + MORE_BAD_VALUES,
    ids=sorted(BAD_VALUES) + [f"{k}-{v}" for k, v in MORE_BAD_VALUES],
)
def test_bad_value_error_names_the_key(key, value):
    with pytest.raises(ConfigError, match=f": {key}: "):
        _resolve(f"{key} = {value}\n")


# the objects whose fields a destination's first name refers to, at the keys' defaults
_ROOTS = {
    "grid": DEFAULT_GRID,
    "anchors": DEFAULT_ANCHORS,
    "campaign": Campaign(REFERENCE_POINTS + TEST_POINTS, 500, DEFAULT_ANCHORS, NoiseConfig()),
}


def _with(obj, path, value):
    """``obj`` rebuilt, with its constructor's checks, with ``value`` at the field path."""
    name, *rest = path
    return replace(obj, **{name: _with(getattr(obj, name), rest, value) if rest else value})


def _field_accepts(dest: str, value) -> bool:
    head, *rest = dest.split(".")
    try:
        if head in _ROOTS:
            _with(_ROOTS[head], rest, value)
        else:
            _with(PipelineConfig(), dest.split("."), value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("key", sorted(_SCHEMA))
def test_a_value_the_type_parser_reads_fails_exactly_when_its_field_does(key):
    parse, dest = _SCHEMA[key]
    for text in sorted({*EDGE_VALUES, *BAD_VALUES.values()}):
        try:
            value = parse(text)
        except ValueError:
            continue
        try:
            resolve_config({key: text})
        except ConfigError as exc:
            assert not _field_accepts(dest, value), (text, str(exc))
            assert f": {key}: " in str(exc)
        else:
            assert _field_accepts(dest, value), text


def test_run_sizes_up_to_two_to_the_32_resolve():
    cfg = resolve_config({key: str(2**32) for key in REP_KEYS})
    assert [cfg.values[key] for key in REP_KEYS] == [2**32] * 4


def test_fuzzed_configs_raise_only_config_error():
    keys = sorted(_SCHEMA)
    texts = [f"{k} = {v}\n" for k in keys for v in EDGE_VALUES]
    rng = random.Random(20240)
    for _ in range(400):
        lines = [f"{k} = {rng.choice(EDGE_VALUES)}" for k in rng.sample(keys, rng.randint(2, 6))]
        extra = rng.random()
        if extra < 0.1:
            lines.append(lines[0])  # duplicate key
        elif extra < 0.2:
            lines.append(f"grid.{rng.choice(EDGE_VALUES)} = 1")  # unknown key
        elif extra < 0.3:
            lines.append(f"= {rng.choice(EDGE_VALUES)}")  # no key
        rng.shuffle(lines)
        texts.append("\n".join(lines) + "\n")
    for text in texts:
        try:
            _resolve(text)
        except ConfigError:
            pass


def test_overrides_count_as_explicitly_set(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.spacing = 50\n", encoding="utf-8")
    cfg = load_config(str(path), {"classifier.k": "1"})
    assert cfg.explicit == {"grid.spacing", "classifier.k"}
    # an override equal to the default still clashes with the baseline
    with pytest.raises(ConfigError, match="classifier.k"):
        load_config(None, {"calibration.kind": "none", "classifier.k": "1"})


@pytest.mark.parametrize("with_file", (False, True), ids=("no-file", "file"))
@pytest.mark.parametrize("key, value, error", [
    ("run.seed", "1_0", "not an integer: '1_0'"),
    ("correction.ratio", "2", "ratio must be in (0, 1], got 2.0"),
])
def test_a_bad_override_value_is_blamed_on_the_override(tmp_path, with_file, key, value, error):
    path = tmp_path / "run.cfg"
    path.write_text("grid.spacing = 50\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(str(path) if with_file else None, {key: value})
    assert str(info.value) == f"<override>: {key}: {error}"


@pytest.mark.parametrize("kind", ["knn", "vote"])
def test_k_above_the_training_rows_is_a_config_error(kind):
    # 250 mm cells: 4 x 8 = 32 cells; a DB row per cell and per augmented copy
    coarse = {"grid.spacing": "250", "classifier.kind": kind}
    for augment, rows in (("0", 32), ("2", 96)):
        cfg = resolve_config({**coarse, "fingerprint.augment": augment, "classifier.k": str(rows)})
        assert cfg.pipeline().knn_k == rows
        with pytest.raises(ConfigError, match=f": classifier.k: k={rows + 1} with {rows} training rows"):
            resolve_config({**coarse, "fingerprint.augment": augment, "classifier.k": str(rows + 1)})


@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_k_is_not_checked_where_no_knn_reads_it(kind):
    cfg = resolve_config({"grid.spacing": "250", "classifier.kind": kind, "classifier.k": "100000"})
    assert cfg.pipeline().knn_k == 100000


def test_a_grid_that_leaves_a_default_point_outside_is_blamed_on_the_grid_key():
    # the file sets no point key: the first default reference point outside is named
    with pytest.raises(ConfigError) as info:
        resolve_config({"grid.width": "500"}, origin="narrow.cfg")
    assert str(info.value) == "narrow.cfg: grid.width: point (900.0, 100.0) outside the 500.0 x 2000.0 mm area"
    # a dataclass's own error comes before the area rule
    with pytest.raises(ConfigError) as info:
        resolve_config({"grid.width": "500", "noise.sigma": "-1"}, origin="narrow.cfg")
    assert str(info.value) == "narrow.cfg: noise.sigma: sigma must be >= 0, got -1.0"


def test_config_lines_name_their_line_number():
    with pytest.raises(ConfigError, match=r"^run.cfg:3: expected 'key = value', got 'grid.spacing 50'$"):
        parse_config_text("# comment\n\ngrid.spacing 50\n", origin="run.cfg")
    with pytest.raises(ConfigError, match=r"^run.cfg:2: duplicate key 'run.seed' \(first set on line 1\)$"):
        parse_config_text("run.seed = 1\nrun.seed = 2\n", origin="run.cfg")


@pytest.mark.parametrize("text, value", [("true", True), (" TRUE ", True), ("False", False)])
def test_bootstrap_reads_true_and_false(text, value):
    assert resolve_config({"classifier.bootstrap": text}).pipeline().forest_bootstrap is value


def test_resolve_config_rejects_an_unknown_key():
    with pytest.raises(ConfigError, match=r"^<config>: unknown key 'grid.spacinq'$"):
        resolve_config({"grid.spacinq": "50"})


def test_an_unknown_override_key_is_blamed_on_the_override():
    with pytest.raises(ConfigError, match=r"^<override>: unknown key 'grid.spacig'$"):
        load_config(None, {"grid.spacig": "50"})


def test_an_unknown_override_key_is_blamed_on_the_override_beside_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("noise.sigma = -1\n")  # a bad file value does not hide the bad flag
    with pytest.raises(ConfigError, match=r"^<override>: unknown key 'grid.spacig'$"):
        load_config(str(path), {"run.seed": "3", "grid.spacig": "50"})
