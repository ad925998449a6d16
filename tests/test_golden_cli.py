"""Golden digests for the command line and the resolved configuration.

``test_golden.py`` builds ``PipelineConfig`` directly, so it does not see
how config keys and flags reach the pipeline. These digests pin that path:
the SHA-256 of every file a seven-command CLI chain writes, and the
``config_hash`` plus the built domain objects for the all-defaults config
and for a config that sets every key to a non-default value.

As in ``test_golden.py``, the digests of files written through numpy's
``Generator`` (``fit`` and ``evaluate`` of a fingerprint model) hold for one
numpy version only; the measurement files ``simulate`` writes and the config
digests hold on every numpy. To regenerate after a deliberate contract
change, run this file as a script and name the change in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from uwbloc.cli import main
from uwbloc.config import load_config, parse_config_text

NUMPY_VERSION = "2.4.6"

PINNED_NUMPY = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests through numpy's Generator hold for numpy {NUMPY_VERSION}, found {np.__version__}",
)

CHAIN_CONFIG = "grid.spacing = 100\neval.n_trials = 100\n"

# (output file, argv after the config); "{d}" is the work directory
CHAIN = [
    ("meas.csv", ["simulate", "--seed", "5", "--out", "{d}/meas.csv"]),
    ("cal.csv", ["fit", "{d}/meas.csv", "--seed", "5", "--ratio", "0.9", "--out", "{d}/cal.csv"]),
    ("db.csv", ["build-db", "{d}/cal.csv", "--out", "{d}/db.csv"]),
    ("base.csv", ["evaluate", "--seed", "5", "--model", "none", "--ratio", "0.85",
                  "--out", "{d}/base.csv"]),
    ("knn.csv", ["evaluate", "--seed", "5", "--model", "four", "--classifier", "knn",
                 "--out", "{d}/knn.csv"]),
    ("vote.csv", ["evaluate", "--seed", "5", "--model", "two", "--classifier", "vote",
                  "--weights", "2:1", "--out", "{d}/vote.csv"]),
    ("cmp.csv", ["compare", "{d}/base.csv", "{d}/knn.csv", "{d}/vote.csv",
                 "--out", "{d}/cmp.csv"]),
]

# every key set to a valid value that differs from its default
ALL_KEYS_CONFIG = """\
run.seed = 9
grid.width = 1200
grid.height = 2400
grid.spacing = 50
anchors.ax = 10
anchors.ay = 20
anchors.bx = 30
anchors.by = 2300
anchors.cx = 1100
anchors.cy = 40
noise.slope = 1.01
noise.offset = 15
noise.sigma = 25
noise.inflation_threshold = 900
noise.inflation_factor = 1.05
noise.p_outlier = 0.01
correction.threshold = 950
correction.ratio = 0.85
preprocess.mad_k = 2.5
preprocess.mad_scale = 1.5
calibration.kind = three
calibration.n_select = 40
calibration.obs_sets = 200
calibration.reference_points = 100,100; 1100,100; 100,2300; 1100,2300
classifier.kind = forest
classifier.k = 3
classifier.max_depth = 12
classifier.min_leaf = 2
classifier.trees = 7
classifier.features_per_split = 2
classifier.bootstrap = false
classifier.weights = 2:1
eval.n_trials = 50
eval.test_points = 300,600; 900,1800
campaign.reps = 120
campaign.locations = 100,100; 600,1200
fingerprint.augment = 2
"""

CHAIN_DIGESTS = {
    "meas.csv": "477a4756bd2caec9831b0aefd90aba8dbb44354b767660abaa819b5e73fd70f5",
    "cal.csv": "00597871dabb73978b179548825ca1a06c2b96963b9e952550fde033e17c9f3d",
    "db.csv": "539f50f96db52d4f86749c7d7a411cf7b2e6b7719db870dbe718021bea0e4b43",
    "base.csv": "58611333a063cc72f30c04b936b5fe17a768c792f2bf1c424b8b22ab38a552f4",
    "knn.csv": "d2b933d2519a5bb7ab9921b04fa0b55e36f25deb7ab6f5dbddc21edfb691c256",
    "vote.csv": "a4023a52119b30ee0384262883393e0df23c03ca327a9a237ffcb7087fb6d708",
    "cmp.csv": "0f835ed90a39ea2d45b039b8459c5c1cd520885a42bca25b8cb4ea5b542bc547",
}

# a campaign that visits reference point 1 twice: fit pools both visits in order
REPEATED_CONFIG = """\
campaign.locations = 100,100; 900,100; 100,1900; 100,100; 900,1900
campaign.reps = 30
calibration.n_select = 20
"""

REPEATED_DIGESTS = {
    "meas.csv": "2de8beb4613a8e3756a04515acf732162d09604bd94f12089e22b619d97b0d27",
    "cal.csv": "8d0ea6a92e45d8f790ffdd5e42db424ce14c06cb80025e700a4d9cd6fd821c55",
}

CONFIG_DIGESTS = {
    "defaults": ("ae65fed1cb6dec75",
                 "2ca791346da6d4060bf8a212016c947f7c8196f6b0cfa1c8e5a7d6d1519952fc"),
    "all-keys": ("88f9e6f4bd65b9a3",
                 "54bef8163933525b2e1edad4a1e72dd5ae4dd18ee2ed5c4c894dc653a62138f1"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_chain(work: Path, chain=CHAIN) -> dict[str, str]:
    cfg = work / "chain.cfg"
    cfg.write_text(CHAIN_CONFIG, encoding="utf-8")
    digests = {}
    for out, argv in chain:
        argv = [a.format(d=work) for a in argv]
        if argv[0] != "compare":
            argv += ["--config", str(cfg)]
        assert main(argv) == 0, argv
        digests[out] = _sha((work / out).read_bytes())
    return digests


def _config_digests(path: str | None) -> tuple[str, str]:
    """``config_hash`` and a digest of the objects the config builds."""
    cfg = load_config(path)
    built = "\n".join(repr(o) for o in (cfg.pipeline(), cfg.campaign(), cfg.grid(), cfg.anchors()))
    return cfg.config_hash(), _sha(built.encode("utf-8"))


def _write_all_keys(work: Path) -> str:
    path = work / "all.cfg"
    path.write_text(ALL_KEYS_CONFIG, encoding="utf-8")
    return str(path)


@PINNED_NUMPY
def test_cli_chain_digests(tmp_path):
    assert _run_chain(tmp_path) == CHAIN_DIGESTS


def test_measurement_file_digests(tmp_path):
    # simulate alone: its files hold on every numpy
    assert _run_chain(tmp_path, CHAIN[:1]) == {"meas.csv": CHAIN_DIGESTS["meas.csv"]}
    assert _run_repeated(tmp_path, fit=False) == {"meas.csv": REPEATED_DIGESTS["meas.csv"]}


def _run_repeated(work: Path, fit: bool = True) -> dict[str, str]:
    cfg = work / "repeated.cfg"
    cfg.write_text(REPEATED_CONFIG, encoding="utf-8")
    meas, cal = work / "meas.csv", work / "cal.csv"
    assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(meas)]) == 0
    if not fit:
        return {meas.name: _sha(meas.read_bytes())}
    assert main(["fit", str(meas), "--config", str(cfg), "--seed", "3", "--out", str(cal)]) == 0
    return {p.name: _sha(p.read_bytes()) for p in (meas, cal)}


@PINNED_NUMPY
def test_repeated_reference_point_digests(tmp_path, capsys):
    assert _run_repeated(tmp_path) == REPEATED_DIGESTS
    out = capsys.readouterr().out
    assert "wrote 150 measurement sets" in out
    assert "kept 24 clean sets" in out


def test_all_keys_config_sets_every_key(tmp_path):
    from uwbloc.config import _SCHEMA

    assert sorted(parse_config_text(ALL_KEYS_CONFIG)) == sorted(_SCHEMA)
    cfg = load_config(_write_all_keys(tmp_path))
    defaults = load_config(None)
    differing = {a for a, b in zip(cfg.resolved_lines(), defaults.resolved_lines()) if a != b}
    assert len(differing) == len(_SCHEMA)


def test_config_digests(tmp_path):
    assert _config_digests(None) == CONFIG_DIGESTS["defaults"]
    assert _config_digests(_write_all_keys(tmp_path)) == CONFIG_DIGESTS["all-keys"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        for name, digest in _run_chain(Path(d)).items():
            print(f'    "{name}": "{digest}",')
        for name, digest in _run_repeated(Path(d)).items():
            print(f'    repeated "{name}": "{digest}",')
        print(f'    "defaults": {_config_digests(None)!r},')
        print(f'    "all-keys": {_config_digests(_write_all_keys(Path(d)))!r},')
