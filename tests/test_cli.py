"""End-to-end command line tests.

Everything goes through ``cli.main(argv)`` in-process; it returns the exit
code instead of raising SystemExit, so assertions stay plain.
"""

import importlib.resources
import os
import subprocess
import sys

import pytest

from uwbloc import cli
from uwbloc.calibration import REFERENCE_POINTS
from uwbloc.cli import main
from uwbloc.config import load_config
from uwbloc.evaluation import read_report, run_ml


COARSE = """\
# small everything so the whole pipeline runs in well under a second
grid.spacing = 250
eval.n_trials = 20
calibration.obs_sets = 40
calibration.n_select = 15
"""

# identity channel: measurements equal true distances, so the strongest
# checks become exact
NOISELESS = """\
noise.sigma = 0.0
noise.offset = 0.0
noise.inflation_factor = 1.0
eval.test_points = 500,2000
eval.n_trials = 5
calibration.kind = one
calibration.obs_sets = 10
calibration.n_select = 5
classifier.kind = knn
"""


@pytest.fixture
def coarse_cfg(tmp_path):
    p = tmp_path / "coarse.cfg"
    p.write_text(COARSE)
    return p


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_reused_parser_behaves_as_a_fresh_one(tmp_path, coarse_cfg, capsys, monkeypatch):
    # main builds its parser once per process: a usage error, then --help, then
    # a valid command must each print, exit and write what a fresh process does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
    commands = (["evaluate", "--model", "five"], ["--help"],
                ["evaluate", "--config", str(coarse_cfg), "--model", "none", "--out", "{}"])
    in_process = []
    for argv in commands:
        rc = main([a.format(tmp_path / "in_process.csv") for a in argv])
        in_process.append((rc, *capsys.readouterr()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "uwbloc.cli",
                               *(a.format(tmp_path / "fresh.csv") for a in argv)],
                              env=env, capture_output=True, text=True, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [rc for rc, _, _ in in_process] == [2, 0, 0]
    assert in_process == fresh
    assert (tmp_path / "in_process.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_evaluate_ml_writes_report_with_config_echo(tmp_path, coarse_cfg):
    out = tmp_path / "ml.csv"
    rc = main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# cfg.grid.spacing = 250.0" in text
    assert "# cfg.calibration.kind = four" in text
    assert "# config_hash = " in text
    assert "point_x,point_y,avg_error_mm,max_error_mm" in text
    # six test points by default
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 6


def test_evaluate_is_byte_identical_on_rerun(tmp_path, coarse_cfg):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
                 "--out", str(a)]) == 0
    assert main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_model_none_runs_baseline(tmp_path, coarse_cfg):
    out = tmp_path / "base.csv"
    rc = main(["evaluate", "--config", str(coarse_cfg), "--model", "none",
               "--out", str(out)])
    assert rc == 0
    assert "# pipeline = baseline" in out.read_text()


def test_compare_baseline_against_ml(tmp_path, coarse_cfg):
    base = tmp_path / "base.csv"
    ml = tmp_path / "ml.csv"
    cmp_out = tmp_path / "cmp.csv"
    assert main(["evaluate", "--config", str(coarse_cfg), "--model", "none",
                 "--out", str(base)]) == 0
    assert main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
                 "--out", str(ml)]) == 0
    rc = main(["compare", str(base), str(ml), "--out", str(cmp_out)])
    assert rc == 0
    text = cmp_out.read_text()
    assert "baseline_avg_mm,reduction_pct" in text
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 6


def test_simulate_fit_build_db_flow(tmp_path, coarse_cfg):
    meas = tmp_path / "meas.csv"
    cal = tmp_path / "cal.csv"
    db = tmp_path / "db.csv"
    assert main(["simulate", "--config", str(coarse_cfg),
                 "--out", str(meas)]) == 0
    # default campaign: 10 locations
    n_rows = len(meas.read_text().splitlines())
    assert n_rows == 1 + 10 * 500
    assert main(["fit", str(meas), "--config", str(coarse_cfg),
                 "--model", "two", "--out", str(cal)]) == 0
    cal_lines = cal.read_text().splitlines()
    assert len(cal_lines) == 4
    assert cal_lines[0] == "kind,two"
    assert main(["build-db", str(cal), "--config", str(coarse_cfg),
                 "--out", str(db)]) == 0
    # 250 mm spacing over 1 m x 2 m: 4 * 8 cells plus the geometry line
    assert len(db.read_text().splitlines()) == 1 + 32


@pytest.mark.parametrize("seed", ("0", "7"))
@pytest.mark.parametrize("model", ("one", "four"))
def test_simulate_then_fit_writes_the_calibration_run_ml_fits(tmp_path, capsys, model, seed):
    # the reference-point campaign of run_ml, written by simulate and read by fit
    refs = ";".join(f"{p.x!r},{p.y!r}" for p in REFERENCE_POINTS)
    reps = load_config(None).pipeline().obs_sets
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(f"grid.spacing = 250\ncampaign.locations = {refs}\ncampaign.reps = {reps}\n")
    meas, cal = tmp_path / "meas.csv", tmp_path / "cal.csv"
    assert main(["simulate", "--config", str(cfg), "--seed", seed, "--out", str(meas)]) == 0
    assert main(["fit", str(meas), "--config", str(cfg), "--seed", seed, "--model", model,
                 "--out", str(cal)]) == 0
    capsys.readouterr()
    run = load_config(str(cfg), {"run.seed": seed, "calibration.kind": model})
    report = run_ml(run.pipeline(), run.anchors(), run.grid())
    assert cal.read_text().splitlines() == [f"kind,{model}"] + [
        f"{name},{report.metadata[f'eq_{name}']}" for name in "ABC"]


def test_noiseless_identity_pipeline_pins_grid_error(tmp_path):
    cfg = tmp_path / "ident.cfg"
    cfg.write_text(NOISELESS)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    # (500, 2000) sits on a cell corner of the default 25 mm grid; the
    # nearest vertex is 25 mm away, exactly
    assert "500.00000,2000.00000,25.00000,25.00000" in out.read_text()


def test_compare_reference_tables_reproduces_headline(tmp_path):
    fixdir = importlib.resources.files("uwbloc.fixtures")
    base = str(fixdir / "no_ml_avg_max.csv")
    cand = str(fixdir / "model_four_vote.csv")
    out = tmp_path / "cmp.csv"
    assert main(["compare", base, cand, "--out", str(out)]) == 0
    assert "95.48" in out.read_text()


def test_weights_flag_round_trips(tmp_path, coarse_cfg):
    out = tmp_path / "w.csv"
    rc = main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
               "--classifier", "vote", "--weights", "2:1",
               "--out", str(out)])
    assert rc == 0
    assert "# vote_weights = 2.0:1.0" in out.read_text()


# -- failure modes ----------------------------------------------------------


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.spacig = 250\n")
    out = str(tmp_path / "r.csv")
    assert main(["evaluate", "--config", str(cfg), "--out", out]) == 2
    assert "config error" in capsys.readouterr().err


def test_classifier_keys_with_no_model_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "contradiction.cfg"
    cfg.write_text("calibration.kind = none\nclassifier.k = 3\n")
    out = str(tmp_path / "r.csv")
    assert main(["evaluate", "--config", str(cfg), "--out", out]) == 2
    assert "classifier.k" in capsys.readouterr().err


def test_k_above_the_training_rows_is_exit_2_before_any_work(tmp_path, capsys):
    # 32 cells at 250 mm: KnnClassifier would refuse k only after the simulation, fit and DB
    cfg = tmp_path / "k.cfg"
    cfg.write_text("grid.spacing = 250\nclassifier.k = 100000\n")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "classifier.k: k=100000 with 32 training rows" in err
    assert not out.exists()
    # the same config with a learner that reads no k runs
    assert main(["evaluate", "--config", str(cfg), "--classifier", "tree", "--out", str(out)]) == 0


def test_a_grid_too_small_for_the_default_points_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("grid.width = 500\n")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"uwbloc: config error: {cfg}: grid.width: point (900.0, 100.0) outside the "
                   "500.0 x 2000.0 mm area\n")
    assert not out.exists()


def test_fit_with_no_model_kind_is_exit_2(tmp_path, capsys):
    # --model offers no none, but a config can set it; the check comes before any reading
    cfg = tmp_path / "baseline.cfg"
    cfg.write_text("calibration.kind = none\n")
    out = tmp_path / "cal.csv"
    assert main(["fit", str(tmp_path / "absent.csv"), "--config", str(cfg), "--out", str(out)]) == 2
    assert "calibration.kind is none; nothing to fit" in capsys.readouterr().err
    assert not out.exists()


def test_compare_with_one_report_is_exit_2(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(tmp_path / "only.csv"), "--out", str(out)]) == 2
    assert "compare needs at least two report files" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_is_exit_2(tmp_path):
    out = str(tmp_path / "r.csv")
    assert main(["evaluate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", out]) == 2


def test_bad_model_choice_is_usage_error(tmp_path, capsys):
    assert main(["evaluate", "--model", "five"]) == 2
    capsys.readouterr()


def test_bad_weights_flag_is_exit_2(tmp_path, coarse_cfg, capsys):
    rc = main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
               "--weights", "3:1:2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["evaluate", "--config", str(coarse_cfg), "--model", "four",
               "--weights", "-1:2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags, key_line, error", [
    (["--seed", "1_0"], "", "run.seed: not an integer: '1_0'"),
    (["--ratio", "0.8_5"], "", "correction.ratio: not a number: '0.8_5'"),
    ([], "run.seed = 1_0\n", "run.seed: not an integer: '1_0'"),
], ids=("seed-flag", "ratio-flag", "seed-key"))
def test_digit_separator_in_a_flag_is_exit_2_as_in_a_file(tmp_path, capsys, flags, key_line, error):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COARSE + key_line)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--model", "none", *flags,
                 "--out", str(out)]) == 2
    # a bad flag value is the flag's fault, not the config file's
    origin = "<override>" if flags else str(cfg)
    assert capsys.readouterr().err == f"uwbloc: config error: {origin}: {error}\n"
    assert not out.exists()


def test_ratio_flag_writes_what_the_ratio_key_writes(tmp_path, coarse_cfg, capsys):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text(COARSE + "correction.ratio = 0.95\n")
    by_flag, by_key = tmp_path / "flag.csv", tmp_path / "key.csv"
    assert main(["evaluate", "--config", str(coarse_cfg), "--model", "none", "--ratio", "0.95",
                 "--out", str(by_flag)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--model", "none", "--out", str(by_key)]) == 0
    assert "# correction_ratio = 0.95\n" in by_flag.read_text()
    assert by_flag.read_bytes() == by_key.read_bytes()
    capsys.readouterr()


def test_malformed_measurements_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,entirely\n1,2,3\n")
    rc = main(["fit", str(bad), "--model", "one",
               "--out", str(tmp_path / "cal.csv")])
    assert rc == 3
    assert "input error" in capsys.readouterr().err


def test_digit_separator_in_a_data_file_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "separators.csv"
    bad.write_text("loc_x,loc_y,d_a,d_b,d_c\n1_0,2_0,3_00,400,5e2\n")
    assert main(["fit", str(bad), "--model", "one", "--out", str(tmp_path / "cal.csv")]) == 3
    assert f"{bad}:2: " in capsys.readouterr().err


def test_measurements_missing_reference_point_is_exit_3(tmp_path, capsys):
    # rows only at one reference point: cleaning cannot find the other three
    lines = ["loc_x,loc_y,d_a,d_b,d_c"]
    for _ in range(5):
        lines.append("100.0,100.0,150.0,1900.0,1200.0")
    bad = tmp_path / "partial.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["fit", str(bad), "--model", "one",
               "--out", str(tmp_path / "cal.csv")])
    assert rc == 3
    capsys.readouterr()


def test_reference_points_equidistant_from_an_anchor_is_exit_4(tmp_path, capsys):
    # points 1 and 4 are both 500 mm from anchor A: no calibration line fits
    points = "300,400; 900,100; 100,1900; 400,300"
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(f"calibration.reference_points = {points}\n"
                   f"campaign.locations = {points}\ncampaign.reps = 20\n")
    meas = tmp_path / "meas.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(meas)]) == 0
    # 20 sets, fewer than n_select: the fit warns, then meets the degenerate pair
    with pytest.warns(UserWarning, match="measurement sets available"):
        assert main(["fit", str(meas), "--config", str(cfg), "--out", str(tmp_path / "cal.csv")]) == 4
    assert "both points have true distance 500.0" in capsys.readouterr().err


def test_a_reference_point_on_an_anchor_is_exit_4(tmp_path, capsys):
    # point 1 sits on anchor A: its true distance 0 fits no calibration line
    cfg = tmp_path / "on_anchor.cfg"
    cfg.write_text("calibration.reference_points = 0,0; 900,100; 100,1900; 900,1900\n")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "uwbloc: error: distances must be finite and positive, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "anchors.by = 1e300\nanchors.bx = 1e300\nanchors.cx = 2e300\nanchors.cy = 2e300",
    "grid.spacing = 5e-324",
    "anchors.by = 1e308\nanchors.cx = 1e308",
    "grid.spacing = 0.001",
], ids=["anchors-area-overflows", "grid-count-overflows", "anchors-area-infinite",
        "grid-over-max-cells"])
def test_overflowing_geometry_is_exit_2(tmp_path, capsys, setting):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(setting + "\n")
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err.startswith("uwbloc: config error")


@pytest.mark.parametrize("model", ["none", "four"])
def test_a_distance_whose_square_overflows_is_exit_4(tmp_path, capsys, model):
    # every key is in range, but 1e200 squared is inf: the true-distance check names it
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("grid.width = 1e200\ngrid.height = 1e200\ngrid.spacing = 1e200\n"
                   "eval.test_points = 1e200,1e200\n")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--model", model, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "uwbloc: error: true distance must be finite and >= 0, got inf\n"
    assert not out.exists()


def test_a_noiseless_run_at_a_large_scale_reports_its_mean_as_its_max(tmp_path):
    # every trial's error is the same, and 5 decimals no longer absorb the ulp by which
    # their float sum over 3 exceeds it: the mean is clamped to the max, not rejected
    cfg = tmp_path / "large.cfg"
    cfg.write_text("grid.width = 1e12\ngrid.height = 2e12\ngrid.spacing = 1e10\nanchors.by = 2e12\n"
                   "anchors.cx = 1e12\nnoise.sigma = 0\nnoise.offset = 0.3\neval.n_trials = 3\n"
                   "eval.test_points = 500000000000,0\n")
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--config", str(cfg), "--model", "none", "--out", str(out)]) == 0
    (entry,) = read_report(out).entries
    assert entry.avg_error == entry.max_error == 234567901234.85748


# a command reading each kind of file, and the exit code for a file that is not UTF-8
_READERS = {
    "config": (["evaluate", "--config", "{f}", "--out", "{d}/r.csv"], 2),
    "measurements": (["fit", "{f}", "--out", "{d}/cal.csv"], 3),
    "calibration": (["build-db", "{f}", "--out", "{d}/db.csv"], 3),
    "report": (["compare", "{f}", "{f}", "--out", "{d}/cmp.csv"], 3),
}


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_file_that_is_not_utf8_names_the_byte(tmp_path, capsys, kind):
    argv, code = _READERS[kind]
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
    assert main([a.format(f=bad, d=tmp_path) for a in argv]) == code
    assert f"{bad}: not UTF-8 text at byte offset 5" in capsys.readouterr().err


def test_running_out_of_memory_is_exit_4(monkeypatch, tmp_path, capsys):
    def exhausted(args, cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_simulate", exhausted)
    assert main(["simulate", "--out", str(tmp_path / "m.csv")]) == 4
    assert capsys.readouterr().err == "uwbloc: error: out of memory\n"


def test_unwritable_output_is_exit_4(tmp_path, coarse_cfg, capsys):
    out = tmp_path / "no" / "such" / "dir" / "r.csv"
    rc = main(["evaluate", "--config", str(coarse_cfg), "--model", "none",
               "--out", str(out)])
    assert rc == 4
    assert "error" in capsys.readouterr().err
