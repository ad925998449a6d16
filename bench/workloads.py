"""The four benchmark workloads, their per-evaluation inputs and output checks.

Every workload is a closed loop: one caller runs evaluation 0, 1, 2, ...
back to back, each with its own ``run.seed`` derived from the workload
seed and the evaluation index. ``execute`` is the timed part; ``verify``
reads and checks what it produced and is never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

from uwbloc import cli, evaluation
from uwbloc.config import load_config
from uwbloc.evaluation import ErrorReport, PipelineConfig, format_report, read_report

#: correction ratios of the paper's no-ML tables, cycled by evaluation index
RATIOS = (1.0, 0.9, 0.85, 0.8)
#: forest size of ``ml_forest``: large enough that training dominates (~70%
#: of traced time), small enough that a run holds a dozen evaluations
FOREST_TREES = 4
#: grid spacing of ``cli_dense`` (mm): 20,000 cells on the default area
DENSE_SPACING = 10


def eval_seed(workload: str, seed: int, index: int) -> int:
    """``run.seed`` of evaluation ``index`` of a workload run seeded ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def direct_call(name: str, fn, *args):
    """Untraced stand-in for ``Tracer.call``: ``name`` labels the span a tracer would open."""
    return fn(*args)


@dataclass
class Outcome:
    """What one evaluation produced, as the checks saw it."""

    artifact: bytes  # every output byte, for the traced/untraced identity check
    report: ErrorReport | None  # the report the error metrics are taken from
    attempted: int  # evaluations, or CLI commands on cli_dense
    failed: int
    problems: list[str] = field(default_factory=list)


def report_problems(report: ErrorReport, expected: dict[str, str], n_points: int) -> list[str]:
    """Why a report breaks the output contract; empty when it holds."""
    problems = []
    if len(report.entries) != n_points:
        problems.append(f"{len(report.entries)} entries for {n_points} test points")
    for e in report.entries:
        if not (math.isfinite(e.avg_error) and e.max_error is not None
                and math.isfinite(e.max_error) and e.max_error >= e.avg_error):
            problems.append(f"bad entry at {e.point.as_tuple()}: {e.avg_error}, {e.max_error}")
    for key, want in expected.items():
        got = report.metadata.get(key)
        if got != want:
            problems.append(f"metadata {key} = {got!r}, expected {want!r}")
    return problems


def mean_avg_error(report: ErrorReport) -> float:
    return sum(e.avg_error for e in report.entries) / len(report.entries)


class PipelineWorkload:
    """Calls the public API ``run_baseline`` / ``run_ml`` once per evaluation."""

    def __init__(self, name: str, overrides: dict[str, str], *, cycle_ratios: bool = False):
        self.name = name
        self.overrides = overrides
        self.cycle_ratios = cycle_ratios

    def setup(self, work_dir: Path, config_loader=load_config) -> None:
        cfg = config_loader(None, self.overrides)
        self.base = cfg.pipeline()
        self.anchors = cfg.anchors()
        self.grid = cfg.grid()

    def setup_args(self) -> list[str]:
        """Arguments of the fresh-process set-up probe (see run.py)."""
        return [""] + [f"{k}={v}" for k, v in self.overrides.items()]

    def config(self, seed: int, index: int) -> PipelineConfig:
        cfg = replace(self.base, seed=eval_seed(self.name, seed, index))
        if self.cycle_ratios:
            ratio = RATIOS[index % len(RATIOS)]
            cfg = replace(cfg, correction=replace(cfg.correction, ratio=ratio))
        return cfg

    def execute(self, seed: int, index: int, call=direct_call):
        cfg = self.config(seed, index)
        if cfg.model_kind is None:
            return cfg, call("evaluation.run_baseline", evaluation.run_baseline, cfg, self.anchors)
        return cfg, call("evaluation.run_ml", evaluation.run_ml, cfg, self.anchors, self.grid)

    def verify(self, result) -> Outcome:
        cfg, report = result
        expected = {
            "seed": str(cfg.seed),
            "n_trials": str(cfg.n_trials),
            "failed_trials": "0",
            "correction_ratio": repr(cfg.correction.ratio),
            "params_hash": cfg.params_hash(),
        }
        if cfg.model_kind is None:
            expected["pipeline"] = "baseline"
        else:
            expected.update(pipeline="fingerprint", model=cfg.model_kind.value,
                            classifier=cfg.classifier)
        problems = report_problems(report, expected, len(cfg.test_points))
        if cfg.model_kind is not None:
            base = evaluation.run_baseline(replace(cfg, model_kind=None), self.anchors)
            if not mean_avg_error(report) < mean_avg_error(base):
                problems.append(
                    f"seed {cfg.seed}: fingerprint mean error {mean_avg_error(report)} "
                    f"does not beat baseline {mean_avg_error(base)}"
                )
        artifact = format_report(report).encode()
        return Outcome(artifact, report, 1, int(bool(problems)), problems)

    def cleanup(self) -> None:
        pass


class CliWorkload:
    """The five-command chain, through ``uwbloc.cli.main`` in this process."""

    name = "cli_dense"
    outputs = ("measurements.csv", "calibration.csv", "db.csv", "baseline.csv",
               "knn.csv", "comparison.csv")

    def setup(self, work_dir: Path, config_loader=load_config) -> None:
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        # classifier.* keys in the file would make `evaluate --model none`
        # exit 2, so the classifier goes in by flag
        self.config_path = self.dir / "dense.cfg"
        self.config_path.write_text(f"grid.spacing = {DENSE_SPACING}\n", encoding="utf-8")
        cfg = config_loader(str(self.config_path))
        self.n_points = len(cfg.pipeline().test_points)
        cfg.anchors()
        cfg.grid()

    def setup_args(self) -> list[str]:
        return [str(self.config_path)]

    def commands(self, run_seed: int) -> list[list[str]]:
        c, s, out = str(self.config_path), str(run_seed), self.dir
        common = ["--config", c]
        return [
            ["simulate", *common, "--seed", s, "--out", str(out / "measurements.csv")],
            ["fit", str(out / "measurements.csv"), *common, "--seed", s, "--model", "four",
             "--out", str(out / "calibration.csv")],
            ["build-db", str(out / "calibration.csv"), *common, "--out", str(out / "db.csv")],
            ["evaluate", *common, "--seed", s, "--model", "none",
             "--out", str(out / "baseline.csv")],
            ["evaluate", *common, "--seed", s, "--model", "four", "--classifier", "knn",
             "--out", str(out / "knn.csv")],
            ["compare", str(out / "baseline.csv"), str(out / "knn.csv"),
             "--out", str(out / "comparison.csv")],
        ]

    def execute(self, seed: int, index: int, call=direct_call):
        run_seed = eval_seed(self.name, seed, index)
        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [call(f"cli.{argv[0]}", cli.main, argv) for argv in self.commands(run_seed)]
        return run_seed, codes

    def verify(self, result) -> Outcome:
        run_seed, codes = result
        problems = [f"`uwbloc {argv[0]}` exited {code}"
                    for argv, code in zip(self.commands(run_seed), codes) if code != 0]
        failed = len(problems)
        artifact = b"".join((self.dir / n).read_bytes() for n in self.outputs
                            if (self.dir / n).exists())
        knn = None
        try:
            base = read_report(str(self.dir / "baseline.csv"))
            knn = read_report(str(self.dir / "knn.csv"))
        except (OSError, ValueError) as exc:
            problems.append(f"unreadable report: {exc}")
        else:
            common = {"seed": str(run_seed), "failed_trials": "0",
                      "cfg.grid.spacing": repr(float(DENSE_SPACING))}
            problems += report_problems(base, {**common, "pipeline": "baseline"}, self.n_points)
            problems += report_problems(
                knn, {**common, "pipeline": "fingerprint", "model": "four", "classifier": "knn"},
                self.n_points)
            if not mean_avg_error(knn) < mean_avg_error(base):
                problems.append(f"seed {run_seed}: knn mean error {mean_avg_error(knn)} "
                                f"does not beat baseline {mean_avg_error(base)}")
            header = (self.dir / "comparison.csv").read_text(encoding="utf-8").split("\n", 1)[0]
            if header != evaluation.COMPARISON_HEADER:
                problems.append(f"comparison header {header!r}")
        if problems and not failed:
            failed = 1
        return Outcome(artifact, knn, len(codes), failed, problems)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.dir.parent.rmdir()


def make_workload(name: str):
    if name == "baseline":
        return PipelineWorkload(name, {"calibration.kind": "none"}, cycle_ratios=True)
    if name == "ml_vote":
        return PipelineWorkload(name, {})
    if name == "ml_forest":
        return PipelineWorkload(
            name, {"classifier.kind": "forest", "classifier.trees": str(FOREST_TREES)})
    if name == "cli_dense":
        return CliWorkload()
    raise KeyError(name)


#: evaluations every run makes, however long it is; the error metrics and
#: report_sha256 cover exactly these, so they repeat exactly per seed
FIXED_EVALS = {"baseline": 20, "ml_vote": 8, "ml_forest": 10, "cli_dense": 2}
