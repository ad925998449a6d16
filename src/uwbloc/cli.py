"""Command-line front end.

Five subcommands cover the pipeline: ``simulate`` writes a measurement
campaign, ``fit`` turns measurements into a ranging calibration,
``build-db`` predicts the fingerprint grid from a calibration,
``evaluate`` runs a full error evaluation (baseline or fingerprint), and
``compare`` lays finished reports side by side. ``simulate`` then ``fit``
run ``observation_campaign`` and ``fit_calibration``, the stages ``run_ml``
composes, so with ``campaign.locations`` at the reference points and
``campaign.reps`` = ``calibration.obs_sets`` they write the calibration
that ``evaluate`` fits in process.

Exit codes: 0 success, 2 configuration or usage error, 3 malformed input
data file, 4 pipeline, I/O or memory failure. Given the same configuration and
seed, every output file is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import Sequence

from .calibration import (
    ANCHOR_NAMES,
    MissingReferencePointError,
    ModelKind,
    read_calibration,
    write_calibration,
)
from .config import ConfigError, RunConfig, load_config
from .errors import FileFormatError
from .evaluation import (
    CLASSIFIERS,
    compare,
    fit_calibration,
    format_comparison,
    format_report,
    read_report,
    run_baseline,
    run_ml,
    write_comparison,
    write_report,
)
from .fingerprint import build_db, write_db
from .simulator import read_measurements, simulate_campaign, write_measurements

# Not called here: bench/tracing.py instruments these names on this module.
from .calibration import clean_observation_rows, fit_model
from .simulator import derive_seed

__all__ = ["main"]

_MODEL_KINDS = tuple(ModelKind)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbloc",
        description="UWB fingerprint positioning pipeline: simulate, calibrate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag whose dest is a config key overrides that key; its raw string goes
    # through the key's converter, so it takes no argparse type
    def add_common(p: argparse.ArgumentParser, *, seed: bool = True) -> None:
        p.add_argument("--config", metavar="FILE", help="key = value configuration file")
        if seed:
            p.add_argument("--seed", dest="run.seed", metavar="N", help="override run.seed")

    p = sub.add_parser("simulate", help="generate a measurement campaign file")
    add_common(p)
    p.add_argument("--out", required=True, metavar="FILE", help="measurement file to write")

    p = sub.add_parser("fit", help="fit a ranging calibration from measurements")
    p.add_argument("measurements", metavar="MEASUREMENTS", help="measurement file to read")
    add_common(p)
    p.add_argument("--model", dest="calibration.kind", choices=[k.value for k in _MODEL_KINDS],
                   help="override calibration.kind")
    p.add_argument("--ratio", dest="correction.ratio", metavar="R",
                   help="override correction.ratio")
    p.add_argument("--out", required=True, metavar="FILE", help="calibration file to write")

    p = sub.add_parser("build-db", help="predict the fingerprint database from a calibration")
    p.add_argument("calibration", metavar="CALIBRATION", help="calibration file to read")
    add_common(p, seed=False)
    p.add_argument("--out", required=True, metavar="FILE", help="database file to write")

    p = sub.add_parser("evaluate", help="run a positioning error evaluation")
    add_common(p)
    p.add_argument(
        "--model",
        dest="calibration.kind",
        choices=[k.value for k in _MODEL_KINDS] + ["none"],
        help="override calibration.kind (none = trilateration baseline)",
    )
    p.add_argument("--ratio", dest="correction.ratio", metavar="R",
                   help="override correction.ratio")
    p.add_argument("--classifier", dest="classifier.kind", choices=CLASSIFIERS,
                   help="override classifier.kind")
    p.add_argument("--weights", dest="classifier.weights", metavar="KNN:TREE",
                   help="override classifier.weights")
    p.add_argument("--out", required=True, metavar="FILE", help="error report to write")

    p = sub.add_parser("compare", help="compare reports against the first (baseline)")
    p.add_argument("reports", nargs="+", metavar="REPORT", help="two or more report files")
    p.add_argument("--out", required=True, metavar="FILE", help="comparison table to write")

    return parser


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    return {k: v for k, v in vars(args).items() if "." in k and v is not None}


def _cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    records = simulate_campaign(cfg.campaign())
    write_measurements(args.out, records)
    print(f"wrote {sum(len(r.ranges) for r in records)} measurement sets to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace, cfg: RunConfig) -> int:
    pcfg = cfg.pipeline()
    if pcfg.model_kind is None:
        raise ConfigError("calibration.kind is none; nothing to fit")
    obs, model = fit_calibration(pcfg, read_measurements(args.measurements), cfg.anchors())
    write_calibration(args.out, model)
    print(f"model {model.kind.value}: kept {obs.n_sets} clean sets")
    for name in ANCHOR_NAMES:
        eq = model.equation(name)
        print(f"  {name}: measured = {eq.a:.6f} * true + {eq.b:.3f}")
    return 0


def _cmd_build_db(args: argparse.Namespace, cfg: RunConfig) -> int:
    model = read_calibration(args.calibration)
    db = build_db(model, cfg.grid(), cfg.anchors())
    write_db(args.out, db)
    print(f"wrote {len(db)} cells to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    pcfg = cfg.pipeline()
    if pcfg.model_kind is None:
        report = run_baseline(pcfg, cfg.anchors())
    else:
        report = run_ml(pcfg, cfg.anchors(), cfg.grid())
    metadata = dict(report.metadata)
    metadata["config_hash"] = cfg.config_hash()
    for line in cfg.resolved_lines():
        key, _, value = line.partition(" = ")
        metadata[f"cfg.{key}"] = value
    report = replace(report, metadata=metadata)
    write_report(args.out, report)
    print(format_report(report, "text"), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.reports) < 2:
        raise ConfigError("compare needs at least two report files (baseline first)")
    reports = [read_report(p) for p in args.reports]
    table = compare(reports)
    write_comparison(args.out, table)
    print(format_comparison(table, "text"), end="")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "compare":
            return _cmd_compare(args)
        cfg = load_config(getattr(args, "config", None), _overrides(args))
        run = {"simulate": _cmd_simulate, "fit": _cmd_fit, "build-db": _cmd_build_db,
               "evaluate": _cmd_evaluate}[args.command]
        return run(args, cfg)
    except ConfigError as exc:
        print(f"uwbloc: config error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, MissingReferencePointError) as exc:
        print(f"uwbloc: input error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"uwbloc: error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("uwbloc: error: out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
