"""uwbloc benchmark: time the error-table pipeline end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload ml_vote --seed 3 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reports the per-module metrics from a separate traced run. ``--workload
all`` runs every workload, each in its own process, and prints one table.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, tail latency, failed ratio, report digest,
findings). The package is imported from ``src/`` next to this directory;
the exit code is 2, with no result line, when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("baseline", "ml_vote", "ml_forest", "cli_dense")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a fresh process of its own; prints a metric table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        for key, unit in (("eval_s_p50", "s"), ("eval_s_mean", "s"), ("failed_ratio", "ratio"),
                          ("mean_error_mm", "mm"), ("max_error_mm", "mm")):
            if detail.get(key) is not None and key not in rows:
                rows[key] = (detail[key], unit)
        tail = detail.get("eval_s_tail")
        if tail:
            rows[f"eval_s_p{tail['percentile']} (n={tail['samples']})"] = (tail["value"], "s")
        print(f"== {name}  correct={result['correct']}  report_sha256={detail.get('report_sha256')}")
        for key, (value, unit) in rows.items():
            print(f"   {key:40s} {value:16.6g} {unit}")
            combined["metrics"][f"{name}.{key}"] = {"value": value, "unit": unit}
        for key, value in detail.get("findings", {}).items():
            print(f"   finding {key} = {value:.6g}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "uwbloc" / "__init__.py").is_file():
        print(f"bench: no uwbloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # One process, one BLAS/OpenMP thread: set before numpy is imported, so
    # every commit measured runs alike whatever the host's defaults are.
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # noqa: E402  (imports numpy, after the pinning above)

    work_dir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    if args.trace:
        result, detail = harness.measure_traced(args.workload, args.seed, args.seconds, work_dir)
    else:
        result, detail = harness.measure(args.workload, args.seed, args.seconds, work_dir, ROOT)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **detail, "environment": harness.environment(THREAD_VARS)}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
