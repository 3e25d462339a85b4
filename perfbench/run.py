#!/usr/bin/env python3
"""Build and run the kcenter benchmark for one workload.

    python3 perfbench/run.py --workload csv-mrg --seed 20160816 --seconds 30 --trace 0

Builds the `perfbench` package (release, `simd` feature) into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root), runs
the workload in a scratch directory under it, and relays the report.
The last line of standard output is the JSON result.  The exit code is
0 only when the build succeeded and every output was verified.

Workloads: csv-mrg, eim-hd, ingest-query; `--workload all` runs the three
in turn and exits non-zero if any fails.  The default seed is 20160816;
seed 1729 is kept out of tuning for holdout checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("csv-mrg", "eim-hd", "ingest-query")
DEFAULT_SEED = 20160816
HOLDOUT_SEED = 1729
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (holdout: {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = {k: v for k, v in os.environ.items() if not k.startswith("KCENTER_")}
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args, target, env) for w in workloads]
    return next((c for c in codes if c != 0), 0)


def run_workload(workload: str, args: argparse.Namespace, target: Path, env: dict) -> int:
    """Runs one workload, relays its report, and returns its exit code."""
    target.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=target)
    try:
        proc = subprocess.run(
            [str(target / "release" / "kcenter-perfbench"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            env=env, stdout=subprocess.PIPE, text=True, check=False,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    if set(result["metrics"]) != expected:
        print(f"perfbench: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
