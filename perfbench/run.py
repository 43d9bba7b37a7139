"""The benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  The workload runs in a fresh
``python3`` process (``child.py``) with ``PYTHONHASHSEED=0`` and
``PYTHONPATH=src``; with ``--trace 0`` four more processes only set up, and
``setup_s`` is the median of the five set-ups.  Metric names and units come
from ``BENCHMARK.json``: ``--trace 0`` prints its ``end_to_end`` metrics,
``--trace 1`` its ``per_layer`` metrics.  The workload's own figures (named
as in the README) are printed as ``#`` lines before the result, which is
the last line of standard output.  A mismatch against the benchmark's
independent answers sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
#: Together these stay inside the 180 s a run may take.
SETUP_TIMEOUT_S = 8
CHILD_TIMEOUT_S = 140


class BenchmarkError(Exception):
    pass


def _child(args, workload: str, setup_only: bool, trace: int) -> dict:
    workdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    timeout = SETUP_TIMEOUT_S if setup_only else CHILD_TIMEOUT_S
    spawned = time.time()
    try:
        done = subprocess.run(
            command + ["--spawned", repr(spawned)], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} did not finish within {timeout} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{workload} exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [workload["name"] for workload in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            report = _child(args, args.workload, setup_only=False, trace=1)
            measured = report["per_layer"]
            wanted = spec["per_layer"]
        else:
            setups = [
                _child(args, args.workload, setup_only=True, trace=0)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            report = _child(args, args.workload, setup_only=False, trace=0)
            measured = dict(report["end_to_end"])
            measured["setup_s"] = statistics.median(setups + [report["setup_s"]])
            measured["peak_rss_mb"] = report["peak_rss_mb"]
            wanted = spec["end_to_end"]
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} rounds={report['rounds']} "
          f"trace={args.trace}")
    for name, (value, unit) in report["detail"].items():
        print(f"# {args.workload}.{name} = {value:.6g} {unit}")
    for mismatch in report["mismatches"]:
        print(f"# MISMATCH {mismatch}")
    for error in report["errors"]:
        print(f"# FAILED {error}")
    correct = not report["mismatches"]
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
