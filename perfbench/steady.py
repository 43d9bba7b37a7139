"""The steadiness command: repeat one workload in fresh processes, print the spread.

    python3 perfbench/steady.py --workload serving --runs 10

Runs ``run.py`` ``--runs`` times for ``run_seconds`` of ``BENCHMARK.json``
with seeds ``--first-seed``, ``--first-seed`` + 1, ..., each in its own
process, and before each run times a fixed pure-Python calibration loop in
another fresh process, so the machine's own run-to-run spread is on record
next to the program's.  For every metric of
the result line and every ``#`` figure the workload prints, it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``; end-to-end metrics are set against their bound from
``BENCHMARK.json``.  The share of failed operations must be the same in every
run.  ``--trace 1`` repeats the traced run instead, whose ``#`` figures give
the tracing overhead against an untraced set.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIGURE = re.compile(r"^# \w+\.(\S+) = (\S+) (\S+)$")

CALIBRATION = """
import statistics, time
def loop():
    total = 0
    for i in range(200000):
        total += i * i % 7
    return total
times = []
end = time.perf_counter() + 2.0
while time.perf_counter() < end:
    began = time.perf_counter(); loop(); times.append(time.perf_counter() - began)
print(statistics.median(times) * 1e3)
"""


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    calibration: list[float] = []
    failed_shares = set()
    for run in range(args.runs):
        seed = args.first_seed + run
        calibration.append(float(subprocess.run(
            [sys.executable, "-c", CALIBRATION], capture_output=True, text=True, check=True,
        ).stdout))
        began = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        failed_shares.add(Fraction(result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for line in lines[:-1]:
            match = FIGURE.match(line)
            if match:
                values.setdefault("#" + match.group(1), []).append(float(match.group(2)))
                units["#" + match.group(1)] = match.group(3)
        print(f"seed {seed}: {time.monotonic() - began:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, trace={args.trace}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    rows = [("calibration_loop_ms", calibration, "ms")]
    rows += [(name, series, units[name]) for name, series in values.items()]
    steady = True
    for name, series, unit in rows:
        if len(series) < 2:
            continue
        middle, q1, q3, share = spread(series)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            steady = steady and share <= bound
        print(f"{name + ' (' + unit + ')':44} {middle:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.3f} {bound if bound is not None else '':>6} {verdict}")
    print(f"failed share identical in every run: {len(failed_shares) == 1}")
    return 0 if steady and len(failed_shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
