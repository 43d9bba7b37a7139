"""One workload process: set up, run timed rounds, check, report as JSON.

Started by ``run.py`` in a fresh interpreter per run, so imports, memory and
peak RSS belong to one workload.  ``--spawned`` is the wall-clock time at which
the parent started this process; set-up time runs from there to the first
timed operation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time

from common import run_rounds

#: Per-layer values that are not summed per round.
NOT_PER_ROUND = ("engine.peak_tuples",)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    module = importlib.import_module(args.workload)
    os.makedirs(args.workdir, exist_ok=True)
    workload = module.Workload(args.seed, args.workdir, bool(args.trace))
    try:
        workload.setup()
        setup_s = time.time() - args.spawned
        report = {"setup_s": setup_s}
        if not args.setup_only:
            report.update(_measure(workload, args))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _measure(workload, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    rounds = run_rounds(workload.round, args.seconds)
    if tracer is not None:
        tracer.active = False
    workload.finish()
    report = {
        "rounds": len(rounds),
        "attempted": workload.outcome.attempted,
        "failed": workload.outcome.failed,
        "mismatches": workload.outcome.mismatches[:20],
        "errors": workload.outcome.errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "end_to_end": workload.end_to_end(rounds),
        "detail": workload.detail(rounds),
    }
    if tracer is not None:
        report["per_layer"] = _per_layer(tracer, workload, len(rounds))
        out = os.path.join(os.path.dirname(args.workdir.rstrip(os.sep)), "spans")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"{args.workload}-seed{args.seed}.jsonl"))
    return report


def _per_layer(tracer, workload, rounds: int) -> dict[str, float]:
    """Per-layer metrics: self milliseconds and counts per round, plus ratios."""
    self_seconds, calls = tracer.layer_totals()
    counts = dict(tracer.counts)
    counts.update(workload.layer_counts())

    def per_round(value):
        return value / rounds

    layer = {}
    for name in ("lang.parse", "calculus.typecheck", "transform.prepare", "service.prepare",
                 "service.bind", "api.execute", "api.fetch", "relational.pin",
                 "engine.collection", "engine.combination", "engine.shard",
                 "engine.construction", "relational.insert", "relational.delete",
                 "storage.wal_append", "storage.wal_flush", "storage.checkpoint"):
        layer[f"{name}_ms"] = per_round(self_seconds.get(name, 0.0) * 1e3)
    layer["engine.shard_runs"] = per_round(calls.get("engine.shard", 0))
    layer["relational.inserts"] = per_round(calls.get("relational.insert", 0))
    layer["storage.wal_appends"] = per_round(calls.get("storage.wal_append", 0))
    appends = calls.get("storage.wal_append", 0)
    layer["storage.wal_bytes_per_record"] = counts.get("storage.wal_bytes", 0) / appends if appends else 0.0
    layer["storage.recovery_records_per_s"] = 0.0
    loads = calls.get("workloads.ingest_load", 0)
    layer["workloads.ingest_load_ms"] = (
        self_seconds.get("workloads.ingest_load", 0.0) * 1e3 / loads if loads else 0.0
    )
    for name in ("service.plan_cache_hits", "service.plan_cache_misses",
                 "engine.elements_read", "engine.index_probes", "engine.intermediate_tuples",
                 "relational.histogram_rebuilds", "storage.wal_fsyncs",
                 "storage.buffer_hits", "storage.buffer_misses",
                 "workloads.ingest_updated", "workloads.ingest_unchanged"):
        layer[name] = per_round(counts.get(name, 0))
    for name in NOT_PER_ROUND:
        layer[name] = counts.get(name, 0)
    layer.update(workload.layer_ratios())
    return layer


if __name__ == "__main__":
    sys.exit(main())
