"""What the three workloads share: summaries of timings and the run loop."""

from __future__ import annotations

import math
import statistics
import time

#: Tail percentiles tried from the highest down; a tail is reported only when
#: at least :data:`TAIL_BEYOND` samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10
#: With fewer samples than this a tail would be no tail: the median alone.
TAIL_MIN_SAMPLES = 40


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)``: the highest ladder percentile with ten samples beyond."""
    if len(values) < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    for percentile in TAIL_LADDER:
        if len(ordered) * (100.0 - percentile) / 100.0 >= TAIL_BEYOND:
            index = min(int(math.ceil(len(ordered) * percentile / 100.0)) - 1, len(ordered) - 1)
            return percentile, ordered[index]
    return None


class Outcome:
    """Operation counts and check failures of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def check(self, what: str, actual, expected) -> None:
        if actual != expected:
            self.mismatches.append(f"{what}: got {_clip(actual)}, expected {_clip(expected)}")


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 300 else text[:300] + "..."


def run_rounds(one_round, seconds: float) -> list[float]:
    """Run whole rounds until ``seconds`` have passed; return each round's operation time.

    ``one_round`` returns the seconds its operations took, without the
    benchmark's own checking.  A round is a fixed list of operations, so every
    run attempts the same operations in the same proportions whatever its
    length.
    """
    durations = []
    start = time.perf_counter()
    while True:
        durations.append(one_round())
        if time.perf_counter() - start >= seconds:
            return durations


def normalized(row) -> tuple:
    """A fetched record as plain values: char arrays lose their blank padding."""
    return tuple(value.rstrip() if isinstance(value, str) else value for value in row.values)


def count_read(counts, cursor) -> None:
    """Add one drained cursor's engine counters to the per-layer ``counts``."""
    statistics = cursor.statistics
    counts["engine.elements_read"] += sum(
        counters["elements_read"] for counters in statistics["relations"].values()
    )
    counts["engine.index_probes"] += statistics["index_probes"]
    counts["engine.intermediate_tuples"] += statistics["intermediate_tuples"]
    combination = cursor.result.combination  # None for a monadic query
    if combination is not None:
        counts["engine.peak_tuples"] = max(counts["engine.peak_tuples"], combination.peak_tuples)
