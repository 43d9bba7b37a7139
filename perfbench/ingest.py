"""``ingest``: DBLP XML deliveries into a durable database, crash, recovery.

Set-up renders the feed (:mod:`feed`) from a generated bibliography of 4488
papers: 5.6k records with the re-deliveries.  A round is one whole cycle: a
fresh disk-resident database with durability ``commit`` and the standard
indexes, the base delivery and four deltas through ``load_dblp_xml``,
abandonment without a checkpoint, a reopen through crash recovery, and a
checkpoint.  Each delivery's report counts must equal those the feed
implies, and its references the last-write-wins ones; the other relations
must equal the last-write-wins state before the crash, and everything must
equal the state before the crash after recovery.

A delta whose stored references keep an edge that its re-delivered record
dropped is counted in ``failed``: ``load_dblp_xml`` adds the new edges of a
re-delivered key but never removes its old ones.  Every delta re-delivers
the fixed record ``probe/b`` with a moved reference (:data:`feed.PROBE_BASE`),
so the four deltas fail on every cycle whatever the seed.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter, defaultdict

from common import Outcome, geomean, median
from feed import Model, deliveries, records_from, render, stored_citations, stored_relations

from repro import (
    DURABILITY_COMMIT,
    build_bibliography_database,
    connect,
    load_dblp_xml,
)
from repro.workloads.bibliography import create_standard_indexes, declare_schema

#: 204 x 22 = 4488 papers; with re-deliveries the feed holds about 5.6k records.
SCALE = 204

class Workload:
    def __init__(self, seed: int, workdir: str, traced: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.disk_bytes: list[int] = []
        self.records = 0
        self.load_seconds = 0.0
        self.replay = [0, 0.0]  # records scanned, reopen seconds
        self.cycles = 0

    def setup(self) -> None:
        generated = build_bibliography_database(scale=SCALE, seed=self.seed, paged=False)
        self.deliveries = deliveries(records_from(generated), self.seed)
        self.documents = [render(delivery) for delivery in self.deliveries]
        model = Model()
        self.expected_reports = []
        self.expected_citations = []
        for delivery in self.deliveries:
            self.expected_reports.append(model.apply(delivery))
            self.expected_citations.append(model.citations())
        self.expected = model.relations()
        del self.expected["citations"]  # checked after each delivery

    def round(self) -> float:
        self.cycles += 1
        path = os.path.join(self.workdir, f"cycle-{self.cycles}")
        spent = 0.0
        try:
            began = time.perf_counter()
            connection = connect(path, durability=DURABILITY_COMMIT)
            declare_schema(connection.database)
            create_standard_indexes(connection.database)
            spent += time.perf_counter() - began
            for number, document in enumerate(self.documents):
                spent += self._load(number, document, connection)
            before = stored_relations(connection.database)
            # Abandoned: no close, no checkpoint.  Only the WAL holds the loads.
            connection = None
            spent += self._timed("recovery", lambda: connect(path, durability=DURABILITY_COMMIT))
            reopened = self.result
            self.replay[0] += reopened.recovery_report.records_scanned
            self.replay[1] += self.samples["recovery"][-1]
            self.outcome.check("state after recovery", stored_relations(reopened.database), before)
            self.outcome.check("state against the feed",
                               {name: rows for name, rows in before.items() if name != "citations"},
                               self.expected)
            spent += self._timed("checkpoint", reopened.checkpoint)
            self.disk_bytes.append(sum(
                os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)))
            reopened.close()
        except Exception as exc:  # the failed operation is counted, the cycle ends
            self.outcome.failed += 1
            self.outcome.errors.append(f"cycle {self.cycles}: raised {exc!r}")
        finally:
            shutil.rmtree(path, ignore_errors=True)
        return spent

    def _timed(self, kind: str, call) -> float:
        self.outcome.attempted += 1
        began = time.perf_counter()
        self.result = call()
        spent = time.perf_counter() - began
        self.samples[kind].append(spent)
        return spent

    def _load(self, number: int, document: str, connection) -> float:
        kind = "base_load" if number == 0 else "delta_load"
        spent = self._timed(kind, lambda: load_dblp_xml(document, connection))
        report = self.result
        expected = self.expected_reports[number]
        for field, value in expected.items():
            self.outcome.check(f"delivery {number} {field}", getattr(report, field), value)
        self.outcome.check(f"delivery {number} unresolved citations", report.unresolved_citations, 0)
        edges = stored_citations(connection.database)
        expected = self.expected_citations[number]
        self.outcome.check(f"delivery {number} missing citations", expected - edges, set())
        kept = edges - expected
        if kept:
            self.outcome.failed += 1
            self.outcome.errors.append(
                f"delivery {number}: {len(kept)} replaced references kept, e.g. {sorted(kept)[:3]}")
        self.records += report.records
        self.load_seconds += spent
        self.counts["workloads.ingest_updated"] += report.updated
        self.counts["workloads.ingest_unchanged"] += report.unchanged
        return spent

    def finish(self) -> None:
        pass

    # -- metrics ---------------------------------------------------------------------

    def end_to_end(self, rounds: list[float]) -> dict[str, float]:
        return {
            "ops_per_s": self.records / self.load_seconds,
            "op_geomean_ms": geomean(median(v) for v in self.samples.values()) * 1e3,
        }

    def detail(self, rounds: list[float]) -> dict[str, tuple[float, str]]:
        return {
            "round_s": (median(rounds), "s"),
            "ingest_records_per_s": (self.records / self.load_seconds, "1/s"),
            "recovery_s": (median(self.samples["recovery"]), "s"),
            "disk_mb": (median(self.disk_bytes) / 2**20, "MB"),
            "checkpoint_s": (median(self.samples["checkpoint"]), "s"),
            "feed_records": (sum(len(d) for d in self.deliveries), "count"),
            "cycles": (len(rounds), "count"),
        }

    def layer_counts(self) -> Counter:
        return self.counts

    def layer_ratios(self) -> dict[str, float]:
        scanned, seconds = self.replay
        return {"storage.recovery_records_per_s": scanned / seconds}
