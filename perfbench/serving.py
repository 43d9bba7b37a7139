"""``serving``: one closed-loop client on a disk-resident bibliography.

Scale 16, standard indexes, durability ``commit``.  The client runs prepared
parameterized point reads and, after every four reads, one small write
transaction.  A round is 20 reads and 5 writes in a fixed order:

* reads rotate ``coauthors_of`` (Zipf-hot author), ``recent_papers``
  (uniform year), ``coauthors_of``, ``venue_papers`` (Zipf-hot venue);
* writes are four new papers (with authorship links and references to
  generated papers) and one retitle of an existing paper.  Once
  :data:`WINDOW` papers have been added, each new paper retires the oldest
  added one with its links in the same transaction.

Every read is compared with a dict model of the data that the client updates
after each commit returns.  After the timed phase the database is abandoned
without a checkpoint, reopened through crash recovery, and every relation
must equal the model: every acknowledged commit survived.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_right
from collections import Counter, defaultdict, deque

from common import Outcome, count_read, geomean, median, normalized, tail

from repro import DURABILITY_COMMIT, build_bibliography_database, connect
from repro.workloads.bibliography import (
    BIBLIOGRAPHY_RELATIONS,
    create_standard_indexes,
    declare_schema,
)
from repro.workloads.bibliography import queries as bibliography_queries

SCALE = 16
#: Zipf exponents of the read parameters: author and venue popularity.
AUTHOR_ZIPF = 1.0
VENUE_ZIPF = 1.0
READS = ("coauthors_of", "recent_papers", "coauthors_of", "venue_papers")
WRITES_PER_ROUND = 5
#: The last write of every round retitles a paper; the others add one.
RETITLE_EVERY = 5
#: Added papers kept; each add beyond this retires the oldest added paper in
#: the same transaction, so the database keeps its size however long the run.
WINDOW = 40
YEARS = (1960, 2023)


def _cumulative(count: int, exponent: float) -> list[float]:
    total, cum = 0.0, []
    for rank in range(1, count + 1):
        total += 1.0 / rank**exponent
        cum.append(total)
    return cum


def _zipf(rng: random.Random, cum: list[float]) -> int:
    return min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1) + 1


class Workload:
    def __init__(self, seed: int, workdir: str, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.path = os.path.join(workdir, "serving-db")
        self.rng = random.Random(f"{seed}:serving")
        self.outcome = Outcome()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.recovery_s = None

    # -- set-up --------------------------------------------------------------------

    def setup(self) -> None:
        generated = build_bibliography_database(scale=SCALE, seed=self.seed)
        self.connection = connect(self.path, durability=DURABILITY_COMMIT)
        database = self.connection.database
        declare_schema(database)
        create_standard_indexes(database)
        with self.connection.session():
            for name in BIBLIOGRAPHY_RELATIONS:
                target = database.relation(name)
                for record in generated.relation(name):
                    target.insert(record.values)
        self.connection.checkpoint()
        self.prepared = {
            "coauthors_of": self.connection.prepare(bibliography_queries.COAUTHORS_OF_PARAM_TEXT),
            "recent_papers": self.connection.prepare(bibliography_queries.RECENT_PAPERS_PARAM_TEXT),
            "venue_papers": self.connection.prepare(bibliography_queries.VENUE_PAPERS_PARAM_TEXT),
        }
        self._model(generated)
        self.author_cum = _cumulative(len(self.authors), AUTHOR_ZIPF)
        self.venue_cum = _cumulative(len(self.venues), VENUE_ZIPF)
        self.cache_at_start = self.connection.cache_info()

    def _model(self, generated) -> None:
        def rows(name):
            return [normalized(record) for record in generated.relation(name)]

        self.authors = dict(rows("authors"))
        self.venues = {vnr: vname for vnr, vname, _kind in rows("venues")}
        self.venue_kinds = {vnr: kind for vnr, _vname, kind in rows("venues")}
        self.papers = {pnr: [title, year, vnr, key] for pnr, title, year, vnr, key in rows("papers")}
        self.written_by = defaultdict(set)
        self.writes = defaultdict(set)
        for anr, pnr in rows("authorship"):
            self.written_by[pnr].add(anr)
            self.writes[anr].add(pnr)
        self.cited_by = defaultdict(set)
        for csrc, cdst in rows("citations"):
            self.cited_by[csrc].add(cdst)
        self.base_papers = sorted(self.papers)
        self.next_pnr = max(self.papers) + 1
        self.added = deque()
        self.revisions = 0

    # -- the client ------------------------------------------------------------------

    def round(self) -> float:
        spent = 0.0
        for write in range(WRITES_PER_ROUND):
            for kind in READS:
                spent += self._read(kind)
            spent += self._write(retitle=(write + 1) % RETITLE_EVERY == 0)
        return spent

    def _read(self, kind: str) -> float:
        if kind == "coauthors_of":
            parameters = {"anr": _zipf(self.rng, self.author_cum)}
        elif kind == "recent_papers":
            parameters = {"year": self.rng.randint(*YEARS)}
        else:
            parameters = {"venue": self.venues[_zipf(self.rng, self.venue_cum)]}
        self.outcome.attempted += 1
        began = time.perf_counter()
        try:
            cursor = self.connection.execute(self.prepared[kind], parameters)
            rows = cursor.fetchall()
            spent = time.perf_counter() - began
            if self.traced:
                count_read(self.counts, cursor)
            cursor.close()
        except Exception as exc:  # a failed read is counted, the run goes on
            self.outcome.failed += 1
            self.outcome.errors.append(f"{kind}{parameters}: raised {exc!r}")
            return 0.0
        self.samples[kind].append(spent)
        rows = [normalized(row) for row in rows]
        self.outcome.check(f"{kind}{parameters} duplicate rows", len(rows), len(set(rows)))
        self.outcome.check(f"{kind}{parameters}", set(rows), self._answer(kind, parameters))
        return spent

    def _answer(self, kind: str, parameters: dict) -> set:
        if kind == "coauthors_of":
            anr = parameters["anr"]
            return {
                (self.authors[other],)
                for pnr in self.writes[anr]
                for other in self.written_by[pnr]
                if other != anr
            }
        if kind == "recent_papers":
            return {(p[0],) for p in self.papers.values() if p[1] >= parameters["year"]}
        return {(p[0],) for p in self.papers.values() if self.venues[p[2]] == parameters["venue"]}

    def _write(self, retitle: bool) -> float:
        rng = self.rng
        retired = None
        if retitle:
            pnr = rng.choice(sorted(self.papers))
            self.revisions += 1
            title, year, vnr, key = self.papers[pnr]
            row = (pnr, f"Revised {pnr}.{self.revisions}", year, vnr, key)
            links, cites = (), ()
        else:
            pnr = self.next_pnr
            row = (pnr, f"On Serving {pnr}", rng.randint(2015, 2023),
                   _zipf(rng, self.venue_cum), f"serving/{self.seed}/{pnr}")
            links = sorted(rng.sample(range(1, len(self.authors) + 1), rng.randint(1, 3)))
            cites = sorted(rng.sample(self.base_papers, rng.randint(2, 4)))
            if len(self.added) >= WINDOW:
                retired = self.added[0]
        self.outcome.attempted += 1
        database = self.connection.database
        papers = database.relation("papers")
        authorship = database.relation("authorship")
        citations = database.relation("citations")
        began = time.perf_counter()
        try:
            with self.connection.session():
                if retitle:
                    papers.delete_key((pnr,))
                papers.insert(row)
                for anr in links:
                    authorship.insert((anr, pnr))
                for cdst in cites:
                    citations.insert((pnr, cdst))
                if retired is not None:
                    for anr in sorted(self.written_by[retired]):
                        authorship.delete_key((anr, retired))
                    for cdst in sorted(self.cited_by[retired]):
                        citations.delete_key((retired, cdst))
                    papers.delete_key((retired,))
        except Exception as exc:  # a failed commit is counted; the model keeps the old state
            self.outcome.failed += 1
            self.outcome.errors.append(f"write {row}: raised {exc!r}")
            return 0.0
        spent = time.perf_counter() - began
        self.samples["commit"].append(spent)
        # Acknowledged: the model follows.
        self.papers[pnr] = list(row[1:])
        for anr in links:
            self.written_by[pnr].add(anr)
            self.writes[anr].add(pnr)
        self.cited_by[pnr].update(cites)
        if not retitle:
            self.next_pnr += 1
            self.added.append(pnr)
        if retired is not None:
            self.added.popleft()
            del self.papers[retired]
            for anr in self.written_by.pop(retired):
                self.writes[anr].discard(retired)
            self.cited_by.pop(retired)
        return spent

    # -- crash and recovery ----------------------------------------------------------

    def finish(self) -> None:
        cache = self.connection.cache_info()
        self.counts["service.plan_cache_hits"] += cache["hits"] - self.cache_at_start["hits"]
        self.counts["service.plan_cache_misses"] += cache["misses"] - self.cache_at_start["misses"]
        # Abandoned: no close, no checkpoint.  Only the WAL holds the commits.
        self.connection = None
        began = time.perf_counter()
        reopened = connect(self.path, durability=DURABILITY_COMMIT)
        self.recovery_s = time.perf_counter() - began
        self.recovery_records = reopened.recovery_report.records_scanned
        try:
            self._check_state(reopened.database)
        finally:
            reopened.close()

    def _check_state(self, database) -> None:
        def stored(name):
            return {normalized(record) for record in database.relation(name)}

        check = self.outcome.check
        check("recovered authors", stored("authors"), set(self.authors.items()))
        check("recovered venues", stored("venues"),
              {(vnr, name, self.venue_kinds[vnr]) for vnr, name in self.venues.items()})
        check("recovered papers", stored("papers"),
              {(pnr, *fields) for pnr, fields in self.papers.items()})
        check("recovered authorship", stored("authorship"),
              {(anr, pnr) for pnr, team in self.written_by.items() for anr in team})
        check("recovered citations", stored("citations"),
              {(csrc, cdst) for csrc, targets in self.cited_by.items() for cdst in targets})

    # -- metrics ---------------------------------------------------------------------

    def _reads(self) -> list[float]:
        return [value for kind in set(READS) for value in self.samples[kind]]

    def end_to_end(self, rounds: list[float]) -> dict[str, float]:
        operations = sum(len(values) for values in self.samples.values())
        return {
            "ops_per_s": operations / sum(rounds),
            "op_geomean_ms": geomean(median(v) for v in self.samples.values()) * 1e3,
        }

    def detail(self, rounds: list[float]) -> dict[str, tuple[float, str]]:
        reads, commits = self._reads(), self.samples["commit"]
        figures = {
            "round_s": (median(rounds), "s"),
            "ops_per_s": (self.end_to_end(rounds)["ops_per_s"], "1/s"),
            "read_p50_ms": (median(reads) * 1e3, "ms"),
            "commit_p50_ms": (median(commits) * 1e3, "ms"),
            "reads": (len(reads), "count"),
            "commits": (len(commits), "count"),
            "recovery_s": (self.recovery_s, "s"),
        }
        for name, values in (("read", reads), ("commit", commits)):
            found = tail(values)
            if found:
                figures[f"{name}_tail_ms"] = (found[1] * 1e3, "ms")
                figures[f"{name}_tail_percentile"] = (found[0], "%")
        for kind in sorted(set(READS)):
            figures[f"read.{kind}_p50_ms"] = (median(self.samples[kind]) * 1e3, "ms")
        return figures

    def layer_counts(self) -> Counter:
        return self.counts

    def layer_ratios(self) -> dict[str, float]:
        return {"storage.recovery_records_per_s": self.recovery_records / self.recovery_s}
