"""``analytic``: every library query, text to last row, on a fresh connection.

The six citation-library queries over a bibliography at scale 8 and the
paper's university queries (Example 2.1, Example 4.5 and the named
companions) at scale 16, both with their standard indexes.  Combination and
the default thread-sharded path do most of the work; storage and the plan
cache (cold by design: a fresh connection per query) almost none.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from common import Outcome, count_read, geomean, median, normalized, tail

from reference import bibliography_answers, university_answers
from repro import build_bibliography_database, build_university_database, connect
from repro.workloads import queries as university_queries
from repro.workloads.bibliography import create_standard_indexes
from repro.workloads.bibliography import queries as bibliography_queries

BIBLIOGRAPHY_SCALE = 8
UNIVERSITY_SCALE = 16

#: The university database has no index helper of its own: these index every
#: join column of the Figure 1 queries, plus the year range.
UNIVERSITY_INDEXES = (
    ("employees", "enr", "="),
    ("papers", "penr", "="),
    ("papers", "pyear", "<="),
    ("courses", "cnr", "="),
    ("timetable", "tenr", "="),
    ("timetable", "tcnr", "="),
)

BIBLIOGRAPHY_TEXTS = {
    "coauthor_pairs": bibliography_queries.COAUTHOR_PAIRS_TEXT,
    "co_coauthors": bibliography_queries.CO_COAUTHORS_TEXT,
    "cites_the_prolific": bibliography_queries.CITES_THE_PROLIFIC_TEXT,
    "well_cited_venues": bibliography_queries.WELL_CITED_VENUES_TEXT,
    "self_citers": bibliography_queries.SELF_CITERS_TEXT,
    "cocitation": bibliography_queries.COCITATION_TEXT,
}

UNIVERSITY_TEXTS = {
    "example_2_1": university_queries.EXAMPLE_21_TEXT,
    "example_4_5": university_queries.EXAMPLE_45_TEXT,
    "professors": university_queries.PROFESSORS_TEXT,
    "teaches_low_level": university_queries.TEACHES_LOW_LEVEL_TEXT,
    "no_1977_papers": university_queries.NO_1977_PAPERS_TEXT,
    "seniority": university_queries.SENIORITY_TEXT,
    "others_published_1977": university_queries.OTHERS_PUBLISHED_1977_TEXT,
    "publishing_teachers": university_queries.PUBLISHING_TEACHERS_TEXT,
}


class Workload:
    def __init__(self, seed: int, workdir: str, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.outcome = Outcome()
        self.queries: list[tuple[str, object, str]] = []
        self.answers: dict[str, set] | None = None
        self.total: dict[str, list[float]] = defaultdict(list)
        self.first_row: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()

    def setup(self) -> None:
        bibliography = build_bibliography_database(scale=BIBLIOGRAPHY_SCALE, seed=self.seed)
        create_standard_indexes(bibliography)
        university = build_university_database(scale=UNIVERSITY_SCALE, seed=self.seed)
        for relation, field, operator in UNIVERSITY_INDEXES:
            university.create_index(relation, field, operator=operator)
        self.databases = (bibliography, university)
        self.queries = [(name, bibliography, text) for name, text in BIBLIOGRAPHY_TEXTS.items()]
        self.queries += [(name, university, text) for name, text in UNIVERSITY_TEXTS.items()]

    def round(self) -> float:
        spent = 0.0
        for name, database, text in self.queries:
            self.outcome.attempted += 1
            began = time.perf_counter()
            try:
                connection = connect(database)
                try:
                    cursor = connection.execute(text)
                    first = cursor.fetchone()
                    first_at = time.perf_counter()
                    rest = cursor.fetchall()
                    done = time.perf_counter()
                    if self.traced:
                        self._count(cursor, connection)
                finally:
                    connection.close()
            except Exception as exc:  # a failed query is counted, the run goes on
                self.outcome.failed += 1
                self.outcome.errors.append(f"{name}: raised {exc!r}")
                continue
            spent += done - began
            self.total[name].append(done - began)
            self.first_row[name].append(first_at - began)
            rows = [normalized(row) for row in ([first] if first is not None else []) + rest]
            self._check(name, rows)
        return spent

    def _count(self, cursor, connection) -> None:
        count_read(self.counts, cursor)
        cache = connection.cache_info()
        self.counts["service.plan_cache_hits"] += cache["hits"]
        self.counts["service.plan_cache_misses"] += cache["misses"]

    def _check(self, name: str, rows: list[tuple]) -> None:
        if self.answers is None:  # computed after the first timed query, not in setup
            bibliography, university = self.databases
            self.answers = {**bibliography_answers(bibliography), **university_answers(university)}
        self.outcome.check(f"{name} duplicate rows", len(rows), len(set(rows)))
        self.outcome.check(f"{name} rows", set(rows), self.answers[name])

    def finish(self) -> None:
        pass

    # -- metrics ---------------------------------------------------------------------

    def end_to_end(self, rounds: list[float]) -> dict[str, float]:
        executions = sum(len(times) for times in self.total.values())
        return {
            "ops_per_s": executions / sum(rounds),
            "op_geomean_ms": geomean(median(t) for t in self.total.values()) * 1e3,
        }

    def detail(self, rounds: list[float]) -> dict[str, tuple[float, str]]:
        figures = {
            "round_s": (median(rounds), "s"),
            "query_geomean_ms": (geomean(median(t) for t in self.total.values()) * 1e3, "ms"),
            "first_row_geomean_ms": (
                geomean(median(t) for t in self.first_row.values()) * 1e3, "ms"),
            "queries_per_round": (len(self.queries), "count"),
        }
        every = [value for times in self.total.values() for value in times]
        found = tail(every)
        if found:
            figures[f"query_p{found[0]:g}_ms"] = (found[1] * 1e3, "ms")
        for name, times in self.total.items():
            figures[f"query.{name}_ms"] = (median(times) * 1e3, "ms")
        return figures

    def layer_counts(self) -> Counter:
        return self.counts

    def layer_ratios(self) -> dict[str, float]:
        return {}
