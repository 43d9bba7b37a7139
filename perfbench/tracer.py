"""Span tracing installed from outside the program.

The traced run wraps the public functions of each layer (listed in
:data:`TIMED`) with a timing wrapper defined here; nothing under ``src/`` is
edited.  Every call becomes a span ``(id, name, start, end, parent, thread)``
kept in memory and written out when the run ends.  A layer's self time is its
span time minus the part of that interval its child spans cover.

Shard kernels run on the program's worker threads.  A span that opens on
another thread with nothing open on that thread takes as parent the innermost
span open on the tracing thread at that moment.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict


def _base_relation(args) -> bool:
    """Inserts and deletes count only on catalog relations, not engine temporaries."""
    return getattr(args[0], "_registry", None) is not None


#: (layer span name, module, attribute, filter) for every timed public call.
TIMED = (
    ("lang.parse", "repro.lang.parser", "parse_selection", None),
    ("calculus.typecheck", "repro.calculus.typecheck", "TypeChecker.resolve", None),
    ("calculus.typecheck", "repro.calculus.typecheck", "TypeChecker.check", None),
    ("transform.prepare", "repro.transform.pipeline", "prepare_query", None),
    ("service.prepare", "repro.api.connection", "Connection.prepare", None),
    ("service.prepare", "repro.service.service", "QueryService.prepare", None),
    ("service.bind", "repro.service.binding", "bind_plan", None),
    ("api.execute", "repro.api.cursor", "Cursor.execute", None),
    ("api.fetch", "repro.api.cursor", "Cursor.fetchone", None),
    ("api.fetch", "repro.api.cursor", "Cursor.fetchmany", None),
    ("api.fetch", "repro.api.cursor", "Cursor.fetchall", None),
    ("relational.pin", "repro.relational.database", "Database.pin_snapshot", None),
    ("engine.collection", "repro.engine.collection", "CollectionPhase.run", None),
    ("engine.combination", "repro.engine.combination", "CombinationPhase.run", None),
    ("engine.shard", "repro.engine.shard", "ShardedCombination.run", None),
    ("engine.construction", "repro.engine.construction", "ConstructionPhase.run", None),
    ("engine.construction", "repro.engine.construction", "ConstructionPhase.stream_into", None),
    ("relational.insert", "repro.relational.relation", "Relation.insert", _base_relation),
    ("relational.insert", "repro.storage.storedrelation", "StoredRelation.insert", _base_relation),
    ("relational.delete", "repro.relational.relation", "Relation.delete_key", _base_relation),
    ("relational.delete", "repro.storage.storedrelation", "StoredRelation.delete_key", _base_relation),
    ("storage.wal_append", "repro.storage.wal", "WriteAheadLog.append", None),
    ("storage.wal_flush", "repro.storage.wal", "WriteAheadLog.flush", None),
    ("storage.checkpoint", "repro.relational.database", "Database.checkpoint", None),
    ("workloads.ingest_load", "repro.workloads.bibliography.ingest", "load_dblp_xml", None),
)


class Tracer:
    """Installs the wrappers and records spans while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._local.stack = self._home_stack

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TIMED` call and the counting hooks (for the process's life)."""
        for name, module_name, attribute, only in TIMED:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                setattr(owner, method, self._timed(name, owner.__dict__[method], only))
            else:
                original = getattr(module, attribute)
                wrapper = self._timed(name, original, only)
                # The function also lives on in every module that imported it by name.
                for importer in list(sys.modules.values()):
                    for key, value in list(getattr(importer, "__dict__", {}).items()):
                        if value is original:
                            setattr(importer, key, wrapper)
        self._install_counters()

    def _install_counters(self) -> None:
        from repro.relational.statistics import AccessStatistics
        from repro.storage.buffer import BufferPool
        from repro.storage.wal import WriteAheadLog

        tracer = self

        def counting(original, counter):
            @functools.wraps(original)
            def wrapper(statistics, value=1):
                if tracer.active:
                    tracer.counts[counter] += int(value)
                return original(statistics, value)

            return wrapper

        AccessStatistics.record_histogram_rebuild = counting(
            AccessStatistics.record_histogram_rebuild, "relational.histogram_rebuilds")
        AccessStatistics.record_wal_append = counting(
            AccessStatistics.record_wal_append, "storage.wal_bytes")

        def counted_fetch(fetch):
            @functools.wraps(fetch)
            def wrapper(pool, *args, **kwargs):
                if not tracer.active:
                    return fetch(pool, *args, **kwargs)
                hits = pool.hits
                page = fetch(pool, *args, **kwargs)
                tracer.counts["storage.buffer_hits" if pool.hits > hits else "storage.buffer_misses"] += 1
                return page

            return wrapper

        BufferPool.get_page = counted_fetch(BufferPool.get_page)
        BufferPool.pin = counted_fetch(BufferPool.pin)

        timed_flush = WriteAheadLog.flush

        @functools.wraps(timed_flush)
        def counted_flush(log, fsync=False):
            if tracer.active and fsync:
                tracer.counts["storage.wal_fsyncs"] += 1
            return timed_flush(log, fsync)

        WriteAheadLog.flush = counted_flush

    # -- recording -------------------------------------------------------------------

    def _timed(self, name: str, original, only):
        tracer = self
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active or (only is not None and not only(args)):
                return original(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._home_stack[-1]
                except IndexError:
                    parent = 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return wrapper

    # -- analysis --------------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds per span name, and calls not nested in a call of the same name."""
        by_id = {span[0]: span for span in self.spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _id, _name, start, end, parent, _thread in self.spans:
            if parent:
                children[parent].append((start, end))
        self_seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span_id, name, start, end, parent, _thread in self.spans:
            covered, reached = 0.0, start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, reached), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reached = child_end
            self_seconds[name] += (end - start) - covered
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[1] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                calls[name] += 1
        return dict(self_seconds), calls

    def write(self, path) -> None:
        """Write every span as one JSON line ``[id, name, start, end, parent, thread]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
