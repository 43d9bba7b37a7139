"""A DBLP-style XML feed rendered from the generator, and the state it implies.

The feed is a base delivery and several delta deliveries.  Each delta brings
new records and re-delivers a share of earlier ones under their old keys:
half unchanged, half changed (a corrected title, for every other one an
altered author list, and for each one with references a dropped first
reference).  The fixed records of :data:`PROBE_BASE` ride in the base
delivery, and every delta re-delivers ``probe/b`` with its single reference
moved, so every delta replaces a reference whatever the seed.  Names carry
the generator's non-ASCII characters, written as character entities in every
other record and as UTF-8 in the rest; the journal name of one venue is a
DOCTYPE-declared entity.

:class:`Model` replays the deliveries last-write-wins, references included,
and is the benchmark's answer for the ingested relations and for each
delivery's report counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from xml.sax.saxutils import escape

from repro.workloads.bibliography import DBLP_ENTITIES

#: Share of the papers in the base delivery; the rest arrive in the deltas.
BASE_SHARE = 0.6
DELTAS = 4
#: Re-delivered records per delta, as a share of all papers (0.25 in total,
#: so one record in five of the feed re-delivers a known key).
REDELIVERED_SHARE = 0.0625

_ENTITY_OF = {}
for _name, _char in DBLP_ENTITIES.items():
    _ENTITY_OF.setdefault(_char, _name)

#: A venue whose journal field is written as a DOCTYPE-declared entity.
DECLARED_VENUE = ("pvldb", "Proc. VLDB Endow.")


@dataclass(frozen=True)
class Record:
    key: str
    kind: str  # "article" or "inproceedings"
    title: str
    year: int
    venue: str
    authors: tuple[str, ...]
    cites: tuple[str, ...]


def _probe(name: str, cites: tuple[str, ...] = ()) -> Record:
    return Record(f"probe/{name}", "article", f"Probe {name}", 2000, "Probe Journal",
                  (f"Probe Author {name}",), cites)


#: Seed-independent records: ``probe/b`` cites ``probe/a`` at first.
PROBE_BASE = (_probe("a"), _probe("b", ("probe/a",)), _probe("c"))


def _probe_redelivery(delta: int) -> Record:
    """``probe/b`` retitled, its reference moved to the other probe paper."""
    target = "probe/c" if delta % 2 else "probe/a"
    return replace(PROBE_BASE[1], title=f"Probe b corrected in delta {delta}", cites=(target,))


def records_from(database) -> list[Record]:
    """One record per generated paper, in paper-number order."""
    authors = {r["anr"]: f"{r['aname'].rstrip()} {r['anr']:04d}" for r in database.relation("authors")}
    venues = {r["vnr"]: (r["vname"].rstrip(), r["vkind"].label) for r in database.relation("venues")}
    team: dict[int, list[int]] = {}
    for link in database.relation("authorship"):
        team.setdefault(link["wpnr"], []).append(link["wanr"])
    cites: dict[int, list[int]] = {}
    for edge in database.relation("citations"):
        cites.setdefault(edge["csrc"], []).append(edge["cdst"])
    papers = sorted(database.relation("papers"), key=lambda r: r["pnr"])
    keys = {}
    for paper in papers:
        name, kind = venues[paper["pvnr"]]
        prefix = "journals" if kind == "journal" else "conf"
        keys[paper["pnr"]] = f"{prefix}/v{paper['pvnr']}/p{paper['pnr']}"
    return [
        Record(
            key=keys[paper["pnr"]],
            kind="article" if venues[paper["pvnr"]][1] == "journal" else "inproceedings",
            title=paper["ptitle"].rstrip(),
            year=paper["pyear"],
            venue=venues[paper["pvnr"]][0],
            authors=tuple(authors[anr] for anr in sorted(team.get(paper["pnr"], ()))),
            cites=tuple(keys[dst] for dst in sorted(cites.get(paper["pnr"], ()))),
        )
        for paper in papers
    ]


def deliveries(records: list[Record], seed: int) -> list[list[Record]]:
    """Split ``records`` into a base delivery and :data:`DELTAS` deltas."""
    rng = random.Random(f"{seed}:ingest-feed")
    base = int(len(records) * BASE_SHARE)
    per_delta = (len(records) - base + DELTAS - 1) // DELTAS
    redelivered = int(len(records) * REDELIVERED_SHARE)
    latest = {record.key: record for record in records[:base]}
    out = [records[:base] + list(PROBE_BASE)]
    for delta in range(DELTAS):
        fresh = records[base + delta * per_delta: base + (delta + 1) * per_delta]
        again = []
        for position, key in enumerate(rng.sample(sorted(latest), redelivered)):
            record = latest[key]
            if position % 2:
                record = replace(record, title=f"{record.key.split('/')[-1]} corrected in delta {delta + 1}")
                if position % 4 == 3:
                    authors = record.authors[:-1] if len(record.authors) > 1 else (
                        record.authors + records[0].authors[:1])
                    record = replace(record, authors=authors)
                if record.cites:
                    record = replace(record, cites=record.cites[1:])
            again.append(record)
            latest[key] = record
        delivery = fresh + again + [_probe_redelivery(delta + 1)]
        rng.shuffle(delivery)
        latest.update((record.key, record) for record in fresh)
        out.append(delivery)
    return out


def _text(value: str, entities: bool) -> str:
    value = escape(value)
    if entities:
        value = "".join(f"&{_ENTITY_OF[c]};" if c in _ENTITY_OF else c for c in value)
    return value


def render(delivery: list[Record]) -> str:
    """The delivery as a DBLP XML document with a DOCTYPE entity declaration."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<!DOCTYPE dblp [\n<!ENTITY {DECLARED_VENUE[0]} "{DECLARED_VENUE[1]}">\n]>',
        "<dblp>",
    ]
    for number, record in enumerate(delivery):
        entities = number % 2 == 0
        venue_tag = "journal" if record.kind == "article" else "booktitle"
        venue = (f"&{DECLARED_VENUE[0]};" if record.venue == DECLARED_VENUE[1]
                 else _text(record.venue, entities))
        parts = [f'<{record.kind} key="{record.key}">']
        parts += [f"<author>{_text(name, entities)}</author>" for name in record.authors]
        parts += [
            f"<title>{_text(record.title, entities)}</title>",
            f"<year>{record.year}</year>",
            f"<{venue_tag}>{venue}</{venue_tag}>",
        ]
        parts += [f"<cite>{key}</cite>" for key in record.cites]
        parts.append(f"</{record.kind}>")
        lines.append("".join(parts))
    lines.append("</dblp>")
    return "\n".join(lines)


class Model:
    """Last-write-wins replay of the deliveries, in the names the feed uses."""

    def __init__(self) -> None:
        self.papers: dict[str, tuple] = {}  # key -> (title, year, venue)
        self.teams: dict[str, frozenset] = {}
        self.authors: set[str] = set()
        self.venues: dict[str, str] = {}  # name -> kind at first sighting
        self.cites: dict[str, frozenset] = {}  # key -> cited keys of its last delivery

    def apply(self, delivery: list[Record]) -> dict[str, int]:
        """Replay one delivery; return the report counts it implies."""
        counts = {"records": len(delivery), "inserted": 0, "updated": 0, "unchanged": 0}
        for record in delivery:
            self.venues.setdefault(record.venue, "journal" if record.kind == "article" else "conference")
            self.authors.update(record.authors)
            fields = (record.title, record.year, record.venue)
            team = frozenset(record.authors)
            if record.key not in self.papers:
                counts["inserted"] += 1
            elif self.papers[record.key] == fields and self.teams[record.key] == team:
                counts["unchanged"] += 1
            else:
                counts["updated"] += 1
            self.papers[record.key] = fields
            self.teams[record.key] = team
        for record in delivery:
            self.cites[record.key] = frozenset(t for t in record.cites if t in self.papers)
        return counts

    def citations(self) -> set[tuple[str, str]]:
        return {(key, target) for key, targets in self.cites.items() for target in targets}

    def relations(self) -> dict[str, set]:
        return {
            "authors": set(self.authors),
            "venues": set(self.venues.items()),
            "papers": {(key, *fields) for key, fields in self.papers.items()},
            "authorship": {(name, key) for key, team in self.teams.items() for name in team},
            "citations": self.citations(),
        }


def _paper_keys(database) -> dict[int, str]:
    return {r["pnr"]: r["pkey"].rstrip() for r in database.relation("papers")}


def stored_citations(database) -> set[tuple[str, str]]:
    keys = _paper_keys(database)
    return {(keys[r["csrc"]], keys[r["cdst"]]) for r in database.relation("citations")}


def stored_relations(database) -> dict[str, set]:
    """The database's bibliographic relations in the feed's names (keys, not numbers)."""
    names = {r["anr"]: r["aname"].rstrip() for r in database.relation("authors")}
    venues = {r["vnr"]: (r["vname"].rstrip(), r["vkind"].label) for r in database.relation("venues")}
    keys = _paper_keys(database)
    return {
        "authors": set(names.values()),
        "venues": set(venues.values()),
        "papers": {
            (keys[r["pnr"]], r["ptitle"].rstrip(), r["pyear"], venues[r["pvnr"]][0])
            for r in database.relation("papers")
        },
        "authorship": {(names[r["wanr"]], keys[r["wpnr"]]) for r in database.relation("authorship")},
        "citations": stored_citations(database),
    }
