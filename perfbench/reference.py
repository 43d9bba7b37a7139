"""Plain-Python answers to the analytic queries, from the relation contents.

Each function reads the generated relations as lists of dicts and evaluates
one query's calculus formula directly (no engine code), returning the set of
result rows with blank padding stripped.
"""

from __future__ import annotations

from collections import defaultdict


def contents(database, name: str) -> list[dict]:
    relation = database.relation(name)
    fields = [field.name for field in relation.schema]
    return [
        {
            field: value.rstrip() if isinstance(value, str) else value
            for field, value in zip(fields, record.values)
        }
        for record in relation
    ]


# ----------------------------------------------------------------- bibliography


def bibliography_answers(database) -> dict[str, set]:
    authors = {row["anr"]: row["aname"] for row in contents(database, "authors")}
    venues = contents(database, "venues")
    papers = contents(database, "papers")
    authorship = contents(database, "authorship")
    citations = contents(database, "citations")

    written_by = defaultdict(set)  # paper -> authors
    writes = defaultdict(set)  # author -> papers
    for link in authorship:
        written_by[link["wpnr"]].add(link["wanr"])
        writes[link["wanr"]].add(link["wpnr"])
    cited = {edge["cdst"] for edge in citations}

    coauthor_pairs = {
        (authors[a], authors[b])
        for team in written_by.values()
        for a in team
        for b in team
        if a < b
    }

    coauthors_of_1 = {x for pnr in writes[1] for x in written_by[pnr]}
    co_coauthors = {
        authors[c]
        for x in coauthors_of_1
        for pnr in writes[x]
        for c in written_by[pnr]
        if c != 1
    }

    papers_of_1 = writes[1]
    cites_the_prolific = {
        authors[a]
        for edge in citations
        if edge["cdst"] in papers_of_1
        for a in written_by[edge["csrc"]]
        if a != 1
    }

    well_cited_venues = {
        venue["vname"]
        for venue in venues
        if all(p["pnr"] in cited for p in papers if p["pvnr"] == venue["vnr"])
    }

    self_citers = {
        authors[a]
        for edge in citations
        for a in written_by[edge["csrc"]] & written_by[edge["cdst"]]
    }

    year = {p["pnr"]: p["pyear"] for p in papers}
    title = {p["pnr"]: p["ptitle"] for p in papers}
    citers_of = defaultdict(set)  # cited paper -> citing papers
    for edge in citations:
        citers_of[edge["cdst"]].add(edge["csrc"])
    cocitation = {
        title[edge["csrc"]]
        for edge in citations
        if any(
            b != edge["csrc"] and year[b] >= 2018 for b in citers_of[edge["cdst"]]
        )
    }

    return {
        "coauthor_pairs": coauthor_pairs,
        "co_coauthors": {(name,) for name in co_coauthors},
        "cites_the_prolific": {(name,) for name in cites_the_prolific},
        "well_cited_venues": {(name,) for name in well_cited_venues},
        "self_citers": {(name,) for name in self_citers},
        "cocitation": {(name,) for name in cocitation},
    }


# ------------------------------------------------------------------- university


def university_answers(database) -> dict[str, set]:
    employees = contents(database, "employees")
    papers = contents(database, "papers")
    courses = contents(database, "courses")
    timetable = contents(database, "timetable")

    def professor(e):
        return e["estatus"] == "professor"

    low = {c["cnr"] for c in courses if c["clevel"].ordinal <= 1}  # <= sophomore
    teaches_low = {t["tenr"] for t in timetable if t["tcnr"] in low}
    papers_1977 = [p for p in papers if p["pyear"] == 1977]
    authors_1977 = {p["penr"] for p in papers_1977}
    authors = {p["penr"] for p in papers}
    teaches = {t["tenr"] for t in timetable}

    def no_1977(e):
        return e["enr"] not in authors_1977

    def example_45(e):
        # ALL p IN papers(1977) SOME c IN low courses SOME t IN timetable
        #   ((p.penr <> e.enr) OR (t.tenr = e.enr AND t.tcnr = c.cnr))
        if e["enr"] in teaches_low:
            return True
        return all(p["penr"] != e["enr"] and low and timetable for p in papers_1977)

    return {
        "example_2_1": {
            (e["ename"],) for e in employees
            if professor(e) and (no_1977(e) or e["enr"] in teaches_low)
        },
        "example_4_5": {(e["ename"],) for e in employees if professor(e) and example_45(e)},
        "professors": {(e["enr"], e["ename"]) for e in employees if professor(e)},
        "teaches_low_level": {(e["ename"],) for e in employees if e["enr"] in teaches_low},
        "no_1977_papers": {(e["ename"],) for e in employees if no_1977(e)},
        "seniority": {
            (e["ename"],) for e in employees
            if all(e["enr"] < p["penr"] for p in papers_1977)
        },
        "others_published_1977": {
            (e["ename"],) for e in employees
            if professor(e) and e["enr"] in teaches and authors_1977 - {e["enr"]}
        },
        "publishing_teachers": {
            (e["ename"],) for e in employees
            if e["enr"] in authors and e["enr"] in teaches_low
        },
    }
