"""The full verification suite behind the `verify` command.

Runs exact checks on the shipped fixture documents (including any frozen
expectations they carry) and seeded random sweeps of the dimension
identities, the face correspondence, the degeneration equalities and the
set-theoretic independence properties.  Every reported number is exact;
a failed check is reported with both sides and never corrected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from . import fixtures
from .degeneration import check_degeneration
from .graphs import (
    GraphDocumentError,
    LevelStructure,
    bits,
    load_level_graph,
    ordered_partitions,
)
from .linalg import rank, set_theoretic_checks
from .polytopes import (
    FACE_SWEEP_BOUND,
    POLYTOPE_BOUND,
    base_polytope,
    check_polytope_faces,
    residue_projection_table,
)
from .randomized import (
    random_coarsening,
    random_level_structure,
    random_multigraph,
    random_sti_collection,
)
from .residues import (
    LevelGraph,
    LevelSummary,
    _component_identity,
    _identity_verdicts,
    _level_entries,
    _relation_failures,
    _summed_dims,
    flag_identities,
)

__all__ = ["VerifyConfig", "full_verification", "verify_document"]

# the "config" block of a report, in its order
_CONFIG_KEYS = (
    "seed",
    "flag_cases",
    "face_cases",
    "degeneration_cases",
    "collection_cases",
    "max_vertices",
    "max_edges",
    "include_random",
)


@dataclass(frozen=True)
class VerifyConfig:
    """The settings of a verification run.  Every suite size derives from
    `cases`: `cases` random graphs for the identity sweep, an eighth of that
    for faces, a quarter for degenerations, five times as many independence
    pairs.  Random graphs have at most `max_vertices` vertices and
    `max_edges` edges, constants rather than fields."""

    seed: int = 0
    cases: int = 200
    include_random: bool = True
    max_vertices = 5
    max_edges = 8

    @property
    def flag_cases(self):
        return self.cases

    @property
    def face_cases(self):
        return max(1, self.cases // 8)

    @property
    def degeneration_cases(self):
        return max(1, self.cases // 4)

    @property
    def collection_cases(self):
        return 5 * self.cases

    def as_dict(self):
        return {key: getattr(self, key) for key in _CONFIG_KEYS}


_EXPECT_INTS = ("genus", "components", "polytope_vertex_count")
_EXPECT_INT_LISTS = {"flag_dims": 4, "summits": 2}
_EXPECT_KEYS = {*_EXPECT_INTS, *_EXPECT_INT_LISTS, "levels", "global_conditions"}
# the per-level fields of a component report, as LevelSummary.as_dict() names them
_LEVEL_FIELDS = frozenset(LevelSummary(*[0] * len(fields(LevelSummary))).as_dict()) - {"level"}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value):
    return isinstance(value, str)


def _is_list_of(value, check, length=None):
    return (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(map(check, value))
    )


def _check_expect(expect, graph, levels):
    """Reject an ``expect`` block with an unknown key, a JSON type that
    :func:`_expect_failures` cannot compare, a polytope vertex count for a
    graph over the polytope bound, a level outside 1..r of `levels`, an
    empty component, a component name that is not a vertex of `graph` or an
    arrow name that is not an arrow label of `graph`, so that a malformed
    block is an input error, never a failed check and never a silent pass."""
    if not isinstance(expect, dict):
        raise GraphDocumentError("expect must be an object")
    unknown = sorted(set(expect) - _EXPECT_KEYS)
    if unknown:
        raise GraphDocumentError(f"unknown expect key {unknown[0]!r}")
    for key in _EXPECT_INTS:
        if key in expect and not _is_int(expect[key]):
            raise GraphDocumentError(f"expect {key} must be an integer")
    if "polytope_vertex_count" in expect and len(graph.vertices) > POLYTOPE_BOUND:
        raise GraphDocumentError(
            f"expect polytope_vertex_count: {len(graph.vertices)} vertices exceed "
            f"the polytope bound {POLYTOPE_BOUND}"
        )
    for key, length in _EXPECT_INT_LISTS.items():
        if key in expect and not _is_list_of(expect[key], _is_int, length):
            raise GraphDocumentError(f"expect {key} must be a list of {length} integers")
    by_level = expect.get("levels", {})
    if not isinstance(by_level, dict):
        raise GraphDocumentError("expect levels must be an object")
    for level, want in by_level.items():
        if not (level.isascii() and level.isdecimal()):
            raise GraphDocumentError(f"expect level {level!r} is not a decimal number")
        if not 1 <= int(level) <= levels.r:
            raise GraphDocumentError(f"expect level {level} out of range 1..{levels.r}")
        if not (
            isinstance(want, dict)
            and set(want) <= _LEVEL_FIELDS
            and all(map(_is_int, want.values()))
        ):
            raise GraphDocumentError(
                f"expect level {level} must map some of {sorted(_LEVEL_FIELDS)} to integers"
            )
    conditions = expect.get("global_conditions", [])
    if not isinstance(conditions, list):
        raise GraphDocumentError("expect global_conditions must be a list")
    arrow_labels = {arrow.label for arrow in graph.arrows}
    for item in conditions:
        if not (
            isinstance(item, dict)
            and set(item) == {"level", "component", "arrows"}
            and _is_int(item["level"])
            and _is_list_of(item["component"], _is_str)
            and _is_list_of(item["arrows"], _is_str)
        ):
            raise GraphDocumentError(
                "each expect global condition must hold exactly an integer level "
                "and string lists component and arrows"
            )
        if not 1 <= item["level"] <= levels.r:
            raise GraphDocumentError(
                f"expect global condition level {item['level']} out of range 1..{levels.r}"
            )
        if not item["component"]:
            raise GraphDocumentError("empty component in expect global condition")
        for v in item["component"]:
            if v not in graph.index:
                raise GraphDocumentError(f"unknown vertex {v!r} in expect global condition")
        for label in item["arrows"]:
            if label not in arrow_labels:
                raise GraphDocumentError(f"unknown arrow {label!r} in expect global condition")


def _expect_failures(model, flag, report, expect, reference=None):
    """Compare computed values against a fixture's frozen expectations.

    ``reference`` is the one-level polytope when the face sweep built it;
    otherwise it is built here if a vertex count is expected.
    """
    graph = model.graph
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: computed {got}, fixture expects {want}")

    if "genus" in expect:
        check("genus", flag.counts.genus, expect["genus"])
    if "components" in expect:
        check("components", flag.counts.components, expect["components"])
    if "flag_dims" in expect:
        check("flag dims", list(flag.dims), list(expect["flag_dims"]))
    if "summits" in expect:
        got = [flag.counts.summits_irreducible, flag.counts.summits_reducible]
        check("summit counts", got, list(expect["summits"]))
    if "levels" in expect:
        by_level = {s.level: s for s in report.levels}
        for key in sorted(expect["levels"], key=int):
            want = expect["levels"][key]
            got = by_level[int(key)].as_dict()
            for field_name, want_value in want.items():
                check(f"level {key} {field_name}", got.get(field_name), want_value)
    if "global_conditions" in expect:
        rows = dict(model.global_rows())
        for item in expect["global_conditions"]:
            owner = (item["level"], graph.mask_of(item["component"]))
            label = model.label("global", owner)
            row = rows.get(owner)
            if row is None:
                failures.append(f"global condition {label}: row not generated")
                continue
            got = sorted(graph.arrows[i].label for i in bits(row))
            check(f"global condition {label}", got, sorted(item["arrows"]))
    if "polytope_vertex_count" in expect:
        if reference is None:
            trivial = LevelStructure.trivial(graph.vertices)
            reference = base_polytope(residue_projection_table(graph, trivial))
        check(
            "one-level polytope vertex count",
            len(reference.vertices),
            expect["polytope_vertex_count"],
        )
    return failures


def _component_set_identity_failures(verdicts):
    """The below-level component identity, given each level's verdict top
    to bottom (:func:`~resipoly.residues._component_identity`): one failure
    per level where the non-special components of the strictly-below
    subgraph are not exactly its components that survive one level up."""
    return [f"level {n}: component identity fails" for n, ok in enumerate(verdicts, 1) if not ok]


def _fixture_degenerations(graph, levels):
    """Deterministic coarsening pairs exercised on each fixture."""
    pairs = [(levels, levels)]
    trivial = LevelStructure.trivial(graph.vertices)
    if not levels.is_trivial:
        pairs.append((levels, trivial))
        if levels.r > 2:
            # levels 1 and 2 merged
            merged = LevelStructure(graph.vertices, [n - (n > 1) for n in levels.levels])
            pairs.append((levels, merged))
    elif len(graph.vertices) >= 2:
        # the first vertex above the rest
        split = LevelStructure(graph.vertices, [1] + [2] * (len(graph.vertices) - 1))
        pairs.append((split, trivial))
    return pairs


def verify_document(name, document):
    """All applicable checks for one graph document; returns a JSON-ready dict."""
    graph, levels = load_level_graph(document)
    expect = document.get("expect", {})
    _check_expect(expect, graph, levels)

    model = LevelGraph(graph, levels)
    flag = model.flag()
    identities = flag.identities()
    inclusions = flag.inclusions()
    report = model.component_report(flag.dims)
    relation_failures = model.relation_failures()
    identity_failures = _component_set_identity_failures(
        [_component_identity(pair) for pair in model.pairs]
    )
    faces = None
    if len(graph.vertices) <= FACE_SWEEP_BOUND:
        faces = check_polytope_faces(graph)
    expect_failures = _expect_failures(
        model, flag, report, expect, faces.reference if faces else None
    )

    section = {
        "name": name,
        "counts": flag.counts.as_dict(),
        "dims": list(flag.dims),
        "identities": [c.as_dict() for c in identities],
        "inclusions": [{"name": n, "ok": ok} for n, ok in inclusions],
        "component_totals_ok": report.totals_consistent,
        "levels": [s.as_dict() for s in report.levels],
        "relation_failures": relation_failures,
        "component_identity_failures": identity_failures,
        "expect_failures": expect_failures,
    }

    if faces is not None:
        section["faces"] = {
            "orientation": faces.orientation,
            "partitions": faces.partitions_checked,
            "distinct_faces": faces.distinct_faces,
            "ok": faces.ok,
            "failures": list(faces.failures),
        }
    else:
        section["faces"] = None

    results = [
        check_degeneration(graph, fine, coarse)
        for fine, coarse in _fixture_degenerations(graph, levels)
    ]
    section["degenerations"] = [
        {
            "fine": [list(p) for p in result.fine_parts],
            "coarse": [list(p) for p in result.coarse_parts],
            "residue_dim": result.residue_dim,
            "limit_ok": result.limit_matches,
            "realization_ok": result.realization_matches,
            "splitting_ok": result.splitting_matches,
            "oracle_ok": result.oracle_matches,
        }
        for result in results
    ]

    ok = (
        all(c.ok for c in identities)
        and all(x for _, x in inclusions)
        and report.totals_consistent
        and not relation_failures
        and not identity_failures
        and not expect_failures
        and (section["faces"] is None or section["faces"]["ok"])
        and all(result.ok for result in results)
    )
    section["ok"] = ok
    return section


def _flag_cases(config, rng, counts):
    """Flag identities, relations and component identity of every partition,
    each summed or listed from its levels' entries in the graph's pair memo,
    so no level graph is built."""
    counts.update(graphs=config.flag_cases, partitions=0)
    for case in range(config.flag_cases):
        graph = random_multigraph(rng, config.max_vertices, config.max_edges)
        for pi in ordered_partitions(graph.vertices):
            counts["partitions"] += 1
            entries = _level_entries(graph, pi)
            bad = [c for c in flag_identities(*_summed_dims(graph, entries)) if not c.ok]
            if bad:
                yield f"case {case}: {graph.edges} / {pi!r}: " + "; ".join(
                    f"{c.name} {c.lhs}!={c.rhs}" for c in bad
                )
            relations = _relation_failures(entries)
            if relations:
                yield f"case {case}: {pi!r}: " + "; ".join(relations)
            ident = _component_set_identity_failures(_identity_verdicts(entries))
            if ident:
                yield f"case {case}: {pi!r}: " + "; ".join(ident)


def _face_cases(config, rng, counts):
    """The face sweep of each graph, tallied by orientation."""
    counts.update(graphs=config.face_cases, orientations={})
    tally = counts["orientations"]
    for case in range(config.face_cases):
        graph = random_multigraph(rng, config.max_vertices, config.max_edges)
        report = check_polytope_faces(graph)
        tally[report.orientation] = tally.get(report.orientation, 0) + 1
        if not report.ok:
            yield f"case {case}: {graph.edges}: " + "; ".join(report.failures)


def _degeneration_cases(config, rng, counts):
    """Limit, realization, splitting and oracle of (graph, fine, coarse) triples."""
    counts.update(cases=config.degeneration_cases)
    for case in range(config.degeneration_cases):
        graph = random_multigraph(rng, config.max_vertices, config.max_edges)
        fine = random_level_structure(rng, graph)
        coarse = random_coarsening(rng, fine)
        result = check_degeneration(graph, fine, coarse)
        if not result.ok:
            yield (
                f"case {case}: {graph.edges} fine={fine!r} coarse={coarse!r}: "
                f"limit={result.limit_matches} realization={result.realization_matches} "
                f"splitting={result.splitting_matches} oracle={result.oracle_matches}"
            )


def _collection_cases(config, rng, counts):
    """Pairs of independent collections: an unrelated pair's union is
    independent, and so is a properly unrelated pair's less any first vector."""
    counts.update(
        cases=config.collection_cases, unrelated_cases=0, properly_unrelated_cases=0
    )
    for case in range(config.collection_cases):
        ambient = rng.randint(2, 10)
        first = random_sti_collection(rng, ambient)
        second = random_sti_collection(rng, ambient)
        report = set_theoretic_checks(first, second)
        if not (report.sti_1 and report.sti_2):
            yield f"case {case}: generator produced a non-independent collection"
            continue
        union = first.vectors + second.vectors
        if not report.related:
            counts["unrelated_cases"] += 1
            if rank(union) != len(union):
                yield f"case {case}: unrelated union is linearly dependent"
        if report.properly_unrelated:
            counts["properly_unrelated_cases"] += 1
            for i in range(len(first.vectors)):
                dropped = first.vectors[:i] + first.vectors[i + 1 :] + second.vectors
                if rank(dropped) != len(dropped):
                    yield f"case {case}: dropping vector {i} leaves a dependent union"


# random section -> (its seed offset, its case generator), in report order
_RANDOM_SECTIONS = {
    "flag_sweep": (0, _flag_cases),
    "face_sweep": (1, _face_cases),
    "degenerations": (2, _degeneration_cases),
    "collections": (3, _collection_cases),
}


def _random_section(name, config):
    """The named section's report: its counters, `ok` (no failures), its
    tallies (the dict counters, sorted), its first 20 failures and, when
    the list was cut, their total.  Its generator yields one text per
    failed check on an RNG seeded with `config.seed` plus its offset."""
    offset, cases = _RANDOM_SECTIONS[name]
    counts = {}
    failures = list(cases(config, random.Random(config.seed + offset), counts))
    scalars = {k: v for k, v in counts.items() if not isinstance(v, dict)}
    tallies = {k: dict(sorted(v.items())) for k, v in counts.items() if isinstance(v, dict)}
    section = {**scalars, "ok": not failures, **tallies, "failures": failures[:20]}
    if len(failures) > 20:
        section["failures_total"] = len(failures)
    return section


def full_verification(config=None, documents=None):
    """Run the whole suite; returns (report dict, ok flag)."""
    config = config or VerifyConfig()
    if documents is None:
        documents = fixtures.all_documents()
    report = {"config": config.as_dict(), "fixtures": [], "random": None}
    ok = True
    for name, document in documents:
        section = verify_document(name, document)
        report["fixtures"].append(section)
        ok = ok and section["ok"]
    if config.include_random:
        report["random"] = {name: _random_section(name, config) for name in _RANDOM_SECTIONS}
        ok = ok and all(section["ok"] for section in report["random"].values())
    report["ok"] = ok
    return report, ok
