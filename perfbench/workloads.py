"""The four workloads: seeded case lists, and how one case runs and is checked.

A case is one timed unit.  It returns an `Outcome`: ``ok`` is false when
any verdict is false or a CLI command exits nonzero, and ``digest``
summarises the outputs, so that every pass (and every commit) can be
compared byte for byte.  Every call into the package goes through the
module attribute at call time, so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from typing import NamedTuple

NAMES = ("identities", "faces", "degenerations", "documents")

# Graphs per (vertex count, edge count) cell, drawn from random_multigraph
# by rejection.  Cost grows steeply with both counts, so fixing the number
# of graphs per cell keeps the work of a pass close from seed to seed; the
# seed still picks every edge.  The median case and the tail case (the
# eleventh slowest) are single order statistics, and graphs of one cell
# differ by up to 2x, so each falls inside a block of copies of one cell:
# identities (3, 4) and (5, 2), faces (3, 8) and (4, 4), degenerations
# (3, 4) and (3, 7) (C(14,5) minors).  Faces skips odd edge counts below
# three vertices (well under a millisecond each) and has two five-vertex
# graphs (541 partitions, over a second each); identities takes five of
# the other five-vertex cells; degenerations keeps one eight-edge cell: the
# one- and two-vertex ones take 2 to 3 s each (C(16,8) and C(16,7) minors)
# and the four- and five-vertex ones vary 3x with their level structures.
_ALL = [(n, m) for n in range(1, 6) for m in range(9)]
CELLS = {
    "full": {
        "identities": {
            **{c: 1 for c in _ALL if c[0] <= 4},
            **{(5, m): 1 for m in (0, 1, 4, 6, 8)},
            (3, 4): 30,
            (5, 2): 12,
        },
        "faces": {
            **{c: 1 for c in _ALL if c[0] <= 2 and c[1] % 2 == 0},
            **{c: 1 for c in _ALL if c[0] in (3, 4)},
            (3, 8): 18,
            (4, 4): 14,
            (5, 1): 1,
            (5, 2): 1,
        },
        "degenerations": {
            **{c: 1 for c in _ALL if c[1] < 8},
            (3, 8): 1,
            (3, 4): 40,
            (3, 7): 12,
        },
    },
    "tiny": {
        "identities": {(n, m): 1 for n in range(1, 4) for m in range(5)},
        "faces": {(n, m): 1 for n in range(1, 4) for m in range(5)},
        "degenerations": {(n, m): 1 for n in range(1, 4) for m in range(5)},
    },
}
COLLECTION_PAIRS = 5  # per identities case, the ratio `verify` uses

# Documents: light commands (command, vertices, edges, levels, copies) and
# the rest as (vertices, edges, levels, copies).  The heavy ones sit at the
# CLI size bounds: gamma at the 12-vertex table bound, polytope at the
# 8-vertex bound, degenerate at C(22,5) exterior coordinates, and verify on
# the shipped fixtures.  The reproducer is the known oversize-oracle exit
# (10 vertices, 18 edges, C(36,9) coordinates), counted as a failed case.
# Copies are chosen so that the median case falls among the dims runs and
# the tail case among the 9-vertex gamma and 7-vertex polytope runs.
DOCUMENTS = {
    "full": {
        "light": [("info", 8, 12, 3, 8), ("basis", 8, 12, 3, 8), ("dims", 8, 12, 3, 32)],
        "gamma": [(12, 16, 3, 1), (9, 13, 3, 5)],
        "polytope": [(8, 12, 3, 1), (7, 10, 3, 5)],
        "degenerate": [(7, 11, 4, 1)],
        "verify_fixtures": True,
        "reproducer": (10, 18, 4),
    },
    "tiny": {
        "light": [("info", 5, 6, 2, 4), ("basis", 5, 6, 2, 4), ("dims", 5, 6, 2, 4)],
        "gamma": [(5, 6, 2, 1)],
        "polytope": [(4, 5, 2, 1)],
        "degenerate": [(4, 5, 2, 1)],
        "verify_fixtures": False,
        "reproducer": (10, 18, 4),
    },
}


class Outcome(NamedTuple):
    ok: bool
    digest: str
    output_bytes: int = 0
    known_defect: bool = False  # a failure this commit is known to have


class Program:
    """Fresh imports of the resipoly modules the workloads call."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "resipoly" or n.startswith("resipoly.")]:
            del sys.modules[name]
        for name in ("graphs", "linalg", "residues", "polytopes", "degeneration",
                     "randomized", "verify", "cli"):
            setattr(self, name, importlib.import_module(f"resipoly.{name}"))


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _stratified_graphs(p, rng, cells):
    """Graphs from random_multigraph, kept while their cell has room."""
    left = dict(cells)
    while any(left.values()):
        graph = p.randomized.random_multigraph(rng, 5, 8)
        cell = (len(graph.vertices), len(graph.edges))
        if left.get(cell, 0):
            left[cell] -= 1
            yield cell, graph


# -- identities --------------------------------------------------------------


def _identities_case(p, graph, pairs):
    ok = True
    dims = []
    for pi in p.graphs.ordered_partitions(graph.vertices):
        counts, flag = p.residues.flag_dims(graph, pi)
        checks = p.residues.flag_identities(counts, flag)
        relations = p.residues.check_component_relations(graph, pi)
        ok = ok and all(c.ok for c in checks) and not relations
        dims.append(flag)
    verdicts = []
    for first, second in pairs:
        report = p.linalg.set_theoretic_checks(first, second)
        ok = ok and report.sti_1 and report.sti_2
        union = list(first.vectors) + list(second.vectors)
        if not report.related:
            ok = ok and p.linalg.rank(union) == len(union)
        if report.properly_unrelated:
            for i in range(len(first.vectors)):
                dropped = union[:i] + union[i + 1 :]
                ok = ok and p.linalg.rank(dropped) == len(dropped)
        verdicts.append((report.related, report.properly_unrelated))
    return Outcome(ok, _digest((dims, verdicts)))


def _identities(p, rng, size):
    cases = []
    for cell, graph in _stratified_graphs(p, rng, CELLS[size]["identities"]):
        pairs = []
        for _ in range(COLLECTION_PAIRS):
            ambient = rng.randint(2, 10)
            pairs.append((
                p.randomized.random_sti_collection(rng, ambient),
                p.randomized.random_sti_collection(rng, ambient),
            ))
        cases.append((f"n{cell[0]}m{cell[1]}", lambda g=graph, q=pairs: _identities_case(p, g, q)))
    return cases


# -- faces -------------------------------------------------------------------


def _faces_case(p, graph):
    report = p.polytopes.check_polytope_faces(graph)
    return Outcome(report.ok, _digest(
        (report.orientation, report.partitions_checked, report.distinct_faces, report.failures)
    ))


def _faces(p, rng, size):
    return [
        (f"n{cell[0]}m{cell[1]}", lambda g=graph: _faces_case(p, g))
        for cell, graph in _stratified_graphs(p, rng, CELLS[size]["faces"])
    ]


# -- degenerations -----------------------------------------------------------


def _degeneration_case(p, graph, fine, coarse):
    report = p.degeneration.check_degeneration(graph, fine, coarse, with_oracle=True)
    return Outcome(report.ok, _digest(
        (report.residue_dim, report.limit_matches, report.realization_matches,
         report.splitting_matches, report.oracle_matches)
    ))


def _degenerations(p, rng, size):
    cases = []
    for cell, graph in _stratified_graphs(p, rng, CELLS[size]["degenerations"]):
        fine = p.randomized.random_level_structure(rng, graph)
        coarse = p.randomized.random_coarsening(rng, fine)
        cases.append((
            f"n{cell[0]}m{cell[1]}",
            lambda g=graph, f=fine, c=coarse: _degeneration_case(p, g, f, c),
        ))
    return cases


# -- documents ---------------------------------------------------------------


def _connected_document(rng, n, m, levels):
    """A connected multigraph (random spanning tree plus random extra
    edges, loops and parallels allowed) with a random level map drawn
    from `levels` values."""
    names = [f"x{i}" for i in range(1, n + 1)]
    edges = [[names[rng.randrange(i)], names[i]] for i in range(1, n)]
    while len(edges) < m:
        edges.append([rng.choice(names), rng.choice(names)])
    rng.shuffle(edges)
    return {"vertices": names, "edges": edges, "levels": _levels(rng, names, levels)}


def _levels(rng, names, levels):
    return {v: rng.randint(1, levels) for v in names}


def _run_cli(p, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = p.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _residue_dim(document):
    # Connected by construction: edges - vertices + 1.
    return len(document["edges"]) - len(document["vertices"]) + 1


def _check_document(command, document, payload):
    """Verdicts a correct CLI output must carry, from facts the benchmark
    knows independently of the package (the residue dimension of a
    connected graph is its genus)."""
    if command == "info":
        counts = payload["counts"]
        return (counts["vertices"], counts["edges"], counts["components"]) == (
            len(document["vertices"]), len(document["edges"]), 1)
    if command == "dims":
        return payload["ok"] and payload["dims"]["residue"] == _residue_dim(document)
    if command == "basis":
        width = 2 * len(document["edges"])
        return (payload["dim"] == len(payload["basis"]) == _residue_dim(document)
                and all(len(row) == width for row in payload["basis"]))
    if command == "gamma":
        entries = payload["entries"]
        return (len(entries) == 1 << len(document["vertices"])
                and entries[0]["value"] == "0"
                and entries[-1]["value"] == str(_residue_dim(document)))
    if command == "polytope":
        total = _residue_dim(document)
        return bool(payload["vertices"]) and all(
            sum(Fraction(x) for x in q) == total for q in payload["vertices"])
    # degenerate and verify report their own checks
    return payload["ok"] is True


def _document_case(p, command, argv, document, may_fail_with=None):
    """One CLI command.  `may_fail_with` names the stderr text of a known
    exit-2 defect: that outcome is a failed case, not a wrong answer."""
    code, out, err = _run_cli(p, argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    if code != 0:
        if may_fail_with and code == 2 and may_fail_with in err:
            return Outcome(False, f"exit {code} {digest}", len(out.encode()), True)
        raise AssertionError(f"{command} exited {code}: {err.strip()}")
    if not _check_document(command, document, json.loads(out)):
        raise AssertionError(f"{command}: output fails its checks")
    return Outcome(True, digest, len(out.encode()))


def _documents(p, rng, size, workdir):
    plan = DOCUMENTS[size]
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    written = set()

    def write(name, document):
        if name in written:
            raise ValueError(f"document {name} written twice")
        written.add(name)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(document))
        return str(path)

    def add(label, command, argv, document, may_fail_with=None):
        cases.append((label, lambda: _document_case(p, command, argv, document, may_fail_with)))

    if plan["verify_fixtures"]:
        add("verify-fixtures", "verify", ["verify", "--skip-random"], None)
    for command, n, m, levels, copies in plan["light"]:
        for k in range(copies):
            document = _connected_document(rng, n, m, levels)
            path = write(f"{command}-{k}", document)
            add(f"{command}-n{n}", command, [command, "--input", path], document)
    for command in ("gamma", "polytope"):
        for n, m, levels, copies in plan[command]:
            for k in range(copies):
                document = _connected_document(rng, n, m, levels)
                path = write(f"{command}-n{n}m{m}-{k}", document)
                add(f"{command}-n{n}", command, [command, "--input", path], document)

    def degenerate(label, n, m, levels, may_fail_with=None):
        # Coarse input: one level, so the residue dimension is the genus.
        document = _connected_document(rng, n, m, 1)
        path = write(label, document)
        fine = _levels(rng, document["vertices"], levels)
        fine_path = write(f"{label}-fine", {"levels": fine})
        argv = ["degenerate", "--input", path, "--fine", fine_path]
        add(label, "degenerate", argv, document, may_fail_with)

    for n, m, levels, copies in plan["degenerate"]:
        for k in range(copies):
            degenerate(f"degenerate-n{n}m{m}-{k}", n, m, levels)
    n, m, levels = plan["reproducer"]
    degenerate("degenerate-oracle-bound", n, m, levels, may_fail_with="exceed the bound")
    return cases


def build(p, workload, seed, size, workdir):
    """The seeded case list of a workload: ``[(label, run)]``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "documents":
        return _documents(p, rng, size, workdir)
    return {"identities": _identities, "faces": _faces, "degenerations": _degenerations}[
        workload
    ](p, rng, size)
