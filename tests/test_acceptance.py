"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact; runtime budgets are asserted with time.monotonic.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from resipoly import fixtures
from resipoly.degeneration import check_degeneration
from resipoly.graphs import LevelStructure, ordered_partitions
from resipoly.linalg import rank, set_theoretic_checks
from resipoly.polytopes import (
    base_polytope,
    check_polytope_faces,
    contraction_table,
    residue_projection_table,
)
from resipoly.randomized import (
    random_coarsening,
    random_level_structure,
    random_multigraph,
    random_sti_collection,
)
from resipoly.residues import (
    LevelGraph,
    build_flag,
    check_component_relations,
    flag_dims,
    flag_identities,
    per_component_report,
)

from conftest import find_arrows, load_fixture

SEED = 0


def report(number, description, elapsed, budget):
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_figure_one():
    start = time.monotonic()
    graph, levels, _ = load_fixture("fig1")
    model = LevelGraph(graph, levels)
    flag = model.flag()
    assert flag.dims == (9, 6, 4, 3)
    counts = flag.counts
    assert flag.dims[3] == counts.edges - counts.vertices + counts.components == 3
    assert all(c.ok for c in flag.identities())

    rows = {model.label("global", model.owner("global", row)): row for row in model.rows["global"]}
    expected = 0
    for tail in ("u1", "u2", "u3"):
        (arrow,) = find_arrows(graph, tail, "u5")
        expected |= 1 << arrow
    assert rows["2:u5"] == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "figure-one dims (9,6,4,3) and the u5 global row", elapsed, 1)


def test_criterion_2_worked_example():
    start = time.monotonic()
    graph, levels, _ = load_fixture("fig2")
    flag = build_flag(graph, levels)
    assert flag.dims[1:] == (4, 4, 0)
    assert flag.counts.summits == 5
    assert flag.counts.summits_irreducible == 3
    assert flag.counts.summits_reducible == 2

    table = per_component_report(graph, levels)
    by_level = {s.level: s for s in table.levels}
    cards = {
        n: (s.local_count, s.rosenlicht_count, s.global_count)
        for n, s in by_level.items()
    }
    assert cards == {3: (4, 0, 4), 2: (3, 1, 2), 1: (2, 1, 0)}
    assert by_level[3].codim_global == 7
    assert by_level[2].codim_global == 4
    assert by_level[2].codim_rosenlicht == 3
    assert by_level[1].codim_global == 2
    assert table.totals_consistent
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, "worked-example dims, cardinalities and block codims", elapsed, 1)


def test_criterion_3_identity_sweep():
    start = time.monotonic()
    rng = random.Random(SEED)
    graphs = 200
    partitions = 0
    for _ in range(graphs):
        graph = random_multigraph(rng, max_vertices=5, max_edges=8)
        for pi in ordered_partitions(graph.vertices):
            partitions += 1
            counts, dims = flag_dims(graph, pi)
            for check in flag_identities(counts, dims):
                assert check.ok, (graph.edges, pi, check)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(
        3,
        f"five identities over {graphs} graphs / {partitions} ordered partitions",
        elapsed,
        120,
    )


def test_criterion_4_k4_polytope():
    start = time.monotonic()
    graph, levels, _ = load_fixture("k4")
    table = residue_projection_table(graph, levels)
    assert table == contraction_table(graph)

    poly = base_polytope(table)
    points = {tuple(int(x) for x in q) for q in poly.vertices}
    assert points == set(itertools.permutations((2, 1, 0, 0)))
    assert len(poly.vertices) == 12

    sweep = check_polytope_faces(graph)
    assert sweep.partitions_checked == 75
    assert sweep.containment_ok and sweep.chain_match_ok
    assert sweep.coarsening_ok and sweep.lattice_ok
    assert sweep.orientation == "lower"
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(4, "complete-graph table, 12-vertex polytope, 75-partition face sweep", elapsed, 10)


def test_criterion_5_face_sweep():
    start = time.monotonic()
    rng = random.Random(SEED + 1)
    cases = 25
    for case in range(cases):
        graph = random_multigraph(rng, max_vertices=5, max_edges=8)
        sweep = check_polytope_faces(graph)
        assert sweep.ok, (case, graph.edges, sweep.failures)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(5, f"face correspondence on {cases} random graphs", elapsed, 300)


def test_criterion_6_degenerations():
    start = time.monotonic()
    for name in fixtures.NAMES:
        graph, levels, _ = load_fixture(name)
        trivial = LevelStructure.trivial(graph.vertices)
        for fine, coarse in ((levels, trivial), (levels, levels)):
            result = check_degeneration(graph, fine, coarse, with_oracle=True)
            assert result.ok, (name, fine, coarse, result)

    rng = random.Random(SEED + 2)
    cases = 50
    for case in range(cases):
        graph = random_multigraph(rng, max_vertices=5, max_edges=8)
        fine = random_level_structure(rng, graph)
        coarse = random_coarsening(rng, fine)
        result = check_degeneration(graph, fine, coarse, with_oracle=True)
        assert result.limit_matches, (case, graph.edges)
        assert result.realization_matches, (case, graph.edges)
        assert result.splitting_matches, (case, graph.edges)
        assert result.oracle_matches, (case, graph.edges)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(
        6,
        f"limit = realization = residue space on fixtures and {cases} random triples",
        elapsed,
        120,
    )


def test_criterion_7_independence_predicates():
    start = time.monotonic()
    rng = random.Random(SEED + 3)
    unrelated = properly = 0
    for _ in range(1000):
        ambient = rng.randint(2, 10)
        first = random_sti_collection(rng, ambient)
        second = random_sti_collection(rng, ambient)
        checks = set_theoretic_checks(first, second)
        assert checks.sti_1 and checks.sti_2
        union = list(first.vectors) + list(second.vectors)
        if not checks.related:
            unrelated += 1
            assert rank(union) == len(union)
        if checks.properly_unrelated:
            properly += 1
            for i in range(len(first.vectors)):
                dropped = [v for j, v in enumerate(first.vectors) if j != i]
                dropped += list(second.vectors)
                assert rank(dropped) == len(dropped)
    assert unrelated > 100 and properly > 100

    for name in fixtures.NAMES:
        graph, levels, _ = load_fixture(name)
        assert check_component_relations(graph, levels) == []

    rng = random.Random(SEED)  # the criterion-3 population
    for _ in range(200):
        graph = random_multigraph(rng, max_vertices=5, max_edges=8)
        for pi in ordered_partitions(graph.vertices):
            failures = check_component_relations(graph, pi)
            assert failures == [], (graph.edges, pi, failures)
    elapsed = time.monotonic() - start
    report(
        7,
        f"independence properties on 1000 pairs ({unrelated} unrelated, "
        f"{properly} properly unrelated) and component predicates on the sweep",
        elapsed,
        600,
    )


def test_criterion_8_determinism():
    start = time.monotonic()
    cmd = [
        sys.executable,
        "-m",
        "resipoly",
        "verify",
        "--seed",
        "11",
        "--random-cases",
        "16",
    ]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    assert first.returncode == 0, first.stdout[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # well-formed JSON
    elapsed = time.monotonic() - start
    report(8, "two seeded verify runs are byte-identical", elapsed, 600)
