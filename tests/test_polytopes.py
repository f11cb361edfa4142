import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from resipoly import fixtures, polytopes, residues
from resipoly.cli import main
from resipoly.graphs import LevelStructure, Memo, bits, load_level_graph, ordered_partitions
from resipoly.linalg import Subspace
from resipoly.polytopes import (
    BasePolytope,
    InvariantViolation,
    SetFunction,
    base_polytope,
    chain_face,
    check_polytope_faces,
    contraction_table,
    projection_rank_table,
    residue_projection_table,
    splitting,
)
from resipoly.randomized import random_level_structure, random_multigraph
from resipoly.residues import LevelGraph, level_rows, residue_space

from conftest import (
    PRISM,
    adjoint,
    coarsened_levels,
    coarsenings,
    face_report_fields,
    is_supermodular,
    random_subspace,
    range_value,
    reference_base_polytope,
    reference_chain_face,
    reference_check_polytope_faces,
    reference_is_nondecreasing,
    reference_is_submodular,
    reference_projection_rank_table,
    reference_splitting,
    reference_tight,
    value_of,
)


def modular_from_point(ground, point):
    values = []
    for mask in range(1 << len(ground)):
        values.append(sum(x for i, x in enumerate(point) if mask >> i & 1))
    return SetFunction(ground, values)


class TestSetFunction:
    def test_k4_table(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        for mask in range(1, 16):
            size = bin(mask).count("1")
            assert table.values[mask] == (2 if size == 1 else 3)
        assert table.is_submodular()
        assert table.is_nondecreasing()
        assert table.is_nonnegative()

    def test_c3_table(self, c3):
        graph, levels, _ = c3
        table = residue_projection_table(graph, levels)
        assert all(table.values[mask] == 1 for mask in range(1, 8))

    def test_fig1_top_vertex_projects_to_zero(self, fig1):
        graph, levels, _ = fig1
        table = residue_projection_table(graph, levels)
        assert value_of(table, ["u4"]) == 0
        assert value_of(table, graph.vertices) == 3

    def test_contraction_oracle_matches(self, k4, c3, loop1, fig1, fig2):
        for graph, _, _ in (k4, c3, loop1, fig1, fig2):
            trivial = LevelStructure.trivial(graph.vertices)
            assert residue_projection_table(graph, trivial) == contraction_table(graph)

    def test_contraction_oracle_matches_random(self):
        rng = random.Random(41)
        for _ in range(40):
            graph = random_multigraph(rng)
            trivial = LevelStructure.trivial(graph.vertices)
            assert residue_projection_table(graph, trivial) == contraction_table(graph)

    def test_tree_table_is_zero(self):
        graph, levels = load_level_graph(
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
        )
        assert set(contraction_table(graph).values) == {0}

    def test_loop_table(self, loop1):
        graph, _, _ = loop1
        assert contraction_table(graph).values == (0, 1)

    def test_equal_tables_share_ground_and_values(self):
        # the face sweep memoises faces by table, so a table equals another
        # only on the same ground with the same values
        table = SetFunction(("a", "b"), (0, 1, 1, 2))
        same = SetFunction(["a", "b"], [0, 1, 1, 2])
        assert table == same and hash(table) == hash(same)
        assert table != SetFunction(("b", "a"), (0, 1, 1, 2))
        assert table != SetFunction(("a", "c"), (0, 1, 1, 2))
        assert table != SetFunction(("a", "b"), (0, 1, 1, 1))

    def test_range_equals_genus(self):
        rng = random.Random(42)
        for _ in range(40):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            table = residue_projection_table(graph, levels)
            assert range_value(table) == graph.genus


class TestAdjoint:
    def test_involution_and_domination(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        star = adjoint(table)
        assert adjoint(star) == table
        assert all(a <= b for a, b in zip(star.values, table.values))

    def test_k4_adjoint_values(self, k4):
        graph, levels, _ = k4
        star = adjoint(residue_projection_table(graph, levels))
        for mask in range(1, 16):
            size = bin(mask).count("1")
            expected = {1: 0, 2: 0, 3: 1, 4: 3}[size]
            assert star.values[mask] == expected

    def test_modular_is_fixed(self):
        q = modular_from_point(("a", "b", "c"), (Fraction(1), Fraction(-2), Fraction(5)))
        assert adjoint(q) == q

    def test_zero_is_fixed(self):
        zero = SetFunction(("a", "b"), (0, 0, 0, 0))
        assert adjoint(zero) == zero


class TestBasePolytope:
    def test_k4_vertices(self, k4):
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        points = {tuple(int(x) for x in q) for q in poly.vertices}
        expected = set(itertools.permutations((2, 1, 0, 0)))
        assert points == expected
        assert len(poly.vertices) == 12

    def test_c3_unit_vertices(self, c3):
        graph, levels, _ = c3
        poly = base_polytope(residue_projection_table(graph, levels))
        assert {tuple(int(x) for x in q) for q in poly.vertices} == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }

    def test_modular_single_vertex(self):
        q = modular_from_point(("a", "b", "c"), (Fraction(2), Fraction(0), Fraction(1)))
        poly = base_polytope(q)
        assert poly.vertices == ((Fraction(2), Fraction(0), Fraction(1)),)

    def test_non_submodular_rejected(self):
        # f({a, b}) = 5 exceeds f({a}) + f({b}) - f(empty) = 0
        bad = SetFunction(("a", "b"), (0, 0, 0, 5))
        with pytest.raises(InvariantViolation) as err:
            base_polytope(bad)
        assert str(err.value) == "base polytope of a non-submodular table"

    def test_vertices_inside_simplex(self):
        rng = random.Random(43)
        for _ in range(20):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            table = residue_projection_table(graph, levels)
            poly = base_polytope(table)
            for q in poly.vertices:
                assert all(x >= 0 for x in q)
                assert sum(q) == graph.genus

    def test_every_vertex_has_a_tight_flag(self):
        # some ordering of the ground set makes every prefix inequality tight
        rng = random.Random(47)
        for _ in range(12):
            graph = random_multigraph(rng, max_vertices=4)
            levels = random_level_structure(rng, graph)
            table = residue_projection_table(graph, levels)
            poly = base_polytope(table)
            n = table.n
            for q in poly.vertices:
                found = False
                for perm in itertools.permutations(range(n)):
                    mask = 0
                    tight = True
                    for i in perm:
                        mask |= 1 << i
                        value = sum(x for j, x in enumerate(q) if mask >> j & 1)
                        if value != table.values[mask]:
                            tight = False
                            break
                    if tight:
                        found = True
                        break
                assert found


def supermodular_split(table, levels):
    """The supermodular split along the prefix chain, as the adjoint of the
    submodular split of the adjoint."""
    return adjoint(splitting(adjoint(table), levels))


def reversed_partition(levels):
    """The ordered partition with its levels in the opposite order."""
    return LevelStructure(levels.vertices, [levels.r + 1 - n for n in levels.levels])


class TestSplitting:
    def test_trivial_partition_is_identity(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        assert splitting(table, levels) == table
        assert supermodular_split(adjoint(table), levels) == adjoint(table)

    def test_modular_functions_are_fixed(self):
        ground = ("a", "b", "c", "d")
        q = modular_from_point(ground, (1, 3, 0, 2))
        for pi in ordered_partitions(ground):
            assert supermodular_split(q, pi) == q
            assert splitting(q, pi) == q

    def test_k4_splitting_matches_level_table(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        pi = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2", "v3", "v4"]])
        fine = residue_projection_table(graph, pi)
        assert splitting(table, pi) == fine
        assert supermodular_split(adjoint(table), pi) == adjoint(fine)

    def test_supermodular_split_stays_supermodular(self):
        rng = random.Random(44)
        for _ in range(30):
            graph = random_multigraph(rng)
            coarse = random_level_structure(rng, graph)
            table = adjoint(residue_projection_table(graph, coarse))
            pi = random_level_structure(rng, graph)
            out = supermodular_split(table, pi)
            assert is_supermodular(out)

    def test_splitting_monotone_under_coarsening(self):
        rng = random.Random(45)
        for _ in range(20):
            graph = random_multigraph(rng, max_vertices=4)
            fine = random_level_structure(rng, graph)
            fine_table = residue_projection_table(graph, fine)
            for coarse in coarsenings(fine):
                coarse_table = residue_projection_table(graph, coarse)
                assert all(
                    a <= b for a, b in zip(fine_table.values, coarse_table.values)
                )

    def test_ground_set_mismatch(self, k4, c3):
        table = residue_projection_table(k4[0], k4[1])
        with pytest.raises(ValueError):
            splitting(table, c3[1])


class TestChainFace:
    def test_trivial_chain_is_everything(self, k4):
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        assert chain_face(poly, levels) == (1 << 12) - 1
        assert reversed_partition(levels) == levels

    def test_k4_split_faces(self, k4):
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        pi = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2", "v3", "v4"]])
        upper = chain_face(poly, pi)
        assert [poly.vertices[i][0] for i in bits(upper)] == [Fraction(2)] * 3
        lower = chain_face(poly, reversed_partition(pi))
        assert [poly.vertices[i][0] for i in bits(lower)] == [Fraction(0)] * 6

    def test_level_structure_must_match(self, k4, c3):
        poly = base_polytope(residue_projection_table(k4[0], k4[1]))
        with pytest.raises(ValueError):
            chain_face(poly, c3[1])


class RowSets(dict):
    """A tables memo of the face sweep that hands each row set back as its
    own table, so that the sweep's step returns the union it keys on."""

    def get(self, rows):
        return rows


class TestFaceSweep:
    def test_k4_full_sweep(self, k4):
        graph, _, _ = k4
        report = check_polytope_faces(graph)
        assert report.ok
        assert report.partitions_checked == 75
        assert report.orientation == "lower"
        assert report.failures == ()

    def test_one_chain_face_per_partition(self, k4, monkeypatch):
        real = polytopes.chain_face
        calls = []

        def counting(polytope, levels):
            calls.append(levels.levels)
            return real(polytope, levels)

        monkeypatch.setattr(polytopes, "chain_face", counting)
        report = check_polytope_faces(k4[0])
        assert report.ok
        assert len(calls) == len(set(calls)) == report.partitions_checked == 75

    def test_lower_face_is_the_reversed_partitions_face(self, fig1):
        report = check_polytope_faces(fig1[0])
        for pi, lower in report.chain_faces:
            assert lower == chain_face(report.reference, reversed_partition(pi))

    def test_c3_full_sweep(self, c3):
        report = check_polytope_faces(c3[0])
        assert report.ok
        assert report.partitions_checked == 13

    def test_fig1_sweep(self, fig1):
        report = check_polytope_faces(fig1[0])
        assert report.ok
        assert report.partitions_checked == 541

    def test_random_sweep(self):
        rng = random.Random(46)
        for _ in range(6):
            graph = random_multigraph(rng, max_vertices=4, max_edges=7)
            report = check_polytope_faces(graph)
            assert report.ok, report.failures

    def test_bound_enforced(self):
        graph, _ = load_level_graph(
            {"vertices": [f"x{i}" for i in range(7)], "edges": []}
        )
        with pytest.raises(ValueError):
            check_polytope_faces(graph)

    def test_memo_matches_a_fresh_sweep(self, k4, fig1):
        # every field, chain faces and failures included, against the sweep
        # that builds a table and a polytope per partition
        rng = random.Random(47)
        graphs = [k4[0], fig1[0]] + [
            random_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(30)
        ]
        assert sum(len(g.vertices) == 5 for g in graphs) >= 5
        for graph in graphs:
            assert face_report_fields(check_polytope_faces(graph)) == face_report_fields(
                reference_check_polytope_faces(graph)
            )

    def test_coarsenings_compared_along_single_merges(self, k4, monkeypatch):
        # the domination check reads the tables of each compared pair once:
        # a partition of r levels meets its r - 1 merges of two adjacent
        # levels, 158 pairs over k4's 75 partitions, where all of its
        # coarsenings (itself included) would make 365
        graph = k4[0]
        reads = []

        class Read(tuple):
            def __iter__(self):
                reads.append(self.levels)
                return super().__iter__()

        real_step = polytopes._table_and_face

        def reading_step(levels, *memos):
            table, face = real_step(levels, *memos)
            values = Read(table.values)
            values.levels = levels.levels
            read = SetFunction(table.ground, table.values)
            read.values = values
            return read, face

        monkeypatch.setattr(polytopes, "_table_and_face", reading_step)
        assert check_polytope_faces(graph).ok
        merges = [
            (pi.levels, coarse)
            for pi in ordered_partitions(graph.vertices)
            for coarse in coarsened_levels(pi)
            if max(coarse) == pi.r - 1
        ]
        assert len(reads) == 2 * len(merges) == 2 * 158
        assert sorted(zip(reads[::2], reads[1::2])) == sorted(merges)

    @pytest.mark.parametrize(
        "fault",
        [
            {
                "table": lambda t: SetFunction(
                    t.ground, [v + (m > 0) for m, v in enumerate(t.values)]
                )
            },
            {"table": lambda t: SetFunction(t.ground, [max(v - 1, 0) for v in t.values])},
            {"vertices": lambda points: points[:1]},
        ],
        ids=["raised-table", "lowered-table", "one-vertex"],
    )
    def test_single_merges_give_the_all_pairs_verdict(self, k4, monkeypatch, fault):
        # each of k4's partitions in turn is read wrong; the verdict over the
        # single merges equals the one over every coarsening of the same reads
        graph = k4[0]
        verdicts = set()
        for target in ordered_partitions(graph.vertices):
            reads = {}
            with monkeypatch.context() as patch:
                misreport_partition(patch, graph, target.parts, **fault)
                wrong_step = polytopes._table_and_face

                def reading_step(levels, *memos):
                    table, face = wrong_step(levels, *memos)
                    reads[levels.levels] = (levels, table, face)
                    return table, face

                patch.setattr(polytopes, "_table_and_face", reading_step)
                report = check_polytope_faces(graph)
            assert report.containment_ok
            all_pairs_ok = all(
                not face & ~coarse_face
                and all(a <= b for a, b in zip(table.values, coarse_table.values))
                for pi, table, face in reads.values()
                for _, coarse_table, coarse_face in map(reads.get, coarsened_levels(pi))
            )
            assert report.coarsening_ok == all_pairs_ok, target
            verdicts.add(all_pairs_ok)
        assert verdicts == {True, False}

    def test_level_row_sets_match_the_model(self, fig1, k4, c3, loop1):
        # the sweep's key, one `level_rows` set per (level mask, prefix mask)
        # read through one memo per graph, against the rows of each
        # partition's `LevelGraph`: a level set that read anything besides
        # its two masks would be stale for a later partition sharing them
        rng = random.Random(48)
        graphs = [fix[0] for fix in (fig1, k4, c3, loop1)] + [
            random_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(40)
        ]
        assert sum(len(g.vertices) == 5 for g in graphs) >= 5
        for graph in graphs:
            level_sets = Memo(lambda pair: level_rows(graph, *pair))
            # memos that hand the row set itself back as the "table" and
            # locate no face, so the sweep's step returns the union it keys
            # on; no level table is read
            tables, faces = RowSets(), Memo(lambda table: None)
            for pi in ordered_partitions(graph.vertices):
                rows = frozenset(itertools.chain.from_iterable(LevelGraph(graph, pi).rows.values()))
                step = polytopes._table_and_face(pi, level_sets, None, tables, faces)
                assert step == (rows, None), pi
                # each level owns exactly the rows on the arrows out of it
                prefixes = itertools.accumulate(pi.masks, operator.or_, initial=0)
                for mask, prefix in zip(pi.masks, prefixes):
                    out = graph.arrows_from(mask)
                    assert level_sets[mask, prefix] == {row for row in rows if row & out}, pi

    def test_summed_tables_match_the_whole_space_tables(self, fig1, k4, c3, loop1, monkeypatch):
        # the table the sweep reads for each partition, a sum of level
        # tables, against the whole-space `residue_projection_table`
        rng = random.Random(49)
        graphs = [fix[0] for fix in (fig1, k4, c3, loop1)] + [
            random_multigraph(rng, 5, 8) for _ in range(40)
        ]
        assert sum(len(g.vertices) == 5 for g in graphs) >= 5
        reads = []
        real_step = polytopes._table_and_face

        def reading_step(levels, *memos):
            table, face = real_step(levels, *memos)
            reads.append((levels, table))
            return table, face

        monkeypatch.setattr(polytopes, "_table_and_face", reading_step)
        for graph in graphs:
            reads.clear()
            assert check_polytope_faces(graph).ok
            assert len(reads) == len(list(ordered_partitions(graph.vertices)))
            for pi, table in reads:
                assert table == residue_projection_table(graph, pi), pi

    def test_one_kernel_per_level_table_one_polytope_per_table(self, k4, monkeypatch):
        graph = k4[0]
        partitions = list(ordered_partitions(graph.vertices))
        row_sets = {
            frozenset(itertools.chain.from_iterable(LevelGraph(graph, pi).rows.values()))
            for pi in partitions
        }
        level_pairs = {
            pair
            for pi in partitions
            for pair in zip(pi.masks, itertools.accumulate(pi.masks, operator.or_, initial=0))
        }
        level_keys = {(mask, level_rows(graph, mask, prefix)) for mask, prefix in level_pairs}
        tables = {residue_projection_table(graph, pi).values for pi in partitions}
        real_level_table = polytopes._level_table
        real_kernel_basis = polytopes._kernel_basis
        real_kernel = residues._kernel
        real_guard = polytopes._checked_table
        real_level_rows = polytopes.level_rows
        real_polytope = polytopes.base_polytope
        kernels = []
        kernel_calls = []
        whole_kernels = []
        guarded = []
        level_calls = []
        polytope_calls = []

        # the sweep takes an integral kernel basis per level table: record
        # the (level mask, row set) key there, and count the bases taken,
        # the canonical kernels taken (none) and the tables guarded
        def counting_level_table(g, mask, rows):
            kernels.append((mask, rows))
            return real_level_table(g, mask, rows)

        def counting_kernel_basis(echelon, columns):
            kernel_calls.append(columns)
            return real_kernel_basis(echelon, columns)

        def counting_kernel(echelon, width):
            whole_kernels.append(width)
            return real_kernel(echelon, width)

        def counting_guard(ground, values):
            table = real_guard(ground, values)
            guarded.append(table.values)
            return table

        def counting_level_rows(g, mask, prefix):
            level_calls.append((mask, prefix))
            return real_level_rows(g, mask, prefix)

        def counting_polytope(table):
            polytope_calls.append(table.values)
            return real_polytope(table)

        monkeypatch.setattr(polytopes, "_level_table", counting_level_table)
        monkeypatch.setattr(polytopes, "_kernel_basis", counting_kernel_basis)
        monkeypatch.setattr(residues, "_kernel", counting_kernel)
        monkeypatch.setattr(polytopes, "_checked_table", counting_guard)
        monkeypatch.setattr(polytopes, "level_rows", counting_level_rows)
        monkeypatch.setattr(polytopes, "base_polytope", counting_polytope)
        report = check_polytope_faces(graph)
        assert report.ok and report.partitions_checked == len(partitions) == 75
        assert len(kernel_calls) == len(kernels)
        assert len(kernels) == len(set(kernels)) == len(level_keys) < len(level_pairs)
        assert set(kernels) == level_keys
        assert whole_kernels == []
        # one summed table, and one guard, per distinct row set
        assert len(guarded) == len(row_sets) < len(partitions)
        assert set(guarded) == tables
        assert len(polytope_calls) == len(tables) + 1 < len(partitions)
        assert set(polytope_calls) == tables
        # one rows-only step per (level mask, prefix mask) pair, for one call:
        # a second sweep of the same graph object takes every step again
        assert len(level_calls) == len(set(level_calls)) == len(level_pairs)
        assert set(level_calls) == level_pairs
        assert len(level_pairs) < sum(pi.r for pi in partitions)
        assert check_polytope_faces(graph).ok
        assert len(level_calls) == 2 * len(level_pairs)
        assert set(level_calls[len(level_pairs) :]) == level_pairs

    def test_six_vertex_sweep(self, tmp_path, capsys):
        # the first 6-vertex graph with at least 7 edges of seed 7: 4,683
        # partitions, 15 distinct faces, and the `faces` bytes of the sweep
        # without memos (1.33 MB, pinned by digest)
        rng = random.Random(7)
        graph = random_multigraph(rng, 6, 8)
        while len(graph.vertices) < 6 or len(graph.edges) < 7:
            graph = random_multigraph(rng, 6, 8)
        path = tmp_path / "six.json"
        path.write_text(
            json.dumps({"vertices": list(graph.vertices), "edges": [list(e) for e in graph.edges]})
        )
        assert main(["faces", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["partitions"] == 4683
        assert payload["distinct_faces"] == 15
        assert payload["ok"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ec87c332a51f7864be1568b4bb69af35ff63a8500da69888a4484ebe1e7f12f9"
        )

    def test_prism_sweep(self, tmp_path, capsys):
        # the triangular prism: its one-level polytope has 54 vertices and
        # 477 faces, where the graph above has 4 and 15, so this sweep
        # exercises the chain faces; its `faces` bytes are pinned by digest
        path = tmp_path / "prism.json"
        path.write_text(json.dumps(PRISM))
        assert main(["faces", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["partitions"] == 4683
        assert len(payload["vertices"]) == 54
        assert payload["distinct_faces"] == 477
        assert payload["ok"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "066e4ed647722b2c20cb0754e5adf542339dcff45e8707e1096be92802e68d6b"
        )


class TestProjectionRankTable:
    def test_blocks_must_partition(self):
        space = Subspace(4, [[1, 1, 0, 0]])
        with pytest.raises(ValueError):
            projection_rank_table(space, ("a", "b"), [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "coordinate", [-1, 3, True, 2.0], ids=["negative", "past-the-end", "boolean", "float"]
    )
    def test_coordinates_must_be_ints_in_range(self, coordinate):
        # -1 would be read as coordinate 2, and True as coordinate 1
        space = Subspace(3, [[0, 0, 1]])
        with pytest.raises(ValueError):
            projection_rank_table(space, ("a",), [[coordinate]])
        assert projection_rank_table(space, ("a",), [[2]]).values == (0, 1)

    def test_single_vertex_no_edges(self):
        graph, levels = load_level_graph({"vertices": ["a"], "edges": []})
        table = residue_projection_table(graph, levels)
        assert table.values == (0, 0)
        poly = base_polytope(table)
        assert poly.vertices == ((Fraction(0),),)


def coverage_values(rng, n, universe=6):
    """A submodular, nondecreasing table: the weight of the union of one
    random subset of a small weighted universe per ground element."""
    weights = [rng.randint(1, 3) for _ in range(universe)]
    covers = [rng.getrandbits(universe) for _ in range(n)]
    values = []
    for mask in range(1 << n):
        union = 0
        for i in range(n):
            if mask >> i & 1:
                union |= covers[i]
        values.append(sum(w for k, w in enumerate(weights) if union >> k & 1))
    return values


def random_table_values(rng, n):
    """Coverage tables, some shifted by a modular part, some with one entry
    moved, some arbitrary: about half of them are not submodular."""
    values = coverage_values(rng, n)
    kind = rng.randrange(4)
    if kind == 1:
        point = [rng.randint(-3, 3) for _ in range(n)]
        values = [v + sum(x for i, x in enumerate(point) if m >> i & 1) for m, v in enumerate(values)]
    elif kind == 2:
        values[rng.randrange(len(values))] += rng.choice((-2, -1, 1, 2))
    elif kind == 3:
        values = [0] + [rng.randint(-2, 5) for _ in range(len(values) - 1)]
    return values


def permutahedron_table(n):
    """f(S) = n + (n - 1) + ... over the first |S| terms: its base polytope
    is the permutahedron, whose n! vertices are the permutations of
    (1, ..., n)."""
    ground = tuple(f"x{i}" for i in range(n))
    return SetFunction(
        ground, [sum(n - k for k in range(bin(m).count("1"))) for m in range(1 << n)]
    )


class TestAgainstReferences:
    """The slice predicates, the column-echelon walk, the prefix walk, the
    one-direction chain face and the direct split against the
    per-inequality, per-subset, per-ordering, two-orientation and adjoint
    bodies kept in conftest, on seeded inputs."""

    def test_projection_tables_of_level_graphs(self):
        rng = random.Random(71)
        sizes = set()
        for _ in range(60):
            graph = random_multigraph(rng, max_vertices=8, max_edges=12)
            levels = random_level_structure(rng, graph)
            space = residue_space(graph, levels)
            blocks = [bits(arrows) for arrows in graph.out_arrows]
            table = projection_rank_table(space, graph.vertices, blocks)
            assert table == reference_projection_rank_table(space, graph.vertices, blocks)
            sizes.add(len(graph.vertices))
        assert 8 in sizes

    def test_projection_tables_of_random_subspaces(self):
        # blocks in shuffled coordinate order, some empty, some coordinates
        # in no block; dimension 0 included
        rng = random.Random(72)
        dims = set()
        for _ in range(300):
            ambient = rng.randint(0, 9)
            space = random_subspace(rng, ambient, max_dim=5)
            n = rng.randint(0, 5)
            blocks = [[] for _ in range(n)]
            coords = list(range(ambient))
            rng.shuffle(coords)
            for c in coords:
                owner = rng.randint(-1, n - 1)
                if owner >= 0:
                    blocks[owner].append(c)
            ground = tuple(f"x{i}" for i in range(n))
            table = projection_rank_table(space, ground, blocks)
            assert table == reference_projection_rank_table(space, ground, blocks)
            dims.add(space.dim)
        assert 0 in dims and max(dims) >= 4

    def test_zero_dimensional_space(self):
        for n in range(4):
            ground = tuple(f"x{i}" for i in range(n))
            blocks = [[2 * i, 2 * i + 1] for i in range(n)]
            table = projection_rank_table(Subspace(2 * n), ground, blocks)
            assert table.values == (0,) * (1 << n)
            assert table == reference_projection_rank_table(Subspace(2 * n), ground, blocks)
            assert base_polytope(table).vertices == ((0,) * n,)

    def test_predicates_on_random_tables(self):
        rng = random.Random(73)
        verdicts = {(a, b): 0 for a in (False, True) for b in (False, True)}
        for _ in range(3000):
            n = rng.randint(2, 6)  # smaller ground sets: test_smallest_ground_sets
            table = SetFunction(tuple(f"x{i}" for i in range(n)), random_table_values(rng, n))
            submodular = reference_is_submodular(table)
            nondecreasing = reference_is_nondecreasing(table)
            assert table.is_submodular() == submodular
            assert table.is_nondecreasing() == nondecreasing
            verdicts[submodular, nondecreasing] += 1
        rejected = verdicts[False, False] + verdicts[False, True]
        assert 3 * rejected >= 3000
        assert min(verdicts.values()) >= 100

    def test_nonzero_at_empty_is_not_submodular(self):
        for values in ((1,), (1, 1), (-1, 0, 0, 0), (2, 2, 2, 2, 2, 2, 2, 2)):
            n = len(values).bit_length() - 1
            table = SetFunction(tuple(f"x{i}" for i in range(n)), values)
            assert not table.is_submodular()
            assert not reference_is_submodular(table)

    def test_smallest_ground_sets(self):
        for values in ((0,), (0, 0), (0, 3), (0, -2), (1, 0)):
            n = len(values).bit_length() - 1
            table = SetFunction(tuple(f"x{i}" for i in range(n)), values)
            assert table.is_submodular() == reference_is_submodular(table)
            assert table.is_nondecreasing() == reference_is_nondecreasing(table)
            if reference_is_submodular(table):
                assert base_polytope(table).vertices == reference_base_polytope(table).vertices
        assert base_polytope(SetFunction((), (0,))).vertices == ((),)
        assert base_polytope(SetFunction(("a",), (0, -2))).vertices == ((-2,),)

    def test_base_polytopes_of_random_submodular_tables(self):
        rng = random.Random(74)
        checked = 0
        while checked < 300:
            n = rng.randint(0, 6)
            table = SetFunction(tuple(f"x{i}" for i in range(n)), random_table_values(rng, n))
            if not reference_is_submodular(table):
                with pytest.raises(InvariantViolation):
                    base_polytope(table)
                continue
            assert base_polytope(table).vertices == reference_base_polytope(table).vertices
            checked += 1

    def test_base_polytopes_of_level_graph_tables(self):
        # the vertices, and the tight set of every subset inequality
        rng = random.Random(75)
        for _ in range(60):
            graph = random_multigraph(rng, max_vertices=6, max_edges=9)
            table = residue_projection_table(graph, random_level_structure(rng, graph))
            poly = base_polytope(table)
            assert poly.vertices == reference_base_polytope(table).vertices
            assert poly.tight == reference_tight(poly)

    def test_modular_table_has_one_vertex(self):
        point = (3, -1, 0, 2, 5)
        table = modular_from_point(tuple("abcde"), point)
        assert base_polytope(table).vertices == (point,)
        assert reference_base_polytope(table).vertices == (point,)

    def test_chain_faces_of_every_partition(self):
        # the upper face against the previous body's, and the lower face,
        # tightness against the adjoint, as the reversed partition's face
        rng = random.Random(76)
        partitions = 0
        for _ in range(40):
            graph = random_multigraph(rng, max_vertices=5, max_edges=8)
            trivial = LevelStructure.trivial(graph.vertices)
            poly = base_polytope(residue_projection_table(graph, trivial))
            for pi in ordered_partitions(graph.vertices):
                assert chain_face(poly, pi) == reference_chain_face(poly, pi, "upper")
                assert chain_face(poly, reversed_partition(pi)) == reference_chain_face(
                    poly, pi, "lower"
                )
                partitions += 1
        assert partitions >= 4000

    def test_splittings_of_random_tables(self):
        # tables of every kind, about half not submodular, a third shifted
        # away from zero at the empty set, along random ordered partitions
        rng = random.Random(77)
        shifted = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            ground = tuple(f"x{i}" for i in range(n))
            values = random_table_values(rng, n)
            if rng.randrange(3) == 0:
                values[0] += rng.choice((-3, -1, 2, 5))
                shifted += 1
            table = SetFunction(ground, values)
            pi = LevelStructure.from_map(ground, {x: rng.randint(1, n) for x in ground})
            assert splitting(table, pi) == reference_splitting(table, pi, "submodular")
            assert supermodular_split(table, pi) == reference_splitting(
                table, pi, "supermodular"
            )
        assert shifted >= 60

    def test_splittings_of_level_graph_tables(self):
        rng = random.Random(78)
        for _ in range(60):
            graph = random_multigraph(rng, max_vertices=6, max_edges=9)
            table = residue_projection_table(graph, random_level_structure(rng, graph))
            for pi in (random_level_structure(rng, graph), LevelStructure.trivial(graph.vertices)):
                assert splitting(table, pi) == reference_splitting(table, pi, "submodular")
                dual = adjoint(table)
                assert supermodular_split(dual, pi) == reference_splitting(
                    dual, pi, "supermodular"
                )

    @pytest.mark.parametrize("n", range(7))
    def test_permutahedron_has_n_factorial_vertices(self, n):
        table = permutahedron_table(n)
        vertices = base_polytope(table).vertices
        assert len(vertices) == len(set(vertices)) == math.factorial(n)
        assert set(vertices) == set(itertools.permutations(range(1, n + 1)))
        assert vertices == reference_base_polytope(table).vertices


def k4_faces_payload(tmp_path, capsys):
    """`resipoly faces` on the k4 fixture: exit code and parsed report."""
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(fixtures.document("k4")))
    code = main(["faces", "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


def with_tight_vertex(poly, mask, vertex):
    """``poly`` with ``vertex`` added to its tight set at subset ``mask``."""
    wrong = BasePolytope(poly.ground, poly.vertices, poly.table)
    tight = list(wrong.tight)
    tight[mask] |= 1 << poly.vertices.index(vertex)
    wrong.tight = tuple(tight)
    return wrong


def misreport_partition(monkeypatch, graph, parts, table=None, vertices=None):
    """Make the face sweep read a wrong table (``table(true table)``) or a
    wrong vertex set (``vertices(true vertices)``) for the ordered partition
    with these parts, at the step that hands the sweep each partition's
    table and face; every other partition, including those that share the
    target's table, is read as usual, and a wrong table keeps the face of
    the true one.  Returns that partition."""
    target = LevelStructure.from_parts(graph.vertices, parts)
    real_step = polytopes._table_and_face
    if vertices:
        # the sweep's bits: each vertex of the one-level polytope, in order
        trivial = LevelStructure.trivial(graph.vertices)
        reference = base_polytope(residue_projection_table(graph, trivial))
        vertex_bit = {v: 1 << i for i, v in enumerate(reference.vertices)}

    def wrong_step(levels, *memos):
        true, face = real_step(levels, *memos)
        if levels.levels != target.levels:
            return true, face
        if vertices:
            face = polytopes._located(vertices(base_polytope(true).vertices), vertex_bit)
        return (table(true) if table else true), face

    monkeypatch.setattr(polytopes, "_table_and_face", wrong_step)
    return target


class TestFaultInjection:
    """Each check of the polytope layer fed one wrong object must fail, with
    its own message; the face sweep reports ``ok`` false and `resipoly
    faces` exits 1."""

    def test_vertex_recheck_catches_an_exceeded_inequality(self, monkeypatch):
        # the greedy points (1, 0) and (0, 1) exceed f({a}) = f({b}) = 0 by 1
        monkeypatch.setattr(SetFunction, "is_submodular", lambda self: True)
        with pytest.raises(InvariantViolation) as err:
            base_polytope(SetFunction(("a", "b"), (0, 0, 0, 1)))
        assert str(err.value) == "greedy point violates the subset inequalities"

    def test_vertex_recheck_catches_a_missed_ground_equality(self, monkeypatch):
        # f(empty) = 1: the greedy point (0, 0) meets every inequality but
        # sums to 0, not to f(V) = 1
        monkeypatch.setattr(SetFunction, "is_submodular", lambda self: True)
        with pytest.raises(InvariantViolation) as err:
            base_polytope(SetFunction(("a", "b"), (1, 1, 1, 1)))
        assert str(err.value) == "greedy point violates the subset inequalities"

    def test_chain_face_cross_check(self, k4):
        # (1, 2, 0, 0) is read as tight on the prefix {v1}, where f = 2, so
        # it joins the chain face, but it lacks the highest weight r - level;
        # the reversed partition's chain does not pass through {v1}
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        wrong = with_tight_vertex(poly, 0b0001, (1, 2, 0, 0))
        pi = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2", "v3", "v4"]])
        flipped = reversed_partition(pi)
        assert chain_face(wrong, flipped) == chain_face(poly, flipped)
        with pytest.raises(InvariantViolation) as err:
            chain_face(wrong, pi)
        assert str(err.value) == "chain-tight vertices differ from the weight argmax"

    def test_faces_exits_1_on_a_chain_face_mismatch(self, tmp_path, capsys, monkeypatch):
        real = polytopes.base_polytope
        built = []

        def with_a_wrong_tight_set(table, *args, **kwargs):
            poly = real(table, *args, **kwargs)
            built.append(poly)
            if len(built) > 1:
                return poly
            # the one-level polytope, which the chain faces are read from
            return with_tight_vertex(poly, 0b0001, (1, 2, 0, 0))

        monkeypatch.setattr(polytopes, "base_polytope", with_a_wrong_tight_set)
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(fixtures.document("k4")))
        assert main(["faces", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invariant violated: chain-tight vertices differ from the weight argmax\n"
        )

    def test_vertex_outside_the_one_level_polytope(self, k4, tmp_path, capsys, monkeypatch):
        graph = k4[0]
        pi = misreport_partition(
            monkeypatch, graph, [["v1"], ["v2", "v3", "v4"]],
            vertices=lambda points: points + ((3, 0, 0, 0),),
        )
        failure = f"{pi!r}: vertex outside the one-level polytope"
        report = check_polytope_faces(graph)
        assert not report.containment_ok
        assert not report.ok
        assert failure in report.failures
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["containment_ok"] is False
        assert failure in payload["failures"]

    def test_unrealized_chain_face(self, k4, tmp_path, capsys, monkeypatch):
        # the partition reports every one-level vertex, so its lower chain
        # face, a face of the one-level polytope, is realized by no partition
        graph = k4[0]
        every_vertex = base_polytope(
            residue_projection_table(graph, LevelStructure.trivial(graph.vertices))
        ).vertices
        misreport_partition(
            monkeypatch, graph, [["v1"], ["v2", "v3", "v4"]],
            vertices=lambda points: every_vertex,
        )
        failure = "face lattice and realized faces differ"
        report = check_polytope_faces(graph)
        assert report.containment_ok and report.coarsening_ok
        assert not report.lattice_ok
        assert not report.ok
        assert failure in report.failures
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["lattice_ok"] is False
        assert failure in payload["failures"]

    def test_tight_set_that_is_no_face_fails_the_lattice_alone(
        self, k4, tmp_path, capsys, monkeypatch
    ):
        # the one-level polytope's tight set at the empty subset misses its
        # first vertex: no prefix chain reads mask 0, so every partition
        # still matches its chain face, but that set is no face
        real = polytopes.base_polytope

        def missing_vertex(table):
            poly = real(table)
            poly.tight = (poly.tight[0] & ~1,) + poly.tight[1:]
            return poly

        monkeypatch.setattr(polytopes, "base_polytope", missing_vertex)
        failure = "face lattice and realized faces differ"
        report = check_polytope_faces(k4[0])
        assert report.containment_ok and report.chain_match_ok and report.coarsening_ok
        assert not report.lattice_ok
        assert not report.ok
        assert report.failures == (failure,)
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["lattice_ok"] is False
        assert payload["failures"] == [failure]

    def one_level_vertices(self, graph, indices):
        every_vertex = base_polytope(
            residue_projection_table(graph, LevelStructure.trivial(graph.vertices))
        ).vertices
        return tuple(every_vertex[i] for i in indices)

    def test_partition_matches_no_chain_face(self, k4, tmp_path, capsys, monkeypatch):
        # the partition ({v4}, {v1, v2, v3}) has upper face (0, 2, 6) and
        # lower face (3, 5, 7, 8, 10, 11); it reports one-level vertex 0 alone
        graph = k4[0]
        only_zero = self.one_level_vertices(graph, [0])
        pi = misreport_partition(
            monkeypatch, graph, [["v4"], ["v1", "v2", "v3"]], vertices=lambda points: only_zero
        )
        failure = f"{pi!r}: not its lower chain face"
        report = check_polytope_faces(graph)
        assert report.containment_ok
        assert not report.chain_match_ok
        assert report.orientation == "lower"
        assert not report.ok
        assert failure in report.failures
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["chain_match_ok"] is False
        assert failure in payload["failures"]

    def test_one_partition_reporting_its_upper_face_fails_alone(
        self, k4, tmp_path, capsys, monkeypatch
    ):
        # the same partition reports its upper face; every other partition
        # matches its lower face, so this is the one chain-match failure,
        # with no verdict on the sweep as a whole (its merges' faces are no
        # longer inside its own, and its lower face is no longer realized)
        graph = k4[0]
        upper = self.one_level_vertices(graph, [0, 2, 6])
        pi = misreport_partition(
            monkeypatch, graph, [["v4"], ["v1", "v2", "v3"]], vertices=lambda points: upper
        )
        failure = f"{pi!r}: not its lower chain face"
        report = check_polytope_faces(graph)
        assert report.containment_ok
        assert report.orientation == "lower"
        assert not report.chain_match_ok
        assert not report.ok
        assert [f for f in report.failures if f.endswith("lower chain face")] == [failure]
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["chain_match_ok"] is False
        assert [f for f in payload["failures"] if f.endswith("lower chain face")] == [failure]

    def test_every_partition_reporting_its_upper_face_fails(
        self, k4, tmp_path, capsys, monkeypatch
    ):
        # every partition reports the face of the opposite convention, its
        # upper chain face: those faces are nested along merges and cover
        # the chain faces, so a search over both conventions would accept
        # them; all but the trivial partition, whose two faces agree, fail
        graph = k4[0]
        trivial = LevelStructure.trivial(graph.vertices)
        reference = base_polytope(residue_projection_table(graph, trivial))
        real_step = polytopes._table_and_face

        def upper_step(levels, *memos):
            table, _ = real_step(levels, *memos)
            return table, chain_face(reference, levels)

        monkeypatch.setattr(polytopes, "_table_and_face", upper_step)
        report = check_polytope_faces(graph)
        assert report.containment_ok and report.coarsening_ok and report.lattice_ok
        assert not report.chain_match_ok
        assert not report.ok
        mismatched = [pi for pi, _ in report.chain_faces if pi.r > 1]
        assert report.failures == tuple(f"{pi!r}: not its lower chain face" for pi in mismatched)
        assert len(report.failures) == 74
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["chain_match_ok"] is False
        assert len(payload["failures"]) == 74

    def test_vertex_set_not_contained_in_a_coarsening(self, k4, tmp_path, capsys, monkeypatch):
        # the coarse partition keeps only its first vertex, (0, 0, 1, 2); the
        # finer one's face also holds (0, 0, 2, 1)
        graph = k4[0]
        coarse = misreport_partition(
            monkeypatch, graph, [["v1"], ["v2", "v3", "v4"]],
            vertices=lambda points: points[:1],
        )
        fine = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2"], ["v3", "v4"]])
        failure = f"{fine!r} -> {coarse!r}: vertex set not contained"
        report = check_polytope_faces(graph)
        assert report.containment_ok
        assert not report.coarsening_ok
        assert not report.ok
        assert failure in report.failures
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["coarsening_ok"] is False
        assert failure in payload["failures"]

    def test_table_not_dominated_by_a_coarsening(self, k4, tmp_path, capsys, monkeypatch):
        # one more at every nonempty subset keeps the table submodular, and
        # its full-set value 4 exceeds the one-level table's 3; the vertex
        # set stays that of the true table, so only domination can fail
        graph = k4[0]
        pi = misreport_partition(
            monkeypatch, graph, [["v1"], ["v2", "v3", "v4"]],
            table=lambda t: SetFunction(t.ground, [v + (m > 0) for m, v in enumerate(t.values)]),
        )
        trivial = LevelStructure.trivial(graph.vertices)
        failure = f"{pi!r} -> {trivial!r}: table not dominated"
        report = check_polytope_faces(graph)
        assert report.containment_ok and report.chain_match_ok and report.lattice_ok
        assert not report.coarsening_ok
        assert not report.ok
        assert report.failures == (failure,)
        code, payload = k4_faces_payload(tmp_path, capsys)
        assert code == 1
        assert payload["ok"] is False
        assert payload["coarsening_ok"] is False
        assert payload["failures"] == [failure]
