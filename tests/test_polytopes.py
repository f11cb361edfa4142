import random
from fractions import Fraction

import pytest

from resipoly.graphs import LevelStructure, load_level_graph, ordered_partitions
from resipoly.polytopes import (
    InvariantViolation,
    SetFunction,
    adjoint,
    base_polytope,
    chain_face,
    check_polytope_faces,
    contraction_table,
    projection_rank_table,
    residue_projection_table,
    splitting,
)
from resipoly.randomized import random_level_structure, random_multigraph

from conftest import coarsenings, is_supermodular, range_value, value_of


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
        expected = set()
        import itertools

        for perm in itertools.permutations((2, 1, 0, 0)):
            expected.add(perm)
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
        bad = SetFunction(("a", "b"), (0, 0, 0, 5))
        with pytest.raises(InvariantViolation):
            base_polytope(bad)

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
        import itertools

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


class TestSplitting:
    def test_trivial_partition_is_identity(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        assert splitting(table, levels, "submodular") == table
        assert splitting(adjoint(table), levels, "supermodular") == adjoint(table)

    def test_modular_functions_are_fixed(self):
        ground = ("a", "b", "c", "d")
        q = modular_from_point(ground, (1, 3, 0, 2))
        for pi in ordered_partitions(ground):
            assert splitting(q, pi, "supermodular") == q
            assert splitting(q, pi, "submodular") == q

    def test_k4_splitting_matches_level_table(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        pi = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2", "v3", "v4"]])
        fine = residue_projection_table(graph, pi)
        assert splitting(table, pi, "submodular") == fine
        assert splitting(adjoint(table), pi, "supermodular") == adjoint(fine)

    def test_supermodular_split_stays_supermodular(self):
        rng = random.Random(44)
        for _ in range(30):
            graph = random_multigraph(rng)
            coarse = random_level_structure(rng, graph)
            table = adjoint(residue_projection_table(graph, coarse))
            pi = random_level_structure(rng, graph)
            out = splitting(table, pi, "supermodular")
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

    def test_kind_validated(self, k4):
        graph, levels, _ = k4
        table = residue_projection_table(graph, levels)
        with pytest.raises(ValueError):
            splitting(table, levels, "modular")

    def test_ground_set_mismatch(self, k4, c3):
        table = residue_projection_table(k4[0], k4[1])
        with pytest.raises(ValueError):
            splitting(table, c3[1], "submodular")


class TestChainFace:
    def test_trivial_chain_is_everything(self, k4):
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        assert chain_face(poly, levels, "upper") == tuple(range(12))
        assert chain_face(poly, levels, "lower") == tuple(range(12))

    def test_k4_split_faces(self, k4):
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        pi = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2", "v3", "v4"]])
        upper = chain_face(poly, pi, "upper")
        assert [poly.vertices[i][0] for i in upper] == [Fraction(2)] * 3
        lower = chain_face(poly, pi, "lower")
        assert [poly.vertices[i][0] for i in lower] == [Fraction(0)] * 6

    def test_bad_orientation(self, k4):
        graph, levels, _ = k4
        poly = base_polytope(residue_projection_table(graph, levels))
        with pytest.raises(ValueError):
            chain_face(poly, levels, "sideways")


class TestFaceSweep:
    def test_k4_full_sweep(self, k4):
        graph, _, _ = k4
        report = check_polytope_faces(graph)
        assert report.ok
        assert report.partitions_checked == 75
        assert report.orientation == "lower"
        assert report.failures == ()

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


class TestProjectionRankTable:
    def test_blocks_must_partition(self):
        from resipoly.linalg import Subspace

        space = Subspace(4, [[1, 1, 0, 0]])
        with pytest.raises(ValueError):
            projection_rank_table(space, ("a", "b"), [(0, 1), (1, 2)])

    def test_single_vertex_no_edges(self):
        graph, levels = load_level_graph({"vertices": ["a"], "edges": []})
        table = residue_projection_table(graph, levels)
        assert table.values == (0, 0)
        poly = base_polytope(table)
        assert poly.vertices == ((Fraction(0),),)
