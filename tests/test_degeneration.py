import random

import pytest

from resipoly.degeneration import (
    LaurentSubspace,
    WeightAssignment,
    check_degeneration,
    flag_and_realization,
    initial_space_limit,
    plucker_limit_oracle,
    residue_blocks,
)
from resipoly.graphs import LevelStructure
from resipoly.linalg import Subspace, det
from resipoly.polytopes import adjoint, projection_rank_table, splitting
from resipoly.randomized import (
    random_coarsening,
    random_level_structure,
    random_multigraph,
)
from resipoly.residues import residue_space

from conftest import random_subspace


def laurent_for(space, weights):
    return LaurentSubspace(space, weights)


def weights_follow_levels(assignment, levels):
    """Whether a weight assignment is on the structure's vertices, constant
    on its parts and strictly increasing across its levels, that is whether
    it induces exactly that ordered partition."""
    per_level = [{assignment.weight_of(v) for v in part} for part in levels.parts]
    if assignment.vertices != levels.vertices or any(len(w) != 1 for w in per_level):
        return False
    values = [w.pop() for w in per_level]
    return all(a < b for a, b in zip(values, values[1:]))


class TestWeightAssignment:
    def test_levels_recovered(self, fig1):
        _, levels, _ = fig1
        assignment = WeightAssignment.from_levels(levels)
        assert weights_follow_levels(assignment, levels)

    def test_custom_rule(self, fig1):
        _, levels, _ = fig1
        assignment = WeightAssignment.from_levels(levels, lambda n: 3 * n + 1)
        assert weights_follow_levels(assignment, levels)
        assert assignment.weight_of("u4") == 4
        assert assignment.weight_of("u1") == 7

    def test_non_increasing_rule_rejected(self, fig1):
        _, levels, _ = fig1
        with pytest.raises(ValueError):
            WeightAssignment.from_levels(levels, lambda n: -n)


class TestFlagAndRealization:
    def test_trivial_partition_identity(self):
        w = Subspace(3, [[1, 2, 3], [0, 1, 1]])
        levels = LevelStructure(("a",), (1,))
        flag, realization = flag_and_realization(w, levels, {1: (0, 1, 2)})
        assert flag == (w,)
        assert realization == w

    def test_two_block_example(self):
        w = Subspace(2, [[1, 1]])
        levels = LevelStructure(("a", "b"), (1, 2))
        flag, realization = flag_and_realization(w, levels, {1: (0,), 2: (1,)})
        assert flag[0].dim == 0
        assert realization == Subspace(2, [[0, 1]])

    def test_blocks_must_partition(self):
        w = Subspace(2, [[1, 1]])
        levels = LevelStructure(("a", "b"), (1, 2))
        with pytest.raises(ValueError):
            flag_and_realization(w, levels, {1: (0,), 2: (0,)})

    def test_k4_realization_equals_level_residues(self, k4):
        graph, trivial, _ = k4
        pi = LevelStructure.from_parts(graph.vertices, [["v1"], ["v2", "v3", "v4"]])
        cycle_space = residue_space(graph, trivial)
        _, realization = flag_and_realization(
            cycle_space, pi, residue_blocks(graph, pi)
        )
        assert realization == residue_space(graph, pi)

    def test_idempotent(self):
        rng = random.Random(51)
        for _ in range(20):
            graph = random_multigraph(rng, max_vertices=4, max_edges=6)
            fine = random_level_structure(rng, graph)
            blocks = residue_blocks(graph, fine)
            space = residue_space(graph, LevelStructure.trivial(graph.vertices))
            _, once = flag_and_realization(space, fine, blocks)
            _, twice = flag_and_realization(once, fine, blocks)
            assert once == twice


class TestInitialSpaceLimit:
    def test_constant_weights_fix_the_point(self):
        w = Subspace(3, [[1, 2, 0], [0, 1, 1]])
        assert initial_space_limit(laurent_for(w, (5, 5, 5))) == w

    def test_two_coordinate_example(self):
        w = Subspace(2, [[1, 1]])
        assert initial_space_limit(laurent_for(w, (0, 1))) == Subspace(2, [[0, 1]])

    def test_fig1_limit_is_the_level_residue_space(self, fig1):
        graph, levels, _ = fig1
        trivial = LevelStructure.trivial(graph.vertices)
        cycle_space = residue_space(graph, trivial)
        assignment = WeightAssignment.from_levels(levels)
        laurent = LaurentSubspace.for_residues(cycle_space, graph, assignment)
        assert initial_space_limit(laurent) == residue_space(graph, levels)

    def test_dimension_preserved(self):
        rng = random.Random(52)
        for _ in range(50):
            ambient = rng.randint(1, 7)
            w = random_subspace(rng, ambient)
            weights = tuple(rng.randint(-2, 3) for _ in range(ambient))
            assert initial_space_limit(laurent_for(w, weights)).dim == w.dim

    def test_weight_rule_does_not_matter(self):
        rng = random.Random(53)
        for _ in range(15):
            graph = random_multigraph(rng, max_vertices=4, max_edges=6)
            fine = random_level_structure(rng, graph)
            coarse = random_coarsening(rng, fine)
            space = residue_space(graph, coarse)
            for rule in (None, lambda n: 3 * n + 1):
                assignment = WeightAssignment.from_levels(fine, rule)
                laurent = LaurentSubspace.for_residues(space, graph, assignment)
                assert initial_space_limit(laurent) == residue_space(graph, fine)

    def test_limit_equals_realization_on_arbitrary_subspaces(self):
        # whenever the coordinate blocks follow the weight level sets, the
        # leading-form limit and the flag realization agree
        rng = random.Random(57)
        for _ in range(40):
            parts = rng.randint(1, 4)
            sizes = [rng.randint(1, 3) for _ in range(parts)]
            ambient = sum(sizes)
            w = random_subspace(rng, ambient)
            block_map = {}
            weights = []
            start = 0
            for n, size in enumerate(sizes, start=1):
                block_map[n] = tuple(range(start, start + size))
                weights.extend([n] * size)
                start += size
            names = tuple(f"p{n}" for n in range(1, parts + 1))
            levels = LevelStructure(names, tuple(range(1, parts + 1)))
            _, realization = flag_and_realization(w, levels, block_map)
            limit = initial_space_limit(LaurentSubspace(w, weights))
            assert limit == realization


class TestPluckerOracle:
    def test_constant_weights(self):
        w = Subspace(3, [[1, 2, 0], [0, 1, 1]])
        assert plucker_limit_oracle(laurent_for(w, (2, 2, 2))) == w

    def test_two_coordinate_example(self):
        w = Subspace(2, [[1, 1]])
        assert plucker_limit_oracle(laurent_for(w, (0, 1))) == Subspace(2, [[0, 1]])

    def test_agrees_with_initial_forms(self):
        rng = random.Random(54)
        for _ in range(60):
            ambient = rng.randint(1, 7)
            w = random_subspace(rng, ambient)
            weights = tuple(rng.randint(-2, 3) for _ in range(ambient))
            laurent = laurent_for(w, weights)
            assert plucker_limit_oracle(laurent) == initial_space_limit(laurent)

    def test_basis_is_cleared_once(self, fig1, monkeypatch):
        # fig1's one-level space: dim 3 in Q^14, so C(14, 3) = 364 minors;
        # converting entries once per minor would cost thousands of calls.
        # The basis is held as int rows and the limit is decoded as int
        # rows, so the oracle converts nothing at all.
        import resipoly.linalg

        calls = []
        original = resipoly.linalg.to_fraction

        def counted(value):
            calls.append(value)
            return original(value)

        graph, _, _ = fig1
        space = residue_space(graph, LevelStructure.trivial(graph.vertices))
        assert (space.dim, space.ambient_dim) == (3, 14)
        laurent = laurent_for(space, tuple(range(14)))
        monkeypatch.setattr(resipoly.linalg, "to_fraction", counted)
        plucker_limit_oracle(laurent)
        assert calls == []
        det([["1/2", 0], [0, 1]])  # the counter does see a rational row
        assert calls == ["1/2", 0]

    def test_size_bound(self):
        rows = [[0] * i + [1] + [0] * (29 - i) for i in range(10)]
        w = Subspace(30, rows)
        laurent = laurent_for(w, tuple(range(30)))
        with pytest.raises(ValueError):
            plucker_limit_oracle(laurent, max_minors=10)


class TestRealizationTables:
    def test_split_table_equals_realization_table(self):
        # projected ranks of the realization match the split of the input's
        # projected ranks, for arbitrary block structures
        rng = random.Random(55)
        for _ in range(30):
            parts = rng.randint(1, 4)
            sizes = [rng.randint(1, 2) for _ in range(parts)]
            ambient = sum(sizes)
            ground = tuple(f"g{i}" for i in range(parts))
            blocks = []
            start = 0
            for size in sizes:
                blocks.append(tuple(range(start, start + size)))
                start += size
            w = random_subspace(rng, ambient)
            shuffled = list(ground)
            rng.shuffle(shuffled)
            r = rng.randint(1, len(shuffled))
            cuts = sorted(rng.sample(range(1, len(shuffled)), r - 1)) if r > 1 else []
            part_lists, begin = [], 0
            for cut in cuts + [len(shuffled)]:
                part_lists.append(shuffled[begin:cut])
                begin = cut
            levels = LevelStructure.from_parts(ground, part_lists)
            block_map = {n: [] for n in range(1, levels.r + 1)}
            for i, name in enumerate(ground):
                block_map[levels.level_of(name)].extend(blocks[i])
            _, realization = flag_and_realization(w, levels, block_map)
            table = projection_rank_table(w, ground, blocks)
            realized_table = projection_rank_table(realization, ground, blocks)
            assert splitting(table, levels, "submodular") == realized_table
            assert splitting(adjoint(table), levels, "supermodular") == adjoint(
                realized_table
            )


class TestCheckDegeneration:
    def test_fig1_against_trivial(self, fig1):
        graph, levels, _ = fig1
        trivial = LevelStructure.trivial(graph.vertices)
        report = check_degeneration(graph, levels, trivial)
        assert report.ok
        assert report.residue_dim == 3

    def test_identity_pair(self, fig2):
        graph, levels, _ = fig2
        assert check_degeneration(graph, levels, levels).ok

    def test_oracle_not_run_is_not_reported_as_passed(self, fig1):
        graph, levels, _ = fig1
        trivial = LevelStructure.trivial(graph.vertices)
        report = check_degeneration(graph, levels, trivial, with_oracle=False)
        assert report.oracle_matches is None
        assert report.limit_matches and report.realization_matches
        assert report.splitting_matches
        assert report.ok

    def test_one_residue_space_per_side(self, fig1, monkeypatch):
        import resipoly.degeneration
        import resipoly.polytopes

        calls = []

        def counted(graph, levels):
            calls.append(levels)
            return residue_space(graph, levels)

        for module in (resipoly.degeneration, resipoly.polytopes):
            monkeypatch.setattr(module, "residue_space", counted)
        graph, levels, _ = fig1
        trivial = LevelStructure.trivial(graph.vertices)
        assert check_degeneration(graph, levels, trivial).ok
        assert len(calls) == 2

    def test_fig2_intermediate_coarsening(self, fig2):
        graph, levels, _ = fig2
        merged = LevelStructure.from_parts(
            graph.vertices, [list(levels.parts[0]) + list(levels.parts[1]), list(levels.parts[2])]
        )
        report = check_degeneration(graph, levels, merged)
        assert report.ok
        assert report.residue_dim == 0

    def test_rejects_non_coarsening(self, fig1):
        graph, levels, _ = fig1
        flipped = LevelStructure.from_map(
            graph.vertices,
            {v: -levels.level_of(v) for v in graph.vertices},
        )
        with pytest.raises(ValueError):
            check_degeneration(graph, levels, flipped)

    def test_random_triples(self):
        rng = random.Random(56)
        for _ in range(15):
            graph = random_multigraph(rng, max_vertices=4, max_edges=6)
            fine = random_level_structure(rng, graph)
            coarse = random_coarsening(rng, fine)
            assert check_degeneration(graph, fine, coarse).ok
