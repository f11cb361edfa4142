import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from resipoly import fixtures
from resipoly.cli import main
from resipoly.degeneration import (
    LaurentSubspace,
    check_degeneration,
    flag_and_realization,
    initial_space_limit,
    plucker_limit_oracle,
    residue_blocks,
)
from resipoly.graphs import LevelStructure, load_level_graph
from resipoly.linalg import Subspace, det
from resipoly.polytopes import (
    InvariantViolation,
    projection_rank_table,
    splitting,
)
from resipoly.randomized import (
    random_coarsening,
    random_level_structure,
    random_multigraph,
)
from resipoly.residues import residue_space
from resipoly.verify import _fixture_degenerations

from conftest import (
    adjoint,
    arrows_with_tail,
    fig1_degenerate_argv,
    random_subspace,
    reference_initial_space_limit,
    reference_plucker_oracle,
)


def laurent_for(space, weights):
    return LaurentSubspace(space, weights)


def residue_laurent(graph, fine, coarse):
    """The coarse residue space weighted toward the fine partition."""
    return LaurentSubspace.for_residues(residue_space(graph, coarse), graph, fine)


def assert_three_limits_agree(laurent):
    limit = plucker_limit_oracle(laurent)
    assert limit == reference_plucker_oracle(laurent)
    assert limit == initial_space_limit(laurent)
    assert limit == reference_initial_space_limit(laurent)


def residue_triples():
    """300 seeded coarse residue spaces weighted toward a finer partition."""
    rng = random.Random(57)
    for _ in range(300):
        graph = random_multigraph(rng, max_vertices=5, max_edges=7)
        fine = random_level_structure(rng, graph)
        coarse = random_coarsening(rng, fine)
        yield residue_laurent(graph, fine, coarse)


def weights_follow_levels(graph, weights, levels):
    """Whether arrow weights are constant on the arrows with tail in each
    part and strictly increasing across the levels, that is whether they
    induce exactly that ordered partition of the tails."""
    tails = arrows_with_tail(graph)
    per_level = [{weights[a] for v in part for a in tails[v]} for part in levels.parts]
    if any(len(w) != 1 for w in per_level):
        return False
    values = [w.pop() for w in per_level]
    return all(a < b for a, b in zip(values, values[1:]))


class TestLaurentSubspace:
    def test_levels_recovered(self, fig1):
        graph, levels, _ = fig1
        laurent = LaurentSubspace.for_residues(residue_space(graph, levels), graph, levels)
        assert len(laurent.coordinate_weights) == graph.num_arrows
        assert weights_follow_levels(graph, laurent.coordinate_weights, levels)


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
        laurent = LaurentSubspace.for_residues(cycle_space, graph, levels)
        assert initial_space_limit(laurent) == residue_space(graph, levels)

    def test_dimension_guard(self, fig1, monkeypatch):
        # a limit that loses a row must not pass as the limit
        import resipoly.degeneration

        monkeypatch.setattr(
            resipoly.degeneration, "Subspace", lambda width, rows: Subspace(width, rows[:-1])
        )
        graph, levels, _ = fig1
        space = residue_space(graph, LevelStructure.trivial(graph.vertices))
        laurent = LaurentSubspace.for_residues(space, graph, levels)
        with pytest.raises(InvariantViolation) as err:
            initial_space_limit(laurent)
        assert str(err.value) == "limit changed the dimension"

    def test_dependent_basis_rows(self):
        # a stand-in space claiming dimension 2 with rows (1, 1) and (2, 2)
        space = SimpleNamespace(ambient_dim=2, dim=2, rows=((1, 1), (2, 2)))
        with pytest.raises(InvariantViolation) as err:
            initial_space_limit(LaurentSubspace(space, (0, 1)))
        assert str(err.value) == "basis rows were dependent"

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
            by_level = LaurentSubspace.for_residues(space, graph, fine)
            spread = LaurentSubspace(space, [3 * n + 1 for n in by_level.coordinate_weights])
            for laurent in (by_level, spread):
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

    def test_matches_reference(self):
        # 40 subspaces of each dimension 0..n of Q^n, n = 1..9, with sparse
        # entries and weights in -3..3, at least two of them tied
        rng = random.Random(59)
        cases = 0
        for ambient in range(1, 10):
            for dim in range(ambient + 1):
                for _ in range(40):
                    space = Subspace(ambient)
                    while space.dim != dim:
                        rows = [
                            [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(ambient)]
                            for _ in range(dim)
                        ]
                        space = Subspace(ambient, rows)
                    weights = [rng.randint(-3, 3) for _ in range(ambient)]
                    if ambient > 1:
                        i, j = rng.sample(range(ambient), 2)
                        weights[j] = weights[i]
                    laurent = laurent_for(space, weights)
                    assert initial_space_limit(laurent) == reference_initial_space_limit(laurent)
                    cases += 1
        for laurent in residue_triples():
            assert initial_space_limit(laurent) == reference_initial_space_limit(laurent)
        assert cases == 40 * sum(range(2, 11))

    def test_limit_stays_integral(self, monkeypatch):
        # the leading forms (0,0,1,0) and (0,0,2,0) of the basis are
        # dependent; the limit is still found on ints alone
        import resipoly.linalg

        calls = []
        original = resipoly.linalg.to_fraction

        def counted(value):
            calls.append(value)
            return original(value)

        laurent = laurent_for(Subspace(4, [[1, 0, 1, 0], [0, 1, 2, 0]]), (0, 0, 1, 0))
        monkeypatch.setattr(resipoly.linalg, "to_fraction", counted)
        limit = initial_space_limit(laurent)
        assert calls == []
        assert limit.rows == ((2, -1, 0, 0), (0, 0, 1, 0))
        assert all(type(x) is int for row in limit.rows for x in row)


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

    def test_matches_reference_on_residue_triples(self):
        for laurent in residue_triples():
            assert_three_limits_agree(laurent)

    def test_matches_reference_on_tied_weights(self):
        # weights drawn from two or three values, so that many columns tie
        # and the greedy anchor is one of several of largest weight
        rng = random.Random(58)
        for _ in range(300):
            ambient = rng.randint(1, 8)
            values = rng.sample(range(-2, 4), rng.randint(2, 3))
            weights = tuple(rng.choice(values) for _ in range(ambient))
            assert_three_limits_agree(laurent_for(random_subspace(rng, ambient), weights))

    @pytest.mark.parametrize("name", ["fig1", "k4"])
    def test_matches_reference_on_fixture_pairs(self, name):
        graph, levels = load_level_graph(fixtures.document(name))
        for fine, coarse in _fixture_degenerations(graph, levels):
            assert_three_limits_agree(residue_laurent(graph, fine, coarse))

    def test_minors_next_to_the_anchor_only(self, fig1, monkeypatch):
        # fig1's one-level space: dim 3 in Q^14.  Under constant weights
        # every column ties, so the decoding takes the anchor minor and the
        # 3 * 11 minors one column away from it, not all C(14, 3) = 364;
        # under distinct weights none ties, and the anchor minor is all.
        import resipoly.degeneration

        calls = []
        original = resipoly.degeneration.det

        def counted(rows):
            calls.append(rows)
            return original(rows)

        graph, _, _ = fig1
        space = residue_space(graph, LevelStructure.trivial(graph.vertices))
        assert (space.dim, space.ambient_dim) == (3, 14)
        monkeypatch.setattr(resipoly.degeneration, "det", counted)
        for weights, most in (((0,) * 14, 3 * 11 + 1), (tuple(range(14)), 1)):
            laurent = laurent_for(space, weights)
            calls.clear()
            limit = plucker_limit_oracle(laurent)
            assert 0 < len(calls) <= most
            assert limit == reference_plucker_oracle(laurent)

    def test_zero_anchor_minor_is_an_invariant_violation(self, monkeypatch):
        import resipoly.degeneration

        monkeypatch.setattr(resipoly.degeneration, "det", lambda rows: Fraction(0))
        laurent = laurent_for(Subspace(2, [[1, 1]]), (0, 1))
        with pytest.raises(InvariantViolation) as err:
            plucker_limit_oracle(laurent)
        assert str(err.value) == "greedy anchor minor is zero"

    def test_decoded_dimension_guard(self, fig1, monkeypatch):
        """A decoded limit that loses a row must not pass as the limit.

        Only a broken `Subspace` reaches this guard: row k of the decoded
        basis holds the anchor minor, which is nonzero, at its own anchor
        column and 0 at the other anchor columns, so the decoded rows always
        have rank m."""
        import resipoly.degeneration

        monkeypatch.setattr(
            resipoly.degeneration, "Subspace", lambda width, rows: Subspace(width, rows[:-1])
        )
        graph, levels, _ = fig1
        space = residue_space(graph, LevelStructure.trivial(graph.vertices))
        laurent = LaurentSubspace.for_residues(space, graph, levels)
        with pytest.raises(InvariantViolation) as err:
            plucker_limit_oracle(laurent)
        assert str(err.value) == "decoded limit has the wrong dimension"

    def test_basis_is_cleared_once(self, fig1, monkeypatch):
        # fig1's one-level space: dim 3 in Q^14.  The basis is held as int
        # rows and the limit is decoded as int rows, so the oracle converts
        # nothing at all.
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
        # C(30, 10), about 3 * 10^7 exterior coordinates, is over the bound
        rows = [[0] * i + [1] + [0] * (29 - i) for i in range(10)]
        w = Subspace(30, rows)
        laurent = laurent_for(w, tuple(range(30)))
        with pytest.raises(ValueError, match="exceed the bound"):
            plucker_limit_oracle(laurent)


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
            for i, n in enumerate(levels.levels):
                block_map[n].extend(blocks[i])
            _, realization = flag_and_realization(w, levels, block_map)
            table = projection_rank_table(w, ground, blocks)
            realized_table = projection_rank_table(realization, ground, blocks)
            assert splitting(table, levels) == realized_table
            # the supermodular split of the adjoint, through the adjoint
            dual = adjoint(table)
            assert adjoint(splitting(adjoint(dual), levels)) == adjoint(realized_table)


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
        assert not report.ok

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
            {v: -n for v, n in zip(graph.vertices, levels.levels)},
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


class TestFaultInjection:
    """Each verdict of `check_degeneration` fed one wrong object must fail on
    its own, and `resipoly degenerate` exits 1.  Every wrong object is fig1's
    one-level residue space (or its table) left undegenerated, which differs
    from the residue space (and table) of fig1's levels."""

    @pytest.mark.parametrize(
        "target,wrong,failed",
        [
            ("initial_space_limit", lambda laurent: laurent.space, {"limit", "oracle"}),
            ("flag_and_realization", lambda space, levels, blocks: ((), space), {"realization"}),
            ("splitting", lambda table, levels: table, {"splitting"}),
            ("plucker_limit_oracle", lambda laurent: laurent.space, {"oracle"}),
        ],
        ids=["limit", "realization", "splitting", "oracle"],
    )
    def test_wrong_route_fails_its_check(
        self, fig1, tmp_path, capsys, monkeypatch, target, wrong, failed
    ):
        import resipoly.degeneration

        # the oracle is compared with the leading-form limit, so a wrong
        # limit fails both
        monkeypatch.setattr(resipoly.degeneration, target, wrong)
        graph, levels, _ = fig1
        report = check_degeneration(graph, levels, LevelStructure.trivial(graph.vertices))
        assert not report.ok
        assert main(fig1_degenerate_argv(tmp_path)) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {name for name, ok in payload["checks"].items() if not ok} == failed
