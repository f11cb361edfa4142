import itertools
import math
import random
from fractions import Fraction

import pytest

from resipoly.linalg import (
    Subspace,
    _echelon,
    _kernel,
    _kernel_basis,
    VectorCollection,
    det,
    kernel,
    kernel_of_projection,
    project_image,
    rank,
    set_theoretic_checks,
    to_fraction,
)
from resipoly.randomized import random_sti_collection

from conftest import (
    find_arrows,
    random_subspace,
    rank_mod_p,
    reference_rank,
    reference_rref,
    reference_support_checks,
)


def random_matrix(rng, rows, cols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def reference_kernel_of_projection(basis, coords, ambient):
    """RREF ``(rows, pivots)`` of the vectors of the span of `basis` that
    vanish on `coords`, by rational Gauss-Jordan alone: each coordinate in
    `coords` is one equation on the combination of the basis rows."""
    m = len(basis)
    equations = [[Fraction(row[c]) for row in basis] for c in coords]
    reduced, pivots = reference_rref(equations, m)
    vectors = []
    for f in range(m):
        if f in pivots:
            continue
        combination = [Fraction(int(k == f)) for k in range(m)]
        for row, p in zip(reduced, pivots):
            combination[p] = -row[f]
        vectors.append(
            [sum(x * row[j] for x, row in zip(combination, basis)) for j in range(ambient)]
        )
    return reference_rref(vectors, ambient)


def rref_cases():
    """120 seeded (width, rows) cases: "p/q" strings, zero rows, duplicate
    rows, wide and tall shapes."""
    rng = random.Random(16)
    entries = [0, 0, 1, -1, 2, -3, "1/2", "-2/3", "5/4", "7/6"]
    for case in range(120):
        width = rng.randint(1, 3) if case % 2 else rng.randint(4, 8)
        height = rng.randint(4, 9) if case % 2 else rng.randint(0, 3)
        rows = [[rng.choice(entries) for _ in range(width)] for _ in range(height)]
        if rows and case % 3 == 0:
            rows.append([0] * width)
        if rows and case % 4 == 0:
            rows.append(list(rng.choice(rows)))
        rng.shuffle(rows)
        yield width, rows


class TestRationals:
    def test_round_trips(self):
        assert to_fraction("3/4") == Fraction(3, 4)
        assert to_fraction(7) == 7
        assert rank([["1/2", "1/3"], ["3/2", 1]]) == 1
        assert det([["1/2", 0], [0, "2/3"]]) == Fraction(1, 3)
        assert kernel([["1/2", "1/3"]]) == Subspace(2, [[2, -3]])

    def test_floats_rejected(self):
        for bad in (0.5, True):
            with pytest.raises(TypeError):
                to_fraction(bad)
            for call in (rank, det, kernel):
                with pytest.raises(TypeError):
                    call([[bad]])


class TestRref:
    def test_identity_is_fixed(self):
        space = Subspace(3, identity(3))
        assert space.dim == 3
        assert space.basis == tuple(map(tuple, identity(3)))
        assert space.pivots == (0, 1, 2)

    def test_dependent_rows_collapse(self):
        space = Subspace(2, [[1, 2], [2, 4]])
        assert space.dim == 1
        assert space.basis == ((Fraction(1), Fraction(2)),)

    def test_idempotent_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(60):
            width = rng.randint(1, 6)
            once = Subspace(width, random_matrix(rng, rng.randint(0, 5), width))
            twice = Subspace(width, once.basis)
            assert once.basis == twice.basis
            assert once.pivots == twice.pivots

    def test_rank_agrees_with_reference(self):
        rng = random.Random(12)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(0, 5), rng.randint(1, 6))
            if not m:
                continue
            assert rank(m) == reference_rank(m)
            assert Subspace(len(m[0]), m).dim == reference_rank(m)

    def test_rank_clears_denominators(self):
        singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert rank(singular) == reference_rank(singular) == 1
        regular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
        assert rank(regular) == reference_rank(regular) == 2

    def test_rank_rejects_ragged_rows(self):
        for rows in ([[1, 0], [1]], [[1], [0, 1]], [["1/2", 0], [1]]):
            with pytest.raises(ValueError, match="ragged rows"):
                rank(rows)

    def test_matches_reference_rref(self):
        for width, rows in rref_cases():
            expected_rows, expected_pivots = reference_rref(
                [[to_fraction(x) for x in row] for row in rows], width
            )
            space = Subspace(width, rows)
            assert space.basis == tuple(tuple(row) for row in expected_rows)
            assert space.pivots == tuple(expected_pivots)
            assert all(type(x) is Fraction for row in space.basis for x in row)

    def test_rank_mod_p_matches_on_small_entries(self):
        rng = random.Random(13)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), bound=2)
            assert rank_mod_p(m, 10007) <= rank(m)


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        space = kernel([[0] * 5, [0] * 5], num_cols=5)
        assert space.dim == 5
        assert space == Subspace(5, identity(5))

    def test_malformed_matrix_rejected(self):
        # ragged rows, and an empty matrix without a column count
        for rows in ([[1, 2], [3]], [[1], [3, 4]], []):
            with pytest.raises(ValueError):
                kernel(rows)

    def test_negative_column_count_rejected(self):
        with pytest.raises(ValueError):
            kernel([], num_cols=-1)

    def test_boolean_column_count_rejected(self):
        # True == 1, but a flag is no width
        with pytest.raises(ValueError):
            kernel([], num_cols=True)

    def test_column_count_must_match_the_rows(self):
        with pytest.raises(ValueError):
            kernel([[1, 2]], num_cols=5)
        assert kernel([[1, 2]], num_cols=2) == kernel([[1, 2]])

    def test_full_rank_square_zero_kernel(self):
        space = kernel([[1, 1], [0, 1]])
        assert space.dim == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(14)
        for _ in range(40):
            rows = random_matrix(rng, rng.randint(1, 4), 6)
            space = kernel(rows, num_cols=6)
            assert space.dim == 6 - reference_rank(rows)
            for v in space.basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0

    def test_integral_basis_spans_the_kernel(self):
        # width - rank sparse integer vectors, one per free column, that
        # annihilate the rows and span the canonical kernel; the empty
        # echelon gives the unit vectors, and width 0 gives nothing
        rng = random.Random(15)
        cases = [([], width) for width in range(4)] + [([[0, 0, 0]], 3), ([[1, 0], [0, 1]], 2)]
        cases += [([[Fraction(1, 2), 3, -1]], 3)]
        for _ in range(60):
            cols = rng.randint(1, 6)
            cases.append((random_matrix(rng, rng.randint(1, 5), cols, bound=3), cols))
        for rows, width in cases:
            _, echelon = _echelon(rows)
            basis = _kernel_basis(echelon, range(width))
            assert len(basis) == width - len(echelon) == width - reference_rank(rows)
            assert all(type(x) is int and x for v in basis for x in v.values())
            assert all(0 <= c < width for v in basis for c in v)
            dense = [[v.get(c, 0) for c in range(width)] for v in basis]
            assert reference_rank(dense) == len(basis)
            for v in dense:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            assert Subspace(width, dense) == _kernel(echelon, width)
        assert _kernel_basis({}, range(0)) == []
        assert _kernel_basis({}, range(3)) == [{0: 1}, {1: 1}, {2: 1}]


class TestSubspace:
    def test_boolean_ambient_dimension_rejected(self):
        # True == 1, but a flag is no dimension
        with pytest.raises(ValueError):
            Subspace(True, [[1]])

    def test_non_int_ambient_dimension_rejected(self):
        with pytest.raises(ValueError):
            Subspace(2.5)

    def test_negative_ambient_dimension_rejected(self):
        with pytest.raises(ValueError):
            Subspace(-1)

    def test_equality_is_basis_equality(self):
        a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
        b = Subspace(3, [[2, 2, 2], [0, 0, 5]])
        assert a == b
        assert hash(a) == hash(b)

    def test_containment(self):
        big = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        small = Subspace(3, [[3, 4, 0]])
        assert big.contains(small)
        assert not small.contains(big)

    def test_projection_of_everything_is_identity_like(self):
        w = Subspace(4, [[1, 2, 3, 4], [0, 1, 0, 1]])
        assert project_image(w, range(4)) == w

    def test_projection_to_nothing(self):
        w = Subspace(4, [[1, 2, 3, 4]])
        assert project_image(w, ()).ambient_dim == 0
        assert project_image(w, ()).dim == 0

    def test_kernel_of_projection_extremes(self):
        w = Subspace(4, [[1, 2, 3, 4], [0, 1, 0, 1]])
        assert kernel_of_projection(w, range(4)).dim == 0
        assert kernel_of_projection(w, ()) == w

    @pytest.mark.parametrize("route", [project_image, kernel_of_projection])
    @pytest.mark.parametrize(
        "coordinates",
        [[-1], [3], [True], [1.0], [1, True], ["1"]],
        ids=["negative", "past-the-end", "boolean", "float", "boolean-repeat", "string"],
    )
    def test_coordinates_must_be_ints_in_range(self, route, coordinates):
        # True would be read as coordinate 1, 1.0 would fail as an index,
        # and a boolean beside its int would be deduplicated into it
        w = Subspace(3, [[0, 1, 0], [1, 0, 1]])
        with pytest.raises(ValueError):
            route(w, coordinates)
        assert route(w, [1, 1]) == route(w, [1])

    def test_rank_nullity_on_random_spaces(self):
        rng = random.Random(15)
        for _ in range(60):
            ambient = rng.randint(1, 7)
            w = Subspace(ambient, random_matrix(rng, rng.randint(0, 4), ambient))
            k = rng.randint(0, ambient)
            coords = rng.sample(range(ambient), k)
            image = project_image(w, coords)
            ker = kernel_of_projection(w, coords)
            assert image.dim + ker.dim == w.dim
            assert w.contains(ker)

    def test_kernel_of_projection_matches_rational_route(self):
        # the whole subspace, against the combinations of the basis rows that
        # vanish on `coords`, solved and reduced by rational Gauss-Jordan
        rng = random.Random(18)
        proper = 0
        for case in range(200):
            ambient = rng.randint(2, 9)
            w = random_subspace(rng, ambient, max_dim=6, entry_bound=1 + case % 3)
            coords = rng.sample(range(ambient), rng.randint(0, ambient // 2 + 1))
            expected_rows, expected_pivots = reference_kernel_of_projection(
                w.rows, coords, ambient
            )
            ker = kernel_of_projection(w, coords)
            assert ker.basis == tuple(tuple(row) for row in expected_rows)
            assert ker.pivots == tuple(expected_pivots)
            proper += 0 < ker.dim < w.dim
        assert proper > 50  # most cases keep some rows and drop others

    def test_rows_are_scaled_rref_rows(self):
        for width, rows in rref_cases():
            space = Subspace(width, rows)
            assert len(space.rows) == len(space.basis) == len(space.pivots)
            for row, p, reduced in zip(space.rows, space.pivots, space.basis):
                assert all(type(x) is int for x in row)
                assert math.gcd(*row) == 1
                assert row[p] > 0
                assert all(row[q] == 0 for q in space.pivots if q != p)
                assert tuple(Fraction(x, row[p]) for x in row) == reduced
            assert Subspace(width, space.rows) == space

    def test_contains_matches_rank(self):
        rng = random.Random(17)
        held = 0
        for _ in range(200):
            ambient = rng.randint(1, 6)
            a = Subspace(ambient, random_matrix(rng, rng.randint(0, 4), ambient, bound=2))
            if rng.random() < 0.5:
                # a subspace of a: random integer combinations of its rows
                combos = random_matrix(rng, rng.randint(0, 3), a.dim, bound=3)
                vectors = [
                    [sum(c * row[j] for c, row in zip(combo, a.rows)) for j in range(ambient)]
                    for combo in combos
                ]
            else:
                vectors = random_matrix(rng, rng.randint(0, 3), ambient, bound=2)
            b = Subspace(ambient, vectors)
            expected = rank(list(a.rows) + list(b.rows)) == a.dim
            assert a.contains(b) == expected
            held += expected
        assert 40 < held < 160  # both verdicts occur often


class TestDet:
    def test_known_values(self):
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
        assert det([]) == 1

    def test_alternating_and_singular(self):
        assert det([[1, 2], [2, 4]]) == 0
        rng = random.Random(16)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            swapped = [m[1], m[0]] + m[2:] if n >= 2 else m
            if n >= 2:
                assert det(swapped) == -det(m)


def brute_force_relatedness(vectors1, vectors2):
    sup1, sup2 = (
        [frozenset(j for j, x in enumerate(v) if x) for v in vectors]
        for vectors in (vectors1, vectors2)
    )
    related = False
    properly = True
    for r in range(1, len(sup1) + 1):
        for pick1 in itertools.combinations(range(len(sup1)), r):
            u1 = frozenset().union(*(sup1[i] for i in pick1))
            for s in range(1, len(sup2) + 1):
                for pick2 in itertools.combinations(range(len(sup2)), s):
                    u2 = frozenset().union(*(sup2[j] for j in pick2))
                    if u1 == u2:
                        related = True
                        if len(pick1) < len(sup1) or len(pick2) < len(sup2):
                            properly = False
    return related, properly


class TestVectorCollection:
    def test_entries_stay_exact(self):
        c = VectorCollection(
            4, [("a", [1, 0, -3, 2]), ("b", ["1/2", "4/2", Fraction(6, 3), 0])]
        )
        assert c.vectors == ((1, 0, -3, 2), (Fraction(1, 2), 2, 2, 0))
        assert [type(x) for x in c.vectors[0]] == [int] * 4
        assert [type(x) for x in c.vectors[1]] == [Fraction, int, int, int]
        assert c.supports == (0b1101, 0b0111)

    def test_negative_ambient_dimension_rejected(self):
        with pytest.raises(ValueError):
            VectorCollection(-1)

    def test_boolean_ambient_dimension_rejected(self):
        with pytest.raises(ValueError):
            VectorCollection(True, [("a", [1])])

    @pytest.mark.parametrize("entry", [1.5, 2.0, True])
    def test_floats_and_booleans_rejected(self, entry):
        with pytest.raises(TypeError):
            VectorCollection(2, [("a", [entry, 1])])

    def test_random_collections_make_no_fractions(self, monkeypatch):
        # the generator draws int entries, so neither the collections nor
        # the ranks of their unions convert a single entry
        import resipoly.linalg
        from resipoly.verify import VerifyConfig, _random_section

        calls = []
        real = resipoly.linalg.to_fraction

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(resipoly.linalg, "to_fraction", counting)
        report = _random_section("collections", VerifyConfig(seed=11, cases=20))
        assert report["ok"]
        assert calls == []


class TestSetTheoreticChecks:
    def test_disjoint_unit_vectors(self):
        c1 = VectorCollection(3, [("a", [1, 0, 0]), ("b", [0, 1, 0])])
        c2 = VectorCollection(3, [("c", [0, 0, 1])])
        report = set_theoretic_checks(c1, c2)
        assert report.sti_1 and report.sti_2
        assert not report.related
        assert report.properly_unrelated

    def test_whole_against_split(self):
        c1 = VectorCollection(3, [("s", [1, 1, 0])])
        c2 = VectorCollection(3, [("a", [1, 0, 0]), ("b", [0, 1, 0])])
        report = set_theoretic_checks(c1, c2)
        assert report.sti_1 and report.sti_2
        assert report.related
        assert report.properly_unrelated

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            set_theoretic_checks(VectorCollection(2), VectorCollection(3))

    def test_overlapping_supports_are_not_independent(self):
        c1 = VectorCollection(2, [("a", [1, 1]), ("b", [0, 1])])
        c2 = VectorCollection(2, [("c", [1, 0])])
        report = set_theoretic_checks(c1, c2)
        assert not report.sti_1
        assert report.sti_2
        assert report.related is None
        assert report.properly_unrelated is None

    def test_fig2_level_two_component_collections(self, fig2):
        # in the merged component {u6, ub, uc} at level two, the global rows
        # against the local row are related only through the full collections
        graph, levels = fig2[0], fig2[1]
        width = graph.num_arrows

        def unit_sum(pairs):
            row = [0] * width
            for tail, head in pairs:
                (arrow,) = find_arrows(graph, tail, head)
                row[arrow] = 1
            return row

        glob_and_ros = VectorCollection(
            width,
            [
                ("into-ub", unit_sum([("u6", "ub")])),
                ("into-uc", unit_sum([("u6", "uc")])),
            ],
        )
        local = VectorCollection(
            width, [("u6", unit_sum([("u6", "ub"), ("u6", "uc")]))]
        )
        checks = set_theoretic_checks(glob_and_ros, local)
        assert checks.sti_1 and checks.sti_2
        assert checks.related
        assert checks.properly_unrelated

    def test_matches_brute_force_on_random_collections(self):
        rng = random.Random(17)
        for _ in range(300):
            ambient = rng.randint(2, 8)
            c1 = random_sti_collection(rng, ambient, max_vectors=3, max_support=3)
            c2 = random_sti_collection(rng, ambient, max_vectors=3, max_support=3)
            report = set_theoretic_checks(c1, c2)
            related, properly = brute_force_relatedness(c1.vectors, c2.vectors)
            assert report.related == related
            assert report.properly_unrelated == properly
        # collections that need not be set-independent: overlapping and
        # empty supports leave relatedness undecided
        seen_dependent = 0
        for _ in range(300):
            ambient = rng.randint(1, 6)
            c1, c2 = (
                VectorCollection(
                    ambient,
                    [
                        (f"x{i}", [rng.choice((0, 0, 1, -2)) for _ in range(ambient)])
                        for i in range(rng.randint(0, 4))
                    ],
                )
                for _ in range(2)
            )
            report = set_theoretic_checks(c1, c2)
            want = reference_support_checks(
                *[[frozenset(j for j, x in enumerate(v) if x) for v in c.vectors] for c in (c1, c2)]
            )
            assert (report.sti_1, report.sti_2) == (want.sti_1, want.sti_2)
            if want.sti_1 and want.sti_2:
                related, properly = brute_force_relatedness(c1.vectors, c2.vectors)
                assert (report.related, report.properly_unrelated) == (related, properly)
            else:
                seen_dependent += 1
                assert report.related is None and report.properly_unrelated is None
        assert seen_dependent > 100

    def test_unrelated_union_is_linearly_independent(self):
        # the first independence proposition, on seeded random pairs
        rng = random.Random(18)
        seen_unrelated = 0
        for _ in range(400):
            ambient = rng.randint(2, 9)
            c1 = random_sti_collection(rng, ambient)
            c2 = random_sti_collection(rng, ambient)
            report = set_theoretic_checks(c1, c2)
            if report.related:
                continue
            seen_unrelated += 1
            union = list(c1.vectors) + list(c2.vectors)
            assert rank(union) == len(union)
        assert seen_unrelated > 50

    def test_properly_unrelated_drop_one_independent(self):
        # the second independence proposition
        rng = random.Random(19)
        seen = 0
        for _ in range(400):
            ambient = rng.randint(2, 9)
            c1 = random_sti_collection(rng, ambient)
            c2 = random_sti_collection(rng, ambient)
            report = set_theoretic_checks(c1, c2)
            if not report.properly_unrelated or not c1.vectors:
                continue
            seen += 1
            for i in range(len(c1.vectors)):
                union = [v for j, v in enumerate(c1.vectors) if j != i]
                union += list(c2.vectors)
                assert rank(union) == len(union)
        assert seen > 50
