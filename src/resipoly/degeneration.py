"""One-parameter limits of subspaces under coordinate scaling.

A weight d on the ground elements scales the coordinates of block v by
t^(-d_v).  As t approaches 0 the scaled subspace converges in the
Grassmannian; after normalizing, the blocks with the largest weight
dominate.  The limit is computed three independent ways:

* ``flag_and_realization`` -- kernels along the prefix flag of the induced
  ordered partition, blockwise projections summed back up;
* ``initial_space_limit``  -- iterated extraction of leading forms (the
  restriction of a vector to the highest-weight coordinates in its
  support), with elimination until the leading forms are independent;
* ``plucker_limit_oracle`` -- maximal minors as Laurent monomials in t,
  normalized by the lowest valuation and evaluated at t = 0, then decoded
  back to a basis.

Everything is algebraic; no small-t sampling happens anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import bits, check_same_vertices, is_coarsening
from .linalg import Subspace, det, embed, kernel_of_projection, project_image
from .polytopes import (
    TABLE_BOUND,
    InvariantViolation,
    _check_table_bound,
    _tail_table,
    splitting,
)
from .residues import residue_space

__all__ = [
    "DegenerationReport",
    "LaurentSubspace",
    "WeightAssignment",
    "check_degeneration",
    "flag_and_realization",
    "initial_space_limit",
    "plucker_limit_oracle",
    "residue_blocks",
]

PLUCKER_MINOR_BOUND = 100_000


class WeightAssignment:
    """Integer weights on vertices.  Those built by :meth:`from_levels` are
    constant on parts and strictly increasing with the level index."""

    __slots__ = ("vertices", "weights")

    def __init__(self, vertices, weights):
        vertices = tuple(vertices)
        weights = dict(weights)
        if set(weights) != set(vertices):
            raise ValueError("weights must cover exactly the vertex set")
        self.vertices = vertices
        self.weights = weights

    @classmethod
    def from_levels(cls, levels, rule=None):
        """Weights from a level structure; the default rule is the level
        index itself (any strictly increasing rule induces the same limit)."""
        rule = rule or (lambda n: n)
        values = [rule(n) for n in range(1, levels.r + 1)]
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("weight rule must be strictly increasing")
        return cls(
            levels.vertices,
            {v: values[levels.level_of(v) - 1] for v in levels.vertices},
        )

    def weight_of(self, v):
        return self.weights[v]


class LaurentSubspace:
    """A subspace together with one integer scaling weight per coordinate."""

    __slots__ = ("space", "coordinate_weights")

    def __init__(self, space, coordinate_weights):
        coordinate_weights = tuple(coordinate_weights)
        if len(coordinate_weights) != space.ambient_dim:
            raise ValueError("one weight per coordinate required")
        self.space = space
        self.coordinate_weights = coordinate_weights

    @classmethod
    def for_residues(cls, space, graph, assignment):
        """Arrow coordinates inherit the weight of their tail vertex."""
        weights = tuple(
            assignment.weight_of(arrow.tail) for arrow in graph.arrows
        )
        return cls(space, weights)


def residue_blocks(graph, levels):
    """Coordinate blocks of the arrow space by level: block n holds the
    arrows whose tail has level n, in ascending order."""
    check_same_vertices(graph, levels)
    return {n: tuple(bits(graph.arrows_from(mask))) for n, mask in enumerate(levels.masks, 1)}


def flag_and_realization(space, levels, coordinate_blocks):
    """Prefix-flag kernels and the blockwise realization of a subspace.

    ``coordinate_blocks[n]`` lists the coordinates of part n; together they
    must partition the ambient coordinates.  Step n of the flag consists of
    the vectors vanishing on all blocks above n; the realization is the sum
    of the blockwise projections of the flag steps, re-embedded with zeros
    outside their block.  Its dimension always equals the input dimension.
    """
    ambient = space.ambient_dim
    blocks = {n: tuple(coordinate_blocks[n]) for n in range(1, levels.r + 1)}
    flat = sorted(c for b in blocks.values() for c in b)
    if flat != list(range(ambient)):
        raise ValueError("coordinate blocks do not partition the ambient space")
    flag = []
    realization_rows = []
    for n in range(1, levels.r + 1):
        above = [c for m in range(n + 1, levels.r + 1) for c in blocks[m]]
        step = kernel_of_projection(space, above)
        flag.append(step)
        image = project_image(step, blocks[n])
        realization_rows.extend(embed(image, ambient, blocks[n]).rows)
    realization = Subspace(ambient, realization_rows)
    if realization.dim != space.dim:
        raise InvariantViolation("realization changed the dimension")
    return tuple(flag), realization


def _leading_form(row, weights):
    support = [j for j, x in enumerate(row) if x]
    top = max(weights[j] for j in support)
    return top, tuple(x if weights[j] == top else 0 for j, x in enumerate(row))


def initial_space_limit(laurent):
    """Limit subspace via leading forms.

    Scaling sends a vector to the sum of t^(-w_j) times its coordinates, so
    after dividing by the dominant power the surviving part is the
    restriction to the maximal-weight coordinates of the support.  Leading
    forms of distinct weights live on disjoint coordinate sets, so any
    dependency happens within one weight; replacing one participating row
    by the dependent combination strictly lowers its leading weight, and
    the process terminates with as many independent leading forms as the
    input dimension.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    if space.dim == 0:
        return space
    width = space.ambient_dim
    rows = [list(row) for row in space.rows]
    while True:
        leads = [_leading_form(row, weights) for row in rows]
        by_weight = {}
        for idx, (top, _) in enumerate(leads):
            by_weight.setdefault(top, []).append(idx)
        replacement = None
        for top in sorted(by_weight, reverse=True):
            group = by_weight[top]
            pivots = []  # (column, lead vector, multipliers over row indices)
            for idx in group:
                vec = list(leads[idx][1])
                mult = {idx: Fraction(1)}
                for col, pvec, pmult in pivots:
                    f = vec[col]
                    if f:
                        vec = [a - f * b for a, b in zip(vec, pvec)]
                        for k, c in pmult.items():
                            mult[k] = mult.get(k, Fraction(0)) - f * c
                lead_col = next((j for j, a in enumerate(vec) if a), None)
                if lead_col is None:
                    # dependent leading forms: the same combination of full
                    # rows drops strictly below this weight
                    new_row = [Fraction(0)] * width
                    for k, c in mult.items():
                        if c:
                            new_row = [a + c * b for a, b in zip(new_row, rows[k])]
                    if not any(new_row):
                        raise InvariantViolation("basis rows were dependent")
                    replacement = (idx, new_row)
                    break
                inv = Fraction(1) / vec[lead_col]
                vec = [a * inv for a in vec]
                mult = {k: c * inv for k, c in mult.items()}
                pivots.append((lead_col, vec, mult))
            if replacement:
                break
        if replacement is None:
            limit = Subspace(width, [lead for _, lead in leads])
            if limit.dim != space.dim:
                raise InvariantViolation("limit changed the dimension")
            return limit
        idx, new_row = replacement
        rows[idx] = new_row


def plucker_limit_oracle(laurent, max_minors=PLUCKER_MINOR_BOUND):
    """Limit subspace via exterior coordinates.

    Column j of the basis matrix scales by t^(-w_j), so the minor on a
    column set S picks up t^(-sum of weights over S).  Dividing by the
    lowest valuation and setting t = 0 keeps exactly the minors whose
    weight sum is maximal among the nonvanishing ones; the surviving
    exterior coordinates are decoded into a basis from the lexicographically
    first nonzero one.  The minors are taken of the integer basis rows
    (reduced-basis rows times their pivot entries), which scales every
    exterior coordinate by one common factor that the projective decoding
    ignores.  So every minor is an integer, and so is every decoded row:
    row k holds the anchor minor at the k-th anchor column and, at each
    other column j, plus or minus the minor with j in place of that column.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    m = space.dim
    ambient = space.ambient_dim
    if m == 0:
        return space
    if comb(ambient, m) > max_minors:
        raise ValueError(
            f"C({ambient},{m}) exterior coordinates exceed the bound {max_minors}"
        )
    basis = space.rows
    minors = {}
    best = None
    for cols in itertools.combinations(range(ambient), m):
        value = det([[row[c] for c in cols] for row in basis]).numerator
        if value:
            weight = sum(weights[c] for c in cols)
            minors[cols] = (weight, value)
            if best is None or weight > best:
                best = weight
    support = sorted(cols for cols, (w, _) in minors.items() if w == best)
    anchor = support[0]
    anchor_value = minors[anchor][1]

    def plucker(cols):
        entry = minors.get(cols)
        if entry is None or entry[0] != best:
            return 0
        return entry[1]

    anchor_set = set(anchor)
    rows = []
    for k, s in enumerate(anchor):
        row = [0] * ambient
        row[s] = anchor_value
        for j in range(ambient):
            if j in anchor_set:
                continue
            cols = tuple(sorted((anchor_set - {s}) | {j}))
            position = cols.index(j) + 1
            sign = -1 if (k + 1 + position) % 2 else 1
            row[j] = sign * plucker(cols)
        rows.append(row)
    limit = Subspace(ambient, rows)
    if limit.dim != m:
        raise InvariantViolation("decoded limit has the wrong dimension")
    return limit


@dataclass(frozen=True)
class DegenerationReport:
    fine_parts: tuple
    coarse_parts: tuple
    residue_dim: int
    limit_matches: bool
    realization_matches: bool
    splitting_matches: bool
    oracle_matches: bool | None  # None when the oracle did not run
    fine_space: Subspace
    coarse_space: Subspace

    @property
    def ok(self):
        """All checks that ran passed."""
        return (
            self.limit_matches
            and self.realization_matches
            and self.splitting_matches
            and self.oracle_matches is not False
        )


def check_degeneration(graph, fine, coarse, with_oracle=True):
    """Degenerate the coarse residue space toward the fine partition and
    compare, exactly, against the fine residue space.

    Three equalities are checked: the leading-form limit, the flag
    realization, and the submodular splitting of the projection table.  The
    exterior-coordinate oracle additionally re-derives the limit when its
    size bound allows; without it ``oracle_matches`` is None.
    """
    if not is_coarsening(fine, coarse):
        raise ValueError("second structure is not a coarsening of the first")
    _check_table_bound(graph, TABLE_BOUND)
    coarse_space = residue_space(graph, coarse)
    fine_space = residue_space(graph, fine)

    assignment = WeightAssignment.from_levels(fine)
    laurent = LaurentSubspace.for_residues(coarse_space, graph, assignment)
    limit = initial_space_limit(laurent)

    _, realization = flag_and_realization(
        coarse_space, fine, residue_blocks(graph, fine)
    )

    split = splitting(_tail_table(graph, coarse_space), fine, "submodular")
    fine_table = _tail_table(graph, fine_space)

    oracle_matches = None
    if with_oracle:
        oracle_matches = plucker_limit_oracle(laurent) == limit

    return DegenerationReport(
        fine_parts=fine.parts,
        coarse_parts=coarse.parts,
        residue_dim=fine_space.dim,
        limit_matches=limit == fine_space,
        realization_matches=realization == fine_space,
        splitting_matches=split == fine_table,
        oracle_matches=oracle_matches,
        fine_space=fine_space,
        coarse_space=coarse_space,
    )
