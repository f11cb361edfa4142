"""One-parameter limits of subspaces under coordinate scaling.

A :class:`LaurentSubspace` pairs a subspace with one integer weight per
coordinate, and coordinate j is scaled by t^(-w_j).  As t approaches 0 the
scaled subspace converges in the Grassmannian; after normalizing, the
coordinates of largest weight dominate.  For a residue space degenerated
toward a finer level structure, each arrow weighs the fine level of its
tail.  The limit is computed three independent ways, all from that one
weighting:

* ``flag_and_realization`` -- kernels along the prefix flag of the weight
  blocks (the coordinates of each distinct weight), each step's rows
  restricted to its own block and summed back up;
* ``initial_space_limit``  -- leading forms (the restriction of a vector to
  the highest-weight coordinates in its support) of one integer echelon of
  the basis rows, with the coordinates taken by weight descending;
* ``plucker_limit_oracle`` -- maximal minors as Laurent monomials in t:
  the greedy maximum-weight basis of the columns anchors the limit, and the
  minors one column away from it decode it back to a basis.

Everything is algebraic; no small-t sampling happens anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import bits, check_same_vertices, is_coarsening
from .linalg import Subspace, _sparse_insert, _span, det, kernel_of_projection
from .polytopes import InvariantViolation, _check_table_bound, projection_rank_table, splitting
from .residues import residue_space

__all__ = [
    "DegenerationReport",
    "LaurentSubspace",
    "check_degeneration",
    "flag_and_realization",
    "initial_space_limit",
    "plucker_limit_oracle",
]

PLUCKER_MINOR_BOUND = 100_000


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
    def for_residues(cls, space, graph, levels):
        """Each arrow coordinate weighs the level of its tail, so the
        coordinates of one weight are the arrows leaving one level.  Any
        weights strictly increasing with the level induce the same limit."""
        check_same_vertices(graph, levels)
        level, index = levels.levels, graph.index
        return cls(space, [level[index[arrow.tail]] for arrow in graph.arrows])


def flag_and_realization(laurent):
    """Prefix-flag kernels and the blockwise realization of a subspace.

    Block w holds the coordinates of weight w.  The flag has one step per
    distinct weight, by ascending weight: step w consists of the vectors
    vanishing on every block of larger weight.  It runs down from the whole
    space, each step holding the vectors of the step above that vanish on
    the block above.  The realization is the sum of the steps' rows, each
    restricted to the step's own block, taken in one echelon; its dimension
    always equals the input dimension.  Under residue weights a level that
    no arrow leaves gets no step; :func:`check_degeneration` reads only the
    realization, so none of its outputs depends on that.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    width = space.ambient_dim
    blocks = {}
    for c, w in enumerate(weights):
        blocks.setdefault(w, []).append(c)
    step, flag, echelon = space, [], {}
    for w in sorted(blocks, reverse=True):
        if flag:
            step = kernel_of_projection(step, block)
        block = blocks[w]
        flag.append(step)
        for row in step.rows:
            _sparse_insert(echelon, {c: row[c] for c in block if row[c]})
    realization = _span(width, echelon)
    if realization.dim != space.dim:
        raise InvariantViolation("realization changed the dimension")
    return tuple(reversed(flag)), realization


def initial_space_limit(laurent):
    """Limit subspace via leading forms.

    Scaling sends a vector to the sum of t^(-w_j) times its coordinates, so
    after dividing by the dominant power the surviving part is its leading
    form: the restriction to the maximal-weight coordinates of its support.
    The basis rows go into one integer echelon with the coordinates taken
    by weight descending, index ascending, each keyed by its place in that
    order.  Each echelon row's pivot is then its highest-weight coordinate,
    and it vanishes at every earlier coordinate.  So leading forms of equal weight form a staircase, and
    leading forms of different weights have disjoint supports: the echelon
    gives as many independent leading forms as the input dimension, and
    their span is the limit.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    width = space.ambient_dim
    order = sorted(range(width), key=lambda j: (-weights[j], j))
    echelon = {}
    for row in space.rows:
        if not _sparse_insert(echelon, {k: row[j] for k, j in enumerate(order) if row[j]}):
            raise InvariantViolation("basis rows were dependent")
    leads = {}
    for pivot, (x, rest) in echelon.items():
        top = weights[order[pivot]]
        lead = {order[k]: a for k, a in rest.items() if weights[order[k]] == top}
        lead[order[pivot]] = x
        _sparse_insert(leads, lead)
    limit = _span(width, leads)
    if limit.dim != space.dim:
        raise InvariantViolation("limit changed the dimension")
    return limit


def plucker_limit_oracle(laurent):
    """Limit subspace via exterior coordinates.

    Column j of the basis matrix scales by t^(-w_j), so the minor on a
    column set S picks up t^(-w(S)), w(S) the weight sum over S.  Dividing
    by the lowest valuation and setting t = 0 keeps exactly the nonzero
    minors of largest weight.  The column sets with a nonzero minor are the
    bases of the column matroid, so the greedy rule (columns by weight
    descending, index ascending, each kept if it raises the rank) finds one
    of largest weight, B.  Row k of the decoded basis holds det(B) at the
    k-th column s of B and, at each column j outside B, plus or minus the
    minor with j in place of s; that minor has the largest weight only if
    w_j = w_s, and otherwise vanishes in the limit.  So at most
    m(n - m) + 1 minors are taken.  They are minors of the integer basis
    rows, which scales every exterior coordinate by one common factor that
    the projective decoding ignores, so every decoded row is integral.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    m = space.dim
    ambient = space.ambient_dim
    if m == 0:
        return space
    if comb(ambient, m) > PLUCKER_MINOR_BOUND:
        raise ValueError(
            f"C({ambient},{m}) exterior coordinates exceed the bound {PLUCKER_MINOR_BOUND}"
        )
    basis = space.rows

    def minor(cols):
        return det([[row[c] for c in cols] for row in basis]).numerator

    echelon = {}
    anchor = []
    for j in sorted(range(ambient), key=lambda j: (-weights[j], j)):
        if _sparse_insert(echelon, {k: row[j] for k, row in enumerate(basis) if row[j]}):
            anchor.append(j)
            if len(anchor) == m:
                break
    anchor.sort()
    anchor_value = minor(anchor)
    if not anchor_value:
        raise InvariantViolation("greedy anchor minor is zero")
    decoded = {}
    for k, s in enumerate(anchor):
        row = {s: anchor_value}
        for j in range(ambient):
            if weights[j] == weights[s] and j not in anchor:
                cols = sorted([c for c in anchor if c != s] + [j])
                value = minor(cols)
                if value:
                    row[j] = -value if (k + cols.index(j)) % 2 else value
        _sparse_insert(decoded, row)
    limit = _span(ambient, decoded)
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
        """All four checks ran and passed: an oracle that did not run is
        not a pass."""
        return (
            self.limit_matches
            and self.realization_matches
            and self.splitting_matches
            and self.oracle_matches is True
        )


def check_degeneration(graph, fine, coarse, with_oracle=True):
    """Degenerate the coarse residue space toward the fine partition and
    compare, exactly, against the fine residue space.

    Three equalities are checked: the leading-form limit, the flag
    realization, and the submodular splitting of the projection table.  The
    limit routes all read one :class:`LaurentSubspace`, the coarse space
    weighted by the fine level of each arrow's tail.  With
    ``with_oracle`` the exterior-coordinate oracle re-derives the limit, and
    raises ValueError past its minor bound; without it ``oracle_matches`` is
    None and the report is not ``ok``.
    """
    if not is_coarsening(fine, coarse):
        raise ValueError("second structure is not a coarsening of the first")
    _check_table_bound(graph)
    coarse_space = residue_space(graph, coarse)
    fine_space = residue_space(graph, fine)

    laurent = LaurentSubspace.for_residues(coarse_space, graph, fine)
    limit = initial_space_limit(laurent)

    _, realization = flag_and_realization(laurent)

    # one coordinate block per vertex, the arrows with that tail
    blocks = [bits(arrows) for arrows in graph.out_arrows]
    split = splitting(projection_rank_table(coarse_space, graph.vertices, blocks), fine)
    fine_table = projection_rank_table(fine_space, graph.vertices, blocks)

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
