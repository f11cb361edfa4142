"""Submodular set functions, base polytopes, splittings and chain faces.

Set functions on a ground set of up to a dozen or so elements are stored
densely, indexed by subset bitmask in the ground order.  Base polytopes are
represented by their exact vertex sets: every vertex of the base polytope of
a submodular function comes from the greedy rule over some vertex ordering,
so enumerating permutations and deduplicating is a complete V-description.
The subset table itself is the H-description.  The greedy vertices of an
integer table, such as every projection table, are integer points.

The projection table of a subspace W of a coordinate-blocked space assigns
to each subset I of blocks the dimension of the projection of W onto the
coordinates of I.  It is submodular, nonnegative and nondecreasing; applied
to the residue space of a level graph (blocks = arrows grouped by tail
vertex) it is the function whose base polytope this module studies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import or_

from .graphs import LevelStructure, bits, coarsenings, ordered_partitions
from .linalg import _echelon_insert
from .residues import residue_space

__all__ = [
    "BasePolytope",
    "FaceReport",
    "InvariantViolation",
    "SetFunction",
    "adjoint",
    "base_polytope",
    "chain_face",
    "check_polytope_faces",
    "contraction_table",
    "projection_rank_table",
    "residue_projection_table",
    "splitting",
]

TABLE_BOUND = 12
POLYTOPE_BOUND = 8
FACE_SWEEP_BOUND = 6

ORIENTATIONS = ("upper", "lower")


class InvariantViolation(AssertionError):
    """A computed object broke an invariant the mathematics guarantees.

    This signals a bug in the computation, never bad input; the CLI exits 1
    on it, where input errors exit 2.
    """


class SetFunction:
    """A function on subsets of a ground set, stored densely by bitmask."""

    __slots__ = ("ground", "values")

    def __init__(self, ground, values):
        ground = tuple(ground)
        values = tuple(values)
        if len(values) != 1 << len(ground):
            raise ValueError("value table must have one entry per subset")
        self.ground = ground
        self.values = values

    @property
    def n(self):
        return len(self.ground)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def subset_names(self, mask):
        return tuple(v for i, v in enumerate(self.ground) if mask >> i & 1)

    def is_zero_at_empty(self):
        return self.values[0] == 0

    def is_submodular(self):
        """Checked through diminishing marginal returns, which is equivalent
        to the pairwise subset inequalities."""
        if not self.is_zero_at_empty():
            return False
        n = self.n
        for mask in range(1 << n):
            outside = [i for i in range(n) if not mask >> i & 1]
            for x in range(len(outside)):
                a = 1 << outside[x]
                for y in range(x + 1, len(outside)):
                    b = 1 << outside[y]
                    if (
                        self.values[mask | a] + self.values[mask | b]
                        < self.values[mask | a | b] + self.values[mask]
                    ):
                        return False
        return True

    def is_nondecreasing(self):
        n = self.n
        return all(
            self.values[mask | (1 << i)] >= self.values[mask]
            for mask in range(1 << n)
            for i in range(n)
            if not mask >> i & 1
        )

    def is_nonnegative(self):
        return all(v >= 0 for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.ground == other.ground and all(
            a == b for a, b in zip(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.ground, self.values))

    def __repr__(self):
        return f"SetFunction on {{{', '.join(self.ground)}}}"


def adjoint(table):
    """The adjoint I -> f(V) - f(V \\ I); an involution swapping sub- and
    supermodularity, with f* <= f for submodular f."""
    full = table.full_mask
    top = table.values[full]
    return SetFunction(
        table.ground, [top - table.values[full ^ mask] for mask in range(full + 1)]
    )


def projection_rank_table(space, ground, blocks):
    """Per-subset dimensions of coordinate projections of a subspace.

    ``blocks[i]`` lists the coordinates belonging to ground element i; the
    blocks must be disjoint.  Each entry is the rank of the integer basis
    rows sliced to the subset's columns.  The result is validated to be
    submodular, nonnegative and nondecreasing.
    """
    ground = tuple(ground)
    blocks = [tuple(b) for b in blocks]
    if len(blocks) != len(ground):
        raise ValueError("one coordinate block per ground element required")
    flat = [c for b in blocks for c in b]
    if len(flat) != len(set(flat)):
        raise ValueError("coordinate blocks overlap")
    basis = space.rows
    values = []
    for mask in range((1 << len(ground))):
        cols = [c for i in range(len(ground)) if mask >> i & 1 for c in blocks[i]]
        echelon = []
        for row in basis:
            _echelon_insert(echelon, [row[c] for c in cols])
        values.append(len(echelon))
    table = SetFunction(ground, values)
    if not (table.is_submodular() and table.is_nonnegative() and table.is_nondecreasing()):
        raise InvariantViolation("projection table violates its invariants")
    return table


def _check_table_bound(graph, max_vertices):
    if len(graph.vertices) > max_vertices:
        raise ValueError(
            f"{len(graph.vertices)} vertices exceed the table bound {max_vertices}"
        )


def _tail_table(graph, space):
    """Projection table of a subspace of the arrow space, one coordinate block
    per vertex: the arrows with that tail."""
    blocks = [bits(arrows) for arrows in graph.out_arrows]
    return projection_rank_table(space, graph.vertices, blocks)


def residue_projection_table(graph, levels, max_vertices=TABLE_BOUND):
    """Subset table of projected residue-space dimensions.

    Entry I is the dimension of the projection of the residue space onto the
    arrows with tail in I.
    """
    _check_table_bound(graph, max_vertices)
    return _tail_table(graph, residue_space(graph, levels))


def contraction_table(graph, max_vertices=TABLE_BOUND):
    """Independent combinatorial route to the one-level projection table.

    Entry I is the total genus minus the genus of the subgraph induced on
    the complement of I; equivalently the genus of the graph obtained by
    contracting each connected component of that subgraph to a point.
    """
    _check_table_bound(graph, max_vertices)
    full = (1 << len(graph.vertices)) - 1
    values = [graph.genus - graph.genus_of(full & ~mask) for mask in range(full + 1)]
    return SetFunction(graph.vertices, values)


def splitting(table, levels, kind):
    """Split a set function along the prefix chain of an ordered partition.

    For a supermodular function f the split is the sum over levels of
    ``I -> f((I n F_n) u F_{n-1}) - f(F_{n-1})`` where F_n collects the
    vertices of level at most n.  The submodular split conjugates by the
    adjoint.  Splitting along the trivial partition is the identity, and
    modular functions are fixed.
    """
    if kind not in ("supermodular", "submodular"):
        raise ValueError(f"unknown splitting kind {kind!r}")
    if tuple(levels.vertices) != table.ground:
        raise ValueError("ground set does not match the level structure")
    if kind == "submodular":
        return adjoint(splitting(adjoint(table), levels, "supermodular"))
    prefix_masks = list(itertools.accumulate(levels.masks, or_))
    values = []
    for subset in range(1 << table.n):
        total = 0
        previous = 0
        for pm in prefix_masks:
            total += table.values[(subset & pm) | previous] - table.values[previous]
            previous = pm
        values.append(total)
    return SetFunction(table.ground, values)


class BasePolytope:
    """Exact vertex set of the base polytope of a submodular table."""

    __slots__ = ("ground", "vertices", "table")

    def __init__(self, ground, vertices, table):
        self.ground = tuple(ground)
        self.vertices = tuple(vertices)
        self.table = table

    def vertex_index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    def __repr__(self):
        return f"BasePolytope({len(self.vertices)} vertices in R^{len(self.ground)})"


def _point_value(point, mask):
    return sum(x for i, x in enumerate(point) if mask >> i & 1)


def base_polytope(table, max_vertices=POLYTOPE_BOUND):
    """Vertices by the greedy rule over all vertex orderings, deduplicated.

    Every returned point is verified against the full inequality table:
    q(I) <= f(I) for all subsets with equality at the ground set.
    """
    n = table.n
    if n > max_vertices:
        raise ValueError(f"{n} ground elements exceed the polytope bound {max_vertices}")
    if not table.is_submodular():
        raise InvariantViolation("base polytope of a non-submodular table")
    seen = set()
    for perm in itertools.permutations(range(n)):
        point = [0] * n
        mask = 0
        previous = table.values[0]
        for i in perm:
            mask |= 1 << i
            current = table.values[mask]
            point[i] = current - previous
            previous = current
        seen.add(tuple(point))
    vertices = sorted(seen)
    full = table.full_mask
    for q in vertices:
        for mask in range(full + 1):
            value = _point_value(q, mask)
            if value > table.values[mask] or (mask == full and value != table.values[mask]):
                raise InvariantViolation("greedy point violates the subset inequalities")
    return BasePolytope(table.ground, vertices, table)


def chain_face(polytope, levels, orientation):
    """Vertices tight on the prefix chain of an ordered partition.

    ``upper`` takes tightness against the table itself, ``lower`` against
    its adjoint (equivalently, tightness against the table on the suffix
    chain).  The result is double-checked to be the argmax vertex set of a
    weight vector constant on parts and strictly monotone across them.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    if tuple(levels.vertices) != polytope.ground:
        raise ValueError("level structure does not match the polytope ground set")
    table = polytope.table
    bounds = table if orientation == "upper" else adjoint(table)
    prefix_masks = list(itertools.accumulate(levels.masks, or_))
    tight = tuple(
        i
        for i, q in enumerate(polytope.vertices)
        if all(_point_value(q, pm) == bounds.values[pm] for pm in prefix_masks)
    )

    r = levels.r
    if orientation == "upper":
        weight = [r - levels.level_of(v) for v in polytope.ground]
    else:
        weight = [levels.level_of(v) for v in polytope.ground]
    scores = [sum(w * x for w, x in zip(weight, q)) for q in polytope.vertices]
    best = max(scores)
    argmax = tuple(i for i, s in enumerate(scores) if s == best)
    if argmax != tight:
        raise InvariantViolation("chain-tight vertices differ from the weight argmax")
    return tight


@dataclass(frozen=True)
class FaceReport:
    """Verdicts of the face sweep, plus what they were read from: the
    one-level polytope and, per ordered partition in enumeration order, its
    chain face under each orientation."""

    orientation: str
    partitions_checked: int
    distinct_faces: int
    containment_ok: bool
    chain_match_ok: bool
    coarsening_ok: bool
    cover_ok: bool
    failures: tuple
    reference: BasePolytope
    chain_faces: tuple  # ((LevelStructure, {orientation: vertex indices}), ...)

    @property
    def ok(self):
        return (
            self.containment_ok
            and self.chain_match_ok
            and self.coarsening_ok
            and self.cover_ok
        )


def check_polytope_faces(graph, max_vertices=FACE_SWEEP_BOUND):
    """Sweep every ordered partition and match its polytope against the faces
    of the one-level polytope.

    Checks, for a single chain-face orientation shared by all partitions:
    (a) each partition's vertex set sits inside the one-level vertex set;
    (b) it equals the chain face of the one-level polytope at its partition;
    (c) coarsening a partition only enlarges both the vertex set and the
        subset table;
    (d) every chain face is realized by some partition.
    """
    if len(graph.vertices) > max_vertices:
        raise ValueError(
            f"{len(graph.vertices)} vertices exceed the face-sweep bound {max_vertices}"
        )
    trivial = LevelStructure.trivial(graph.vertices)
    reference = base_polytope(residue_projection_table(graph, trivial))
    locate = reference.vertex_index()

    failures = []
    containment_ok = True
    chain_match_ok = True
    candidates = set(ORIENTATIONS)
    entries = {}
    for pi in ordered_partitions(graph.vertices, max_vertices):
        table = residue_projection_table(graph, pi)
        poly = base_polytope(table)
        face = None
        if all(v in locate for v in poly.vertices):
            face = tuple(sorted(locate[v] for v in poly.vertices))
        else:
            containment_ok = False
            failures.append(f"{pi!r}: vertex outside the one-level polytope")
        chains = {o: chain_face(reference, pi, o) for o in ORIENTATIONS}
        feasible = {o for o, cf in chains.items() if face is not None and cf == face}
        if not feasible:
            chain_match_ok = False
            failures.append(f"{pi!r}: no chain-face orientation matches")
        else:
            candidates &= feasible
        entries[pi.key()] = (pi, face, table, chains)
    if candidates == set(ORIENTATIONS):
        orientation = "both"
        probe = "lower"
    elif candidates:
        orientation = probe = next(iter(candidates))
    else:
        orientation = "none"
        probe = "lower"
        chain_match_ok = False
        failures.append("no globally consistent chain-face orientation")

    coarsening_ok = True
    for pi, face, table, _ in entries.values():
        for coarser in coarsenings(pi):
            other = entries[coarser.key()]
            if face is None or other[1] is None:
                continue
            if not set(face) <= set(other[1]):
                coarsening_ok = False
                failures.append(f"{pi!r} -> {coarser!r}: vertex set not contained")
            if any(a > b for a, b in zip(table.values, other[2].values)):
                coarsening_ok = False
                failures.append(f"{pi!r} -> {coarser!r}: table not dominated")

    realized = {face for _, face, _, _ in entries.values() if face is not None}
    chain_set = {chains[probe] for _, _, _, chains in entries.values()}
    cover_ok = chain_set == realized
    if not cover_ok:
        failures.append("chain faces and realized faces differ")

    return FaceReport(
        orientation=orientation,
        partitions_checked=len(entries),
        distinct_faces=len(realized),
        containment_ok=containment_ok,
        chain_match_ok=chain_match_ok,
        coarsening_ok=coarsening_ok,
        cover_ok=cover_ok,
        failures=tuple(failures),
        reference=reference,
        chain_faces=tuple((pi, chains) for pi, _, _, chains in entries.values()),
    )
