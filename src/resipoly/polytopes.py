"""Submodular set functions, base polytopes, splittings and chain faces.

Set functions on a ground set of up to a dozen or so elements are stored
densely, indexed by subset bitmask in the ground order.  Base polytopes are
represented by their exact vertex sets: every vertex of the base polytope of
a submodular function is the greedy point of some maximal chain of subsets
(Edmonds), and the greedy point is built one prefix at a time, so a
depth-first walk over prefix masks that never expands a (prefix, partial
point) state twice is a complete V-description.  The subset table itself is
the H-description.  The greedy vertices of an integer table, such as every
projection table, are integer points.

The projection table of a subspace W of a coordinate-blocked space assigns
to each subset I of blocks the dimension of the projection of W onto the
coordinates of I, which is the rank of the basis columns at those
coordinates.  A depth-first walk over the subsets extends one column
echelon by one block per step.  The table is submodular, nonnegative and
nondecreasing; applied to the residue space of a level graph (blocks =
arrows grouped by tail vertex) it is the function whose base polytope this
module studies.  Every condition row of level n lies on the arrows out of
that level, so the residue space is the direct sum of the levels' kernels
K_n, and its table is the sum over n of I -> t_n(I n L_n), where t_n is
the table of K_n on the vertices of level L_n.  That sum is the one
builder of a level graph's table, for `residue_projection_table` and the
face sweep alike, one t_n per (level mask, row set) pair.  Each t_n is
dim K_n at L_n and 0 at the empty set, since K_n lies on the arrows out of
L_n; dim K_n is read off an echelon of the rows on the arrows that no
one-arrow row zeroes.  That fixes t_n when K_n is zero or L_n is one
vertex; any other t_n is read off an integral kernel basis on those
arrows, a projection's dimension not depending on the basis, so no
canonical kernel is made.  This is still the kernel route,
taken blockwise, not the splitting.  The table of a given subspace, such
as the two residue spaces `check_degeneration` already holds, is
`projection_rank_table`.

Chains run one way only: the prefix chain of an ordered partition, the
unions of its levels up to each n.  Tightness against the adjoint
f*(X) = f(V) - f(V \\ X) on that chain is tightness against f on the
prefix chain of the reversed partition, because every vertex q has
q(V) = f(V) (the dual f# of Fujishige, *Submodular Functions and
Optimization*, 2nd ed., 2005).  So one chain face per partition gives both
its upper face (tight against f) and its lower face (tight against f*),
and the splitting needs no conjugation by the adjoint.  The polytope of a
partition is its lower face, never the upper one: `splitting` subtracts
f(U_n) over the unions U_n of the levels numbered above n, and the base
polytope of a split is the face of the unsplit polytope tight on exactly
that chain (Fujishige, same book).
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import eq, gt, mul, or_, sub

from .graphs import LevelStructure, Memo, bits, check_same_vertices, ordered_partitions
from .linalg import _kernel_basis, _sparse_insert
from .residues import _insert_masks, level_rows

__all__ = [
    "BasePolytope",
    "FaceReport",
    "InvariantViolation",
    "SetFunction",
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


class InvariantViolation(AssertionError):
    """A computed object broke an invariant the mathematics guarantees.

    This signals a bug in the computation, never bad input; the CLI exits 1
    on it, where input errors exit 2.
    """


# array typecodes of unsigned ints by item size in bytes, smallest first
_ITEM_CODES = sorted({array(code).itemsize: code for code in "QLIHB"}.items())


def _packed(values):
    """A table's values as one int of equal fields, and the field width.

    Field m, counted from the low end, holds ``values[m]`` less the least
    value, so every field is nonnegative.  A table with a value that is not
    an int is first scaled to integers by the common denominator of its
    values, which changes no sign of any sum of differences.  The width is
    a whole number of bytes, at least two bits more than the span (the
    greatest value less the least) needs, so every field is below a quarter
    of ``2**width``.  The fields are written by `array` or, past its widest
    item, `int.to_bytes`, and read as one int by `int.from_bytes`.
    """
    if type(sum(values)) is not int:  # a sum is an int only when every value is
        scale = math.lcm(*(Fraction(v).denominator for v in values))
        values = [int(Fraction(v) * scale) for v in values]
    low = min(values)
    size = ((max(values) - low).bit_length() + 9) // 8  # whole bytes for two more bits
    if low:
        values = map(sub, values, itertools.repeat(low))
    for itemsize, code in _ITEM_CODES:
        if itemsize >= size:
            data = array(code, values).tobytes()
            break
    else:
        itemsize = size
        data = b"".join(v.to_bytes(size, sys.byteorder) for v in values)
    return int.from_bytes(data, sys.byteorder), 8 * itemsize


def _repeated(word, period, total):
    """``word``, which fits in ``period`` bits, repeated to fill ``total``
    bits, ``total`` being ``period`` times a power of two: one doubling
    shift per doubling of the length."""
    while period < total:
        word |= word << period
        period <<= 1
    return word


@lru_cache(maxsize=64)
def _field_masks(n, width):
    """``(bias, clear)`` for the 2^n fields of ``width`` bits of a packed
    table: ``bias`` holds the top bit of every field, and ``clear[i]`` the
    top bits of the fields whose index has bit i clear.  Cached: the face
    sweep guards hundreds of tables on a few (n, width) pairs."""
    total = width << n
    bias = _repeated(1 << (width - 1), width, total)
    clear = tuple(
        _repeated(bias & ((1 << (width << i)) - 1), width << (i + 1), total)
        for i in range(n)
    )
    return bias, clear


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

    def is_zero_at_empty(self):
        return self.values[0] == 0

    def is_submodular(self):
        """Checked through the local inequalities f(S + i) + f(S + j) >=
        f(S + i + j) + f(S) over i < j and the S without i and j, which
        imply every subset inequality (Fujishige's book, cited in the module
        notes), one packed comparison per pair.

        In the packed table (:func:`_packed`), shifting right by 2^i fields
        puts f(S + i) in field S.  The bias holds the top bit of every
        field, 2^(width - 1); no packed value reaches it, so ``| bias`` adds
        it.  Field S of f(S + i) + f(S + j) + bias - f(S) - f(S + i + j) is
        the pair's slack plus the bias.  Each value lies in 0 .. span, and
        the width leaves the span below a quarter of a field, 2^(width - 2),
        so the slack lies strictly between -bias and bias: the biased field
        stays inside 1 .. 2^width - 1, borrows from no neighbour and carries
        into none, and its top bit is set exactly when the slack is
        nonnegative.  The pair's mask tests the fields of the S without i
        and j; the fields past the top, which read 0, are never tested.
        """
        if not self.is_zero_at_empty():
            return False
        word, width = _packed(self.values)
        bias, clear = _field_masks(self.n, width)
        up = [word >> (width << i) for i in range(self.n)]  # f(S + i) in field S
        for i, up_i in enumerate(up):
            rise_i = (up_i | bias) - word
            for j in range(i + 1, self.n):
                tested = clear[i] & clear[j]
                if (rise_i + up[j] - (up_i >> (width << j))) & tested != tested:
                    return False
        return True

    def is_nondecreasing(self):
        """Whether f(S + i) >= f(S) over every i and S without i, one packed
        comparison per element: field S of (f(S + i) | bias) - f(S) is the
        rise plus the bias.  The rise lies between -span and span, inside
        -bias .. bias with room to spare (see :meth:`is_submodular`), so the
        field neither borrows nor carries and its top bit is set exactly
        when the rise is nonnegative."""
        word, width = _packed(self.values)
        bias, clear = _field_masks(self.n, width)
        for i in range(self.n):
            if ((word >> (width << i) | bias) - word) & clear[i] != clear[i]:
                return False
        return True

    def is_nonnegative(self):
        return min(self.values) >= 0

    def __eq__(self, other):
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.ground == other.ground and self.values == other.values

    def __hash__(self):
        return hash((self.ground, self.values))

    def __repr__(self):
        return f"SetFunction on {{{', '.join(self.ground)}}}"


def projection_rank_table(space, ground, blocks):
    """Per-subset dimensions of coordinate projections of a subspace.

    ``blocks[i]`` lists the coordinates belonging to ground element i, each
    an int in ``0 .. space.ambient_dim - 1``; the blocks must be disjoint.
    Entry I is the rank of the integer basis columns at the coordinates of
    I's blocks.  The subsets are walked depth
    first, each child adding one element above its parent's highest: the
    child copies its parent's column echelon and inserts only the new
    block's columns.  Once the echelon has ``space.dim`` rows, every subset
    the walk would reach from there takes that value at once.  The result
    is validated to be submodular, nonnegative and nondecreasing.
    """
    ground = tuple(ground)
    blocks = [tuple(b) for b in blocks]
    if len(blocks) != len(ground):
        raise ValueError("one coordinate block per ground element required")
    flat = [c for b in blocks for c in b]
    if not all(type(c) is int and 0 <= c < space.ambient_dim for c in flat):
        raise ValueError(f"a block coordinate is not an int in 0 .. {space.ambient_dim - 1}")
    if len(flat) != len(set(flat)):
        raise ValueError("coordinate blocks overlap")
    columns = [{k: x for k, x in enumerate(column) if x} for column in zip(*space.rows)]
    return _checked_table(ground, _rank_walk(space.dim, columns, blocks))


def _rank_walk(dim, columns, blocks):
    """The rank of the columns of each union of blocks, listed by the mask of
    the blocks taken: ``columns[c]`` is column c of a basis of a
    ``dim``-dimensional space, as a dict from basis index to nonzero entry,
    and ``blocks[i]`` lists the columns of block i (see
    :func:`projection_rank_table`)."""
    n = len(blocks)
    values = [0] * (1 << n)

    def walk(mask, start, echelon):
        # `mask` holds only elements below `start`
        if len(echelon) == dim:
            values[mask :: 1 << start] = [dim] * (1 << (n - start))
            return
        values[mask] = len(echelon)
        for j in range(start, n):
            child = dict(echelon)
            for c in blocks[j]:
                # a copy: the echelon consumes the rows it is given
                if _sparse_insert(child, dict(columns[c])) and len(child) == dim:
                    break
            walk(mask | 1 << j, j + 1, child)

    walk(0, 0, {})
    return values


def _checked_table(ground, values):
    """The projection table with these values, validated to be submodular,
    nonnegative and nondecreasing: the one invariant guard of every
    projection table, of a given subspace or summed over level pairs."""
    table = SetFunction(ground, values)
    if not (table.is_submodular() and table.is_nonnegative() and table.is_nondecreasing()):
        raise InvariantViolation("projection table violates its invariants")
    return table


def _check_table_bound(graph):
    if len(graph.vertices) > TABLE_BOUND:
        raise ValueError(
            f"{len(graph.vertices)} vertices exceed the table bound {TABLE_BOUND}"
        )


def residue_projection_table(graph, levels):
    """Subset table of projected residue-space dimensions.

    Entry I is the dimension of the projection of the residue space onto the
    arrows with tail in I: the face sweep's sum of level tables
    (:func:`_sweep_table`), read through fresh memos.
    """
    _check_table_bound(graph)
    check_same_vertices(graph, levels)
    return _sweep_table(levels, *_sweep_memos(graph))


def contraction_table(graph):
    """Independent combinatorial route to the one-level projection table.

    Entry I is the total genus minus the genus of the subgraph induced on
    the complement of I; equivalently the genus of the graph obtained by
    contracting each connected component of that subgraph to a point.
    """
    _check_table_bound(graph)
    full = (1 << len(graph.vertices)) - 1
    values = [graph.genus - graph.genus_of(full & ~mask) for mask in range(full + 1)]
    return SetFunction(graph.vertices, values)


def splitting(table, levels):
    """Split a set function along an ordered partition.

    The split is the sum over levels of ``I -> f((I n L_n) u U_n) - f(U_n)``,
    where L_n is level n and U_n collects the levels numbered above n,
    drawn below it (U_r is empty).  This is the submodular split: for any
    f it equals the adjoint of the supermodular split of the adjoint along
    the prefix chain.
    Splitting the projection table of a coarse residue space along a finer
    partition gives the finer partition's table, which `check_degeneration`
    checks.  Splitting along the trivial partition subtracts f(empty), and
    modular functions are fixed.
    """
    if tuple(levels.vertices) != table.ground:
        raise ValueError("ground set does not match the level structure")
    values = table.values
    top_down = levels.masks[::-1]
    # (level n, the union of the levels numbered above it), level r first
    steps = list(zip(top_down, itertools.accumulate(top_down, or_, initial=0)))
    return SetFunction(
        table.ground,
        [
            sum(values[(subset & mask) | up] - values[up] for mask, up in steps)
            for subset in range(1 << table.n)
        ],
    )


class BasePolytope:
    """Exact vertex set of the base polytope of a submodular table.

    A face is a vertex bitmask, bit i standing for ``vertices[i]``.  Its one
    source is ``tight[I]``, the face of the vertices q with q(I) = f(I), read
    off each vertex's subset sums in the pass that verifies q(I) <= f(I) for
    every subset mask I, with equality at the ground set.
    """

    __slots__ = ("ground", "vertices", "table", "tight")

    def __init__(self, ground, vertices, table):
        self.ground = tuple(ground)
        self.vertices = tuple(vertices)
        self.table = table
        values = table.values
        tight = [0] * len(values)
        for i, q in enumerate(self.vertices):
            sums = [0]
            for x in q:
                sums += [s + x for s in sums]
            if any(map(gt, sums, values)) or sums[-1] != values[-1]:  # [-1]: ground set
                raise InvariantViolation("greedy point violates the subset inequalities")
            for mask in itertools.compress(range(len(sums)), map(eq, sums, values)):
                tight[mask] |= 1 << i
        self.tight = tuple(tight)

    def __repr__(self):
        return f"BasePolytope({len(self.vertices)} vertices in R^{len(self.ground)})"


def base_polytope(table):
    """Vertices as the greedy points of all maximal chains, deduplicated.

    The table is checked to be submodular first, so that the greedy points
    are the vertices; the face sweep guards its tables itself and builds
    their polytopes with :func:`_greedy_polytope` alone.
    """
    n = table.n
    if n > POLYTOPE_BOUND:
        raise ValueError(f"{n} ground elements exceed the polytope bound {POLYTOPE_BOUND}")
    if not table.is_submodular():
        raise InvariantViolation("base polytope of a non-submodular table")
    return _greedy_polytope(table)


def _greedy_polytope(table):
    """The greedy points of all maximal chains of a submodular table, as a
    `BasePolytope`.

    The greedy point gives each element the rise of the table where the
    chain adds it.  It is built one prefix at a time in a depth-first walk
    over prefix masks, and a (prefix mask, partial point) state is expanded
    once however many orderings reach it.  `BasePolytope` verifies every
    point against the full inequality table.
    """
    n = table.n
    values = table.values
    full = table.full_mask
    root = (0, (0,) * n)
    seen = {root}
    stack = [root]
    while stack:
        mask, point = stack.pop()
        base = values[mask]
        rest = full ^ mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            state = (mask | low, point[:i] + (values[mask | low] - base,) + point[i + 1 :])
            if state not in seen:
                seen.add(state)
                stack.append(state)
    vertices = sorted(point for mask, point in seen if mask == full)
    return BasePolytope(table.ground, vertices, table)


def chain_face(polytope, levels):
    """The face tight on the prefix chain of an ordered partition: q(F_n) =
    f(F_n) for every union F_n of the levels up to n, the AND of
    ``polytope.tight`` over the F_n.

    The adjoint's face on the same chain is this face of the reversed
    partition (see the module notes).  The result is double-checked to be
    the argmax vertex set of the weight r - level, constant on parts and
    strictly decreasing across them.
    """
    if tuple(levels.vertices) != polytope.ground:
        raise ValueError("level structure does not match the polytope ground set")
    face = (1 << len(polytope.vertices)) - 1
    for prefix in itertools.accumulate(levels.masks, or_):
        face &= polytope.tight[prefix]

    weight = [levels.r - n for n in levels.levels]
    scores = [sum(map(mul, weight, q)) for q in polytope.vertices]
    best = max(scores)
    argmax = sum(1 << i for i, s in enumerate(scores) if s == best)
    if argmax != face:
        raise InvariantViolation("chain-tight vertices differ from the weight argmax")
    return face


@dataclass(frozen=True)
class FaceReport:
    """Verdicts of the face sweep, plus what they were read from: the
    one-level polytope and, per ordered partition in enumeration order, its
    lower chain face as a mask of that polytope's vertices.  ``orientation``
    is ``"both"`` when every partition's upper chain face equals its lower
    one, so the sweep could not tell them apart, and ``"lower"`` otherwise.
    ``lattice_ok`` says that the realized faces are exactly the faces of the
    one-level polytope, its ``tight`` sets closed under nonempty
    intersection."""

    orientation: str
    partitions_checked: int
    distinct_faces: int
    containment_ok: bool
    chain_match_ok: bool
    coarsening_ok: bool
    lattice_ok: bool
    failures: tuple
    reference: BasePolytope
    chain_faces: tuple  # ((LevelStructure, lower face vertex mask), ...)

    @property
    def ok(self):
        return (
            self.containment_ok
            and self.chain_match_ok
            and self.coarsening_ok
            and self.lattice_ok
        )


def _located(points, vertex_bit):
    """The face of the distinct ``points``, the sum of their bits in
    ``vertex_bit`` (reference vertex -> its bit), or None when one of them
    is not a reference vertex."""
    if all(v in vertex_bit for v in points):
        return sum(map(vertex_bit.__getitem__, points))
    return None


def _face_lattice(tight):
    """The faces of a polytope as vertex masks: the ``tight`` sets of its
    inequalities, closed under nonempty intersection."""
    faces = set()
    for mask in set(tight):
        faces |= {mask & face for face in faces}
        faces.add(mask)
    faces.discard(0)
    return faces


def _level_table(graph, mask, rows):
    """The table of one level, spread over the whole ground set: entry I is
    the dimension of the projection of the level's kernel onto the arrows
    with tail in I & `mask`.

    The level's kernel K is that of its condition `rows` on the arrows out
    of level `mask`, which hold every arrow of those rows.  A row of one
    arrow (a downward unit row, or the local row of a vertex with one
    arrow that is not downward) zeroes that arrow on K; the other arrows
    are live, and K is the kernel of the other rows restricted to them, so
    dim K is the live count less the rank of their echelon.  K projects
    injectively onto all of the level's arrows, so the table is dim K at L
    and 0 at the empty set: a zero kernel gives the zero table, and a level
    of one vertex has no other subset.  Any other level's ranks are read
    off an integral basis on the live arrows
    (:func:`~resipoly.linalg._kernel_basis`), since the dimension of a
    projection does not depend on the basis, by a walk over the subsets of
    the level's vertices only.
    """
    dead = 0
    wide = []
    for row in rows:
        if row & (row - 1):
            wide.append(row)
        else:
            dead |= row
    live = graph.arrows_from(mask) & ~dead
    echelon = _insert_masks({}, [row & live for row in wide])
    dim = live.bit_count() - len(echelon)
    level = bits(mask)
    if not dim:
        ranks = [0] * (1 << len(level))
    elif len(level) == 1:
        ranks = [0, dim]
    else:
        arrows = bits(live)
        basis = _kernel_basis(echelon, arrows)
        columns = {a: {} for a in arrows}
        for k, vector in enumerate(basis):
            for a, x in vector.items():
                columns[a][k] = x
        out_arrows = graph.out_arrows
        ranks = _rank_walk(dim, columns, [bits(out_arrows[i] & live) for i in level])
    # the walk lists the level's subsets by their bits in `level`; `at`
    # holds each at its vertex mask
    at = [0] * (1 << len(graph.vertices))
    subsets = [0]
    for i in level:
        subsets += [s | 1 << i for s in subsets]
    for subset, value in zip(subsets, ranks):
        at[subset] = value
    return [at[subset & mask] for subset in range(len(at))]


def _sweep_table(levels, level_sets, level_tables, row_tables, tables):
    """A partition's tail table, read through the four memos of :func:`_sweep_memos`.

    Its set of condition rows is the union of its levels' sets in
    ``level_sets`` (keyed by level mask and prefix mask).  The condition
    matrix is block-diagonal by level, so the residue space is the direct
    sum of the levels' kernels, and the table is the sum of the levels'
    spread tables in ``level_tables`` (keyed by level mask and row set).
    ``row_tables`` keeps that table per distinct row set, and the sum is
    taken once per row set; ``tables``, keyed by the summed values, holds
    one table object per distinct table, checked once by the invariant
    guard, however many row sets sum to it.
    """
    pairs = []
    prefix = 0
    for mask in levels.masks:
        pairs.append((mask, level_sets[mask, prefix]))
        prefix |= mask
    rows = frozenset().union(*[level_set for _, level_set in pairs])
    table = row_tables.get(rows)
    if table is None:
        spreads = [level_tables[pair] for pair in pairs]
        table = row_tables[rows] = tables[tuple(map(sum, zip(*spreads)))]
    return table


def _sweep_memos(graph):
    """Fresh memos of the four kinds :func:`_sweep_table` reads: level row
    sets, level tables, tables by row set and guarded tables by value.  A
    level's kernel is cut out by its rows on its own arrows, whatever the
    prefix, so one (level mask, row set) pair always gives the same level
    table; the residue space is the kernel of the rows, whatever their
    family or order, so one set of rows always gives the same table."""
    return (
        Memo(lambda pair: level_rows(graph, *pair)),
        Memo(lambda level: _level_table(graph, *level)),
        {},
        Memo(lambda values: _checked_table(graph.vertices, values)),
    )


def _table_and_face(levels, level_sets, level_tables, row_tables, tables, faces):
    """A partition's tail table (:func:`_sweep_table`) and the face of its
    polytope, the table's entry in ``faces``."""
    table = _sweep_table(levels, level_sets, level_tables, row_tables, tables)
    return table, faces[table]


def check_polytope_faces(graph):
    """Sweep every ordered partition and match its polytope against the faces
    of the one-level polytope.

    A partition's set of condition rows is the union of its levels' sets,
    and `level_rows` builds each (level mask, prefix mask) pair's set once;
    no `LevelGraph` is built.  One level table (`_level_table`) is built per
    distinct (level mask, row set) pair, one sum of level tables per
    distinct set of condition rows, one guarded table per distinct table
    value (several row sets can sum to it), and one base polytope per
    distinct table (the one-level polytope once more, as the reference),
    by the greedy walk alone: the guard has already checked the table to be
    submodular.  Each memo lives for one call; every check below still runs
    per partition, or per merge.  One chain face is computed per
    partition.  The ``upper`` face of a partition is its own chain face,
    the ``lower`` one (tightness against the adjoint) that of the reversed
    partition, level n going to r + 1 - n.  Each partition is checked
    against its lower face alone: its table is the splitting of the
    one-level table along it, whose polytope is that face (see the module
    notes).  Checks:
    (a) each partition's vertex set sits inside the one-level vertex set;
    (b) it equals the lower chain face of the one-level polytope at its
        partition;
    (c) merging two adjacent levels of a partition only enlarges both the
        vertex set and the subset table.  Both relations are transitive and
        every coarsening is a chain of such merges, so whenever every vertex
        set was located (``containment_ok``) this is the verdict over all
        coarsenings.  The tables are compared once per distinct ordered
        pair (table, coarser table), and every merge whose pair fails
        reports its own failure;
    (d) the realized faces are exactly the faces of the one-level polytope.
        Its subset inequalities, with q(V) = f(V), are a complete
        H-description, so its faces are the nonempty intersections of its
        ``tight`` sets (Fujishige's book, cited in the module notes, on
        the faces of base polytopes).  That lattice reads no chain, no
        partition and no argmax, so (d) checks that the partitions'
        polytopes are *all* the faces, which (b) alone does not.
    """
    if len(graph.vertices) > FACE_SWEEP_BOUND:
        raise ValueError(
            f"{len(graph.vertices)} vertices exceed the face-sweep bound {FACE_SWEEP_BOUND}"
        )
    memos = _sweep_memos(graph)
    # every table below has passed the guard, submodularity included
    reference = _greedy_polytope(_sweep_table(LevelStructure.trivial(graph.vertices), *memos))
    vertex_bit = {v: 1 << i for i, v in enumerate(reference.vertices)}
    faces = Memo(lambda table: _located(_greedy_polytope(table).vertices, vertex_bit))

    entries = {}
    for pi in ordered_partitions(graph.vertices):
        table, face = _table_and_face(pi, *memos, faces)
        entries[pi.levels] = (pi, face, table, chain_face(reference, pi))

    failures = []
    containment_ok = True
    chain_match_ok = True
    symmetric = True  # every upper face so far is its partition's lower face
    chain_faces = []
    for pi, face, _, upper in entries.values():
        if face is None:
            containment_ok = False
            failures.append(f"{pi!r}: vertex outside the one-level polytope")
        lower = entries[tuple(pi.r + 1 - n for n in pi.levels)][3]
        if face != lower:
            chain_match_ok = False
            failures.append(f"{pi!r}: not its lower chain face")
        symmetric = symmetric and upper == lower
        chain_faces.append((pi, lower))

    coarsening_ok = True
    # one verdict per distinct (table, coarser table) pair of value tuples,
    # however many merges compare them; each failing merge still reports
    # its own line
    dominated = Memo(lambda pair: not any(map(gt, *pair)))
    for pi, face, table, _ in entries.values():
        for k in range(1, pi.r):
            merged = tuple(n - (n > k) for n in pi.levels)  # levels k and k + 1 as one
            coarser, coarser_face, coarser_table, _ = entries[merged]
            if face is None or coarser_face is None:
                continue
            if face & ~coarser_face:
                coarsening_ok = False
                failures.append(f"{pi!r} -> {coarser!r}: vertex set not contained")
            if not dominated[table.values, coarser_table.values]:
                coarsening_ok = False
                failures.append(f"{pi!r} -> {coarser!r}: table not dominated")

    realized = {face for _, face, _, _ in entries.values() if face is not None}
    lattice_ok = _face_lattice(reference.tight) == realized
    if not lattice_ok:
        failures.append("face lattice and realized faces differ")

    return FaceReport(
        orientation="both" if symmetric else "lower",
        partitions_checked=len(entries),
        distinct_faces=len(realized),
        containment_ok=containment_ok,
        chain_match_ok=chain_match_ok,
        coarsening_ok=coarsening_ok,
        lattice_ok=lattice_ok,
        failures=tuple(failures),
        reference=reference,
        chain_faces=tuple(chain_faces),
    )
