"""Residue conditions on the arrow space of a level graph.

Four families of linear conditions cut out a flag of subspaces of Q^(2|E|):

* downward    -- coordinates along downward arrows vanish;
* local       -- the coordinates at each vertex sum to zero;
* rosenlicht  -- the two coordinates of each horizontal edge sum to zero;
* global      -- for each level n and each special component below it, the
                 upward coordinates into that component sum to zero.

Imposing the families cumulatively gives four nested kernels; the last one
is the residue space of the level graph.  The dimensions obey exact
counting identities:

    dim after the downward family  =  2|E| - |E_vertical|
    drop at the local family       =  |V| - #irreducible summits
    drop at the rosenlicht family  =  |E_horizontal| - #reducible summits
    drop at the global family      =  #summits - #graph components

so the residue space has dimension |E| - |V| + c, the genus.  These five
identities are recomputed from scratch for every input and reported; a
mismatch signals an implementation bug, never data to be corrected.

:class:`LevelGraph` is the one model of a graph with an ordered partition.
Its constructor makes one walk over the levels, top to bottom.  At level n
it reads the level mask L and the prefix mask V<=n against the graph's
per-mask tables (components, neighbours, arrows out and in) and sets, as
plain attributes: the components of L, of V<n and of V<=n and the special
components of V<n (those meeting the neighbours of L); the local row of
each vertex of L; the global rows of level n; the summits; and the
downward and horizontal arrows, as the masks of the arrows out of L with
head outside V<=n and inside L.  From those it sets the counts and the
four condition families.  Vertex sets are the positional bitmasks of
:mod:`resipoly.graphs`, read from
:attr:`~resipoly.graphs.LevelStructure.masks`, and become vertex-name tuples
only where they are reported.  Every condition is a 0/1 row, so it is
built once as the int bitmask of the arrow indices where it is 1, like
every other arrow set.  The relatedness predicates and the component
report read one more walk over the levels (:meth:`LevelGraph.collections`),
which groups the local and rosenlicht rows by level component and reuses a
group for every component of V<=n whose level-n vertices form that one
level component; a component of V<=n that lies inside level n reuses that
level component's relatedness verdict too.  Ranks and kernels come from
the one sparse integer echelon of :mod:`resipoly.linalg`, run on the masks
themselves, each row pivoted at its lowest arrow: a rank is the echelon's
size, and a kernel is read off its back-substitution.  No full-width row
is made from a mask.
What a row belongs to is derived from its lowest arrow
(:meth:`LevelGraph.owner`), and named (:meth:`LevelGraph.label`), only
where a report names the row.

Every row has its arrows out of one level, and the rows of level n depend
on L and V<n alone.  :func:`level_rows` builds just those rows, as a set,
for the face sweep, which needs a partition's row set and nothing else of
the model; a partition's rows are the union of its levels' sets, so a
sweep builds each (L, V<n) pair's set once.  It shares no code with the
constructor: routing both through one per-level builder costs one more
call and tuple per level, and measured about 19% slower on the identities
benchmark's flag sweeps (``wall_s`` 0.89-0.92 s against 1.05-1.09 s, four
alternating pairs of 10 s runs on 2 vCPUs), so
``test_level_row_sets_match_the_model`` holds the two builders to the same
rows instead.  The canonical kernel of a set of rows, whoever built it, is
:func:`_row_kernel`; the face sweep takes each level's kernel off the
integral basis of the echelon :func:`_insert_masks` builds (see
:mod:`resipoly.polytopes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import bits, check_same_vertices
from .linalg import _kernel, _sparse_insert, support_checks

__all__ = [
    "FAMILIES",
    "ComponentBlock",
    "ComponentReport",
    "IdentityCheck",
    "LevelCounts",
    "LevelGraph",
    "LevelMasks",
    "LevelSummary",
    "ResidueFlag",
    "build_constraints",
    "build_flag",
    "check_component_relations",
    "flag_dims",
    "flag_identities",
    "level_rows",
    "per_component_report",
    "residue_space",
]

FAMILIES = ("downward", "local", "rosenlicht", "global")


class LevelCounts(NamedTuple):
    vertices: int
    edges: int
    components: int
    genus: int
    levels: int
    vertical_edges: int
    horizontal_edges: int
    summits_irreducible: int
    summits_reducible: int

    @property
    def summits(self):
        return self.summits_irreducible + self.summits_reducible

    def as_dict(self):
        return {**self._asdict(), "summits": self.summits}


class IdentityCheck(NamedTuple):
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self):
        return self.lhs == self.rhs

    def as_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


def _insert_masks(echelon, rows):
    """Insert arrow-mask rows into a sparse integer echelon, each as the 0/1
    row with entry 1 at the set bits of its mask; returns the echelon."""
    for row in rows:
        _sparse_insert(echelon, dict.fromkeys(bits(row), 1))
    return echelon


def _cumulative_ranks(groups):
    """Rank of the rows of the first k groups of arrow-mask rows, for each
    k, by one sparse integer echelon of every row."""
    echelon = {}
    return [len(_insert_masks(echelon, rows)) for rows in groups]


def _row_kernel(rows, width):
    """The subspace of Q^width cut out by arrow-mask rows: the kernel of one
    sparse echelon of them.  It is canonical, so it depends on the set of
    rows only, not on their order."""
    return _kernel(_insert_masks({}, rows), width)


class LevelMasks(NamedTuple):
    """Level n of a level graph as vertex masks: the level itself, its
    components, the components of V<n and the special ones among them, and
    the components of V<=n."""

    mask: int
    components: tuple
    below: tuple
    special: tuple
    upto: tuple


class LevelGraph:
    """A multigraph with an ordered partition of its vertices, and the facts
    derived from the pair.

    The constructor makes one walk over the levels and sets every part the
    checks read as a plain attribute:

    * ``masks`` -- level n -> its :class:`LevelMasks`;
    * ``counts`` -- the :class:`LevelCounts`.  A summit is a level
      component with no arrow into V<n, that is the tail of no upward
      arrow; it is irreducible when it is one vertex without a loop;
    * ``rows`` -- family -> its condition rows as arrow masks, ordered by
      owner (global rows by level, then by the lowest vertex of their
      component).  The local row of a vertex is the support of its
      non-downward arrows; vertices where that support is empty
      (irreducible summits and isolated vertices) contribute no row.
      Global rows are generated for every special component, even when
      linearly dependent on the other families.

    Nothing is built on first use: the per-component collections are walked
    again by :meth:`collections` on each call.  The parts are facts about
    the level graph, never the verdict of a check.  Vertex sets are bitmasks
    (see :class:`~resipoly.graphs.Multigraph`) until they are reported, so
    the level structure must list the graph's vertices in the graph's order.
    """

    def __init__(self, graph, levels):
        check_same_vertices(graph, levels)
        self.graph = graph
        self.levels = levels
        arrows_from, arrows_into = graph.arrows_from, graph.arrows_into
        components, neighbours = graph.mask_components, graph.neighbours
        out_arrows = graph.out_arrows
        local_at = [0] * len(graph.vertices)
        masks = {}
        global_at = {}
        irreducible = []
        reducible = []
        downward = horizontal = 0
        below = ()
        prefix = 0
        for n, mask in enumerate(levels.masks, start=1):
            # an arrow out of level n is upward into V<n, downward out of V<=n
            into_below = arrows_into(prefix)
            prefix |= mask
            into_prefix = arrows_into(prefix)
            out = arrows_from(mask)
            for i in bits(mask):
                local_at[i] = out_arrows[i] & into_prefix
            downward |= out & ~into_prefix
            horizontal |= out & arrows_into(mask)
            level = components(mask)
            for comp in level:
                if arrows_from(comp) & into_below:
                    continue
                if comp & (comp - 1) or neighbours[comp.bit_length() - 1] & comp:
                    reducible.append(comp)
                else:
                    irreducible.append(comp)
            reach = graph.neighbour_mask(mask)
            special = tuple([c for c in below if c & reach])
            for comp in special:
                global_at[n, comp] = out & arrows_into(comp)
            upto = components(prefix)
            masks[n] = LevelMasks(mask, level, below, special, upto)
            below = upto
        self.masks = masks
        self._local_at = local_at
        self._global_at = global_at
        self._summit_masks = (irreducible, reducible)
        # a vertical edge has one downward arrow, a horizontal edge two
        # horizontal ones
        self.counts = LevelCounts(
            len(graph.vertices),
            len(graph.edges),
            graph.component_count,
            graph.genus,
            levels.r,
            downward.bit_count(),
            horizontal.bit_count() // 2,
            len(irreducible),
            len(reducible),
        )
        self.rows = {
            "downward": tuple([1 << a for a in bits(downward)]),
            "local": tuple([row for row in local_at if row]),
            # edge e has the arrows 2e and 2e + 1: every other bit is one edge
            "rosenlicht": tuple([3 << a for a in bits(horizontal)[::2]]),
            "global": tuple(global_at.values()),
        }

    def owner(self, family, row):
        """What a condition row of `family` belongs to, by position, read off
        its lowest arrow: that arrow for a downward row, its tail vertex for
        a local row, its edge for a rosenlicht row, and for a global row the
        level of its tail with the special component of that level holding
        its head."""
        a = (row & -row).bit_length() - 1
        if family == "downward":
            return a
        if family == "rosenlicht":
            return a >> 1
        graph = self.graph
        arrow = graph.arrows[a]
        tail = graph.index[arrow.tail]
        if family == "local":
            return tail
        n = self.levels.levels[tail]
        head = 1 << graph.index[arrow.head]
        return n, next(c for c in self.masks[n].special if c & head)

    def label(self, family, owner):
        """The report label of the condition row of `family` with this
        :meth:`owner`: the arrow label of a downward row, the vertex name of
        a local row, ``e{edge}:{u}-{v}`` of a rosenlicht row and
        ``{level}:{names joined by +}`` of a global row."""
        graph = self.graph
        if family == "downward":
            return graph.arrows[owner].label
        if family == "local":
            return graph.vertices[owner]
        if family == "rosenlicht":
            u, v = graph.edges[owner]
            return f"e{owner}:{u}-{v}"
        n, component = owner
        return f"{n}:{'+'.join(graph.names(component))}"

    def _rows_within(self, mask):
        """The local rows of the vertices of `mask` and the rosenlicht rows of
        the edges with both ends in it, in owner order.

        `mask` must be a union of components of one level, so that every
        edge inside it is horizontal and every horizontal edge meeting it
        lies inside it.
        """
        graph, local_at = self.graph, self._local_at
        local = []
        for i in bits(mask):
            if local_at[i]:
                local.append(local_at[i])
        inside = graph.arrows_from(mask) & graph.arrows_into(mask)
        # edge e has the arrows 2e and 2e + 1: every other bit is one edge
        return tuple(local), tuple([3 << a for a in bits(inside)[::2]])

    def collections(self):
        """The per-component collections, one level at a time, top to bottom.

        For level n, yields n, a dict from each component of level n to its
        :meth:`_rows_within`, and a list with, for each component C of V<=n,
        the tuple (C, C's level-n vertices, local rows, rosenlicht rows,
        global rows): the rows of level n that lie in C, which live in the
        coordinates of the non-downward arrows with tail in C's level-n
        vertices.  The group of a C whose level-n vertices form one level
        component is read from the dict.  A C that misses level n has empty
        collections: a special component inside it would join it to level n.
        """
        for n, at in self.masks.items():
            groups = {comp: self._rows_within(comp) for comp in at.components}
            blocks = []
            for comp in at.upto:
                here = comp & at.mask
                if not here:
                    blocks.append((comp, 0, (), (), ()))
                    continue
                local, rosenlicht = groups.get(here) or self._rows_within(here)
                glob = tuple([self._global_at[n, c] for c in at.special if c & comp])
                blocks.append((comp, here, local, rosenlicht, glob))
            yield n, groups, blocks

    def flag(self):
        """Impose the four families cumulatively and keep every kernel, each
        taken off one sparse echelon of the masks."""
        width = self.graph.num_arrows
        echelon = {}
        spaces = {f: _kernel(_insert_masks(echelon, self.rows[f]), width) for f in FAMILIES}
        return ResidueFlag(self.counts, spaces)

    def flag_dims(self):
        """The counts and the four flag dimensions, by integer rank only."""
        width = self.graph.num_arrows
        ranks = _cumulative_ranks(self.rows[f] for f in FAMILIES)
        return self.counts, tuple(width - r for r in ranks)

    def residue_space(self):
        """The subspace cut out by all four condition families (see
        :func:`_row_kernel`)."""
        rows = [row for f in FAMILIES for row in self.rows[f]]
        return _row_kernel(rows, self.graph.num_arrows)

    def component_report(self, dims):
        """Blockwise collections, cardinalities and codimensions, with totals
        checked against `dims`, the four flag dimensions computed on the
        whole arrow space."""
        names = self.graph.names
        blocks = []
        summaries = []
        for n, _, level in self.collections():
            at = []
            for comp, here, local, rosenlicht, glob in level:
                groups = (local, rosenlicht, glob)
                labels = [
                    tuple(self.label(family, self.owner(family, row)) for row in group)
                    for family, group in zip(FAMILIES[1:], groups)
                ]
                # local rows are disjoint (one vertex each): the sum is the union
                block_dim = sum(local).bit_count()
                codims = _cumulative_ranks(groups)
                at.append(ComponentBlock(n, names(comp), names(here), *labels, block_dim, *codims))
            blocks += at
            summaries.append(
                LevelSummary(
                    level=n,
                    local_count=sum(len(b.local_labels) for b in at),
                    rosenlicht_count=sum(len(b.rosenlicht_labels) for b in at),
                    global_count=sum(len(b.global_labels) for b in at),
                    block_dim=sum(b.block_dim for b in at),
                    codim_local=sum(b.codim_local for b in at),
                    codim_rosenlicht=sum(b.codim_rosenlicht for b in at),
                    codim_global=sum(b.codim_global for b in at),
                )
            )
        up, local, ros, res = dims
        consistent = (
            sum(b.block_dim for b in blocks) == up
            and sum(b.codim_local for b in blocks) == up - local
            and sum(b.codim_rosenlicht for b in blocks) == up - ros
            and sum(b.codim_global for b in blocks) == up - res
        )
        return ComponentReport(tuple(blocks), tuple(summaries), dims, consistent)

    def relation_failures(self):
        """Relatedness predicates on the per-component collections.

        Within every level component, the local rows versus the rosenlicht
        rows must be set-theoretically independent and properly unrelated,
        and related exactly for reducible summits.  Within every component
        of V_{h<=n} that meets level n, the global and rosenlicht rows
        together versus the local rows must be set-theoretically independent
        and properly unrelated, and related whenever the collections are
        nonempty.  One walk over the levels (:meth:`collections`) checks
        both kinds; the components of V_{h<=n} that miss level n are
        skipped, and one that lies inside level n, a summit with no global
        row, reads its level component's verdict.  Returns a list of
        failure descriptions, every level component's before every merged
        component's (empty means all predicates hold).
        """
        failures = []
        merged = []
        names = self.graph.names
        reducible = self._summit_masks[1]
        for n, groups, blocks in self.collections():
            verdicts = {}
            for comp, group in groups.items():
                verdict = verdicts[comp] = support_checks(*group)
                if verdict is None:
                    failures.append(
                        f"level {n} component {names(comp)}: not set-theoretically independent"
                    )
                    continue
                related, properly = verdict
                if not properly:
                    failures.append(f"level {n} component {names(comp)}: not properly unrelated")
                if related != (comp in reducible):
                    failures.append(
                        f"level {n} component {names(comp)}: related={related} "
                        f"but reducible-summit={comp in reducible}"
                    )

            for comp, here, local, rosenlicht, glob in blocks:
                if not here:
                    continue
                # a C inside level n is a level component with no global
                # row: its collections are that component's, swapped, and
                # the verdict is symmetric in the two
                if comp == here:
                    verdict = verdicts[comp]
                else:
                    verdict = support_checks(glob + rosenlicht, local)
                if verdict is None:
                    merged.append(
                        f"level {n} merged component {names(comp)}: "
                        "not set-theoretically independent"
                    )
                    continue
                related, properly = verdict
                if not properly:
                    merged.append(
                        f"level {n} merged component {names(comp)}: not properly unrelated"
                    )
                nonempty = bool(local or rosenlicht or glob)
                if related != nonempty:
                    merged.append(
                        f"level {n} merged component {names(comp)}: "
                        f"related={related} with nonempty={nonempty}"
                    )
        return failures + merged


def level_rows(graph, mask, prefix):
    """The condition rows that level `mask` owns below V<n = `prefix`, as a
    frozenset of arrow masks.

    They are the rows of :attr:`LevelGraph.rows` whose arrows have their
    tail in the level, and they depend on the two masks alone: the downward
    unit rows of the arrows out of L with head outside V<=n, the local row
    of each vertex of L (its arrows with head in V<=n) when nonzero, the
    rosenlicht row of each edge inside L, and the global row of each
    component of V<n meeting the neighbours of L.  The union over the levels
    of a partition is the set of all its rows.
    """
    arrows_into = graph.arrows_into
    into_upto = arrows_into(prefix | mask)
    out = graph.arrows_from(mask)
    out_arrows = graph.out_arrows
    rows = [1 << a for a in bits(out & ~into_upto)]
    for i in bits(mask):
        row = out_arrows[i] & into_upto
        if row:
            rows.append(row)
    # edge e has the arrows 2e and 2e + 1: every other bit is one edge
    rows += [3 << a for a in bits(out & arrows_into(mask))[::2]]
    reach = graph.neighbour_mask(mask)
    rows += [out & arrows_into(c) for c in graph.mask_components(prefix) if c & reach]
    return frozenset(rows)


def flag_identities(counts, dims):
    """The five dimension identities the flag must satisfy."""
    up, local, ros, res = dims
    return [
        IdentityCheck(
            "downward dimension",
            up,
            2 * counts.edges - counts.vertical_edges,
        ),
        IdentityCheck(
            "local codimension",
            up - local,
            counts.vertices - counts.summits_irreducible,
        ),
        IdentityCheck(
            "rosenlicht codimension",
            local - ros,
            counts.horizontal_edges - counts.summits_reducible,
        ),
        IdentityCheck("global codimension", ros - res, counts.summits - counts.components),
        IdentityCheck(
            "residue dimension",
            res,
            counts.edges - counts.vertices + counts.components,
        ),
    ]


class ResidueFlag:
    """The four nested kernels together with the verification bookkeeping."""

    __slots__ = ("counts", "spaces")

    def __init__(self, counts, spaces):
        self.counts = counts
        self.spaces = spaces  # dict family -> Subspace, cumulative

    @property
    def dims(self):
        return tuple(self.spaces[f].dim for f in FAMILIES)

    def identities(self):
        return flag_identities(self.counts, self.dims)

    def inclusions(self):
        """Containment of each flag step in the previous one (always true for
        a correct kernel computation; rechecked, not assumed)."""
        out = []
        for bigger, smaller in zip(FAMILIES, FAMILIES[1:]):
            ok = self.spaces[bigger].contains(self.spaces[smaller])
            out.append((f"{smaller} inside {bigger}", ok))
        return out


def build_constraints(graph, levels):
    """Family -> its condition rows (see :attr:`LevelGraph.rows`)."""
    return LevelGraph(graph, levels).rows


def build_flag(graph, levels):
    """Impose the four families cumulatively and keep every intermediate kernel."""
    return LevelGraph(graph, levels).flag()


def flag_dims(graph, levels):
    """The four flag dimensions by integer rank only (no kernels materialized).

    Same mathematics as :func:`build_flag`, used for large sweeps.
    """
    return LevelGraph(graph, levels).flag_dims()


def residue_space(graph, levels):
    """The subspace cut out by all four condition families."""
    return LevelGraph(graph, levels).residue_space()


# ---------------------------------------------------------------------------
# Per-component decomposition


@dataclass(frozen=True)
class ComponentBlock:
    """One component C of the subgraph at levels <= n, with its level-n data.

    The three collections live in the block of coordinates spanned by the
    non-downward arrows with tail in C's level-n vertices; every constraint
    row involved is supported inside a single such block, so blockwise
    codimensions add up to the global ones.
    """

    level: int
    component: tuple
    level_vertices: tuple
    local_labels: tuple
    rosenlicht_labels: tuple
    global_labels: tuple
    block_dim: int
    codim_local: int
    codim_rosenlicht: int
    codim_global: int


@dataclass(frozen=True)
class LevelSummary:
    level: int
    local_count: int
    rosenlicht_count: int
    global_count: int
    block_dim: int
    codim_local: int
    codim_rosenlicht: int
    codim_global: int

    def as_dict(self):
        return {
            "level": self.level,
            "lrc": self.local_count,
            "ros": self.rosenlicht_count,
            "glob": self.global_count,
            "block_dim": self.block_dim,
            "codim_local": self.codim_local,
            "codim_rosenlicht": self.codim_rosenlicht,
            "codim_global": self.codim_global,
        }


@dataclass(frozen=True)
class ComponentReport:
    blocks: tuple
    levels: tuple
    dims: tuple
    totals_consistent: bool


def per_component_report(graph, levels):
    """Blockwise collections, cardinalities and codimensions, with totals
    checked against the flag dimensions by integer rank."""
    model = LevelGraph(graph, levels)
    return model.component_report(model.flag_dims()[1])


def check_component_relations(graph, levels):
    """Relatedness predicates on the per-component collections; see
    :meth:`LevelGraph.relation_failures`."""
    return LevelGraph(graph, levels).relation_failures()
