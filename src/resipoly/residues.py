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
Each of its parts is computed once, on first use: the arrow classification,
the components of every level, the components of V<n and the special ones
among them (those meeting the neighbours of level n), the components of
each prefix V<=n, the summits, the counts and the four condition families.
Vertex sets are the positional bitmasks of :mod:`resipoly.graphs`, read
from :attr:`~resipoly.graphs.LevelStructure.masks`, and become vertex-name
tuples only where they are reported; what the graph derives from one
vertex mask (components, neighbours, arrows) it keeps in per-graph tables.
Every condition is a 0/1 row, so it is built once as the int bitmask of
the arrow indices where it is 1, like every other arrow set.  The local
and rosenlicht rows are grouped by level component in one pass; the
relatedness predicates read those groups, and a per-component block
reuses one whenever its level-n vertices form a single level component.
Ranks come from a sparse integer echelon run on the masks themselves,
each row pivoted at its lowest arrow; full-width 0/1 vectors are made
from the masks only where a kernel needs them.  What a row belongs to is
derived from its lowest arrow (:meth:`LevelGraph.owner`), and named
(:meth:`LevelGraph.label`), only where a report names the row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

from .graphs import bits, check_same_vertices, classify_arrows
from .linalg import _mask, _sparse_insert, kernel, support_checks

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
    "per_component_report",
    "residue_space",
]

FAMILIES = ("downward", "local", "rosenlicht", "global")


@dataclass(frozen=True)
class LevelCounts:
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
        return {**asdict(self), "summits": self.summits}


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self):
        return self.lhs == self.rhs

    def as_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


def _dense(support, width):
    return tuple([support >> c & 1 for c in range(width)])


def _cumulative_ranks(groups):
    """Rank of the rows of the first k groups of arrow-mask rows, for each
    k, by one sparse integer echelon of every row (each a 0/1 row, entry 1
    at the set bits of its mask)."""
    echelon = {}
    ranks = []
    for rows in groups:
        for row in rows:
            _sparse_insert(echelon, dict.fromkeys(bits(row), 1))
        ranks.append(len(echelon))
    return ranks


class _Block(NamedTuple):
    """The rows of one component C of V<=n that live at level n; C and its
    level-n vertices are vertex masks."""

    level: int
    component: int
    level_vertices: int
    local: tuple
    rosenlicht: tuple
    glob: tuple


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

    Every part is computed on first use and kept, so each is built once per
    model however many checks read it.  The parts are facts about the level
    graph, never the verdict of a check.  Vertex sets are bitmasks (see
    :class:`~resipoly.graphs.Multigraph`) until they are reported, so the
    level structure must list the graph's vertices in the graph's order.
    """

    def __init__(self, graph, levels):
        check_same_vertices(graph, levels)
        self.graph = graph
        self.levels = levels

    @cached_property
    def classification(self):
        return classify_arrows(self.graph, self.levels)

    @property
    def level_numbers(self):
        return range(1, self.levels.r + 1)

    @cached_property
    def masks(self):
        """Level n -> its :class:`LevelMasks`, each computed once."""
        graph = self.graph
        out = {}
        below = ()
        prefix = 0
        for n, mask in enumerate(self.levels.masks, start=1):
            prefix |= mask
            reach = graph.neighbour_mask(mask)
            upto = graph.mask_components(prefix)
            special = tuple([c for c in below if c & reach])
            out[n] = LevelMasks(mask, graph.mask_components(mask), below, special, upto)
            below = upto
        return out

    @cached_property
    def _summit_masks(self):
        """(irreducible, reducible) summits among the level components, as
        vertex masks.  A summit is a level component that is the tail of no
        upward arrow; it is irreducible when it is one vertex without a loop."""
        graph = self.graph
        upward = _mask(self.classification.upward)
        irreducible = []
        reducible = []
        for at in self.masks.values():
            for comp in at.components:
                if graph.arrows_from(comp) & upward:
                    continue
                if comp & (comp - 1) or graph.neighbours[comp.bit_length() - 1] & comp:
                    reducible.append(comp)
                else:
                    irreducible.append(comp)
        return irreducible, reducible

    @cached_property
    def counts(self):
        graph, cls = self.graph, self.classification
        irreducible, reducible = self._summit_masks
        return LevelCounts(
            vertices=len(graph.vertices),
            edges=len(graph.edges),
            components=graph.component_count,
            genus=graph.genus,
            levels=self.levels.r,
            vertical_edges=len(cls.vertical_edges),
            horizontal_edges=len(cls.horizontal_edges),
            summits_irreducible=len(irreducible),
            summits_reducible=len(reducible),
        )

    @cached_property
    def rows(self):
        """Family -> its condition rows as arrow masks, ordered by owner
        (global rows by level, then by the lowest vertex of their component).

        The local row of a vertex is the support of its non-downward arrows;
        vertices where that support is empty (irreducible summits and
        isolated vertices) contribute no row.  Global rows are generated for
        every special component, even when linearly dependent on the other
        families.
        """
        cls = self.classification
        return {
            "downward": tuple(1 << a for a in cls.downward),
            "local": tuple(row for row in self._local_at if row),
            "rosenlicht": tuple(3 << 2 * e for e in cls.horizontal_edges),
            "global": tuple(self._global_at.values()),
        }

    @cached_property
    def _local_at(self):
        """The local row of each vertex, by vertex index (0 for none)."""
        keep = ~_mask(self.classification.downward)
        return tuple(arrows & keep for arrows in self.graph.out_arrows)

    @cached_property
    def _global_at(self):
        """(level, special component mask) -> its global row, by level and
        then by the component's lowest vertex."""
        graph = self.graph
        out = {}
        for n, at in self.masks.items():
            if at.special:
                arrows = graph.arrows_from(at.mask)
                for comp in at.special:
                    out[n, comp] = arrows & graph.arrows_into(comp)
        return out

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

    @cached_property
    def _groups(self):
        """Level component mask -> its local and rosenlicht rows, for the
        components of every level, and the empty mask, which has no rows."""
        groups = {0: ((), ())}
        for at in self.masks.values():
            for comp in at.components:
                groups[comp] = self._rows_within(comp)
        return groups

    @cached_property
    def blocks(self):
        """The local, rosenlicht and global rows of level n grouped by the
        component of V<=n they lie in, for every level n.

        Each group's rows live in the coordinates of the non-downward arrows
        with tail in the component's level-n vertices.  When those vertices
        form one level component, its group is reused.
        """
        groups, glob_at = self._groups, self._global_at
        blocks = []
        for n, at in self.masks.items():
            for comp in at.upto:
                here = comp & at.mask
                group = groups.get(here)
                if group is None:
                    group = self._rows_within(here)
                glob = tuple(glob_at[n, c] for c in at.special if c & comp)
                blocks.append(_Block(n, comp, here, *group, glob))
        return tuple(blocks)

    def flag(self):
        """Impose the four families cumulatively and keep every kernel."""
        width = self.graph.num_arrows
        stacked = []
        spaces = {}
        for family in FAMILIES:
            stacked.extend(_dense(row, width) for row in self.rows[family])
            spaces[family] = kernel(stacked, num_cols=width)
        return ResidueFlag(self.counts, spaces)

    def flag_dims(self):
        """The counts and the four flag dimensions, by integer rank only."""
        width = self.graph.num_arrows
        ranks = _cumulative_ranks(self.rows[f] for f in FAMILIES)
        return self.counts, tuple(width - r for r in ranks)

    def residue_space(self):
        """The subspace cut out by all four condition families."""
        width = self.graph.num_arrows
        rows = [_dense(row, width) for f in FAMILIES for row in self.rows[f]]
        return kernel(rows, num_cols=width)

    def component_report(self, dims):
        """Blockwise collections, cardinalities and codimensions, with totals
        checked against `dims`, the four flag dimensions computed on the
        whole arrow space."""
        names = self.graph.names
        blocks = []
        for b in self.blocks:
            groups = (b.local, b.rosenlicht, b.glob)
            labels = [
                tuple(self.label(family, self.owner(family, row)) for row in group)
                for family, group in zip(FAMILIES[1:], groups)
            ]
            # local rows are disjoint (one vertex each): the sum is the union
            block_dim = sum(b.local).bit_count()
            codims = _cumulative_ranks(groups)
            blocks.append(
                ComponentBlock(
                    b.level, names(b.component), names(b.level_vertices), *labels, block_dim, *codims
                )
            )
        summaries = []
        for n in self.level_numbers:
            at = [b for b in blocks if b.level == n]
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
        nonempty.  Returns a list of failure descriptions (empty means all
        predicates hold).
        """
        failures = []
        names = self.graph.names
        reducible = set(self._summit_masks[1])
        for n, at in self.masks.items():
            for comp in at.components:
                verdict = support_checks(*self._groups[comp])
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

        for b in self.blocks:
            if not b.level_vertices:
                continue
            verdict = support_checks(b.glob + b.rosenlicht, b.local)
            if verdict is None:
                failures.append(
                    f"level {b.level} merged component {names(b.component)}: "
                    "not set-theoretically independent"
                )
                continue
            related, properly = verdict
            if not properly:
                failures.append(
                    f"level {b.level} merged component {names(b.component)}: "
                    "not properly unrelated"
                )
            nonempty = bool(b.local or b.rosenlicht or b.glob)
            if related != nonempty:
                failures.append(
                    f"level {b.level} merged component {names(b.component)}: "
                    f"related={related} with nonempty={nonempty}"
                )
        return failures


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
