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
tuples only where they are reported.  Every condition is a 0/1 row, so it
is built once, as its labelled support: the int bitmask of the arrow
indices where it is 1.  Indexes built with the rows let each component
find its own rows without scanning the others.  The flag, the
per-component blocks and the relatedness predicates all read those
supports; full-width 0/1 vectors are made from them only where a kernel or
a rank needs them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

from .graphs import bits, check_same_vertices, classify_arrows
from .linalg import _echelon_insert, _mask, kernel, support_checks

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
    "Row",
    "build_constraints",
    "build_flag",
    "check_component_relations",
    "flag_dims",
    "flag_identities",
    "per_component_report",
    "residue_space",
]

FAMILIES = ("downward", "local", "rosenlicht", "global")


class Row(NamedTuple):
    """One condition: its label, its support (an int bitmask whose bit a is
    set when the row is 1 at arrow a), and what it belongs to (an arrow, a
    vertex, an edge index, or a level with a special component below it)."""

    label: str
    support: int
    owner: object


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


def _supports(rows):
    return [row.support for row in rows]


def _dense(support, width):
    return tuple([support >> c & 1 for c in range(width)])


def _cumulative_ranks(groups, width):
    """Rank of the rows of the first k groups of supports, for each k."""
    echelon = []
    ranks = []
    for supports in groups:
        for support in supports:
            _echelon_insert(echelon, _dense(support, width))
        ranks.append(len(echelon))
    return ranks


def _owner(row):
    return row.owner


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
    components: list
    below: list
    special: list
    upto: list


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
        below = []
        prefix = 0
        for n, mask in enumerate(self.levels.masks, start=1):
            prefix |= mask
            reach = graph.neighbour_mask(mask)
            upto = graph.mask_components(prefix)
            out[n] = LevelMasks(
                mask, graph.mask_components(mask), below, [c for c in below if c & reach], upto
            )
            below = upto
        return out

    @cached_property
    def level_components(self):
        """Level n -> components of the subgraph induced on level n."""
        names = self.graph.names
        return {n: [names(c) for c in at.components] for n, at in self.masks.items()}

    @cached_property
    def components_below(self):
        """Level n -> (components strictly below level n, the special ones)."""
        names = self.graph.names
        return {
            n: ([names(c) for c in at.below], [names(c) for c in at.special])
            for n, at in self.masks.items()
        }

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
        """Family -> its condition rows, in label order.

        The local row of a vertex is the support of its non-downward arrows;
        vertices where that support is empty (irreducible summits and
        isolated vertices) contribute no row.  Global rows are generated for
        every special component, even when linearly dependent on the other
        families.
        """
        return self._indexed_rows[0]

    @cached_property
    def _indexed_rows(self):
        """The rows by family, and the indexes each component reads its rows
        through: local rows by vertex index, rosenlicht rows by the index of
        their edge's first vertex, global rows by (level, component mask)."""
        graph, cls = self.graph, self.classification
        names, index = graph.names, graph.index
        downward = tuple(Row(graph.arrows[a].label, 1 << a, a) for a in cls.downward)
        keep = ~_mask(cls.downward)
        local = []
        local_at = [None] * len(graph.vertices)
        for i, v in enumerate(graph.vertices):
            support = graph.out_arrows[i] & keep
            if support:
                local_at[i] = row = Row(v, support, v)
                local.append(row)
        rosenlicht = []
        ros_at = [()] * len(graph.vertices)
        for e in cls.horizontal_edges:
            u, v = graph.edges[e]
            row = Row(f"e{e}:{u}-{v}", 3 << 2 * e, e)
            rosenlicht.append(row)
            ros_at[index[u]] += (row,)
        glob = []
        glob_at = {}
        for n, at in self.masks.items():
            if not at.special:
                continue
            out = graph.arrows_from(at.mask)
            for comp in at.special:
                members = names(comp)
                row = Row(f"{n}:{'+'.join(members)}", out & graph.arrows_into(comp), (n, members))
                glob.append(row)
                glob_at[n, comp] = row
        families = {
            "downward": downward,
            "local": tuple(local),
            "rosenlicht": tuple(rosenlicht),
            "global": tuple(glob),
        }
        return families, (local_at, ros_at, glob_at)

    def _rows_within(self, mask):
        """The local rows of the vertices of `mask` and the rosenlicht rows of
        the horizontal edges with both ends in it, in label order.

        `mask` must hold both ends of every horizontal edge with one end in
        it, as the level-n vertices of any component of V<=n do.
        """
        _, (local_at, ros_at, _) = self._indexed_rows
        local = []
        ros = []
        for i in bits(mask):
            if local_at[i]:
                local.append(local_at[i])
            ros += ros_at[i]
        if len(ros) > 1:
            ros.sort(key=_owner)
        return tuple(local), tuple(ros)

    @cached_property
    def blocks(self):
        """The local, rosenlicht and global rows of level n grouped by the
        component of V<=n they lie in, for every level n.

        Each group's rows live in the coordinates of the non-downward arrows
        with tail in the component's level-n vertices.
        """
        _, (_, _, glob_at) = self._indexed_rows
        blocks = []
        for n, at in self.masks.items():
            for comp in at.upto:
                here = comp & at.mask
                glob = tuple(glob_at[n, c] for c in at.special if c & comp)
                blocks.append(_Block(n, comp, here, *self._rows_within(here), glob))
        return tuple(blocks)

    def flag(self):
        """Impose the four families cumulatively and keep every kernel."""
        width = self.graph.num_arrows
        stacked = []
        spaces = {}
        for family in FAMILIES:
            stacked.extend(_dense(row.support, width) for row in self.rows[family])
            spaces[family] = kernel(stacked, num_cols=width)
        return ResidueFlag(self.counts, spaces)

    def flag_dims(self):
        """The counts and the four flag dimensions, by integer rank only."""
        width = self.graph.num_arrows
        ranks = _cumulative_ranks((_supports(self.rows[f]) for f in FAMILIES), width)
        return self.counts, tuple(width - r for r in ranks)

    def residue_space(self):
        """The subspace cut out by all four condition families."""
        width = self.graph.num_arrows
        rows = [_dense(row.support, width) for f in FAMILIES for row in self.rows[f]]
        return kernel(rows, num_cols=width)

    def component_report(self):
        """Blockwise collections, cardinalities and codimensions, with totals
        checked against the flag dimensions."""
        _, dims = self.flag_dims()
        width = self.graph.num_arrows
        names = self.graph.names
        blocks = []
        for b in self.blocks:
            groups = (b.local, b.rosenlicht, b.glob)
            labels = [tuple(row.label for row in group) for group in groups]
            # local supports are disjoint (one vertex each): the sum is the union
            block_dim = sum(_supports(b.local)).bit_count()
            codims = _cumulative_ranks([_supports(group) for group in groups], width)
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
        rows must be properly unrelated, and related exactly for reducible
        summits.  Within every component of V_{h<=n} that meets level n, the
        global and rosenlicht rows together versus the local rows must be
        properly unrelated, and related whenever the collections are
        nonempty.  Returns a list of failure descriptions (empty means all
        predicates hold).
        """
        failures = []
        names = self.graph.names
        reducible = set(self._summit_masks[1])
        for n, at in self.masks.items():
            for comp in at.components:
                local, ros = self._rows_within(comp)
                report = support_checks(_supports(local), _supports(ros))
                if not report.properly_unrelated:
                    failures.append(f"level {n} component {names(comp)}: not properly unrelated")
                if report.related != (comp in reducible):
                    failures.append(
                        f"level {n} component {names(comp)}: related={report.related} "
                        f"but reducible-summit={comp in reducible}"
                    )

        for b in self.blocks:
            if not b.level_vertices:
                continue
            report = support_checks(_supports(b.glob + b.rosenlicht), _supports(b.local))
            if not report.properly_unrelated:
                failures.append(
                    f"level {b.level} merged component {names(b.component)}: "
                    "not properly unrelated"
                )
            nonempty = bool(b.local or b.rosenlicht or b.glob)
            if report.related != nonempty:
                failures.append(
                    f"level {b.level} merged component {names(b.component)}: "
                    f"related={report.related} with nonempty={nonempty}"
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

    @property
    def residue(self):
        return self.spaces["global"]

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

    @property
    def ok(self):
        return all(c.ok for c in self.identities()) and all(
            ok for _, ok in self.inclusions()
        )


def build_constraints(graph, levels):
    """Family -> its labelled condition rows (see :attr:`LevelGraph.rows`)."""
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
    checked against the globally computed flag dimensions."""
    return LevelGraph(graph, levels).component_report()


def check_component_relations(graph, levels):
    """Relatedness predicates on the per-component collections; see
    :meth:`LevelGraph.relation_failures`."""
    return LevelGraph(graph, levels).relation_failures()
