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
Every condition row of level n lies on the arrows out of its level mask L
and depends on L and the prefix mask V<n alone, so the condition matrix is
block-diagonal by level.  :func:`_level_pair` is the one builder of what a
level contributes: at the pair (L, V<n) it reads the graph's per-mask
tables (components, neighbours, arrows out and in) and returns a
:class:`LevelPair` with the components of L, of V<n and of V<=n and the
special components of V<n (those meeting the neighbours of L), the local
row of each vertex of L, the global rows of level n, the summits, and the
downward and horizontal arrows, as the masks of the arrows out of L with
head outside V<=n and inside L.  The constructor of :class:`LevelGraph`
builds one per level and assembles from them the counts and the four
condition families, in owner order.  Vertex sets are the positional
bitmasks of :mod:`resipoly.graphs`, read from
:attr:`~resipoly.graphs.LevelStructure.masks`, and become vertex-name tuples
only where they are reported.  Every condition is a 0/1 row, so it is
built once as the int bitmask of the arrow indices where it is 1, like
every other arrow set.  The relatedness predicates and the component
report read the per-component collections of each pair
(:func:`_level_collections`), which group the local and rosenlicht rows by
level component and reuse a group for every component of V<=n whose
level-n vertices form that one level component; a component of V<=n that
lies inside level n reuses that level component's relatedness verdict
too.  Ranks and kernels come from the one sparse integer echelon of
:mod:`resipoly.linalg`, run on the masks themselves, each row pivoted at
its lowest arrow: a rank is the echelon's size, and a kernel is read off
its back-substitution.  No full-width row is made from a mask.
What a row belongs to is derived from its lowest arrow
(:meth:`LevelGraph.owner`), and named (:meth:`LevelGraph.label`), only
where a report names the row.

The flag sweep over every ordered partition of a graph builds no
:class:`LevelGraph`.  A partition's family-cumulative ranks and count terms
are the sums of its levels', and its relation failures and component
identity verdicts their concatenation, so :func:`flag_dims`,
:func:`check_component_relations` and the random flag sweep of
:mod:`resipoly.verify` read one entry per level from the graph's pair memo
(:attr:`~resipoly.graphs.Multigraph.sweep_entries`), built once per
(level mask, prefix mask) pair by :func:`_sweep_entry`: 3^k - 2^k pairs
on k vertices, 211 at five, against 2,071 level visits over the 541
partitions.  Failure texts are stored without their level number, which
is prefixed on assembly, so the texts and their order are the model's.
The identities benchmark's ``wall_s`` fell from 0.916 s to 0.165 s
(medians of ten alternating pairs of 28 s runs on 2 vCPUs), where routing
each partition through the builder alone had made it about 19% slower.
Equal entries share one tuple (:func:`_shared`), which keeps the memo's
memory near half a megabyte on that benchmark's 82 graphs.  The
whole-space echelon stays where one document is checked.

:func:`level_rows` builds one level's rows as a set for the readers that
need a partition's row set and nothing else (:func:`residue_space` and
the face sweep).  It keeps its own lean walk: reading the rows off a
:class:`LevelPair` also builds the level's components and summits, and
took the faces benchmark's ``wall_s`` from 0.166-0.172 s to 0.181-0.184 s
(two alternating pairs of 8 s runs on 2 vCPUs).
``test_level_row_sets_match_the_model`` holds it to the pairs' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
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


class LevelMasks(NamedTuple):
    """Level n of a level graph as vertex masks: the level itself, its
    components, the components of V<n and the special ones among them, and
    the components of V<=n."""

    mask: int
    components: tuple
    below: tuple
    special: tuple
    upto: tuple


def _edge_rows(arrows):
    """The rosenlicht row of each edge whose two arrows lie in the arrow
    mask `arrows`, in edge order."""
    # edge e has the arrows 2e and 2e + 1: every other bit is one edge
    return tuple([3 << a for a in bits(arrows)[::2]])


class LevelPair(NamedTuple):
    """Level n of a level graph, read off its (level mask L, prefix mask
    V<n) pair alone by :func:`_level_pair`.

    ``local`` maps each vertex of L to its local row (0 when it has none),
    ``downward`` and ``horizontal`` are the masks of the arrows out of L
    with head outside V<=n and inside L, ``glob`` holds the global row of
    each special component, in their order, and ``irreducible`` and
    ``reducible`` are the summits among the components of L.
    """

    masks: LevelMasks
    local: dict
    downward: int
    horizontal: int
    glob: tuple
    irreducible: tuple
    reducible: tuple

    def rows(self):
        """The level's condition rows, one tuple per family, in owner order."""
        return (
            tuple([1 << a for a in bits(self.downward)]),
            tuple([row for row in self.local.values() if row]),
            _edge_rows(self.horizontal),
            self.glob,
        )

    def terms(self):
        """The level's count terms: its vertical edges, horizontal edges,
        irreducible summits and reducible summits."""
        # a vertical edge has one downward arrow, out of its upper level; a
        # horizontal edge has two horizontal ones
        return (
            self.downward.bit_count(),
            self.horizontal.bit_count() // 2,
            len(self.irreducible),
            len(self.reducible),
        )


def _level_pair(graph, mask, prefix):
    """Level `mask` below V<n = `prefix`: the one builder of every per-level
    fact, read against the graph's per-mask tables.

    Every condition row of level n lies on the arrows out of L and depends
    on L and V<n alone: the downward unit rows of the arrows out of L with
    head outside V<=n, the local row of each vertex of L (its arrows with
    head in V<=n) when nonzero, the rosenlicht row of each edge inside L,
    and the global row of each special component, a component of V<n
    meeting the neighbours of L.  A summit is a component of L with no
    arrow into V<n, that is the tail of no upward arrow; it is irreducible
    when it is one vertex without a loop.
    """
    arrows_from, arrows_into = graph.arrows_from, graph.arrows_into
    components, neighbours = graph.mask_components, graph.neighbours
    out_arrows = graph.out_arrows
    # an arrow out of level n is upward into V<n, downward out of V<=n
    into_below = arrows_into(prefix)
    upto = prefix | mask
    into_upto = arrows_into(upto)
    out = arrows_from(mask)
    local = {i: out_arrows[i] & into_upto for i in bits(mask)}
    level = components(mask)
    irreducible = []
    reducible = []
    for comp in level:
        if arrows_from(comp) & into_below:
            continue
        if comp & (comp - 1) or neighbours[comp.bit_length() - 1] & comp:
            reducible.append(comp)
        else:
            irreducible.append(comp)
    below = components(prefix)
    reach = graph.neighbour_mask(mask)
    special = tuple([c for c in below if c & reach])
    return LevelPair(
        LevelMasks(mask, level, below, special, components(upto)),
        local,
        out & ~into_upto,
        out & arrows_into(mask),
        tuple([out & arrows_into(c) for c in special]),
        tuple(irreducible),
        tuple(reducible),
    )


def _rows_within(graph, local, mask):
    """The local rows of the vertices of `mask`, read from `local` (vertex
    index -> local row), and the rosenlicht rows of the edges with both
    ends in it, in owner order.

    `mask` must be a union of components of one level, so that every edge
    inside it is horizontal and every horizontal edge meeting it lies
    inside it.
    """
    rows = []
    for i in bits(mask):
        if local[i]:
            rows.append(local[i])
    return tuple(rows), _edge_rows(graph.arrows_from(mask) & graph.arrows_into(mask))


def _level_collections(graph, pair):
    """The per-component collections of one level.

    Returns a dict from each component of the level to its
    :func:`_rows_within`, and a list with, for each component C of V<=n,
    the tuple (C, C's level-n vertices, local rows, rosenlicht rows, global
    rows): the rows of level n that lie in C, which live in the coordinates
    of the non-downward arrows with tail in C's level-n vertices.  The
    group of a C whose level-n vertices form one level component is read
    from the dict.  A C that misses level n has empty collections: a
    special component inside it would join it to level n.
    """
    at, local = pair.masks, pair.local
    groups = {comp: _rows_within(graph, local, comp) for comp in at.components}
    blocks = []
    for comp in at.upto:
        here = comp & at.mask
        if not here:
            blocks.append((comp, 0, (), (), ()))
            continue
        rows, rosenlicht = groups.get(here) or _rows_within(graph, local, here)
        glob = tuple([row for c, row in zip(at.special, pair.glob) if c & comp])
        blocks.append((comp, here, rows, rosenlicht, glob))
    return groups, blocks


def _pair_relations(graph, pair):
    """Relatedness predicates on one level's per-component collections.

    Within every level component, the local rows versus the rosenlicht
    rows must be set-theoretically independent and properly unrelated,
    and related exactly for reducible summits.  Within every component of
    V_{h<=n} that meets level n, the global and rosenlicht rows together
    versus the local rows must be set-theoretically independent and
    properly unrelated, and related whenever the collections are nonempty.
    The components of V_{h<=n} that miss level n are skipped, and one that
    lies inside level n, a summit with no global row, reads its level
    component's verdict.  Returns the level components' failure texts and
    the merged components', each without its level number (see
    :func:`_numbered`).
    """
    names = graph.names
    groups, blocks = _level_collections(graph, pair)
    failures = []
    merged = []
    verdicts = {}
    for comp, group in groups.items():
        verdict = verdicts[comp] = support_checks(*group)
        if verdict is None:
            failures.append(f"component {names(comp)}: not set-theoretically independent")
            continue
        related, properly = verdict
        if not properly:
            failures.append(f"component {names(comp)}: not properly unrelated")
        if related != (comp in pair.reducible):
            failures.append(
                f"component {names(comp)}: related={related} "
                f"but reducible-summit={comp in pair.reducible}"
            )

    for comp, here, local, rosenlicht, glob in blocks:
        if not here:
            continue
        # a C inside level n is a level component with no global row: its
        # collections are that component's, swapped, and the verdict is
        # symmetric in the two
        if comp == here:
            verdict = verdicts[comp]
        else:
            verdict = support_checks(glob + rosenlicht, local)
        if verdict is None:
            merged.append(f"merged component {names(comp)}: not set-theoretically independent")
            continue
        related, properly = verdict
        if not properly:
            merged.append(f"merged component {names(comp)}: not properly unrelated")
        nonempty = bool(local or rosenlicht or glob)
        if related != nonempty:
            merged.append(
                f"merged component {names(comp)}: related={related} with nonempty={nonempty}"
            )
    return failures, merged


def _numbered(texts):
    """One partition's relation failures from each level's pair of text
    lists (level components', merged components'), top to bottom: every
    level component's failure before every merged component's, each
    prefixed with its level number."""
    failures = []
    merged = []
    for n, (level, merged_here) in enumerate(texts, start=1):
        failures += [f"level {n} {text}" for text in level]
        merged += [f"level {n} {text}" for text in merged_here]
    return failures + merged


def _component_identity(at):
    """The below-level component identity at one level, given its
    :class:`LevelMasks`: the non-special components of V<n are exactly its
    components that survive as components of V<=n."""
    return set(at.below) - set(at.special) == set(at.upto) & set(at.below)


# A sweep entry is a flat tuple: the level's four family-cumulative ranks,
# its four count terms (LevelPair.terms) and its component-identity
# verdict, then, only when it has any, its level components' and merged
# components' relation failure texts.
_IDENTITY = 8


def _sweep_entry(graph, mask, prefix):
    """The flag sweep's entry of level `mask` below `prefix` (see
    :data:`_IDENTITY`).  Every row of the level lies on the arrows out of
    it, so the condition matrix of a partition is block-diagonal by level:
    its ranks and counts are sums of its levels' entries, and its failure
    texts their concatenation."""
    pair = _level_pair(graph, mask, prefix)
    entry = (
        *_cumulative_ranks(pair.rows()),
        *pair.terms(),
        _component_identity(pair.masks),
    )
    level, merged = _pair_relations(graph, pair)
    if level or merged:
        entry += (tuple(level), tuple(merged))
    return entry


@lru_cache(maxsize=1024)
def _shared(entry):
    """One tuple for all equal sweep entries: the identities benchmark's 82
    graphs hold 4,948 entries, of which 272 are distinct, and a tuple of
    nine ints takes 112 bytes."""
    return entry


def _level_entries(graph, levels):
    """Each level's :func:`_sweep_entry`, top to bottom, read from the
    graph's pair memo (:attr:`~resipoly.graphs.Multigraph.sweep_entries`),
    where the pair (L, V<n) is the one int ``L | V<n << k`` on k vertices."""
    check_same_vertices(graph, levels)
    memo = graph.sweep_entries
    k = len(graph.vertices)
    entries = []
    prefix = 0
    for mask in levels.masks:
        key = mask | prefix << k
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = _shared(_sweep_entry(graph, mask, prefix))
        entries.append(entry)
        prefix |= mask
    return entries


def _summed_dims(graph, entries):
    """The counts and the four flag dimensions of a partition, from its
    levels' entries: each rank and count term is the sum over the levels."""
    sums = list(map(sum, islice(zip(*entries), _IDENTITY)))
    counts = LevelCounts(
        len(graph.vertices),
        len(graph.edges),
        graph.component_count,
        graph.genus,
        len(entries),
        *sums[4:],
    )
    width = graph.num_arrows
    return counts, tuple([width - rank for rank in sums[:4]])


def _identity_verdicts(entries):
    """Each level's component-identity verdict, from its entry."""
    return [entry[_IDENTITY] for entry in entries]


def _relation_failures(entries):
    """A partition's relation failures from its levels' entries, in the
    order of :meth:`LevelGraph.relation_failures`."""
    if max(map(len, entries)) == _IDENTITY + 1:
        return []  # no level has a failure text
    return _numbered([entry[_IDENTITY + 1 :] or ((), ()) for entry in entries])


class LevelGraph:
    """A multigraph with an ordered partition of its vertices, and the facts
    derived from the pair.

    The constructor builds each level's :class:`LevelPair` and assembles
    from them, as plain attributes, every part the checks read:

    * ``pairs`` -- the levels' :class:`LevelPair` records, top to bottom;
    * ``masks`` -- level n -> its :class:`LevelMasks`;
    * ``counts`` -- the :class:`LevelCounts`, summed over the levels;
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
        pairs = []
        prefix = 0
        for mask in levels.masks:
            pairs.append(_level_pair(graph, mask, prefix))
            prefix |= mask
        local_at = [0] * len(graph.vertices)
        downward = horizontal = 0
        for pair in pairs:
            for i, row in pair.local.items():
                local_at[i] = row
            downward |= pair.downward
            horizontal |= pair.horizontal
        self.pairs = tuple(pairs)
        self.masks = {n: pair.masks for n, pair in enumerate(pairs, start=1)}
        self.counts = LevelCounts(
            len(graph.vertices),
            len(graph.edges),
            graph.component_count,
            graph.genus,
            levels.r,
            *[sum(column) for column in zip(*[pair.terms() for pair in pairs])],
        )
        self.rows = {
            "downward": tuple([1 << a for a in bits(downward)]),
            "local": tuple([row for row in local_at if row]),
            "rosenlicht": _edge_rows(horizontal),
            "global": tuple([row for pair in pairs for row in pair.glob]),
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

    def collections(self):
        """The per-component collections, one level at a time, top to bottom:
        for level n, yields n and its :func:`_level_collections`."""
        for n, pair in enumerate(self.pairs, start=1):
            yield (n, *_level_collections(self.graph, pair))

    def flag(self):
        """Impose the four families cumulatively and keep every kernel, each
        taken off one sparse echelon of the masks."""
        width = self.graph.num_arrows
        echelon = {}
        spaces = {f: _kernel(_insert_masks(echelon, self.rows[f]), width) for f in FAMILIES}
        return ResidueFlag(self.counts, spaces)

    def flag_dims(self):
        """The counts and the four flag dimensions, by integer rank only, on
        one echelon of the whole arrow space."""
        width = self.graph.num_arrows
        ranks = _cumulative_ranks(self.rows[f] for f in FAMILIES)
        return self.counts, tuple(width - r for r in ranks)

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
        """Relatedness predicates on the per-component collections, one
        :func:`_pair_relations` per level.  Returns a list of failure
        descriptions, every level component's before every merged
        component's (empty means all predicates hold)."""
        return _numbered([_pair_relations(self.graph, pair) for pair in self.pairs])


def level_rows(graph, mask, prefix):
    """The condition rows that level `mask` owns below V<n = `prefix`, as a
    frozenset of arrow masks: the rows of its :class:`LevelPair`, by a
    walk of their own (see the module docstring).

    They are the rows of :attr:`LevelGraph.rows` whose arrows have their
    tail in the level, and they depend on the two masks alone: the downward
    unit rows of the arrows out of L with head outside V<=n, the local row
    of each vertex of L (its arrows with head in V<=n) when nonzero, the
    rosenlicht row of each edge inside L, and the global row of each
    component of V<n meeting the neighbours of L.  The union over the levels
    of a partition is the set of all its rows.  Its two readers need that
    set alone: :func:`residue_space` takes its kernel, and the face sweep
    of :mod:`resipoly.polytopes` sums tables off its levels' kernel bases.
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
    """The counts and the four flag dimensions by integer rank only (no
    kernels materialized), summed over the levels' entries in the graph's
    pair memo: each (level mask, prefix mask) pair is ranked once per
    graph.  Same mathematics as :func:`build_flag`, used for large sweeps.
    """
    return _summed_dims(graph, _level_entries(graph, levels))


def residue_space(graph, levels):
    """The subspace cut out by all four condition families: the canonical
    kernel of one sparse echelon of every level's :func:`level_rows`."""
    check_same_vertices(graph, levels)
    echelon = {}
    prefix = 0
    for mask in levels.masks:
        _insert_masks(echelon, level_rows(graph, mask, prefix))
        prefix |= mask
    return _kernel(echelon, graph.num_arrows)


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
    """Relatedness predicates on the per-component collections, the texts
    of :meth:`LevelGraph.relation_failures` listed from the levels' entries
    in the graph's pair memo."""
    return _relation_failures(_level_entries(graph, levels))
