"""Multigraphs carrying a level structure (an ordered partition of vertices).

Loops and parallel edges are allowed.  Every edge {u, v} contributes two
mutually reverse arrows u->v and v->u (two half-edges when u == v); the
global arrow order (edge index, orientation) is the canonical coordinate
order for the arrow space used by the linear-algebra layers.  Arrow index
``2 * edge + direction``, so reversal is ``index ^ 1``.

A vertex set is a positional int bitmask throughout: bit i stands for the
i-th vertex of the graph's vertex tuple.  Arrow sets are bitmasks over
arrow indices.  Vertex names appear only at input (documents, level maps,
:meth:`Multigraph.mask_of`) and in reports (:meth:`Multigraph.names`,
:attr:`LevelStructure.parts`).  Since masks are positional, a level
structure is read together with a graph only when both list the same
vertices in the same order.

Level values in input documents may be arbitrary integers; they are
compressed to consecutive 1..r preserving order, since only the order
matters.  With the drawing convention that level 1 sits on top, an arrow is
"upward" when its tail level is strictly larger than its head level.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

__all__ = [
    "Arrow",
    "ArrowClassification",
    "ENUMERATION_BOUND",
    "GraphDocumentError",
    "LevelStructure",
    "Multigraph",
    "classify_arrows",
    "components_below",
    "is_coarsening",
    "load_level_graph",
    "ordered_partitions",
]

ENUMERATION_BOUND = 8


class GraphDocumentError(ValueError):
    """Malformed graph document or incompatible graph/level inputs."""


class Arrow(NamedTuple):
    edge: int
    direction: int
    tail: str
    head: str

    @property
    def label(self):
        return f"e{self.edge}:{self.tail}>{self.head}"


def bits(mask):
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _union(table, mask):
    """The union of ``table[i]`` over the set bits i of `mask`."""
    out = 0
    for i in bits(mask):
        out |= table[i]
    return out


def _flood(neighbours, mask):
    """The components of the vertex mask under the per-vertex neighbour
    masks, by flood fill from each lowest vertex left."""
    components = []
    while mask:
        component = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours[low.bit_length() - 1] & mask & ~component
            component |= new
            frontier |= new
        components.append(component)
        mask &= ~component
    return tuple(components)


class Memo(dict):
    """A dict that fills each missing key with ``fill(key)`` on its first
    lookup and keeps the value: ``fill`` runs once per distinct key."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        # the dict starts empty, so dict.__init__ has nothing to do
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Multigraph:
    """Finite multigraph over named vertices.

    Vertex sets are bitmasks, bit i standing for the i-th vertex in input
    order, and arrow sets are bitmasks over arrow indices.  Per vertex,
    ``neighbours`` is the vertex mask of its neighbours (itself included
    when it carries a loop), and ``out_arrows`` and ``in_arrows`` are the
    arrow masks of the arrows with that tail and that head.
    ``component_count`` and ``genus`` (first Betti number,
    |E| - |V| + components) are computed on construction.

    A graph is never changed after construction, so what a vertex mask
    determines is computed once per mask and kept in a per-graph
    :class:`Memo` keyed by the mask.  Each of these four is the lookup of
    its memo, called with a vertex mask:

    * ``neighbour_mask`` -- the vertices adjacent to some vertex of it;
    * ``arrows_from`` -- the arrows with tail in it, as an arrow mask;
    * ``arrows_into`` -- the arrows with head in it, as an arrow mask;
    * ``mask_components`` -- the connected components of the subgraph
      induced on it, as a tuple of vertex masks ordered by their lowest
      vertex.

    A fifth per-graph memo, ``sweep_entries``, is keyed by a (level mask,
    prefix mask) pair of disjoint vertex masks, with the level mask
    nonzero, so a graph on k vertices has at most 3^k - 2^k entries.  The
    pair is packed into the one int ``mask | prefix << k``, which takes
    less memory than a tuple key.  Each entry is the flag sweep's facts of
    that level below that prefix, a flat tuple of small ints.  It is a
    plain dict that :mod:`resipoly.residues` fills on a miss: a
    :class:`Memo` fill would have to hold the graph, a reference cycle
    that keeps every graph alive until a cyclic garbage collection.
    """

    __slots__ = (
        "vertices",
        "edges",
        "index",
        "arrows",
        "neighbours",
        "out_arrows",
        "in_arrows",
        "component_count",
        "genus",
        "neighbour_mask",
        "arrows_from",
        "arrows_into",
        "mask_components",
        "sweep_entries",
    )

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        if not vertices:
            raise GraphDocumentError("empty vertex list")
        index = {}
        for v in vertices:
            if not isinstance(v, str):
                raise GraphDocumentError(f"vertex name {v!r} is not a string")
            if v in index:
                raise GraphDocumentError(f"duplicate vertex name {v!r}")
            index[v] = len(index)
        edge_list = []
        for e in edges:
            # a string or an object of two would unpack into two endpoints
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise GraphDocumentError(f"edge {e!r} is not a pair [u, v]")
            for w in e:
                # an array or object endpoint is no vertex name, and unhashable
                if not isinstance(w, str) or w not in index:
                    raise GraphDocumentError(f"unknown vertex {w!r} in edge {e!r}")
            edge_list.append(tuple(e))
        self.vertices = vertices
        self.edges = tuple(edge_list)
        self.index = index

        arrows = []
        neighbours = [0] * len(vertices)
        out_arrows = [0] * len(vertices)
        in_arrows = [0] * len(vertices)
        for i, (u, v) in enumerate(self.edges):
            arrows.append(Arrow(i, 0, u, v))
            arrows.append(Arrow(i, 1, v, u))
            iu, iv = index[u], index[v]
            neighbours[iu] |= 1 << iv
            neighbours[iv] |= 1 << iu
            out_arrows[iu] |= 1 << 2 * i
            in_arrows[iv] |= 1 << 2 * i
            out_arrows[iv] |= 2 << 2 * i
            in_arrows[iu] |= 2 << 2 * i
        self.arrows = tuple(arrows)
        self.neighbours = tuple(neighbours)
        self.out_arrows = tuple(out_arrows)
        self.in_arrows = tuple(in_arrows)
        self.neighbour_mask = Memo(partial(_union, self.neighbours)).__getitem__
        self.arrows_from = Memo(partial(_union, self.out_arrows)).__getitem__
        self.arrows_into = Memo(partial(_union, self.in_arrows)).__getitem__
        self.mask_components = Memo(partial(_flood, self.neighbours)).__getitem__
        self.sweep_entries = {}
        self.component_count = len(self.mask_components((1 << len(vertices)) - 1))
        self.genus = len(self.edges) - len(vertices) + self.component_count

    @property
    def num_arrows(self):
        return 2 * len(self.edges)

    def mask_of(self, subset):
        """The vertex bitmask of `subset` (bit i is vertex i in input order)."""
        mask = 0
        for v in subset:
            mask |= 1 << self.index[v]
        return mask

    def names(self, mask):
        """The vertices of a vertex bitmask, in input order."""
        return tuple(self.vertices[i] for i in bits(mask))

    def genus_of(self, mask):
        """First Betti number of the subgraph induced on a vertex bitmask.

        Each edge with both ends in `mask`, a loop included, gives exactly
        two arrows with tail and head in it.
        """
        inside = self.arrows_from(mask) & self.arrows_into(mask)
        return inside.bit_count() // 2 - mask.bit_count() + len(self.mask_components(mask))


class LevelStructure:
    """Ordered partition of a fixed vertex tuple, stored as levels 1..r.

    ``masks[n-1]`` is the vertex mask of level n, bit i standing for
    ``vertices[i]``; every layer reads the levels, and their prefixes, from
    it.  :attr:`parts` names the same vertices, in input order, for
    reports.  The trivial structure has r = 1 with a single part covering
    everything.
    """

    __slots__ = ("vertices", "levels", "r", "masks")

    def __init__(self, vertices, levels):
        vertices = tuple(vertices)
        levels = tuple(levels)
        if len(vertices) != len(levels):
            raise GraphDocumentError("level list does not match the vertex list")
        if not vertices:
            raise GraphDocumentError("empty vertex list")
        masks = [0] * max(levels)
        valid = min(levels) >= 1  # a level below 1 would index the masks from the end
        if valid:
            for i, n in enumerate(levels):
                masks[n - 1] |= 1 << i
        if not (valid and all(masks)):
            raise GraphDocumentError("levels must cover 1..r with no gaps")
        self.vertices = vertices
        self.levels = levels
        self.r = len(masks)
        self.masks = tuple(masks)

    @property
    def parts(self):
        """The vertex names of each level, in input order."""
        vertices = self.vertices
        return tuple(tuple(vertices[i] for i in bits(mask)) for mask in self.masks)

    @classmethod
    def from_map(cls, vertices, mapping):
        """Build from an arbitrary integer level map, compressing to 1..r."""
        vertex_set = set(vertices)
        for key in mapping:
            if key not in vertex_set:
                raise GraphDocumentError(f"unknown vertex {key!r} in level map")
        raw = []
        for v in vertices:
            if v not in mapping:
                raise GraphDocumentError(f"missing level for vertex {v!r}")
            value = mapping[v]
            if isinstance(value, bool) or not isinstance(value, int):
                raise GraphDocumentError(
                    f"non-integer level {value!r} for vertex {v!r}"
                )
            raw.append(value)
        ordered = sorted(set(raw))
        compress = {value: n + 1 for n, value in enumerate(ordered)}
        return cls(vertices, [compress[value] for value in raw])

    @classmethod
    def trivial(cls, vertices):
        return cls(vertices, [1] * len(tuple(vertices)))

    @classmethod
    def from_parts(cls, vertices, parts):
        mapping = {}
        for n, part in enumerate(parts, start=1):
            members = list(part)
            if not members:
                raise GraphDocumentError(f"part {n} is empty")
            for v in members:
                if v in mapping:
                    raise GraphDocumentError(f"vertex {v!r} appears in two parts")
                mapping[v] = n
        return cls.from_map(tuple(vertices), mapping)

    def part(self, n):
        if not 1 <= n <= self.r:
            raise GraphDocumentError(f"level {n} out of range 1..{self.r}")
        return self.parts[n - 1]

    @property
    def is_trivial(self):
        return self.r == 1

    def __eq__(self, other):
        if not isinstance(other, LevelStructure):
            return NotImplemented
        return self.vertices == other.vertices and self.levels == other.levels

    def __hash__(self):
        return hash((self.vertices, self.levels))

    def __repr__(self):
        body = " | ".join(",".join(p) for p in self.parts)
        return f"LevelStructure({body})"


class ArrowClassification(NamedTuple):
    """The upward and downward arrows in ascending order, and the vertical
    and horizontal edges; every arrow of a horizontal edge is horizontal."""

    upward: tuple
    downward: tuple
    vertical_edges: tuple
    horizontal_edges: tuple


def classify_arrows(graph, levels):
    """Sort every arrow by direction; loops are always horizontal."""
    check_same_vertices(graph, levels)
    index, level = graph.index, levels.levels
    upward = []
    downward = []
    vertical = []
    horizontal = []
    for i, (u, v) in enumerate(graph.edges):
        lu, lv = level[index[u]], level[index[v]]
        if lu == lv:
            horizontal.append(i)
            continue
        vertical.append(i)
        # arrow 2i runs u->v, arrow 2i+1 runs v->u
        if lu > lv:
            upward.append(2 * i)
            downward.append(2 * i + 1)
        else:
            downward.append(2 * i)
            upward.append(2 * i + 1)
    return ArrowClassification(tuple(upward), tuple(downward), tuple(vertical), tuple(horizontal))


def check_same_vertices(graph, levels):
    """Reject a level structure whose vertex tuple is not the graph's: its
    masks are positional, so the same names in another order would make
    them name other vertices."""
    if levels.vertices != graph.vertices:
        raise GraphDocumentError("level structure does not list the graph's vertices in order")


def components_below(graph, levels, n):
    """Components of the subgraph strictly below level n, and the special ones.

    A component is special when it receives an upward arrow from level n,
    that is when it meets the neighbours of level n.  For n = 1 both lists
    are empty.
    """
    check_same_vertices(graph, levels)
    if not 1 <= n <= levels.r:
        raise GraphDocumentError(f"level {n} out of range 1..{levels.r}")
    below = graph.mask_components(sum(levels.masks[: n - 1]))  # disjoint: sum is union
    reach = graph.neighbour_mask(levels.masks[n - 1])
    return (
        [graph.names(c) for c in below],
        [graph.names(c) for c in below if c & reach],
    )


def is_coarsening(fine, coarse):
    """True when every part of `fine` sits inside a part of `coarse` and the
    induced map on level indices is nondecreasing.  Both must list the same
    vertices in the same order."""
    if fine.vertices != coarse.vertices:
        raise GraphDocumentError("level structures do not list the same vertices in order")
    images = []
    for mask in fine.masks:
        targets = {coarse.levels[i] for i in bits(mask)}
        if len(targets) != 1:
            return False
        images.append(targets.pop())
    return all(a <= b for a, b in zip(images, images[1:]))


def _level_tuples(k):
    """The level tuples of every ordered partition of ``range(k)``.  Those of
    ``range(k - 1)`` come first; for each, with r levels, k - 1 joins level
    n = 1..r in turn, then becomes a new level n = 1..r + 1, which moves
    every level from n on up by one."""
    if not k:
        yield ()
        return
    for smaller in _level_tuples(k - 1):
        r = max(smaller, default=0)
        for n in range(1, r + 1):
            yield smaller + (n,)
        for n in range(1, r + 2):
            yield tuple(m + 1 if m >= n else m for m in smaller) + (n,)


def ordered_partitions(vertices):
    """Every ordered partition of the vertex tuple, exactly once.

    The count is the Fubini number of len(vertices).  Each structure is
    built straight from its level tuple.
    """
    vertices = tuple(vertices)
    if len(vertices) > ENUMERATION_BOUND:
        raise GraphDocumentError(
            f"{len(vertices)} vertices exceed the enumeration bound {ENUMERATION_BOUND}"
        )
    if len(set(vertices)) != len(vertices):
        raise GraphDocumentError("duplicate vertex name")
    for levels in _level_tuples(len(vertices)):
        yield LevelStructure(vertices, levels)


def load_level_graph(document):
    """Validate a graph document and return (Multigraph, LevelStructure).

    Expected shape: ``{"vertices": [...], "edges": [[u, v], ...],
    "levels": {vertex: integer, ...}}``; "vertices", "edges" and each edge
    must be arrays.  An omitted "levels" entry means the trivial one-level
    structure; a present one, null included, must be an object.  Unknown
    keys are ignored.
    """
    if not isinstance(document, dict):
        raise GraphDocumentError("graph document must be a JSON object")
    if "vertices" not in document:
        raise GraphDocumentError('graph document lacks a "vertices" list')
    vertices = document["vertices"]
    edges = document.get("edges", [])
    if not isinstance(vertices, (list, tuple)):
        raise GraphDocumentError('"vertices" must be a list of vertex names')
    if not isinstance(edges, (list, tuple)):
        raise GraphDocumentError('"edges" must be a list of vertex pairs')
    graph = Multigraph(vertices, edges)
    if "levels" not in document:
        return graph, LevelStructure.trivial(graph.vertices)
    raw_levels = document["levels"]
    if not isinstance(raw_levels, dict):
        raise GraphDocumentError('"levels" must map vertices to integers')
    return graph, LevelStructure.from_map(graph.vertices, raw_levels)
