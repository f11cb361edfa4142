"""Multigraphs carrying a level structure (an ordered partition of vertices).

Loops and parallel edges are allowed.  Every edge {u, v} contributes two
mutually reverse arrows u->v and v->u (two half-edges when u == v); the
global arrow order (edge index, orientation) is the canonical coordinate
order for the arrow space used by the linear-algebra layers.  Arrow index
``2 * edge + direction``, so reversal is ``index ^ 1``.

Level values in input documents may be arbitrary integers; they are
compressed to consecutive 1..r preserving order, since only the order
matters.  With the drawing convention that level 1 sits on top, an arrow is
"upward" when its tail level is strictly larger than its head level.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

__all__ = [
    "Arrow",
    "ArrowClassification",
    "DEFAULT_ENUMERATION_BOUND",
    "GraphDocumentError",
    "LevelStructure",
    "Multigraph",
    "classify_arrows",
    "coarsenings",
    "components_below",
    "is_coarsening",
    "level_components",
    "load_level_graph",
    "ordered_partitions",
]

DEFAULT_ENUMERATION_BOUND = 8

UPWARD = "upward"
DOWNWARD = "downward"
HORIZONTAL = "horizontal"


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


class Multigraph:
    """Finite multigraph over named vertices.

    Vertex sets are also handled as bitmasks, bit i standing for the i-th
    vertex in input order, and arrow sets as bitmasks over arrow indices.
    Per vertex, ``neighbours`` is the vertex mask of its neighbours (itself
    included when it carries a loop), and ``out_arrows`` and ``in_arrows``
    are the arrow masks of the arrows with that tail and that head.
    ``component_count`` and ``genus`` (first Betti number,
    |E| - |V| + components) are computed on construction.
    """

    __slots__ = (
        "vertices",
        "edges",
        "index",
        "arrows",
        "arrows_with_tail",
        "neighbours",
        "out_arrows",
        "in_arrows",
        "component_count",
        "genus",
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
            pair = tuple(e)
            if len(pair) != 2:
                raise GraphDocumentError(f"edge {e!r} is not a vertex pair")
            u, v = pair
            if u not in index:
                raise GraphDocumentError(f"unknown vertex {u!r} in edge {e!r}")
            if v not in index:
                raise GraphDocumentError(f"unknown vertex {v!r} in edge {e!r}")
            edge_list.append((u, v))
        self.vertices = vertices
        self.edges = tuple(edge_list)
        self.index = index

        arrows = []
        arrows_with_tail = {v: [] for v in vertices}
        neighbours = [0] * len(vertices)
        out_arrows = [0] * len(vertices)
        in_arrows = [0] * len(vertices)
        for i, (u, v) in enumerate(self.edges):
            arrows.append(Arrow(i, 0, u, v))
            arrows.append(Arrow(i, 1, v, u))
            arrows_with_tail[u].append(2 * i)
            arrows_with_tail[v].append(2 * i + 1)
            iu, iv = index[u], index[v]
            neighbours[iu] |= 1 << iv
            neighbours[iv] |= 1 << iu
            out_arrows[iu] |= 1 << 2 * i
            in_arrows[iv] |= 1 << 2 * i
            out_arrows[iv] |= 2 << 2 * i
            in_arrows[iu] |= 2 << 2 * i
        self.arrows = tuple(arrows)
        self.arrows_with_tail = {v: tuple(a) for v, a in arrows_with_tail.items()}
        self.neighbours = tuple(neighbours)
        self.out_arrows = tuple(out_arrows)
        self.in_arrows = tuple(in_arrows)
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

    def neighbour_mask(self, mask):
        """The vertices adjacent to some vertex of `mask`."""
        return _union(self.neighbours, mask)

    def arrows_from(self, mask):
        """The arrows with tail in the vertex mask, as an arrow mask."""
        return _union(self.out_arrows, mask)

    def arrows_into(self, mask):
        """The arrows with head in the vertex mask, as an arrow mask."""
        return _union(self.in_arrows, mask)

    def mask_components(self, mask):
        """Connected components of the subgraph induced on a vertex bitmask,
        as bitmasks ordered by their lowest vertex."""
        neighbours = self.neighbours
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
        return components

    def induced_components(self, subset):
        """Connected components of the induced subgraph, as vertex tuples.

        Components are sorted by their first vertex in input order; vertices
        within a component likewise.
        """
        return [self.names(c) for c in self.mask_components(self.mask_of(subset))]

    def induced_edges(self, subset):
        """Edge indices with both endpoints (loops included) inside subset."""
        chosen = set(subset)
        return tuple(
            i
            for i, (u, v) in enumerate(self.edges)
            if u in chosen and v in chosen
        )

    def genus_of_induced(self, subset):
        chosen = tuple(dict.fromkeys(subset))
        if not chosen:
            return 0
        edges = len(self.induced_edges(chosen))
        comps = len(self.induced_components(chosen))
        return edges - len(chosen) + comps


class LevelStructure:
    """Ordered partition of a fixed vertex tuple, stored as levels 1..r.

    ``parts[n-1]`` lists the vertices of level n in graph input order.  The
    trivial structure has r = 1 with a single part covering everything.
    """

    __slots__ = ("vertices", "levels", "r", "parts", "_level_of")

    def __init__(self, vertices, levels):
        vertices = tuple(vertices)
        levels = tuple(levels)
        if len(vertices) != len(levels):
            raise GraphDocumentError("level list does not match the vertex list")
        if not vertices:
            raise GraphDocumentError("empty vertex list")
        r = max(levels)
        present = set(levels)
        if min(levels) != 1 or present != set(range(1, r + 1)):
            raise GraphDocumentError("levels must cover 1..r with no gaps")
        self.vertices = vertices
        self.levels = levels
        self.r = r
        parts = [[] for _ in range(r)]
        for v, n in zip(vertices, levels):
            parts[n - 1].append(v)
        self.parts = tuple(tuple(p) for p in parts)
        self._level_of = dict(zip(vertices, levels))

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

    def level_of(self, v):
        return self._level_of[v]

    def part(self, n):
        if not 1 <= n <= self.r:
            raise GraphDocumentError(f"level {n} out of range 1..{self.r}")
        return self.parts[n - 1]

    def prefix(self, n):
        """Vertices of level <= n, in graph order."""
        return tuple(v for v, lv in zip(self.vertices, self.levels) if lv <= n)

    def key(self):
        return self.levels

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


class ArrowClassification:
    """Per-arrow upward/downward/horizontal tags plus the derived index sets."""

    __slots__ = (
        "tags",
        "upward",
        "downward",
        "horizontal",
        "vertical_edges",
        "horizontal_edges",
    )

    def __init__(self, tags, vertical_edges, horizontal_edges):
        self.tags = tuple(tags)
        self.upward = tuple(i for i, t in enumerate(self.tags) if t == UPWARD)
        self.downward = tuple(i for i, t in enumerate(self.tags) if t == DOWNWARD)
        self.horizontal = tuple(
            i for i, t in enumerate(self.tags) if t == HORIZONTAL
        )
        self.vertical_edges = tuple(vertical_edges)
        self.horizontal_edges = tuple(horizontal_edges)


def classify_arrows(graph, levels):
    """Tag every arrow; loops are always horizontal."""
    tags = []
    vertical = []
    horizontal = []
    for i, (u, v) in enumerate(graph.edges):
        lu, lv = levels.level_of(u), levels.level_of(v)
        if lu == lv:
            horizontal.append(i)
            tags.extend((HORIZONTAL, HORIZONTAL))
        else:
            vertical.append(i)
            # arrow 2i runs u->v, arrow 2i+1 runs v->u
            tags.append(UPWARD if lu > lv else DOWNWARD)
            tags.append(UPWARD if lv > lu else DOWNWARD)
    return ArrowClassification(tags, vertical, horizontal)


def level_components(graph, levels, n):
    """Connected components of the subgraph induced on the level-n vertices."""
    return graph.induced_components(levels.part(n))


def components_below(graph, levels, n):
    """Components of the subgraph strictly below level n, and the special ones.

    A component is special when it receives an upward arrow from level n,
    that is when it meets the neighbours of level n.  For n = 1 both lists
    are empty.
    """
    if not 1 <= n <= levels.r:
        raise GraphDocumentError(f"level {n} out of range 1..{levels.r}")
    below = graph.mask_components(graph.mask_of(levels.prefix(n - 1)))
    reach = graph.neighbour_mask(graph.mask_of(levels.part(n)))
    return (
        [graph.names(c) for c in below],
        [graph.names(c) for c in below if c & reach],
    )


def is_coarsening(fine, coarse):
    """True when every part of `fine` sits inside a part of `coarse` and the
    induced map on level indices is nondecreasing."""
    if set(fine.vertices) != set(coarse.vertices):
        raise GraphDocumentError("vertex sets differ")
    images = []
    for part in fine.parts:
        targets = {coarse.level_of(v) for v in part}
        if len(targets) != 1:
            return False
        images.append(targets.pop())
    return all(a <= b for a, b in zip(images, images[1:]))


def _raw_ordered_partitions(items):
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for smaller in _raw_ordered_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1 :]
        for i in range(len(smaller) + 1):
            yield smaller[:i] + [[last]] + smaller[i:]


def ordered_partitions(vertices, max_vertices=DEFAULT_ENUMERATION_BOUND):
    """Every ordered partition of the vertex tuple, exactly once.

    The count is the Fubini number of len(vertices).  Each structure is
    built straight from its level tuple.
    """
    vertices = tuple(vertices)
    if len(vertices) > max_vertices:
        raise GraphDocumentError(
            f"{len(vertices)} vertices exceed the enumeration bound {max_vertices}"
        )
    if len(set(vertices)) != len(vertices):
        raise GraphDocumentError("duplicate vertex name")
    for parts in _raw_ordered_partitions(list(range(len(vertices)))):
        levels = [0] * len(vertices)
        for n, part in enumerate(parts, start=1):
            for i in part:
                levels[i] = n
        yield LevelStructure(vertices, levels)


def coarsenings(levels):
    """All coarsenings of an ordered partition (merges of consecutive parts),
    the structure itself and the trivial one included.  Each structure is
    built straight from its relabelled level tuple."""
    for gaps in itertools.product((False, True), repeat=levels.r - 1):
        relabel = [0, 1]  # old level n -> its level in the coarsening
        for cut in gaps:
            relabel.append(relabel[-1] + cut)
        yield LevelStructure(levels.vertices, [relabel[n] for n in levels.levels])


def load_level_graph(document):
    """Validate a graph document and return (Multigraph, LevelStructure).

    Expected shape: ``{"vertices": [...], "edges": [[u, v], ...],
    "levels": {vertex: integer, ...}}``; "vertices", "edges" and each edge
    must be arrays.  An omitted "levels" entry means the trivial one-level
    structure.  Unknown keys are ignored.
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
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphDocumentError(f"edge {e!r} is not a pair [u, v]")
    graph = Multigraph(vertices, edges)
    raw_levels = document.get("levels")
    if raw_levels is None:
        structure = LevelStructure.trivial(graph.vertices)
    else:
        if not isinstance(raw_levels, dict):
            raise GraphDocumentError('"levels" must map vertices to integers')
        structure = LevelStructure.from_map(graph.vertices, raw_levels)
    return graph, structure
