"""Seeded random inputs for the verification suites.

Everything takes an explicit random.Random so the same seed reproduces the
same graphs, partitions and vector collections, bit for bit.
"""

from __future__ import annotations

from .graphs import LevelStructure, Multigraph
from .linalg import VectorCollection

__all__ = [
    "random_coarsening",
    "random_level_structure",
    "random_multigraph",
    "random_sti_collection",
]


def random_multigraph(rng, max_vertices=5, max_edges=8):
    """Random multigraph; loops, parallel edges and disconnection allowed."""
    n = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i + 1}" for i in range(n))
    m = rng.randint(0, max_edges)
    edges = [
        (vertices[rng.randrange(n)], vertices[rng.randrange(n)]) for _ in range(m)
    ]
    return Multigraph(vertices, edges)


def random_level_structure(rng, graph):
    """Uniformly haphazard ordered partition of the graph's vertices."""
    names = list(graph.vertices)
    rng.shuffle(names)
    r = rng.randint(1, len(names))
    cuts = sorted(rng.sample(range(1, len(names)), r - 1)) if r > 1 else []
    parts = []
    start = 0
    for cut in cuts + [len(names)]:
        parts.append(names[start:cut])
        start = cut
    return LevelStructure.from_parts(graph.vertices, parts)


def random_coarsening(rng, levels):
    """A coarsening obtained by merging random runs of consecutive levels:
    one draw per level after the first, which starts a new coarse level
    below 0.5 and joins the level to the one above it otherwise."""
    coarse = [1]
    for _ in range(levels.r - 1):
        coarse.append(coarse[-1] + (rng.random() < 0.5))
    return LevelStructure(levels.vertices, [coarse[n - 1] for n in levels.levels])


def random_sti_collection(rng, ambient, max_vectors=4, max_support=3):
    """A set-theoretically independent collection: disjoint random supports
    with nonzero integer entries."""
    coords = list(range(ambient))
    rng.shuffle(coords)
    count = rng.randint(1, max_vectors)
    items = []
    used = 0
    for i in range(count):
        if used >= ambient:
            break
        size = rng.randint(1, min(max_support, ambient - used))
        support = coords[used : used + size]
        used += size
        vector = [0] * ambient
        for c in support:
            value = 0
            while value == 0:
                value = rng.randint(-3, 3)
            vector[c] = value
        items.append((f"w{i}", vector))
    return VectorCollection(ambient, items)

