import itertools
import random
from math import comb

import pytest

from resipoly.degeneration import residue_blocks
from resipoly.graphs import (
    GraphDocumentError,
    LevelStructure,
    Multigraph,
    classify_arrows,
    components_below,
    is_coarsening,
    load_level_graph,
    ordered_partitions,
)
from resipoly.randomized import random_level_structure, random_multigraph
from resipoly.residues import LevelGraph

from conftest import (
    arrow_tags,
    coarsenings,
    genus_of_induced,
    induced_components,
    induced_edges,
    level_components,
    prefix,
    reference_adjacency,
    reference_classify_arrows,
    reverse,
    summit_names,
)


def fubini(n):
    """Ordered-partition counts via the binomial recurrence."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


def brute_components(graph, subset):
    """Reachability closure, independent of the union-find in the package."""
    chosen = set(subset)
    edges = [
        (u, v)
        for u, v in graph.edges
        if u in chosen and v in chosen
    ]
    components = []
    remaining = set(chosen)
    while remaining:
        start = min(remaining, key=graph.index.__getitem__)
        block = {start}
        changed = True
        while changed:
            changed = False
            for u, v in edges:
                if u in block and v not in block:
                    block.add(v)
                    changed = True
                if v in block and u not in block:
                    block.add(u)
                    changed = True
        components.append(tuple(sorted(block, key=graph.index.__getitem__)))
        remaining -= block
    return sorted(components)


class TestLoading:
    def test_fig1_document(self, fig1):
        graph, levels = fig1[0], fig1[1]
        assert levels.r == 2
        assert graph.num_arrows == 14
        assert levels.parts == (("u4", "u5"), ("u1", "u2", "u3"))
        assert graph.genus == 3
        assert graph.component_count == 1

    def test_single_vertex(self):
        graph, levels = load_level_graph({"vertices": ["a"], "edges": [], "levels": {"a": 1}})
        assert graph.component_count == 1
        assert graph.genus == 0
        assert levels.r == 1

    def test_loop_graph(self, loop1):
        graph, levels = loop1[0], loop1[1]
        assert graph.num_arrows == 2
        assert graph.genus == 1
        cls = classify_arrows(graph, levels)
        assert arrow_tags(graph, cls) == ("horizontal", "horizontal")

    def test_levels_compressed(self):
        _, levels = load_level_graph(
            {"vertices": ["a", "b"], "edges": [], "levels": {"a": -7, "b": 12}}
        )
        assert levels.levels == (1, 2)

    @pytest.mark.parametrize(
        "document",
        [
            {"vertices": [], "edges": []},
            {"vertices": ["a", "a"], "edges": []},
            {"vertices": ["a"], "edges": [["a", "b"]]},
            {"vertices": ["a"], "edges": [], "levels": {"b": 1}},
            {"vertices": ["a"], "edges": [], "levels": {"a": "one"}},
            {"vertices": ["a"], "edges": [], "levels": {"a": 1.5}},
            # strings and objects are iterable, so without a shape check they
            # would be read as vertex or edge lists
            {"vertices": ["u", "v"], "edges": ["uv"]},
            {"vertices": "uv"},
            {"vertices": ["u", "v"], "edges": {"uv": 1}},
        ],
    )
    def test_bad_documents(self, document):
        with pytest.raises(GraphDocumentError):
            load_level_graph(document)

    @pytest.mark.parametrize(
        "edge",
        [[["a"], "a"], ["a", ["a"]], [{"x": 1}, "a"], ["a", {"x": 1}]],
        ids=["array-tail", "array-head", "object-tail", "object-head"],
    )
    def test_non_string_endpoint_is_an_unknown_vertex(self, edge):
        # arrays and objects are unhashable: a membership test on the name
        # index would raise TypeError instead
        with pytest.raises(GraphDocumentError, match="unknown vertex"):
            load_level_graph({"vertices": ["a"], "edges": [edge]})

    @pytest.mark.parametrize("edge", ["ab", {"a": 1, "b": 2}], ids=["string", "object"])
    def test_edge_must_be_a_pair(self, edge):
        # both unpack into the two endpoints "a" and "b"
        with pytest.raises(GraphDocumentError, match=r"is not a pair \[u, v\]"):
            Multigraph(["a", "b"], [edge])

    def test_arrow_reversal_is_an_involution(self, fig1):
        graph = fig1[0]
        for i, arrow in enumerate(graph.arrows):
            j = reverse(graph, i)
            assert j != i
            assert reverse(graph, j) == i
            mate = graph.arrows[j]
            assert (mate.tail, mate.head) == (arrow.head, arrow.tail)


class TestClassification:
    def test_fig1_upward_set(self, fig1):
        graph, levels = fig1[0], fig1[1]
        cls = classify_arrows(graph, levels)
        upward = {
            (graph.arrows[i].tail, graph.arrows[i].head) for i in cls.upward
        }
        assert upward == {
            ("u1", "u4"),
            ("u1", "u5"),
            ("u2", "u4"),
            ("u2", "u5"),
            ("u3", "u5"),
        }
        horizontal_edges = {graph.edges[e] for e in cls.horizontal_edges}
        assert horizontal_edges == {("u2", "u3")}
        assert len(cls.horizontal_edges) == 2

    def test_trivial_structure_all_horizontal(self, fig1):
        graph = fig1[0]
        cls = classify_arrows(graph, LevelStructure.trivial(graph.vertices))
        assert arrow_tags(graph, cls).count("horizontal") == 14
        assert not cls.upward and not cls.downward

    def test_fig2_horizontal_and_vertical(self, fig2):
        graph, levels = fig2[0], fig2[1]
        cls = classify_arrows(graph, levels)
        assert len(cls.horizontal_edges) == 2
        assert len(cls.vertical_edges) == 9
        horizontal = {graph.edges[e] for e in cls.horizontal_edges}
        assert horizontal == {("u9", "ua"), ("u7", "u8")}

    def test_agrees_with_the_endpoint_levels(self, fig1):
        graph = fig1[0]
        partitions = 0
        for pi in ordered_partitions(graph.vertices):
            assert classify_arrows(graph, pi) == reference_classify_arrows(graph, pi)
            partitions += 1
        assert partitions == 541
        rng = random.Random(24)
        for _ in range(50):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            assert classify_arrows(graph, levels) == reference_classify_arrows(graph, levels)

    def test_reversal_swaps_up_and_down(self):
        rng = random.Random(23)
        for _ in range(50):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            cls = classify_arrows(graph, levels)
            tags = arrow_tags(graph, cls)
            for i, tag in enumerate(tags):
                mate = tags[reverse(graph, i)]
                if tag == "horizontal":
                    assert mate == "horizontal"
                else:
                    assert {tag, mate} == {"upward", "downward"}
            assert len(cls.upward) + len(cls.downward) + tags.count("horizontal") == graph.num_arrows


def level_component_names(model):
    """Level n -> the names of its components, as `resipoly info` reports
    them."""
    names = model.graph.names
    return {n: [names(c) for c in at.components] for n, at in model.masks.items()}


class TestComponents:
    def test_fig1_level_components(self, fig1):
        components = level_component_names(LevelGraph(fig1[0], fig1[1]))
        assert components[2] == [("u1",), ("u2", "u3")]
        assert components[1] == [("u4",), ("u5",)]

    def test_fig2_level_one(self, fig2):
        components = level_component_names(LevelGraph(fig2[0], fig2[1]))
        assert components[1] == [("u9", "ua"), ("ub",), ("uc",)]

    def test_out_of_range(self, fig1):
        graph, levels = fig1[0], fig1[1]
        with pytest.raises(GraphDocumentError):
            level_components(graph, levels, 3)
        with pytest.raises(GraphDocumentError):
            components_below(graph, levels, 0)
        with pytest.raises(GraphDocumentError):
            components_below(graph, levels, 3)

    def test_components_against_brute_force(self):
        rng = random.Random(24)
        for _ in range(60):
            graph = random_multigraph(rng)
            names = list(graph.vertices)
            subset = [v for v in names if rng.random() < 0.6]
            components = graph.mask_components(graph.mask_of(subset))
            assert sorted(map(graph.names, components)) == brute_components(graph, subset)
            assert induced_components(graph, subset) == list(map(graph.names, components))

    def test_genus_formula_against_brute_force(self):
        rng = random.Random(28)
        for _ in range(60):
            graph = random_multigraph(rng)
            components = len(brute_components(graph, graph.vertices))
            assert graph.component_count == components
            assert graph.genus == len(graph.edges) - len(graph.vertices) + components

    def test_components_below_fig1(self, fig1):
        graph, levels = fig1[0], fig1[1]
        below, special = components_below(graph, levels, 2)
        assert below == [("u4",), ("u5",)]
        assert special == below
        assert components_below(graph, levels, 1) == ([], [])

    def test_components_below_fig2(self, fig2):
        graph, levels = fig2[0], fig2[1]
        below, special = components_below(graph, levels, 2)
        assert below == [("u9", "ua"), ("ub",), ("uc",)]
        assert special == [("ub",), ("uc",)]

    def test_partition_property(self):
        rng = random.Random(25)
        for _ in range(40):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            for n in range(1, levels.r + 1):
                below, special = components_below(graph, levels, n)
                covered = [v for comp in below for v in comp]
                expected = [v for v, m in zip(graph.vertices, levels.levels) if m < n]
                assert sorted(covered) == sorted(expected)
                assert set(special) <= set(below)

    def test_nonspecial_components_survive_one_level_up(self):
        # components below level n that receive nothing from level n are
        # exactly those that are still components at levels <= n
        rng = random.Random(27)
        populations = [random_multigraph(rng) for _ in range(40)]
        for graph in populations:
            levels = random_level_structure(rng, graph)
            for n in range(1, levels.r + 1):
                below, special = components_below(graph, levels, n)
                upto = induced_components(graph, prefix(levels, n))
                assert set(below) - set(special) == set(upto) & set(below)


def graphs_with_loops_parallels_and_isolated_vertices():
    """Seeded random multigraphs, checked to include loops, parallel edges
    and isolated vertices among them."""
    rng = random.Random(29)
    graphs = [random_multigraph(rng, 5, 8) for _ in range(40)]
    graphs.append(Multigraph("abcd", [("a", "a"), ("a", "b"), ("b", "a"), ("b", "c")]))
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len({frozenset(e) for e in g.edges}) < len(g.edges) for g in graphs)
    assert any(not g.out_arrows[i] for g in graphs for i in range(len(g.vertices)))
    return graphs


class TestVertexMasks:
    def test_genus_of_every_vertex_subset(self):
        for graph in graphs_with_loops_parallels_and_isolated_vertices():
            full = (1 << len(graph.vertices)) - 1
            for mask in range(full + 1):
                assert graph.genus_of(mask) == genus_of_induced(graph, graph.names(mask))
            assert graph.genus_of(full) == graph.genus

    def test_tables_against_fresh_computation(self):
        # components, neighbours and arrows of a vertex mask are kept in
        # per-graph tables: each subset is asked for twice, the second time
        # from the table, and checked against a fresh flood fill and unions
        for graph in graphs_with_loops_parallels_and_isolated_vertices():
            adjacency = reference_adjacency(graph)
            ends = [
                (2 * e + d, graph.index[tail], graph.index[head])
                for e, (u, v) in enumerate(graph.edges)
                for d, (tail, head) in enumerate(((u, v), (v, u)))
            ]
            for mask in range(1 << len(graph.vertices)):
                subset = graph.names(mask)
                chosen = {graph.index[v] for v in subset}
                components = [graph.mask_of(c) for c in induced_components(graph, subset)]
                neighbours = sum({1 << j for i in chosen for _, j in adjacency[i]})
                out = sum(1 << a for a, tail, _ in ends if tail in chosen)
                into = sum(1 << a for a, _, head in ends if head in chosen)
                for _ in range(2):
                    got = graph.mask_components(mask)
                    assert type(got) is tuple
                    assert list(got) == components
                    assert graph.neighbour_mask(mask) == neighbours
                    assert graph.arrows_from(mask) == out
                    assert graph.arrows_into(mask) == into

    def test_level_masks_name_the_parts(self):
        for graph in graphs_with_loops_parallels_and_isolated_vertices():
            for pi in ordered_partitions(graph.vertices):
                assert len(pi.masks) == pi.r
                for n, part in enumerate(pi.parts, start=1):
                    assert pi.masks[n - 1] == graph.mask_of(part)

    def test_reordered_vertex_tuple_rejected(self, fig1):
        # masks are positional: the same levels over the vertices listed in
        # another order would put each bit on another vertex
        graph, levels = fig1[0], fig1[1]
        level_map = dict(zip(levels.vertices, levels.levels))
        reordered = LevelStructure.from_map(graph.vertices[::-1], level_map)
        assert {frozenset(p) for p in reordered.parts} == {frozenset(p) for p in levels.parts}
        with pytest.raises(GraphDocumentError):
            LevelGraph(graph, reordered)
        with pytest.raises(GraphDocumentError):
            components_below(graph, reordered, 1)
        with pytest.raises(GraphDocumentError):
            residue_blocks(graph, reordered)


class TestSummits:
    def test_fig2_summits(self, fig2):
        graph, levels = fig2[0], fig2[1]
        irreducible, reducible = summit_names(LevelGraph(graph, levels))
        assert sorted(irreducible) == [("u5",), ("ub",), ("uc",)]
        assert sorted(reducible) == [("u7", "u8"), ("u9", "ua")]

    def test_fig1_summits(self, fig1):
        graph, levels = fig1[0], fig1[1]
        irreducible, reducible = summit_names(LevelGraph(graph, levels))
        assert irreducible == [("u4",), ("u5",)]
        assert reducible == []

    def test_trivial_structure_components_are_summits(self):
        rng = random.Random(26)
        for _ in range(30):
            graph = random_multigraph(rng)
            levels = LevelStructure.trivial(graph.vertices)
            irreducible, reducible = summit_names(LevelGraph(graph, levels))
            assert len(irreducible) + len(reducible) == graph.component_count
            for comp in irreducible:
                assert len(comp) == 1
                assert not induced_edges(graph, comp)

    def test_loop_summit_is_reducible(self, loop1):
        graph, levels = loop1[0], loop1[1]
        irreducible, reducible = summit_names(LevelGraph(graph, levels))
        assert irreducible == []
        assert reducible == [("v",)]


class TestCoarsening:
    def test_trivial_coarsens_everything(self, fig1):
        graph, levels = fig1[0], fig1[1]
        assert is_coarsening(levels, LevelStructure.trivial(graph.vertices))

    def test_reflexive(self, fig2):
        levels = fig2[1]
        assert is_coarsening(levels, levels)

    def test_order_reversal_is_not_a_coarsening(self):
        fine = LevelStructure(("a", "b"), (1, 2))
        coarse = LevelStructure(("a", "b"), (2, 1))
        assert not is_coarsening(fine, coarse)
        assert not is_coarsening(coarse, fine)

    def test_vertex_mismatch(self):
        with pytest.raises(GraphDocumentError):
            is_coarsening(
                LevelStructure(("a",), (1,)), LevelStructure(("b",), (1,))
            )

    def test_reordered_vertices_rejected(self):
        # the same ordered partition over a reordered vertex tuple: levels
        # are read by position, so the order must match
        fine = LevelStructure(("a", "b"), (1, 2))
        with pytest.raises(GraphDocumentError):
            is_coarsening(fine, LevelStructure(("b", "a"), (2, 1)))

    def test_poset_laws_on_small_ground(self):
        vertices = ("a", "b", "c")
        partitions = list(ordered_partitions(vertices))
        for x in partitions:
            assert is_coarsening(x, x)
        for x, y in itertools.product(partitions, repeat=2):
            if is_coarsening(x, y) and is_coarsening(y, x):
                assert x == y
        for x, y, z in itertools.product(partitions, repeat=3):
            if is_coarsening(x, y) and is_coarsening(y, z):
                assert is_coarsening(x, z)

    def test_coarsenings_generator_is_complete(self):
        vertices = ("a", "b", "c", "d")
        partitions = list(ordered_partitions(vertices))
        for fine in partitions:
            generated = {c.levels for c in coarsenings(fine)}
            direct = {
                c.levels for c in partitions if is_coarsening(fine, c)
            }
            assert generated == direct


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75)])
    def test_counts_match_fubini(self, n, count):
        vertices = tuple(f"x{i}" for i in range(n))
        assert fubini(n) == count
        produced = list(ordered_partitions(vertices))
        assert len(produced) == count

    def test_no_duplicates_up_to_six(self):
        for n in range(1, 7):
            vertices = tuple(f"x{i}" for i in range(n))
            keys = [p.levels for p in ordered_partitions(vertices)]
            assert len(keys) == len(set(keys)) == fubini(n)

    def test_bound_enforced(self):
        assert next(ordered_partitions(tuple(f"x{i}" for i in range(8)))).r == 1
        with pytest.raises(GraphDocumentError, match="9 vertices exceed the enumeration bound 8"):
            list(ordered_partitions(tuple(f"x{i}" for i in range(9))))

    def test_every_partition_is_valid(self):
        for p in ordered_partitions(("a", "b", "c", "d")):
            assert sorted(v for part in p.parts for v in part) == ["a", "b", "c", "d"]
            assert all(part for part in p.parts)

    def test_structures_match_from_parts(self):
        for n in range(1, 6):
            vertices = tuple(f"x{i}" for i in range(n))
            for p in ordered_partitions(vertices):
                assert p == LevelStructure.from_parts(vertices, p.parts)
                assert p.parts == LevelStructure.from_parts(vertices, p.parts).parts
                for c in coarsenings(p):
                    assert c == LevelStructure.from_parts(vertices, c.parts)
                    assert c.parts == LevelStructure.from_parts(vertices, c.parts).parts

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(GraphDocumentError):
            list(ordered_partitions(("a", "b", "a")))

    def test_empty_part_rejected(self):
        with pytest.raises(GraphDocumentError):
            LevelStructure.from_parts(("a", "b"), [["a"], [], ["b"]])

    @pytest.mark.parametrize("levels", [(1, 3), (0, 1), (2, 2)])
    def test_levels_must_be_one_to_r(self, levels):
        # a gap, a level below 1 and a missing level 1 are all gaps in 1..r
        with pytest.raises(GraphDocumentError, match="levels must cover 1..r with no gaps"):
            LevelStructure(("a", "b"), levels)
