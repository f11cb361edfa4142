import random

from resipoly.graphs import (
    LevelStructure,
    bits,
    components_below,
    load_level_graph,
    ordered_partitions,
)
from resipoly.linalg import rank, support_checks
from resipoly.randomized import random_level_structure, random_multigraph
from resipoly.residues import (
    FAMILIES,
    LevelGraph,
    build_constraints,
    build_flag,
    check_component_relations,
    flag_dims,
    per_component_report,
    residue_space,
)

from conftest import (
    ReferenceLevelGraph,
    arrow_tags,
    arrows_with_tail,
    induced_edges,
    rank_mod_p,
    reference_rank,
    reference_support_checks,
    summit_names,
)


def stacked_rows(graph, levels, families=FAMILIES):
    rows = build_constraints(graph, levels)
    return [
        [row.support >> a & 1 for a in range(graph.num_arrows)]
        for family in families
        for row in rows[family]
    ]


def arrow_labels(graph, support):
    return sorted(graph.arrows[a].label for a in bits(support))


class TestConstraints:
    def test_fig1_global_rows(self, fig1):
        graph, levels = fig1[0], fig1[1]
        families = build_constraints(graph, levels)
        rows = {row.label: row.support for row in families["global"]}
        assert set(rows) == {"2:u4", "2:u5"}
        assert arrow_labels(graph, rows["2:u5"]) == ["e2:u2>u5", "e3:u1>u5", "e4:u3>u5"]
        assert arrow_labels(graph, rows["2:u4"]) == ["e0:u1>u4", "e1:u2>u4"]

    def test_trivial_structure_families(self, fig1):
        graph = fig1[0]
        families = build_constraints(graph, LevelStructure.trivial(graph.vertices))
        assert not families["downward"]
        assert not families["global"]
        assert len(families["rosenlicht"]) == len(graph.edges)

    def test_loop_rows(self, loop1):
        graph, levels = loop1[0], loop1[1]
        families = build_constraints(graph, levels)
        (local,) = families["local"]
        (ros,) = families["rosenlicht"]
        assert local.label == "v"
        assert graph.num_arrows == 2
        assert local.support == ros.support == 0b11
        assert ros.label != local.label

    def test_downward_rows_are_unit_vectors(self, fig2):
        graph, levels = fig2[0], fig2[1]
        families = build_constraints(graph, levels)
        assert len(families["downward"]) == 9
        for row in families["downward"]:
            assert row.support.bit_count() == 1
            assert row.support < 1 << graph.num_arrows

    def test_isolated_vertex_has_no_local_row(self):
        graph, levels = load_level_graph(
            {"vertices": ["a", "b"], "edges": [["a", "a"]]}
        )
        families = build_constraints(graph, levels)
        assert [row.label for row in families["local"]] == ["a"]

    def test_fig1_full_system_rank(self, fig1):
        graph, levels = fig1[0], fig1[1]
        rows = stacked_rows(graph, levels)
        assert rank(rows) == reference_rank(rows) == 11  # 14 - 3
        assert rank_mod_p(rows, 10007) == 11


class TestFlag:
    def test_fig1_dims(self, fig1):
        flag = build_flag(fig1[0], fig1[1])
        assert flag.dims == (9, 6, 4, 3)
        assert flag.ok

    def test_fig2_dims(self, fig2):
        flag = build_flag(fig2[0], fig2[1])
        assert flag.dims == (13, 4, 4, 0)
        assert flag.counts.summits_irreducible == 3
        assert flag.counts.summits_reducible == 2
        assert flag.ok

    def test_k4_trivial_dims(self, k4):
        flag = build_flag(k4[0], k4[1])
        assert flag.dims == (12, 8, 3, 3)
        assert flag.ok

    def test_residue_space_dimensions(self, fig1, fig2):
        assert residue_space(fig1[0], fig1[1]).dim == 3
        assert residue_space(fig2[0], fig2[1]).dim == 0

    def test_edgeless_graph(self):
        graph, levels = load_level_graph({"vertices": ["a", "b", "c"], "edges": []})
        space = residue_space(graph, levels)
        assert space.ambient_dim == 0
        assert space.dim == 0

    def test_fig1_projections_at_the_top(self, fig1):
        # both arrows at u4 are downward, so the projection there vanishes
        # and the kernel of projecting to the whole top level is everything
        from resipoly.linalg import kernel_of_projection, project_image

        graph, levels = fig1[0], fig1[1]
        space = residue_space(graph, levels)
        tails = arrows_with_tail(graph)
        u4_coords = tails["u4"]
        assert project_image(space, u4_coords).dim == 0
        top = tails["u4"] + tails["u5"]
        assert project_image(space, top).dim == 0
        assert kernel_of_projection(space, top).dim == 3

    def test_family_order_does_not_matter(self, fig1):
        graph, levels = fig1[0], fig1[1]
        reference = residue_space(graph, levels)
        rng = random.Random(31)
        families = list(FAMILIES)
        for _ in range(5):
            rng.shuffle(families)
            rows = stacked_rows(graph, levels, families)
            from resipoly.linalg import kernel

            assert kernel(rows, num_cols=graph.num_arrows) == reference

    def test_fast_dims_agree_with_kernels(self):
        rng = random.Random(32)
        for _ in range(25):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            _, dims = flag_dims(graph, levels)
            assert dims == build_flag(graph, levels).dims

    def test_identity_sweep_small(self):
        rng = random.Random(33)
        for _ in range(10):
            graph = random_multigraph(rng, max_vertices=4, max_edges=6)
            for pi in ordered_partitions(graph.vertices):
                counts, dims = flag_dims(graph, pi)
                up, local, ros, res = dims
                assert up == 2 * counts.edges - counts.vertical_edges
                assert up - local == counts.vertices - counts.summits_irreducible
                assert local - ros == counts.horizontal_edges - counts.summits_reducible
                assert ros - res == counts.summits - counts.components
                assert res == counts.genus

    def test_identities_on_every_partition_of_small_fixtures(
        self, fig1, k4, c3, loop1
    ):
        from resipoly.residues import flag_identities

        for graph, _, _ in (fig1, k4, c3, loop1):
            for pi in ordered_partitions(graph.vertices):
                counts, dims = flag_dims(graph, pi)
                assert all(c.ok for c in flag_identities(counts, dims))

    def test_reducible_summit_relation(self):
        # the local rows of a reducible summit sum to the rosenlicht rows
        rng = random.Random(34)
        seen = 0
        for _ in range(80):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            model = LevelGraph(graph, levels)
            cls = model.classification
            local_rows = {row.label: row.support for row in model.rows["local"]}
            _, reducible = summit_names(model)
            for comp in reducible:
                seen += 1
                total = [0] * graph.num_arrows
                for v in comp:
                    for a in bits(local_rows.get(v, 0)):
                        total[a] += 1
                tags = arrow_tags(graph, cls)
                for e in induced_edges(graph, comp):
                    if tags[2 * e] == "horizontal":
                        total[2 * e] -= 1
                        total[2 * e + 1] -= 1
                assert not any(total)
        assert seen > 10

    def test_unique_summit_collapse(self):
        # on a connected graph with a single summit the global family adds nothing
        rng = random.Random(35)
        seen = 0
        for _ in range(200):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            counts, dims = flag_dims(graph, levels)
            if counts.components == 1 and counts.summits_irreducible + counts.summits_reducible == 1:
                seen += 1
                assert dims[2] == dims[3]
        assert seen > 20


class TestPerComponentReport:
    def test_fig2_levels(self, fig2):
        report = per_component_report(fig2[0], fig2[1])
        by_level = {s.level: s for s in report.levels}
        assert (by_level[3].local_count, by_level[3].rosenlicht_count, by_level[3].global_count) == (4, 0, 4)
        assert (by_level[2].local_count, by_level[2].rosenlicht_count, by_level[2].global_count) == (3, 1, 2)
        assert (by_level[1].local_count, by_level[1].rosenlicht_count, by_level[1].global_count) == (2, 1, 0)
        assert by_level[3].codim_global == 7
        assert by_level[2].codim_global == 4
        assert by_level[2].codim_rosenlicht == 3
        assert by_level[1].codim_global == 2
        assert report.totals_consistent

    def test_fig2_level3_block_is_crushed(self, fig2):
        report = per_component_report(fig2[0], fig2[1])
        level3 = [b for b in report.blocks if b.level == 3]
        assert sum(b.block_dim for b in level3) == 7
        assert sum(b.codim_global for b in level3) == 7

    def test_cardinalities_follow_the_counting_rules(self):
        # |lrc| = |level vertices| except for an isolated singleton, |ros| =
        # internal horizontal edges, |glob| = special components inside
        rng = random.Random(36)
        from resipoly.graphs import classify_arrows

        for _ in range(40):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            cls = classify_arrows(graph, levels)
            report = per_component_report(graph, levels)
            for block in report.blocks:
                if not block.level_vertices:
                    assert block.block_dim == 0
                    continue
                if len(block.component) == 1 and not induced_edges(graph, block.component):
                    assert not block.local_labels
                else:
                    assert len(block.local_labels) == len(block.level_vertices)
                members = set(block.level_vertices)
                horizontal_inside = [
                    e
                    for e in cls.horizontal_edges
                    if graph.edges[e][0] in members and graph.edges[e][1] in members
                ]
                assert len(block.rosenlicht_labels) == len(horizontal_inside)

    def test_totals_consistent_on_random_graphs(self):
        rng = random.Random(37)
        for _ in range(40):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            assert per_component_report(graph, levels).totals_consistent


class TestComponentRelations:
    def test_fixtures_pass(self, fig1, fig2, k4, c3, loop1):
        for graph, levels, _ in (fig1, fig2, k4, c3, loop1):
            assert check_component_relations(graph, levels) == []

    def test_random_sweep(self):
        rng = random.Random(38)
        for _ in range(40):
            graph = random_multigraph(rng)
            levels = random_level_structure(rng, graph)
            assert check_component_relations(graph, levels) == []


def _as_sets(rows):
    """(label, arrow set, owner) of each row of the bitmask model."""
    return [(row.label, frozenset(bits(row.support)), row.owner) for row in rows]


def _reference_rows(rows):
    return [(row.label, row.support, row.owner) for row in rows]


class TestMaskModelAgainstReference:
    def test_every_partition_of_random_graphs(self):
        # the bitmask model against the frozenset model it replaced, on every
        # ordered partition of seeded random graphs with up to five vertices
        rng = random.Random(43)
        graphs = [random_multigraph(rng, 5, 8) for _ in range(16)]
        partitions = 0
        for graph in graphs:
            names = graph.names
            for pi in ordered_partitions(graph.vertices):
                partitions += 1
                model = LevelGraph(graph, pi)
                reference = ReferenceLevelGraph(graph, pi)
                assert model.level_components == reference.level_components
                assert {
                    n: [names(c) for c in at.upto] for n, at in model.masks.items()
                } == reference.prefix_components
                assert model.components_below == reference.components_below
                for n in range(1, pi.r + 1):
                    level = graph.mask_components(pi.masks[n - 1])
                    assert [names(c) for c in level] == reference.level_components[n]
                    assert components_below(graph, pi, n) == reference.components_below[n]
                assert summit_names(model) == reference.summits
                for family in FAMILIES:
                    assert _as_sets(model.rows[family]) == _reference_rows(
                        reference.rows[family]
                    )
                assert len(model.blocks) == len(reference.blocks)
                for got, want in zip(model.blocks, reference.blocks):
                    assert (got.level, names(got.component), names(got.level_vertices)) == (
                        want.level,
                        want.component,
                        want.level_vertices,
                    )
                    for group in ("local", "rosenlicht", "glob"):
                        assert _as_sets(getattr(got, group)) == _reference_rows(
                            getattr(want, group)
                        )
                    pairs = (
                        (got.glob + got.rosenlicht, want.glob + want.rosenlicht),
                        (got.local, want.local),
                    )
                    assert support_checks(
                        *[[row.support for row in rows] for rows, _ in pairs]
                    ) == reference_support_checks(
                        *[tuple(row.support for row in rows) for _, rows in pairs]
                    )
                assert model.relation_failures() == reference.relation_failures()
        assert partitions >= 4 * 541  # at least four five-vertex graphs
