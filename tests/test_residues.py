import dataclasses
import json
import random

import pytest

from resipoly import fixtures, residues
from resipoly.cli import main
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
    _cumulative_ranks,
    build_constraints,
    build_flag,
    check_component_relations,
    flag_dims,
    per_component_report,
    residue_space,
)
from resipoly.verify import _component_set_identity_failures, verify_document

from conftest import (
    ReferenceLevelGraph,
    arrow_tags,
    arrows_with_tail,
    induced_edges,
    load_fixture,
    rank_mod_p,
    reference_classify_arrows,
    reference_rank,
    reference_support_checks,
    summit_names,
)


def dense_rows(masks, width):
    """The 0/1 rows of `width` entries that the masks stand for."""
    return [[mask >> c & 1 for c in range(width)] for mask in masks]


def stacked_rows(graph, levels, families=FAMILIES):
    rows = build_constraints(graph, levels)
    return dense_rows((row for family in families for row in rows[family]), graph.num_arrows)


def arrow_labels(graph, support):
    return sorted(graph.arrows[a].label for a in bits(support))


def owned_rows(model, family):
    """(owner, arrow mask) of each row of a family, in the model's order; a
    global row's owner is read off the pair that built it, one row per
    special component."""
    if family != "global":
        return [(model.owner(family, row), row) for row in model.rows[family]]
    owned = model.global_rows()
    assert [row for _, row in owned] == list(model.rows["global"])
    return owned


def labelled(model, family):
    """Label -> arrow mask of each row of a family."""
    return {model.label(family, owner): row for owner, row in owned_rows(model, family)}


def whole_space_dims(graph, levels):
    """The counts and the four flag dimensions by integer rank, on one
    echelon of every row of the partition: the reference of the pair sums."""
    model = LevelGraph(graph, levels)
    ranks = _cumulative_ranks(model.rows[f] for f in FAMILIES)
    return model.counts, tuple(graph.num_arrows - r for r in ranks)


class TestConstraints:
    def test_fig1_global_rows(self, fig1):
        graph, levels = fig1[0], fig1[1]
        model = LevelGraph(graph, levels)
        rows = labelled(model, "global")
        assert [owner for owner, _ in owned_rows(model, "global")] == [
            (2, graph.mask_of(["u4"])),
            (2, graph.mask_of(["u5"])),
        ]
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
        model = LevelGraph(graph, levels)
        (local,) = model.rows["local"]
        (ros,) = model.rows["rosenlicht"]
        assert (model.owner("local", local), model.owner("rosenlicht", ros)) == (0, 0)
        assert model.label("local", 0) == "v"  # vertex 0
        assert model.label("rosenlicht", 0) == "e0:v-v"  # edge 0
        assert graph.num_arrows == 2
        assert local == ros == 0b11

    def test_rows_are_arrow_masks(self, fig1, fig2, k4, c3, loop1):
        # every condition row, in the families and in the per-component
        # collections, is a bare int: the bitmask of the arrows where the row
        # is 1
        for graph, levels, _ in (fig1, fig2, k4, c3, loop1):
            model = LevelGraph(graph, levels)
            for family in FAMILIES:
                assert all(type(row) is int for row in model.rows[family])
            for _, _, blocks in model.collections():
                for _, _, *groups in blocks:
                    for group in groups:
                        assert all(type(row) is int for row in group)

    def test_downward_rows_are_unit_vectors(self, fig2):
        graph, levels = fig2[0], fig2[1]
        families = build_constraints(graph, levels)
        assert len(families["downward"]) == 9
        for row in families["downward"]:
            assert row.bit_count() == 1
            assert row < 1 << graph.num_arrows

    def test_isolated_vertex_has_no_local_row(self):
        graph, levels = load_level_graph(
            {"vertices": ["a", "b"], "edges": [["a", "a"]]}
        )
        assert list(labelled(LevelGraph(graph, levels), "local")) == ["a"]

    def test_fig1_full_system_rank(self, fig1):
        graph, levels = fig1[0], fig1[1]
        rows = stacked_rows(graph, levels)
        assert rank(rows) == reference_rank(rows) == 11  # 14 - 3
        assert rank_mod_p(rows, 10007) == 11


def flag_holds(flag):
    """Every dimension identity and every flag inclusion holds."""
    return all(c.ok for c in flag.identities()) and all(ok for _, ok in flag.inclusions())


class TestFlag:
    def test_fig1_dims(self, fig1):
        flag = build_flag(fig1[0], fig1[1])
        assert flag.dims == (9, 6, 4, 3)
        assert flag_holds(flag)

    def test_fig2_dims(self, fig2):
        flag = build_flag(fig2[0], fig2[1])
        assert flag.dims == (13, 4, 4, 0)
        assert flag.counts.summits_irreducible == 3
        assert flag.counts.summits_reducible == 2
        assert flag_holds(flag)

    def test_k4_trivial_dims(self, k4):
        flag = build_flag(k4[0], k4[1])
        assert flag.dims == (12, 8, 3, 3)
        assert flag_holds(flag)

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

    def test_residue_space_matches_the_model(self, fig1, k4, c3, loop1):
        # the space from every level's `level_rows`, against the kernel of
        # the dense rows of each partition's `LevelGraph`
        from resipoly.linalg import kernel

        rng = random.Random(35)
        graphs = [fix[0] for fix in (fig1, k4, c3, loop1)] + [
            random_multigraph(rng, 5, 8) for _ in range(40)
        ]
        assert sum(len(g.vertices) == 5 for g in graphs) >= 5
        for graph in graphs:
            for pi in ordered_partitions(graph.vertices):
                rows = [row for group in LevelGraph(graph, pi).rows.values() for row in group]
                dense = dense_rows(rows, graph.num_arrows)
                assert residue_space(graph, pi) == kernel(dense, num_cols=graph.num_arrows), pi

    def test_space_routes_reject_a_reordered_vertex_tuple(self, fig1):
        # masks are positional: the same levels over the vertices listed in
        # another order would put each bit on another vertex
        from resipoly.degeneration import check_degeneration
        from resipoly.graphs import GraphDocumentError
        from resipoly.polytopes import residue_projection_table

        graph, levels = fig1[0], fig1[1]
        level_map = dict(zip(levels.vertices, levels.levels))
        reordered = LevelStructure.from_map(graph.vertices[::-1], level_map)
        with pytest.raises(GraphDocumentError):
            residue_space(graph, reordered)
        with pytest.raises(GraphDocumentError):
            residue_projection_table(graph, reordered)
        with pytest.raises(GraphDocumentError):
            check_degeneration(graph, reordered, reordered)

    def test_space_routes_build_no_model(self, fig1, tmp_path, capsys, monkeypatch):
        # the residue space comes from `level_rows`: the degeneration check,
        # the projection table and `basis` construct no `LevelGraph`
        from resipoly.degeneration import check_degeneration
        from resipoly.polytopes import residue_projection_table

        built = []
        real_init = LevelGraph.__init__

        def counted(self, graph, levels):
            built.append(levels)
            real_init(self, graph, levels)

        monkeypatch.setattr(LevelGraph, "__init__", counted)
        graph, levels = fig1[0], fig1[1]
        trivial = LevelStructure.trivial(graph.vertices)
        assert check_degeneration(graph, levels, trivial).ok
        assert built == []
        residue_projection_table(graph, levels)
        assert built == []
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(fixtures.document("fig1")))
        assert main(["basis", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 3
        assert built == []

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
            cls = reference_classify_arrows(graph, levels)
            local_rows = labelled(model, "local")
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


def _as_sets(model, family, owned):
    """(label, arrow set, owner) of each (owner, row) of the bitmask model
    (see :func:`owned_rows`), with its vertices named as the reference
    model names them."""
    graph = model.graph

    def named(owner):
        if family == "local":
            return graph.vertices[owner]
        if family == "global":
            return owner[0], graph.names(owner[1])
        return owner

    return [
        (model.label(family, owner), frozenset(bits(row)), named(owner)) for owner, row in owned
    ]


def _block_owned(model, family, n, component, rows):
    """(owner, row) of each row of one block's collection of `family`: a
    global row's owner is the special component of level n inside the
    block's component, zipped as the pair zips them."""
    if family != "global":
        return [(model.owner(family, row), row) for row in rows]
    owners = [(n, c) for c in model.pairs[n - 1].special if c & component]
    return list(zip(owners, rows, strict=True))


def _level_by_level(reference, family):
    """The reference model's rows of `family`, level by level, each level's
    in owner order: the order of :attr:`LevelGraph.rows`.  A downward row
    belongs to the level of its arrow's tail, a rosenlicht row to that of
    its horizontal edge."""
    graph = reference.graph
    level = dict(zip(reference.levels.vertices, reference.levels.levels))

    def level_of(row):
        if family == "downward":
            return level[graph.arrows[row.owner].tail]
        if family == "local":
            return level[row.owner]
        if family == "rosenlicht":
            return level[graph.edges[row.owner][0]]
        return row.owner[0]

    return sorted(reference.rows[family], key=level_of)


def _reference_rows(rows):
    return [(row.label, row.support, row.owner) for row in rows]


def random_mask_groups(rng, tally):
    """Groups of 0/1 rows as masks over at most 10 columns, with zero rows,
    repeats of earlier rows and sums of disjoint earlier rows mixed in;
    `tally` counts each kind."""
    width = rng.randint(1, 10)
    earlier = []
    groups = []
    for _ in range(rng.randint(1, 4)):
        group = []
        for _ in range(rng.randint(0, 7)):
            kind = rng.choice(("random", "random", "random", "zero", "repeat", "sum"))
            # a stand-in pair that overlaps, so no sum, while fewer than two rows came before
            pair = rng.sample(earlier, 2) if len(earlier) > 1 else (1, 1)
            if kind == "zero":
                row = 0
            elif kind == "repeat" and earlier:
                row = rng.choice(earlier)
            elif kind == "sum" and not pair[0] & pair[1]:
                row = pair[0] | pair[1]
            else:
                kind, row = "random", rng.getrandbits(width)
            tally[kind] += 1
            group.append(row)
            earlier.append(row)
        groups.append(tuple(group))
    return groups, width


class TestSparseEchelon:
    def test_cumulative_ranks_against_reference_rank(self):
        # the sparse echelon of arrow-mask rows against dense rational
        # elimination of the same rows, one prefix of groups at a time
        rng = random.Random(47)
        tally = dict.fromkeys(("random", "zero", "repeat", "sum"), 0)
        for _ in range(400):
            groups, width = random_mask_groups(rng, tally)
            stacked = []
            ranks = []
            for group in groups:
                stacked += dense_rows(group, width)
                ranks.append(reference_rank(stacked))
            assert _cumulative_ranks(groups) == ranks
        assert min(tally.values()) >= 100, tally

    def test_one_flag_dims_echelon_fewer_per_document(self, monkeypatch):
        # verify_document checks the block totals against the flag's own
        # dimensions, so the only cumulative echelons it runs are the
        # blocks' codimensions
        calls = []
        real = residues._cumulative_ranks

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(residues, "_cumulative_ranks", counted)
        section = verify_document("fig2", fixtures.document("fig2"))
        assert section["ok"] and section["component_totals_ok"]
        graph, levels, _ = load_fixture("fig2")
        collections = LevelGraph(graph, levels).collections()
        assert len(calls) == sum(len(blocks) for _, _, blocks in collections)


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
                numbered = list(enumerate(model.pairs, start=1))
                assert {
                    n: [names(c) for c in pair.components] for n, pair in numbered
                } == reference.level_components
                assert {
                    n: [names(c) for c in pair.upto] for n, pair in numbered
                } == reference.prefix_components
                assert {
                    n: ([names(c) for c in pair.below], [names(c) for c in pair.special])
                    for n, pair in numbered
                } == reference.components_below
                for n in range(1, pi.r + 1):
                    level = graph.mask_components(pi.masks[n - 1])
                    assert [names(c) for c in level] == reference.level_components[n]
                    assert components_below(graph, pi, n) == reference.components_below[n]
                assert summit_names(model) == reference.summits
                # the counts read the edges off arrow masks, the reference
                # off each edge's endpoint levels
                assert model.counts.vertical_edges == len(reference.classification.vertical_edges)
                assert model.counts.horizontal_edges == len(
                    reference.classification.horizontal_edges
                )
                for family in FAMILIES:
                    assert _as_sets(model, family, owned_rows(model, family)) == _reference_rows(
                        _level_by_level(reference, family)
                    )
                blocks = [(n, *b) for n, _, level in model.collections() for b in level]
                assert len(blocks) == len(reference.blocks)
                for got, want in zip(blocks, reference.blocks):
                    n, component, here, local, rosenlicht, glob = got
                    assert (n, names(component), names(here)) == (
                        want.level,
                        want.component,
                        want.level_vertices,
                    )
                    for family, group, name in zip(
                        FAMILIES[1:], (local, rosenlicht, glob), ("local", "rosenlicht", "glob")
                    ):
                        owned = _block_owned(model, family, n, component, group)
                        assert _as_sets(model, family, owned) == _reference_rows(
                            getattr(want, name)
                        )
                    pairs = (
                        (glob + rosenlicht, want.glob + want.rosenlicht),
                        (local, want.local),
                    )
                    want = reference_support_checks(
                        *[tuple(row.support for row in rows) for _, rows in pairs]
                    )
                    assert want.sti_1 and want.sti_2
                    assert support_checks(*[rows for rows, _ in pairs]) == (
                        want.related,
                        want.properly_unrelated,
                    )
                assert model.relation_failures() == reference.relation_failures()
                stacked = []
                ranks = []
                for family in FAMILIES:
                    stacked += dense_rows(model.rows[family], graph.num_arrows)
                    ranks.append(reference_rank(stacked))
                assert _cumulative_ranks(model.rows[f] for f in FAMILIES) == ranks
        assert partitions >= 4 * 541  # at least four five-vertex graphs

    def test_one_relation_check_per_level_and_meeting_component(self, monkeypatch):
        # relation_failures checks each level component once and each
        # component of V<=n that meets level n once, and no other component;
        # a component of V<=n inside level n reads its level component's
        # verdict, so it takes no check of its own
        calls = []
        real = residues.support_checks

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(residues, "support_checks", counted)
        rng = random.Random(44)
        for _ in range(12):
            graph = random_multigraph(rng, 5, 8)
            for pi in ordered_partitions(graph.vertices):
                reference = ReferenceLevelGraph(graph, pi)
                level_components = sum(map(len, reference.level_components.values()))
                meeting = sum(
                    1
                    for b in reference.blocks
                    if b.level_vertices and set(b.level_vertices) != set(b.component)
                )
                calls.clear()
                assert LevelGraph(graph, pi).relation_failures() == []
                assert len(calls) == level_components + meeting


def run_fig1(tmp_path, capsys, command):
    """`resipoly <command>` on the fig1 fixture, random sections skipped
    for verify: exit code and parsed report."""
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(fixtures.document("fig1")))
    argv = [command, "--input", str(path)]
    if command == "verify":
        argv.append("--skip-random")
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def misreport_support_checks(monkeypatch, sup1, sup2, wrong):
    """Make the relation checks read the verdict `wrong` (a ``(related,
    properly_unrelated)`` pair, or None for collections that are not
    set-theoretically independent) for the one pair of collections (sup1,
    sup2); every other pair gets its true verdict."""
    real = residues.support_checks
    target = (list(sup1), list(sup2))

    def patched(a, b):
        if (list(a), list(b)) == target:
            return wrong
        return real(a, b)

    monkeypatch.setattr(residues, "support_checks", patched)


def level_group(model, n, vertices):
    """The (local rows, rosenlicht rows) of the component of level n with
    these vertices, as the model's collections hold them."""
    groups = next(groups for m, groups, _ in model.collections() if m == n)
    return groups[model.graph.mask_of(vertices)]


class TestFaultInjection:
    """Each verdict of the residue layer fed one wrong object must fail, with
    its own message, and the command that reports it exits 1.  On fig1 every
    relation holds; level 2 has the component {u2, u3}, which is no summit,
    and one component of V<=2, the whole graph."""

    U23 = "level 2 component ('u2', 'u3')"
    MERGED = "level 2 merged component ('u1', 'u2', 'u3', 'u4', 'u5')"

    def level_component_pair(self, fig1):
        return level_group(LevelGraph(fig1[0], fig1[1]), 2, ["u2", "u3"])

    def merged_pair(self, fig1):
        collections = LevelGraph(fig1[0], fig1[1]).collections()
        (block,) = [b for n, _, level in collections if n == 2 for b in level]
        _, _, local, rosenlicht, glob = block
        return glob + rosenlicht, local

    def assert_relation_failure(self, fig1, tmp_path, capsys, failure):
        assert LevelGraph(fig1[0], fig1[1]).relation_failures() == [failure]
        code, report = run_fig1(tmp_path, capsys, "verify")
        assert code == 1
        assert report["ok"] is False
        (section,) = report["fixtures"]
        assert section["ok"] is False
        assert section["relation_failures"] == [failure]

    def test_true_verdicts(self, fig1):
        # each misreport below changes one entry of these, or drops both
        assert support_checks(*self.level_component_pair(fig1)) == (False, True)
        assert support_checks(*self.merged_pair(fig1)) == (True, True)

    def test_level_component_not_properly_unrelated(self, fig1, tmp_path, capsys, monkeypatch):
        misreport_support_checks(monkeypatch, *self.level_component_pair(fig1), (False, False))
        failure = f"{self.U23}: not properly unrelated"
        self.assert_relation_failure(fig1, tmp_path, capsys, failure)

    def test_level_component_related_but_no_reducible_summit(
        self, fig1, tmp_path, capsys, monkeypatch
    ):
        misreport_support_checks(monkeypatch, *self.level_component_pair(fig1), (True, True))
        failure = f"{self.U23}: related=True but reducible-summit=False"
        self.assert_relation_failure(fig1, tmp_path, capsys, failure)

    def test_level_component_not_independent(self, fig1, tmp_path, capsys, monkeypatch):
        misreport_support_checks(monkeypatch, *self.level_component_pair(fig1), None)
        failure = f"{self.U23}: not set-theoretically independent"
        self.assert_relation_failure(fig1, tmp_path, capsys, failure)

    def test_merged_component_not_properly_unrelated(self, fig1, tmp_path, capsys, monkeypatch):
        misreport_support_checks(monkeypatch, *self.merged_pair(fig1), (True, False))
        failure = f"{self.MERGED}: not properly unrelated"
        self.assert_relation_failure(fig1, tmp_path, capsys, failure)

    def test_merged_component_unrelated_but_nonempty(self, fig1, tmp_path, capsys, monkeypatch):
        misreport_support_checks(monkeypatch, *self.merged_pair(fig1), (False, True))
        failure = f"{self.MERGED}: related=False with nonempty=True"
        self.assert_relation_failure(fig1, tmp_path, capsys, failure)

    def test_merged_component_not_independent(self, fig1, tmp_path, capsys, monkeypatch):
        misreport_support_checks(monkeypatch, *self.merged_pair(fig1), None)
        failure = f"{self.MERGED}: not set-theoretically independent"
        self.assert_relation_failure(fig1, tmp_path, capsys, failure)

    @pytest.mark.parametrize(
        "wrong, level_texts, merged_texts",
        [
            (None, ["not set-theoretically independent"], ["not set-theoretically independent"]),
            (
                (False, False),
                ["not properly unrelated", "related=False but reducible-summit=True"],
                ["not properly unrelated", "related=False with nonempty=True"],
            ),
        ],
        ids=["not-independent", "unrelated-not-properly"],
    )
    def test_summit_component_reads_its_level_verdict(
        self, fig1, tmp_path, capsys, monkeypatch, wrong, level_texts, merged_texts
    ):
        # fig1's graph with u2 and u3 on level 1: their component, held
        # together by the double edge, is a reducible summit and a component
        # of V<=1, with no global row.  Its merged check reads the level
        # component's verdict, so one wrong verdict fails both checks, with
        # every text of each
        document = fixtures.document("fig1")
        document["levels"] = {"u1": 2, "u2": 1, "u3": 1, "u4": 2, "u5": 2}
        del document["expect"]
        graph, levels = load_level_graph(document)
        model = LevelGraph(graph, levels)
        assert model.relation_failures() == []
        summit = level_group(model, 1, ["u2", "u3"])
        misreport_support_checks(monkeypatch, *summit, wrong)
        failures = [f"level 1 component ('u2', 'u3'): {text}" for text in level_texts] + [
            f"level 1 merged component ('u2', 'u3'): {text}" for text in merged_texts
        ]
        assert LevelGraph(graph, levels).relation_failures() == failures
        path = tmp_path / "summit.json"
        path.write_text(json.dumps(document))
        assert main(["verify", "--input", str(path), "--skip-random"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        (section,) = report["fixtures"]
        assert section["relation_failures"] == failures

    def assert_wrong_total(self, fig1, tmp_path, capsys, monkeypatch, field):
        # one more in `field` of the one level-2 block: the other totals
        # still agree
        real = residues.ComponentBlock

        def wrong_block(*args):
            block = real(*args)
            if block.level == 2:
                return dataclasses.replace(block, **{field: getattr(block, field) + 1})
            return block

        monkeypatch.setattr(residues, "ComponentBlock", wrong_block)
        assert not per_component_report(fig1[0], fig1[1]).totals_consistent
        code, payload = run_fig1(tmp_path, capsys, "dims")
        assert code == 1
        assert payload["ok"] is False
        assert payload["component_totals_ok"] is False
        assert all(item["ok"] for item in payload["identities"])

    def test_wrong_global_codimension(self, fig1, tmp_path, capsys, monkeypatch):
        self.assert_wrong_total(fig1, tmp_path, capsys, monkeypatch, "codim_global")

    @pytest.mark.parametrize("field", ["block_dim", "codim_local", "codim_rosenlicht"])
    def test_wrong_block_total(self, fig1, tmp_path, capsys, monkeypatch, field):
        self.assert_wrong_total(fig1, tmp_path, capsys, monkeypatch, field)

    def test_flag_step_outside_the_previous(self, fig1, tmp_path, capsys, monkeypatch):
        # every containment of a flag step in the one before reads false
        from resipoly.linalg import Subspace

        monkeypatch.setattr(Subspace, "contains", lambda self, other: False)
        flag = LevelGraph(fig1[0], fig1[1]).flag()
        assert [ok for _, ok in flag.inclusions()] == [False] * 3
        assert not flag_holds(flag)
        code, payload = run_fig1(tmp_path, capsys, "dims")
        assert code == 1
        assert payload["ok"] is False
        assert [item["ok"] for item in payload["inclusions"]] == [False] * 3
        assert all(item["ok"] for item in payload["identities"])

    def test_wrong_special_components(self, fig1, tmp_path, capsys, monkeypatch):
        # both components below level 2 receive an upward arrow; drop one
        # from the special list, and it reads as surviving one level up.
        # Models of other partitions, built by the face sweep and the
        # degenerations, are left alone.
        real = LevelGraph.__init__

        def wrong_init(self, graph, levels):
            real(self, graph, levels)
            if levels == fig1[1]:
                # the dropped component's global row goes with it, as when
                # the rows are built from the wrong special list
                pair = self.pairs[1]
                wrong = pair._replace(special=pair.special[:1], glob=pair.glob[:1])
                self.pairs = (self.pairs[0], wrong)
                self.rows["global"] = tuple(r for r in self.rows["global"] if r != pair.glob[1])

        monkeypatch.setattr(LevelGraph, "__init__", wrong_init)
        code, report = run_fig1(tmp_path, capsys, "verify")
        assert code == 1
        assert report["ok"] is False
        (section,) = report["fixtures"]
        assert section["component_identity_failures"] == ["level 2: component identity fails"]


def sweep_graphs():
    """Fresh copies of the fixtures of at most five vertices, and 40 seeded
    random graphs with up to five vertices: every pair memo starts empty."""
    rng = random.Random(48)
    graphs = [load_fixture(name)[0] for name in ("fig1", "k4", "c3", "loop1")]
    graphs += [random_multigraph(rng, 5, 8) for _ in range(40)]
    assert sum(len(g.vertices) == 5 for g in graphs) >= 5
    return graphs


def give_global_rows_to_the_wrong_pair(monkeypatch):
    """Rebuild each global row of a level on the arrows out of its special
    component into the level: rows on the arrows of earlier levels, whose
    heads lie in no special component of the level."""
    real = residues._level_pair

    def wrong_pair(graph, mask, prefix):
        pair = real(graph, mask, prefix)
        moved = tuple(graph.arrows_from(c) & graph.arrows_into(mask) for c in pair.special)
        return pair._replace(glob=moved)

    monkeypatch.setattr(residues, "_level_pair", wrong_pair)


def misjudging_support_checks(real):
    """A stand-in for `support_checks` that gives a wrong verdict, or none,
    to some pairs of collections, chosen by their sizes and supports, so
    that failure texts of every kind appear at every level."""

    def patched(a, b):
        pick = (len(a) + 2 * len(b) + sum(a) + sum(b)) % 5
        if pick == 0:
            return None
        if pick == 1:
            return (False, False)
        if pick == 2:
            return (True, True)
        return real(a, b)

    return patched


class TestPairSweep:
    """The flag sweep reads each (level mask, prefix mask) pair's entry from
    the graph's memo and sums or lists a partition from its levels'
    entries; the whole-space routes of :class:`LevelGraph` are its
    reference."""

    def test_pair_sums_match_one_whole_space_echelon(self):
        # the counts and flag dimensions summed over the levels' entries,
        # against one echelon of every row of the partition, on every
        # partition of each graph; fig2 has 12 vertices and is taken at its
        # own levels
        partitions = 0
        for graph in sweep_graphs():
            for pi in ordered_partitions(graph.vertices):
                partitions += 1
                assert flag_dims(graph, pi) == whole_space_dims(graph, pi), pi
            k = len(graph.vertices)
            assert len(graph.sweep_entries) == 3**k - 2**k
            # equal entries are one tuple
            entries = graph.sweep_entries.values()
            assert len(set(map(id, entries))) == len(set(entries))
        graph, levels = load_fixture("fig2")[:2]
        assert flag_dims(graph, levels) == whole_space_dims(graph, levels)
        assert flag_dims(graph, levels)[1] == (13, 4, 4, 0)
        assert partitions >= 5 * 541

    def test_relation_texts_match_the_model(self, monkeypatch):
        # under wrong verdicts, the texts listed from the entries equal the
        # model's, text for text and in the same order
        monkeypatch.setattr(
            residues, "support_checks", misjudging_support_checks(residues.support_checks)
        )
        kinds = set()
        for graph in sweep_graphs()[:24]:
            for pi in ordered_partitions(graph.vertices):
                want = LevelGraph(graph, pi).relation_failures()
                assert check_component_relations(graph, pi) == want, pi
                kinds.update(text.split(": ", 1)[1].split("=")[0] for text in want)
        assert kinds == {
            "not set-theoretically independent",
            "not properly unrelated",
            "related",
        }

    def test_component_identity_matches_the_model(self, monkeypatch):
        # with the identity made to fail at every level of odd size, the
        # failures listed from the entries equal the model's, in order
        real = residues._component_identity
        monkeypatch.setattr(
            residues,
            "_component_identity",
            lambda at: real(at) and at.mask.bit_count() % 2 == 0,
        )
        failed = 0
        for graph in sweep_graphs()[:24]:
            for pi in ordered_partitions(graph.vertices):
                entries = residues._level_entries(graph, pi)
                got = _component_set_identity_failures(residues._identity_verdicts(entries))
                model = LevelGraph(graph, pi)
                assert got == _component_set_identity_failures(
                    [residues._component_identity(pair) for pair in model.pairs]
                )
                failed += bool(got)
        assert failed > 1000

    def test_flag_sweep_lists_what_the_model_lists(self, monkeypatch):
        # verify's random flag sweep, with wrong relation verdicts and the
        # identity made to fail at every level of odd size, lists for each
        # partition the texts the model's routes give, in order
        from resipoly.verify import VerifyConfig, _random_section

        monkeypatch.setattr(
            residues, "support_checks", misjudging_support_checks(residues.support_checks)
        )
        real = residues._component_identity
        monkeypatch.setattr(
            residues,
            "_component_identity",
            lambda at: real(at) and at.mask.bit_count() % 2 == 0,
        )
        config = VerifyConfig(seed=4, cases=2)
        section = _random_section("flag_sweep", config)
        rng = random.Random(config.seed)
        want = []
        for case in range(config.cases):
            graph = random_multigraph(rng, config.max_vertices, config.max_edges)
            for pi in ordered_partitions(graph.vertices):
                model = LevelGraph(graph, pi)
                relations = model.relation_failures()
                ident = _component_set_identity_failures(
                    [residues._component_identity(pair) for pair in model.pairs]
                )
                want += [f"case {case}: {pi!r}: " + "; ".join(t) for t in (relations, ident) if t]
        assert any("component identity fails" in text for text in want[:20])
        assert section["failures"] == want[:20]
        assert section["failures_total"] == len(want)

    def test_identity_verdicts_against_the_reference(self):
        # the entries' identity verdicts against the frozenset model's
        # components, level by level
        rng = random.Random(49)
        for _ in range(8):
            graph = random_multigraph(rng, 5, 8)
            for pi in ordered_partitions(graph.vertices):
                reference = ReferenceLevelGraph(graph, pi)
                want = []
                for n in range(1, pi.r + 1):
                    below, special = reference.components_below[n]
                    upto = reference.prefix_components[n]
                    want.append(set(below) - set(special) == set(upto) & set(below))
                entries = residues._level_entries(graph, pi)
                assert residues._identity_verdicts(entries) == want

    def test_graphs_with_the_same_vertices_share_no_entry(self):
        # a path and a triangle on the same vertex tuple: each graph's memo
        # is its own, so neither reads the other's entries
        path, levels = load_level_graph(
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
        )
        triangle, _ = load_level_graph(
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
        )
        assert path.sweep_entries is not triangle.sweep_entries
        for pi in ordered_partitions(path.vertices):
            assert flag_dims(path, pi) == whole_space_dims(path, pi)
        assert triangle.sweep_entries == {}
        for pi in ordered_partitions(triangle.vertices):
            assert flag_dims(triangle, pi) == whole_space_dims(triangle, pi)
        assert path.sweep_entries.keys() == triangle.sweep_entries.keys()
        # the entry of level {a} at the top: a has one edge on the path, two
        # on the triangle
        assert path.sweep_entries[0b001] != triangle.sweep_entries[0b001]
        assert flag_dims(path, levels)[1] != flag_dims(triangle, levels)[1]

    def test_sweeps_build_no_model(self, monkeypatch):
        # flag_dims, check_component_relations and verify's random flag
        # sweep read the pair memo and construct no LevelGraph
        from resipoly.verify import VerifyConfig, _random_section

        built = []
        real_init = LevelGraph.__init__

        def counted(self, graph, levels):
            built.append(levels)
            real_init(self, graph, levels)

        monkeypatch.setattr(LevelGraph, "__init__", counted)
        graph, levels, _ = load_fixture("fig1")
        assert flag_dims(graph, levels)[1] == (9, 6, 4, 3)
        assert check_component_relations(graph, levels) == []
        section = _random_section("flag_sweep", VerifyConfig(seed=4, cases=3))
        assert section["ok"] and section["partitions"] > 3
        assert built == []

    def test_row_given_to_the_wrong_pair(self, monkeypatch):
        # each global row of a level rebuilt on the arrows out of its special
        # component into the level: rows on the arrows of earlier levels,
        # which their downward rows already span.  On fig1 the two global
        # rows of level 2 have rank 1; moved, they have rank 2 within their
        # pair and 0 against the whole space, so the summed dimensions leave
        # both the true ones and one echelon of the partition's rows, and
        # both routes' identities fail
        graph, levels, _ = load_fixture("fig1")
        want = flag_dims(graph, levels)
        give_global_rows_to_the_wrong_pair(monkeypatch)
        graph = load_fixture("fig1")[0]
        assert all(c.ok for c in residues.flag_identities(*want))
        got = flag_dims(graph, levels)
        assert got[1] == (9, 6, 4, 2) != want[1]
        assert not all(c.ok for c in residues.flag_identities(*got))
        assert whole_space_dims(graph, levels)[1] == (9, 6, 4, 4)
        assert not flag_holds(build_flag(graph, levels))

    @pytest.mark.parametrize("command", ["verify", "dims"])
    def test_row_given_to_the_wrong_pair_exits_1(self, command, tmp_path, capsys, monkeypatch):
        # the moved rows' owners are read off the pair that built them, not
        # searched for by their arrows: the report labels them as before,
        # and the command reports the failed identities with exit 1
        give_global_rows_to_the_wrong_pair(monkeypatch)
        code, report = run_fig1(tmp_path, capsys, command)
        assert code == 1
        assert report["ok"] is False
        if command == "verify":
            (report,) = report["fixtures"]
        else:
            assert [b["glob"] for b in report["blocks"]] == [[], [], ["2:u4", "2:u5"]]
        failed = [c["name"] for c in report["identities"] if not c["ok"]]
        assert failed == ["global codimension", "residue dimension"]

    def test_memo_keyed_by_the_level_mask_alone(self, tmp_path, capsys, monkeypatch):
        # a memo that files every entry under (L, 0) hands a level the
        # entry of its mask below another prefix: the summed dimensions
        # leave the whole-space ones, and verify's flag sweep fails
        from resipoly import graphs

        class PrefixBlind(dict):
            # the key (L, V<n) is the int L | V<n << k: keep L alone
            def __init__(self, k):
                self.level = (1 << k) - 1

            def get(self, key):
                return super().get(key & self.level)

            def __setitem__(self, key, value):
                super().__setitem__(key & self.level, value)

        real_init = graphs.Multigraph.__init__

        def blind_init(self, vertices, edges):
            real_init(self, vertices, edges)
            self.sweep_entries = PrefixBlind(len(self.vertices))

        monkeypatch.setattr(graphs.Multigraph, "__init__", blind_init)
        graph, _, _ = load_fixture("fig1")
        assert any(
            flag_dims(graph, pi) != whole_space_dims(graph, pi)
            for pi in ordered_partitions(graph.vertices)
        )
        path = tmp_path / "loop1.json"
        path.write_text(json.dumps(fixtures.document("loop1")))
        code = main(["verify", "--input", str(path), "--seed", "7", "--random-cases", "8"])
        assert code == 1
        random_sections = json.loads(capsys.readouterr().out)["random"]
        assert [name for name, s in random_sections.items() if not s["ok"]] == ["flag_sweep"]
