"""Mutation catalogue for resipoly: hand-made faults the tier-1 suite must catch.

Each entry of :data:`CATALOGUE` is one mutant: a file relative to the
repository root, an ``old`` text that occurs exactly once in it, the
``new`` text that replaces it, a note on the fault, and the id of the test
that killed it last.  ``tests/test_mutants.py`` checks that every ``old``
text still occurs exactly once and that every killer is a collected test,
so the catalogue fails fast when ``src/`` or the tests drift from it.

Run from anywhere, standard library only::

    python tools/mutants.py            # every mutant, one at a time
    python tools/mutants.py 3 17       # only these entries, by number
    python tools/mutants.py --list     # the number and note of each entry

The runner copies the tree to a temporary directory (under ``TMPDIR``
when it is set) once and runs the tier-1 suite there unmutated, without
``tests/test_mutants.py``, which fails on any mutated tree; then it runs
the chosen entries' killers together, unmutated.  Both must pass.  Then,
one mutant at a time and never in parallel, it writes the mutated file and
runs the entry's killer alone.  If the killer fails (or runs past the time
limit), the mutant is killed: that test passed on the unmutated tree.
Otherwise, or when the killer was not collected, the runner falls back to
the whole suite with ``-x``, ``tests/`` collected before ``perfbench/``:
the mutant is killed when the suite fails, its first failing test
reported as a new killer, and survives when the suite passes.  Then the file is restored.  The exit status is 1 when a
mutant survives.  A full run takes about 4 minutes on 2 vCPUs: the 45 s
unmutated suite, then about 2 s per mutant.  The target is no survivors:
an equivalent mutant is argued in its note, never dropped, and no check
is loosened to kill one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
# tier-1 minus the catalogue's own sync test, which fails on every mutant
# `tests` before `perfbench`, so that a fallback run reports a failing test
# under `tests/` before the benchmark's smoke tests
SUITE = [
    *PYTEST,
    "-x",
    "--continue-on-collection-errors",
    "--ignore=tests/test_mutants.py",
    "tests",
    "perfbench",
]
TIME_LIMIT_S = 900


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    note: str
    killer: str  # the test id that killed the mutant last


DEG = "src/resipoly/degeneration.py"
POLY = "src/resipoly/polytopes.py"
RES = "src/resipoly/residues.py"
VER = "src/resipoly/verify.py"
GRAPHS = "src/resipoly/graphs.py"
LIN = "src/resipoly/linalg.py"
CLI = "src/resipoly/cli.py"

CATALOGUE = (
    # -- every InvariantViolation site, switched off
    Mutant(
        DEG,
        'raise InvariantViolation("realization changed the dimension")',
        "pass",
        "flag_and_realization: realization dimension guard off",
        "tests/test_cli.py::TestInvariantViolations::test_degeneration_invariant_exits_1",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("basis rows were dependent")',
        "pass",
        "initial_space_limit: dependent-basis guard off",
        "tests/test_degeneration.py::TestInitialSpaceLimit::test_dependent_basis_rows",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("limit changed the dimension")',
        "pass",
        "initial_space_limit: limit dimension guard off",
        "tests/test_cli.py::TestInvariantViolations::test_limit_dimension_guard_exits_1",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("greedy anchor minor is zero")',
        "pass",
        "plucker_limit_oracle: zero anchor minor guard off",
        "tests/test_cli.py::TestInvariantViolations::test_zero_anchor_minor_exits_1",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("decoded limit has the wrong dimension")',
        "pass",
        "plucker_limit_oracle: decoded dimension guard off",
        "tests/test_degeneration.py::TestPluckerOracle::test_decoded_dimension_guard",
    ),
    Mutant(
        POLY,
        'raise InvariantViolation("projection table violates its invariants")',
        "pass",
        "_checked_table: the one table invariant guard off, for whole-space and summed tables",
        "tests/test_cli.py::TestInvariantViolations::test_polytopes_invariant_exits_1",
    ),
    Mutant(
        POLY,
        'raise InvariantViolation("base polytope of a non-submodular table")',
        "pass",
        "base_polytope: submodularity precondition off",
        "tests/test_cli.py::TestInvariantViolations::test_non_submodular_table_exits_1",
    ),
    Mutant(
        POLY,
        'raise InvariantViolation("greedy point violates the subset inequalities")',
        "pass",
        "BasePolytope: vertex re-check off",
        "tests/test_cli.py::TestInvariantViolations::test_greedy_point_recheck_exits_1",
    ),
    Mutant(
        POLY,
        "if argmax != face:",
        "if False:",
        "chain_face: argmax cross-check off (its InvariantViolation site)",
        "tests/test_polytopes.py::TestFaultInjection::test_chain_face_cross_check",
    ),
    # -- verdict branches of relation_failures and the component checks
    Mutant(
        RES,
        'failures.append(f"component {names(comp)}: not properly unrelated")',
        "pass",
        "_pair_relations: level component 'not properly unrelated' branch off",
        "tests/test_residues.py::TestFaultInjection::test_level_component_not_properly_unrelated",
    ),
    Mutant(
        RES,
        "if related != (comp in pair.reducible):",
        "if False:",
        "_pair_relations: level component relatedness-vs-reducible branch off",
        "tests/test_residues.py::TestFaultInjection::test_level_component_related_but_no_reducible_summit",
    ),
    Mutant(
        RES,
        "if not properly:\n            merged.append(",
        "if False:\n            merged.append(",
        "_pair_relations: merged component 'not properly unrelated' branch off",
        "tests/test_residues.py::TestFaultInjection::test_merged_component_not_properly_unrelated",
    ),
    Mutant(
        RES,
        "if related != nonempty:",
        "if False:",
        "_pair_relations: merged component relatedness-vs-nonempty branch off",
        "tests/test_residues.py::TestFaultInjection::test_merged_component_unrelated_but_nonempty",
    ),
    Mutant(
        RES,
        "\n            and sum(b.codim_global for b in blocks) == up - res",
        "",
        "component_report: codim_global total left out of the consistency check",
        "tests/test_residues.py::TestFaultInjection::test_wrong_global_codimension",
    ),
    Mutant(
        RES,
        "sum(b.block_dim for b in blocks) == up\n            and ",
        "",
        "component_report: block_dim total left out of the consistency check",
        "tests/test_residues.py::TestFaultInjection::test_wrong_block_total[block_dim]",
    ),
    Mutant(
        RES,
        "\n            and sum(b.codim_local for b in blocks) == up - local",
        "",
        "component_report: codim_local total left out of the consistency check",
        "tests/test_residues.py::TestFaultInjection::test_wrong_block_total[codim_local]",
    ),
    Mutant(
        RES,
        "\n            and sum(b.codim_rosenlicht for b in blocks) == up - ros",
        "",
        "component_report: codim_rosenlicht total left out of the consistency check",
        "tests/test_residues.py::TestFaultInjection::test_wrong_block_total[codim_rosenlicht]",
    ),
    Mutant(
        RES,
        "ok = self.spaces[bigger].contains(self.spaces[smaller])",
        "ok = True",
        "ResidueFlag.inclusions: flag containment off",
        "tests/test_residues.py::TestFaultInjection::test_flag_step_outside_the_previous",
    ),
    Mutant(
        RES,
        "return set(pair.below) - set(pair.special) == set(pair.upto) & set(pair.below)",
        "return True",
        "_component_identity: component-set identity off, for the model and the sweep alike",
        "tests/test_residues.py::TestFaultInjection::test_wrong_special_components",
    ),
    # -- owners: a global row's read off its pair, the others' off a row's lowest arrow
    Mutant(
        RES,
        "            for c, row in zip(pair.special, pair.glob)\n        ]",
        "            for c, row in zip(pair.special[::-1], pair.glob)\n        ]",
        "LevelGraph.global_rows: a global label zipped against the wrong special component",
        "tests/test_residues.py::TestConstraints::test_fig1_global_rows",
    ),
    Mutant(
        RES,
        "return self.graph.index[self.graph.arrows[a].tail]",
        "return self.graph.index[self.graph.arrows[a].head]",
        "LevelGraph.owner: a local row is owned by its lowest arrow's head",
        "tests/test_golden.py::test_output_matches_golden[dims-fig2.json]",
    ),
    # -- verdict branches of check_polytope_faces
    Mutant(
        POLY,
        "containment_ok = False",
        "pass",
        "check_polytope_faces: one-level containment off",
        "tests/test_polytopes.py::TestFaultInjection::test_vertex_outside_the_one_level_polytope",
    ),
    Mutant(
        POLY,
        "if face != lower:",
        "if face != upper:",
        "check_polytope_faces: the chain match reads the partition's own (upper) face",
        "tests/test_polytopes.py::TestFaultInjection::test_every_partition_reporting_its_upper_face_fails",
    ),
    Mutant(
        POLY,
        '            chain_match_ok = False\n            failures.append(f"{pi!r}: not its lower chain face")',
        '            failures.append(f"{pi!r}: not its lower chain face")',
        "check_polytope_faces: a chain-match failure no longer clears chain_match_ok",
        "tests/test_polytopes.py::TestFaultInjection::test_partition_matches_no_chain_face",
    ),
    Mutant(
        POLY,
        "if face & ~coarser_face:",
        "if False:",
        "check_polytope_faces: coarsening vertex containment off",
        "tests/test_polytopes.py::TestFaultInjection::test_vertex_set_not_contained_in_a_coarsening",
    ),
    Mutant(
        POLY,
        "if not dominated[table.values, coarser_table.values]:",
        "if False:",
        "check_polytope_faces: coarsening table domination off",
        "tests/test_polytopes.py::TestFaultInjection::test_table_not_dominated_by_a_coarsening",
    ),
    Mutant(
        POLY,
        "lattice_ok = _face_lattice(reference.tight) == realized",
        "lattice_ok = True",
        "check_polytope_faces: face-lattice check off",
        "tests/test_polytopes.py::TestFaultInjection::test_tight_set_that_is_no_face_fails_the_lattice_alone",
    ),
    Mutant(
        POLY,
        "symmetric = symmetric and upper == lower",
        "symmetric = symmetric and face == lower",
        "check_polytope_faces: orientation both computed regardless of the upper faces",
        "tests/test_polytopes.py::TestFaceSweep::test_k4_full_sweep",
    ),
    # -- verdict branches of check_degeneration
    Mutant(
        DEG,
        "limit_matches=limit == fine_space,",
        "limit_matches=True,",
        "check_degeneration: leading-form limit verdict always true",
        "tests/test_degeneration.py::TestFaultInjection::test_wrong_route_fails_its_check[limit]",
    ),
    Mutant(
        DEG,
        "realization_matches=realization == fine_space,",
        "realization_matches=True,",
        "check_degeneration: realization verdict always true",
        "tests/test_degeneration.py::TestFaultInjection::test_wrong_route_fails_its_check[realization]",
    ),
    Mutant(
        DEG,
        "splitting_matches=split == fine_table,",
        "splitting_matches=True,",
        "check_degeneration: splitting verdict always true",
        "tests/test_degeneration.py::TestFaultInjection::test_wrong_route_fails_its_check[splitting]",
    ),
    Mutant(
        DEG,
        "oracle_matches = plucker_limit_oracle(laurent) == limit",
        "oracle_matches = True",
        "check_degeneration: oracle verdict always true",
        "tests/test_cli.py::TestInvariantViolations::test_zero_anchor_minor_exits_1",
    ),
    Mutant(
        DEG,
        "\n            and self.oracle_matches is True",
        "",
        "DegenerationReport.ok: a failed oracle no longer fails the report",
        "tests/test_degeneration.py::TestFaultInjection::test_wrong_route_fails_its_check[oracle]",
    ),
    Mutant(
        DEG,
        "            self.limit_matches\n            and ",
        "            ",
        "DegenerationReport.ok: a failed limit no longer fails the report",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[limit]",
    ),
    Mutant(
        DEG,
        "\n            and self.realization_matches",
        "",
        "DegenerationReport.ok: a failed realization no longer fails the report",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[realization]",
    ),
    Mutant(
        DEG,
        "\n            and self.splitting_matches",
        "",
        "DegenerationReport.ok: a failed splitting no longer fails the report",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[splitting]",
    ),
    # -- leading-form limit as one weight-ordered echelon
    Mutant(
        DEG,
        "order = sorted(range(width), key=lambda j: (-weights[j], j))",
        "order = sorted(range(width), key=lambda j: (weights[j], j))",
        "initial_space_limit: coordinates sorted by weight ascending",
        "tests/test_acceptance.py::test_criterion_6_degenerations",
    ),
    Mutant(
        DEG,
        "if weights[order[k]] == top}",
        "}",
        "initial_space_limit: leading form keeps every coordinate (weight filter dropped)",
        "tests/test_acceptance.py::test_criterion_6_degenerations",
    ),
    Mutant(
        DEG,
        "top = weights[order[pivot]]",
        "top = weights[pivot]",
        "initial_space_limit: pivot weight read at the unpermuted index",
        "tests/test_acceptance.py::test_criterion_6_degenerations",
    ),
    # -- polytope-layer kernels and checks
    Mutant(
        POLY,
        "any(map(gt, sums, values))",
        "any(s > v + 1 for s, v in zip(sums, values))",
        "BasePolytope: vertex re-check relaxed by 1",
        "tests/test_cli.py::TestInvariantViolations::test_greedy_point_recheck_exits_1",
    ),
    Mutant(
        POLY,
        " or sums[-1] != values[-1]",
        "",
        "BasePolytope: vertex re-check without the ground-set equality",
        "tests/test_polytopes.py::TestFaultInjection::test_vertex_recheck_catches_a_missed_ground_equality",
    ),
    Mutant(
        POLY,
        "for t in range(i, n - 1):",
        "for t in range(i + 1, n - 1):",
        "is_submodular: the nearest higher element skipped",
        "tests/test_polytopes.py::TestBasePolytope::test_non_submodular_rejected",
    ),
    Mutant(
        POLY,
        "if not all(map(ge, lower, upper)):",
        "if not all(map(ge, upper, lower)):",
        "is_submodular: marginal comparison reversed",
        "tests/test_acceptance.py::test_criterion_4_k4_polytope",
    ),
    Mutant(
        POLY,
        "for i in range(self.n)\n",
        "for i in range(self.n - 1)\n",
        "is_nondecreasing: the last element skipped",
        "tests/test_polytopes.py::TestAgainstReferences::test_predicates_on_random_tables",
    ),
    Mutant(
        POLY,
        "out[r::step] = map(",
        "out[r * len(out) // step : (r + 1) * len(out) // step] = map(",
        "_marginals: strided marginals stored in blocks, not interleaved at stride step",
        "tests/test_polytopes.py::TestAgainstReferences::test_predicates_on_random_tables",
    ),
    Mutant(
        POLY,
        "child = dict(echelon)",
        "child = echelon",
        "_rank_walk: children share their parent's echelon",
        "tests/test_acceptance.py::test_criterion_4_k4_polytope",
    ),
    Mutant(
        POLY,
        "values[mask :: 1 << start] = [dim] * (1 << (n - start))",
        "values[mask] = dim",
        "_rank_walk: full-rank subtree fill dropped",
        "tests/test_acceptance.py::test_criterion_4_k4_polytope",
    ),
    Mutant(
        POLY,
        "if state not in seen:",
        "if all(m != state[0] for m, _ in seen):",
        "base_polytope: prefix walk pruned by prefix mask alone",
        "tests/test_acceptance.py::test_criterion_4_k4_polytope",
    ),
    Mutant(
        POLY,
        "for prefix in itertools.accumulate(levels.masks, or_):",
        "for prefix in itertools.islice(itertools.accumulate(levels.masks, or_), 1, None):",
        "chain_face: the AND of tight sets skips the first prefix",
        "tests/test_polytopes.py::TestChainFace::test_k4_split_faces",
    ),
    Mutant(
        POLY,
        "map(eq, sums, values)",
        "map(eq, sums, itertools.repeat(0))",
        "BasePolytope: tight sets read where the subset sum is zero, not f(I)",
        "tests/test_polytopes.py::TestChainFace::test_trivial_chain_is_everything",
    ),
    Mutant(
        POLY,
        "itertools.accumulate(top_down, or_, initial=0)",
        "itertools.accumulate(top_down, or_)",
        "splitting: U_n includes level n",
        "tests/test_acceptance.py::test_criterion_6_degenerations",
    ),
    # -- input contract
    Mutant(
        GRAPHS,
        "if not isinstance(w, str) or w not in index:",
        "if w not in index:",
        "Multigraph: edge endpoint type test dropped",
        "tests/test_cli.py::TestErrors::test_non_string_endpoint_exits_2[array-tail]",
    ),
    Mutant(
        VER,
        'if not item["component"]:',
        "if False:",
        "_check_expect: empty global-condition component accepted",
        "tests/test_cli.py::TestVerify::test_malformed_global_condition_exits_2[empty-component]",
    ),
    Mutant(
        VER,
        "if label not in arrow_labels:",
        "if False:",
        "_check_expect: unknown arrow label accepted",
        "tests/test_cli.py::TestVerify::test_malformed_global_condition_exits_2[arrow-not-a-label]",
    ),
    Mutant(
        VER,
        "if not 1 <= int(level) <= levels.r:",
        "if False:",
        "_check_expect: expect level key outside 1..r accepted",
        "tests/test_cli.py::TestVerify::test_expect_level_out_of_range_exits_2[9]",
    ),
    Mutant(
        VER,
        "level.isascii() and level.isdecimal()",
        "level.isascii() or level.isdecimal()",
        "_check_expect: an expect level key of non-ASCII digits accepted",
        "tests/test_cli.py::TestVerify::test_malformed_expect_exits_2[level-key-non-ascii-digit]",
    ),
    Mutant(
        VER,
        '1 <= item["level"]',
        '1 < item["level"]',
        "_check_expect: an expect global condition at level 1 rejected",
        "tests/test_cli.py::TestVerify::test_global_condition_at_level_one_is_checked",
    ),
    Mutant(
        GRAPHS,
        "if not (valid and all(masks)):",
        "if not (valid and masks[0]):",
        "LevelStructure: gapped levels accepted, only level 1 required",
        "tests/test_graphs.py::TestEnumeration::test_levels_must_be_one_to_r[levels0]",
    ),
    Mutant(
        GRAPHS,
        "valid = min(levels) >= 1",
        "valid = True",
        "LevelStructure: levels below 1 accepted, level 0 read as level r",
        "tests/test_graphs.py::TestEnumeration::test_levels_must_be_one_to_r[levels1]",
    ),
    Mutant(
        GRAPHS,
        "tuple(tuple(vertices[i] for i in bits(mask)) for mask in self.masks)",
        "tuple(tuple(sorted(vertices[i] for i in bits(mask))) for mask in self.masks)",
        "LevelStructure.parts: each level's names sorted, not in input order",
        "tests/test_graphs.py::TestEnumeration::test_parts_against_the_level_tuple",
    ),
    Mutant(
        VER,
        "elif len(graph.vertices) >= 2:",
        "elif len(graph.vertices) > 2:",
        "_fixture_degenerations: no split pair for a two-vertex one-level document",
        "tests/test_cli.py::TestVerify::test_two_vertex_one_level_document_is_split",
    ),
    # -- each identity of flag_identities, one side off by one
    Mutant(
        RES,
        "2 * counts.edges - counts.vertical_edges,",
        "2 * counts.edges - counts.vertical_edges + 1,",
        "flag_identities: downward dimension off by one",
        "tests/test_acceptance.py::test_criterion_1_figure_one",
    ),
    Mutant(
        RES,
        "counts.vertices - counts.summits_irreducible,",
        "counts.vertices - counts.summits_irreducible + 1,",
        "flag_identities: local codimension off by one",
        "tests/test_acceptance.py::test_criterion_1_figure_one",
    ),
    Mutant(
        RES,
        "counts.horizontal_edges - counts.summits_reducible,",
        "counts.horizontal_edges - counts.summits_reducible + 1,",
        "flag_identities: rosenlicht codimension off by one",
        "tests/test_acceptance.py::test_criterion_1_figure_one",
    ),
    Mutant(
        RES,
        "counts.summits - counts.components)",
        "counts.summits - counts.components + 1)",
        "flag_identities: global codimension off by one",
        "tests/test_acceptance.py::test_criterion_1_figure_one",
    ),
    Mutant(
        RES,
        "counts.edges - counts.vertices + counts.components,",
        "counts.edges - counts.vertices + counts.components + 1,",
        "flag_identities: residue dimension off by one",
        "tests/test_acceptance.py::test_criterion_1_figure_one",
    ),
    # -- vertex-mask tables, level-component groups and the sparse echelon
    Mutant(
        LIN,
        "row = {c: a * y for c, a in row.items()}",
        "row = dict(row)",
        "_sparse_insert: the row is not multiplied by the pivot's entry",
        "tests/test_acceptance.py::test_criterion_1_figure_one",
    ),
    Mutant(
        GRAPHS,
        "self.arrows_into = Memo(partial(_union, self.in_arrows)).__getitem__",
        "self.arrows_into = lambda mask, memo=Memo(partial(_union, self.in_arrows)):"
        " memo[mask & -mask]",
        "Multigraph: the arrows-into table read and filled at the mask's lowest bit",
        "tests/test_graphs.py::TestVertexMasks::test_tables_against_fresh_computation",
    ),
    Mutant(
        GRAPHS,
        "value = self[key] = self.fill(key)",
        "value = self.fill(key)",
        "Memo: a fill never kept, every lookup fills again (answers unchanged, work repeated)",
        "tests/test_graphs.py::TestVertexMasks::test_each_table_fills_once_per_mask",
    ),
    Mutant(
        RES,
        "groups.get(here) or _rows_within(graph, local, here)",
        "groups[next(c for c in at.components if c & here)]",
        "_level_collections: a block over several level components reuses the first one's group",
        "tests/test_acceptance.py::test_criterion_2_worked_example",
    ),
    # -- the fixed size bounds, each one vertex too strict
    Mutant(
        POLY,
        "if len(graph.vertices) > TABLE_BOUND:",
        "if len(graph.vertices) >= TABLE_BOUND:",
        "_check_table_bound: a graph at the table bound rejected",
        "tests/test_acceptance.py::test_criterion_6_degenerations",
    ),
    Mutant(
        POLY,
        "if n > POLYTOPE_BOUND:",
        "if n >= POLYTOPE_BOUND:",
        "base_polytope: a table at the polytope bound rejected",
        "tests/test_cli.py::TestErrors::test_fixed_size_bounds[polytope]",
    ),
    Mutant(
        POLY,
        "if len(graph.vertices) > FACE_SWEEP_BOUND:",
        "if len(graph.vertices) >= FACE_SWEEP_BOUND:",
        "check_polytope_faces: a graph at the face-sweep bound rejected",
        "tests/test_cli.py::TestErrors::test_fixed_size_bounds[faces]",
    ),
    Mutant(
        GRAPHS,
        "if len(vertices) > ENUMERATION_BOUND:",
        "if len(vertices) >= ENUMERATION_BOUND:",
        "ordered_partitions: a vertex tuple at the enumeration bound rejected",
        "tests/test_graphs.py::TestEnumeration::test_bound_enforced",
    ),
    Mutant(
        VER,
        "if len(graph.vertices) <= FACE_SWEEP_BOUND:",
        "if len(graph.vertices) < FACE_SWEEP_BOUND:",
        "verify_document: no face sweep for a fixture at the face-sweep bound",
        "tests/test_cli.py::TestVerify::test_face_sweep_up_to_its_bound",
    ),
    Mutant(
        VER,
        "len(graph.vertices) > POLYTOPE_BOUND:",
        "len(graph.vertices) >= POLYTOPE_BOUND:",
        "_check_expect: a vertex count expected at the polytope bound rejected",
        "tests/test_cli.py::TestVerify::test_vertex_count_up_to_the_polytope_bound[8-True]",
    ),
    # -- each term of the `dims` verdict
    Mutant(
        CLI,
        'all(item["ok"] for item in identities)\n        and ',
        "",
        "cmd_dims: identities left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_dims[identities]",
    ),
    Mutant(
        CLI,
        '\n        and all(item["ok"] for item in payload["inclusions"])',
        "",
        "cmd_dims: inclusions left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_dims[inclusions]",
    ),
    Mutant(
        CLI,
        "\n        and report.totals_consistent\n    )",
        "\n    )",
        "cmd_dims: component totals left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_dims[totals]",
    ),
    # -- each term of verify_document's verdict
    Mutant(
        VER,
        "all(c.ok for c in identities)\n        and ",
        "",
        "verify_document: identities left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[identities]",
    ),
    Mutant(
        VER,
        "\n        and all(x for _, x in inclusions)",
        "",
        "verify_document: inclusions left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[inclusions]",
    ),
    Mutant(
        VER,
        "\n        and report.totals_consistent",
        "",
        "verify_document: component totals left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[totals]",
    ),
    Mutant(
        VER,
        "\n        and not relation_failures",
        "",
        "verify_document: relation failures left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[relations]",
    ),
    Mutant(
        VER,
        "\n        and not identity_failures",
        "",
        "verify_document: component identity failures left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[component-identity]",
    ),
    Mutant(
        VER,
        "\n        and not expect_failures",
        "",
        "verify_document: expect failures left out of ok",
        "tests/test_cli.py::TestVerify::test_corrupted_expectation_fails",
    ),
    Mutant(
        VER,
        '\n        and (section["faces"] is None or section["faces"]["ok"])',
        "",
        "verify_document: the face sweep left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[faces]",
    ),
    Mutant(
        VER,
        "\n        and all(result.ok for result in results)",
        "",
        "verify_document: the degeneration reports left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_verify_document[limit]",
    ),
    # -- each failure source of each random section, and the one runner
    Mutant(
        VER,
        "if bad:",
        "if False:",
        "random flag sweep: failed dimension identities not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[flag-identities]",
    ),
    Mutant(
        VER,
        "if relations:",
        "if False:",
        "random flag sweep: relation failures not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[flag-relations]",
    ),
    Mutant(
        VER,
        "if ident:",
        "if False:",
        "random flag sweep: component identity failures not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[flag-component-identity]",
    ),
    Mutant(
        VER,
        "if not report.ok:",
        "if False:",
        "random face sweep: a failed face report not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[faces]",
    ),
    Mutant(
        VER,
        "if not result.ok:",
        "if False:",
        "random degenerations: a failed degeneration report not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[degenerations]",
    ),
    Mutant(
        VER,
        "if not (report.sti_1 and report.sti_2):",
        "if False:",
        "random collections: a non-independent generated collection not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[collections-independence]",
    ),
    Mutant(
        VER,
        "if rank(union) != len(union):",
        "if False:",
        "random collections: a dependent unrelated union not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[collections-unrelated]",
    ),
    Mutant(
        VER,
        "if rank(dropped) != len(dropped):",
        "if False:",
        "random collections: a dependent union after dropping a vector not reported",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[collections-properly-unrelated]",
    ),
    Mutant(
        VER,
        '"ok": not failures',
        '"ok": True',
        "_random_section: ok regardless of failures",
        "tests/test_cli.py::TestVerify::test_failure_total_when_the_list_is_cut",
    ),
    Mutant(
        VER,
        "failures[:20]",
        "failures",
        "_random_section: the failure list not cut at 20",
        "tests/test_cli.py::TestVerify::test_failure_total_when_the_list_is_cut",
    ),
    Mutant(
        VER,
        "if len(failures) > 20:",
        "if False:",
        "_random_section: no failure total when the list was cut",
        "tests/test_cli.py::TestVerify::test_failure_total_when_the_list_is_cut",
    ),
    Mutant(
        VER,
        "len(failures) > 20:",
        "len(failures) >= 20:",
        "_random_section: a failure total for a list of exactly 20",
        "tests/test_cli.py::TestVerify::test_failure_list_cut_past_20[20-None]",
    ),
    Mutant(
        VER,
        'ok = ok and all(section["ok"] for section in report["random"].values())',
        "pass",
        "full_verification: the random sections left out of ok",
        "tests/test_cli.py::TestVerdictTerms::test_random_section[flag-identities]",
    ),
    # -- relatedness answered for set-independent collections only
    Mutant(
        RES,
        'failures.append(f"component {names(comp)}: not set-theoretically independent")',
        "pass",
        "_pair_relations: a level component of dependent collections not reported",
        "tests/test_residues.py::TestFaultInjection::test_level_component_not_independent",
    ),
    Mutant(
        RES,
        'merged.append(f"merged component {names(comp)}: not set-theoretically independent")',
        "pass",
        "_pair_relations: a merged component of dependent collections not reported",
        "tests/test_residues.py::TestFaultInjection::test_merged_component_not_independent",
    ),
    Mutant(
        LIN,
        "    if not (_is_set_independent(sup1) and _is_set_independent(sup2)):"
        "\n        return None",
        "    if False:\n        return None",
        "support_checks: relatedness answered for dependent collections",
        "tests/test_linalg.py::TestSetTheoreticChecks::test_overlapping_supports_are_not_independent",
    ),
    Mutant(
        LIN,
        "if not s or s & seen:",
        "if not s:",
        "_is_set_independent: overlapping supports pass as independent",
        "tests/test_linalg.py::TestSetTheoreticChecks::test_overlapping_supports_are_not_independent",
    ),
    Mutant(
        LIN,
        "return [union1 == union2 for union1, union2 in groups]",
        "return [bool(union1 and union2) for union1, union2 in groups]",
        "_closed_components: a component meeting both collections counts as closed",
        "tests/test_linalg.py::TestSetTheoreticChecks::test_matches_brute_force_on_random_collections",
    ),
    Mutant(
        LIN,
        "return related, not related or len(closed) == 1",
        "return related, not related or all(closed)",
        "support_checks: properly unrelated when every component is closed",
        "tests/test_linalg.py::TestVectorCollection::test_random_collections_make_no_fractions",
    ),
    # -- is_coarsening and Subspace.contains
    Mutant(
        GRAPHS,
        "return all(a <= b for a, b in zip(images, images[1:]))",
        "return True",
        "is_coarsening: the level order test dropped",
        "tests/test_graphs.py::TestCoarsening::test_order_reversal_is_not_a_coarsening",
    ),
    Mutant(
        LIN,
        "self.rows + other.rows",
        "self.rows + other.rows[:1]",
        "Subspace.contains: only the first basis row of the other space checked",
        "tests/test_linalg.py::TestSubspace::test_contains_matches_rank",
    ),
    # -- the face sweep's memo keys
    Mutant(
        POLY,
        "rows = frozenset().union(*[level_set for _, level_set in pairs])",
        "rows = frozenset(\n"
        "        row for _, level_set in pairs for row in level_set if row & (row - 1)\n"
        "    )",
        "_sweep_table: tables memoised by the rows of two or more arrows alone, the downward"
        " unit rows left out of the key",
        "tests/test_polytopes.py::TestFaceSweep::test_memo_matches_a_fresh_sweep",
    ),
    Mutant(
        POLY,
        "return table, faces[table]",
        "return table, faces.setdefault(table.values[: len(table.values) // 2],"
        " faces.fill(table))",
        "_table_and_face: faces memoised by the values at the subsets without the last vertex",
        "tests/test_polytopes.py::TestFaceSweep::test_memo_matches_a_fresh_sweep",
    ),
    Mutant(
        POLY,
        "return self.ground == other.ground and self.values == other.values",
        "return self.values == other.values",
        "SetFunction.__eq__: tables on different grounds equal when their values are",
        "tests/test_polytopes.py::TestSetFunction::test_equal_tables_share_ground_and_values",
    ),
    # -- the coarsening check along single merges of adjacent levels
    Mutant(
        POLY,
        "for k in range(1, pi.r):",
        "for k in range(1, pi.r - 1):",
        "check_polytope_faces: the merge of the last two levels never compared",
        "tests/test_polytopes.py::TestFaceSweep::test_coarsenings_compared_along_single_merges",
    ),
    Mutant(
        POLY,
        "merged = tuple(n - (n > k) for n in pi.levels)",
        "merged = tuple(n - (n > k + 1) for n in pi.levels)",
        "check_polytope_faces: levels k + 1 and k + 2 merged, not k and k + 1",
        "tests/test_polytopes.py::TestFaceSweep::test_coarsenings_compared_along_single_merges",
    ),
    Mutant(
        DEG,
        "self.oracle_matches is True",
        "self.oracle_matches is not False",
        "DegenerationReport.ok: an oracle that did not run counts as passed",
        "tests/test_degeneration.py::TestCheckDegeneration::"
        "test_oracle_not_run_is_not_reported_as_passed",
    ),
    # -- each key of _expect_failures, left unchecked
    Mutant(
        VER,
        'check("genus", flag.counts.genus, expect["genus"])',
        "pass",
        "_expect_failures: genus unchecked",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[genus]",
    ),
    Mutant(
        VER,
        'check("components", flag.counts.components, expect["components"])',
        "pass",
        "_expect_failures: components unchecked",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[components]",
    ),
    Mutant(
        VER,
        'check("flag dims", list(flag.dims), list(expect["flag_dims"]))',
        "pass",
        "_expect_failures: flag dims unchecked",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[flag_dims]",
    ),
    Mutant(
        VER,
        'check("summit counts", got, list(expect["summits"]))',
        "pass",
        "_expect_failures: summit counts unchecked",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[summits]",
    ),
    Mutant(
        VER,
        'check(f"level {key} {field_name}", got.get(field_name), want_value)',
        "pass",
        "_expect_failures: per-level fields unchecked",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[levels]",
    ),
    Mutant(
        VER,
        'check(f"global condition {label}", got, sorted(item["arrows"]))',
        "pass",
        "_expect_failures: the arrows of a generated global row unchecked",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[global_conditions]",
    ),
    Mutant(
        VER,
        '"one-level polytope vertex count",\n            len(reference.vertices),',
        '"one-level polytope vertex count",\n            expect["polytope_vertex_count"],',
        "_expect_failures: the vertex count compared with itself",
        "tests/test_cli.py::TestVerify::test_expect_key_fails_alone[polytope_vertex_count]",
    ),
    # -- arrow classification, against the endpoint-level reference
    Mutant(
        GRAPHS,
        "lu, lv = level[index[u]], level[index[v]]",
        "lu, lv = level[index[v]], level[index[u]]",
        "classify_arrows: upward and downward swapped",
        "tests/test_graphs.py::TestClassification::test_agrees_with_the_endpoint_levels",
    ),
    # -- the one builder of per-level facts, read off arrow masks
    Mutant(
        RES,
        "out & ~into_upto,",
        "out & ~into_below,",
        "_level_pair: horizontal arrows counted and imposed as downward",
        "tests/test_residues.py::TestMaskModelAgainstReference::test_every_partition_of_random_graphs",
    ),
    Mutant(
        RES,
        "horizontal.bit_count() // 2,",
        "horizontal.bit_count(),",
        "LevelPair.terms: each horizontal edge counted once per arrow",
        "tests/test_residues.py::TestMaskModelAgainstReference::test_every_partition_of_random_graphs",
    ),
    Mutant(
        RES,
        "if arrows_from(comp) & into_below:",
        "if arrows_from(comp) & into_upto:",
        "_level_pair: a level component with an edge inside it is no summit",
        "tests/test_residues.py::TestMaskModelAgainstReference::test_every_partition_of_random_graphs",
    ),
    Mutant(
        RES,
        "if not here:\n            continue",
        "if False:\n            continue",
        "_pair_relations: components of V<=n that miss level n checked too (equivalent"
        " in verdict: their collections are empty, so only the call count shows it)",
        "tests/test_residues.py::TestMaskModelAgainstReference::"
        "test_one_relation_check_per_level_and_meeting_component",
    ),
    # -- back-substitution on the one sparse echelon, and what is read off it
    Mutant(
        LIN,
        "if row[pivot] < 0:",
        "if False:",
        "_reduced: a row with a negative pivot entry left unflipped",
        "tests/test_linalg.py::TestSubspace::test_rows_are_scaled_rref_rows",
    ),
    Mutant(
        LIN,
        "later = [c for c in rest if c in done]",
        "later = [c for c in rest if c in done][1:]",
        "_reduced: the first later pivot of a row left uncleared",
        "tests/test_linalg.py::TestRref::test_matches_reference_rref",
    ),
    Mutant(
        LIN,
        "row = {k: a * p for k, a in row.items()}",
        "row = dict(row)",
        "_reduced: the row is not multiplied by the later pivot's entry",
        "tests/test_linalg.py::TestRref::test_matches_reference_rref",
    ),
    Mutant(
        LIN,
        "g = gcd(*row.values()) if later else 1",
        "g = 1",
        "_reduced: a cleared row is not divided by its content",
        "tests/test_linalg.py::TestSubspace::test_rows_are_scaled_rref_rows",
    ),
    Mutant(
        LIN,
        "vectors[c][pivot] = -a * m",
        "vectors[c][pivot] = a * m",
        "_kernel_basis: the pivot coordinate of each kernel vector has the wrong sign",
        "tests/test_linalg.py::TestKernel::test_kernel_vectors_annihilate",
    ),
    Mutant(
        LIN,
        "if lead >= width",
        "if lead > width",
        "kernel_of_projection: a vanishing row whose lowest column is 0 dropped",
        "tests/test_linalg.py::TestSubspace::test_kernel_of_projection_matches_rational_route",
    ),
    # -- the flag realization walked from one weighting
    Mutant(
        DEG,
        "step = kernel_of_projection(step, block)",
        "step = step",
        "flag_and_realization: the descending kernel step skipped, every step the whole space",
        "tests/test_degeneration.py::TestFlagAndRealization::"
        "test_flag_steps_match_kernels_of_the_whole_space",
    ),
    Mutant(
        DEG,
        "{c: row[c] for c in block if row[c]}",
        "{c: a for c, a in enumerate(row) if a}",
        "flag_and_realization: a step's row restricted to every coordinate, not to its block",
        "tests/test_degeneration.py::TestFlagAndRealization::test_two_block_example",
    ),
    Mutant(
        DEG,
        "for w in sorted(blocks, reverse=True):",
        "for w in sorted(blocks):",
        "flag_and_realization: the weights walked ascending",
        "tests/test_degeneration.py::TestFlagAndRealization::"
        "test_flag_steps_match_kernels_of_the_whole_space",
    ),
    Mutant(
        GRAPHS,
        "m + 1 if m >= n else m",
        "m + 1 if m > n else m",
        "_level_tuples: a new level n leaves the old level n where it was",
        "tests/test_graphs.py::TestEnumeration::test_order_matches_reference",
    ),
    Mutant(
        LIN,
        "                union2 |= group[1]\n",
        "",
        "_closed_components: a merged group drops its earlier second-collection supports",
        "tests/test_linalg.py::TestSetTheoreticChecks::test_matches_brute_force_on_random_collections",
    ),
    # -- the face sweep's rows-only key, one level at a time
    Mutant(
        RES,
        "row = out_arrows[i] & into_upto",
        "row = out_arrows[i] & arrows_into(prefix)",
        "level_rows: local rows read against V<n, not V<=n",
        "tests/test_polytopes.py::TestFaceSweep::test_level_row_sets_match_the_model",
    ),
    Mutant(
        RES,
        "for c in graph.mask_components(prefix) if c & reach]",
        "for c in graph.mask_components(prefix | mask) if c & reach]",
        "level_rows: global rows over the components of V<=n, not V<n",
        "tests/test_polytopes.py::TestFaceSweep::test_level_row_sets_match_the_model",
    ),
    Mutant(
        POLY,
        "pairs.append((mask, level_sets[mask, prefix]))",
        "pairs.append((mask, level_sets.setdefault((mask, 0), level_sets.fill((mask, prefix)))))",
        "_sweep_table: level row sets memoised by the level mask alone",
        "tests/test_polytopes.py::TestFaceSweep::test_level_row_sets_match_the_model",
    ),
    Mutant(
        RES,
        "rows = [1 << a for a in bits(out & ~into_upto)]",
        "rows = [1 << a for a in bits(out & ~arrows_into(prefix))]",
        "level_rows: downward rows read against V<n, not V<=n",
        "tests/test_polytopes.py::TestFaceSweep::test_level_row_sets_match_the_model",
    ),
    # -- the face sweep's tables summed over level tables
    Mutant(
        POLY,
        "spreads = [level_tables[pair] for pair in pairs]",
        "spreads = [level_tables.setdefault(pair[0], level_tables.fill(pair)) for pair in pairs]",
        "_sweep_table: level tables memoised by the level mask alone, not by (mask, row set)",
        "tests/test_polytopes.py::TestFaceSweep::test_summed_tables_match_the_whole_space_tables",
    ),
    Mutant(
        POLY,
        "return [at[subset & mask] for subset in range(len(at))]",
        "return [at[subset] for subset in range(len(at))]",
        "_level_table: the spread reads the level table at I, not at I & L",
        "tests/test_polytopes.py::TestFaceSweep::test_summed_tables_match_the_whole_space_tables",
    ),
    # -- the merged check of a component inside its level
    Mutant(
        RES,
        "if comp == here:",
        "if False:",
        "_pair_relations: a component inside level n checked again, not read off its level"
        " component (equivalent in verdict: the check is symmetric, so only the failure texts"
        " under a wrong level verdict and the call count show it)",
        "tests/test_residues.py::TestFaultInjection::"
        "test_summit_component_reads_its_level_verdict[not-independent]",
    ),
    Mutant(
        RES,
        "if comp == here:\n            verdict = verdicts[comp]",
        "if here in verdicts:\n            verdict = verdicts[here]",
        "_pair_relations: the level verdict read for every component of V<=n whose level-n"
        " vertices form one level component, its global rows ignored",
        "tests/test_acceptance.py::test_criterion_7_independence_predicates",
    ),
    # -- the per-component collections
    Mutant(
        RES,
        "blocks.append((comp, 0, (), (), ()))",
        "blocks.append((comp, 0, (), _edge_rows(graph.arrows_from(comp) & graph.arrows_into(comp)), ()))",
        "_level_collections: a block with no level-n vertex gets the rosenlicht rows of its own"
        " edges",
        "tests/test_residues.py::TestMaskModelAgainstReference::test_every_partition_of_random_graphs",
    ),
    # -- the residue space from level rows, no model built
    Mutant(
        RES,
        "_insert_masks(echelon, level_rows(graph, mask, prefix))",
        "_insert_masks(echelon, level_rows(graph, mask, 0))",
        "residue_space: the prefix is never advanced, so every level reads V<n as empty",
        "tests/test_residues.py::TestFlag::test_residue_space_matches_the_model",
    ),
    Mutant(
        RES,
        "        _insert_masks(echelon, level_rows(graph, mask, prefix))\n        prefix |= mask\n",
        "        prefix |= mask\n        _insert_masks(echelon, level_rows(graph, mask, prefix))\n",
        "residue_space: the prefix is advanced before the level is read, so V<n holds level n",
        "tests/test_residues.py::TestFlag::test_residue_space_matches_the_model",
    ),
    Mutant(
        RES,
        "    check_same_vertices(graph, levels)\n    echelon = {}\n",
        "    echelon = {}\n",
        "residue_space: a level structure listing the vertices in another order is not rejected",
        "tests/test_residues.py::TestFlag::test_space_routes_reject_a_reordered_vertex_tuple",
    ),
    Mutant(
        POLY,
        "faces |= {mask & face for face in faces}",
        "pass",
        "_face_lattice: the tight sets not closed under intersection",
        "tests/test_polytopes.py::TestFaceSweep::test_k4_full_sweep",
    ),
    Mutant(
        POLY,
        "faces.discard(0)",
        "pass",
        "_face_lattice: the empty intersection kept as a face",
        "tests/test_polytopes.py::TestFaceSweep::test_k4_full_sweep",
    ),
    Mutant(
        POLY,
        "if not all(type(c) is int and 0 <= c < space.ambient_dim for c in flat):",
        "if not all(0 <= c < space.ambient_dim for c in flat):",
        "projection_rank_table: a boolean block coordinate read as 0 or 1",
        "tests/test_polytopes.py::TestProjectionRankTable::test_coordinates_must_be_ints_in_range[boolean]",
    ),
    Mutant(
        LIN,
        "if type(dim) is not int or dim < 0:",
        "if dim < 0:",
        "Subspace, VectorCollection: a bool or float taken as an ambient dimension",
        "tests/test_linalg.py::TestSubspace::test_boolean_ambient_dimension_rejected",
    ),
    # -- the flag sweep by level pairs
    Mutant(
        RES,
        "tuple([out & arrows_into(c) for c in special])",
        "tuple([arrows_from(c) & arrows_into(mask) for c in special])",
        "_level_pair: a global row given to the wrong pair, on the arrows out of its special"
        " component into the level",
        "tests/test_residues.py::TestPairSweep::test_pair_sums_match_one_whole_space_echelon",
    ),
    Mutant(
        RES,
        "key = mask | prefix << k",
        "key = mask",
        "_level_entries: the pair memo keyed by (level mask, 0), blind to the prefix",
        "tests/test_residues.py::TestPairSweep::test_pair_sums_match_one_whole_space_echelon",
    ),
    Mutant(
        RES,
        "if max(map(len, entries)) == _IDENTITY + 1:",
        "if True:",
        "_relation_failures: the failure texts of the entries never read",
        "tests/test_residues.py::TestPairSweep::test_relation_texts_match_the_model",
    ),
    Mutant(
        VER,
        "_component_set_identity_failures(_identity_verdicts(entries))",
        "_component_set_identity_failures([True] * len(entries))",
        "random flag sweep: the entries' component-identity verdicts never read",
        "tests/test_residues.py::TestPairSweep::test_flag_sweep_lists_what_the_model_lists",
    ),
    Mutant(
        LIN,
        "if not all(type(c) is int and 0 <= c < ambient_dim for c in coords):",
        "if not all(0 <= c < ambient_dim for c in coords):",
        "_canonical_coords: a boolean coordinate read as 0 or 1",
        "tests/test_linalg.py::TestSubspace::test_coordinates_must_be_ints_in_range[boolean-project_image]",
    ),
    # -- the face sweep's work once per distinct table
    Mutant(
        POLY,
        "dominated[table.values, coarser_table.values]",
        "dominated.setdefault(table.values, dominated.fill((table.values, coarser_table.values)))",
        "check_polytope_faces: the domination verdict keyed by the finer table alone",
        "tests/test_polytopes.py::TestFaultInjection::"
        "test_memoised_domination_verdict_reports_every_merge",
    ),
    Mutant(
        POLY,
        "if not dominated[table.values, coarser_table.values]:\n                coarsening_ok = False",
        "if (table.values, coarser_table.values) not in dominated"
        " and not dominated[table.values, coarser_table.values]:\n"
        "                coarsening_ok = False",
        "check_polytope_faces: a domination failure reported only by the merge that computes"
        " the verdict",
        "tests/test_polytopes.py::TestFaultInjection::"
        "test_memoised_domination_verdict_reports_every_merge",
    ),
    Mutant(
        POLY,
        "table = row_tables[rows] = tables[tuple(map(sum, zip(*spreads)))]",
        "values = tuple(map(sum, zip(*spreads)))\n"
        "        table = row_tables[rows] = tables.setdefault(values[-1], tables.fill(values))",
        "_sweep_table: the guarded tables memoised by the full-set value alone, not by every"
        " value",
        "tests/test_polytopes.py::TestFaceSweep::test_summed_tables_match_the_whole_space_tables",
    ),
    Mutant(
        GRAPHS,
        'if "levels" not in document:',
        'if document.get("levels") is None:',
        'load_level_graph: a null "levels" read as the one-level structure',
        "tests/test_cli.py::TestErrors::test_null_levels_exit_2[info]",
    ),
)


def occurs_once(mutant):
    """Whether the mutant's old text occurs exactly once in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old) == 1


def _first_failure(output):
    """The id of the first failing or erroring test in pytest's summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return ""


def env():
    """The environment the suite runs in: ``src`` first on the path."""
    out = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", out.get("PYTHONPATH")]))
    return out


def _pytest(tree, args):
    """Run pytest with `args` in `tree`: (passed, seconds, first failure)."""
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, *args],
            cwd=tree,
            env=env(),
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start, f"timeout after {TIME_LIMIT_S} s"
    return done.returncode == 0, time.monotonic() - start, _first_failure(done.stdout)


def _verdict(tree, mutant):
    """(killed, seconds, failing test) of the mutated `tree`: the named
    killer alone first, the whole suite only when it passes or names no
    failing test (when it was not collected, say)."""
    _, seconds, failure = _pytest(tree, [*PYTEST, mutant.killer])
    if failure:
        return True, seconds, failure
    passed, more, failure = _pytest(tree, SUITE)
    return not passed, seconds + more, failure


def main(argv):
    if argv == ["--list"]:
        for number, mutant in enumerate(CATALOGUE):
            print(f"{number:3d}  {mutant.path}: {mutant.note}")
        return 0
    chosen = [int(a) for a in argv] if argv else range(len(CATALOGUE))
    stale = [n for n in chosen if not occurs_once(CATALOGUE[n])]
    if stale:
        print(f"stale entries {stale}: old text not found exactly once", file=sys.stderr)
        return 2
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".perfbench", "*.egg-info"
            ),
        )
        passed, seconds, failure = _pytest(tree, SUITE)
        if not passed:
            print(f"the unmutated suite fails ({failure}); no mutant run", file=sys.stderr)
            return 2
        print(f"unmutated suite passes in {seconds:.0f} s", flush=True)
        killers = sorted({CATALOGUE[n].killer for n in chosen})
        passed, seconds, failure = _pytest(tree, [*PYTEST, *killers])
        if not passed:
            print(f"a killer fails unmutated ({failure}); no mutant run", file=sys.stderr)
            return 2
        print(f"the {len(killers)} killers pass unmutated in {seconds:.0f} s", flush=True)
        survivors = 0
        for number in chosen:
            mutant = CATALOGUE[number]
            path = tree / mutant.path
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                killed, seconds, failure = _verdict(tree, mutant)
            finally:
                path.write_text(original)
            verdict = "killed" if killed else "SURVIVED"
            survivors += not killed
            if killed and failure != mutant.killer:
                failure += "  (new killer)"
            print(f"{number:3d}  {verdict:8s} {seconds:5.0f} s  {mutant.note}  {failure}", flush=True)
    print(
        f"{len(chosen) - survivors} of {len(chosen)} killed "
        f"in {time.monotonic() - start:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
