"""Mutation catalogue for resipoly: hand-made faults the tier-1 suite must catch.

Each entry of :data:`CATALOGUE` is one mutant: a file relative to the
repository root, an ``old`` text that occurs exactly once in it, the
``new`` text that replaces it, and a note on the fault.
``tests/test_mutants.py`` checks that every ``old`` text still occurs
exactly once, so the catalogue fails fast when ``src/`` drifts from it.

Run from anywhere, standard library only::

    python tools/mutants.py            # every mutant, one at a time
    python tools/mutants.py 3 17       # only these entries, by number
    python tools/mutants.py --list     # the number and note of each entry

The runner copies the tree to a temporary directory (under ``TMPDIR``
when it is set) once and runs the tier-1 suite there unmutated, without
``tests/test_mutants.py``, which fails on any mutated tree.  Then, one
mutant at a time and never in parallel, it writes the mutated file, runs
the suite with ``-x`` and restores the file.  A mutant is killed when the
suite fails (or runs past the time limit) and survives when it passes; the
first failing test is reported.  The exit status is 1 when a mutant
survives.  A full run takes about 25 minutes on 2 vCPUs, most mutants
dying within 40 s.  The target is no survivors: an equivalent mutant is
argued in its note, never dropped, and no check is loosened to kill one.
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
# tier-1 minus the catalogue's own sync test, which fails on every mutant
SUITE = [
    "-m",
    "pytest",
    "-q",
    "-x",
    "-p",
    "no:cacheprovider",
    "--continue-on-collection-errors",
    "--ignore=tests/test_mutants.py",
]
TIME_LIMIT_S = 900


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    note: str


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
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("basis rows were dependent")',
        "pass",
        "initial_space_limit: dependent-basis guard off",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("limit changed the dimension")',
        "pass",
        "initial_space_limit: limit dimension guard off",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("greedy anchor minor is zero")',
        "pass",
        "plucker_limit_oracle: zero anchor minor guard off",
    ),
    Mutant(
        DEG,
        'raise InvariantViolation("decoded limit has the wrong dimension")',
        "pass",
        "plucker_limit_oracle: decoded dimension guard off",
    ),
    Mutant(
        POLY,
        'raise InvariantViolation("projection table violates its invariants")',
        "pass",
        "projection_rank_table: table invariant guard off",
    ),
    Mutant(
        POLY,
        'raise InvariantViolation("base polytope of a non-submodular table")',
        "pass",
        "base_polytope: submodularity precondition off",
    ),
    Mutant(
        POLY,
        'raise InvariantViolation("greedy point violates the subset inequalities")',
        "pass",
        "base_polytope: greedy point re-check off",
    ),
    Mutant(
        POLY,
        "if argmax != tight:",
        "if False:",
        "chain_face: argmax cross-check off (its InvariantViolation site)",
    ),
    # -- verdict branches of relation_failures and the component checks
    Mutant(
        RES,
        'failures.append(f"level {n} component {names(comp)}: not properly unrelated")',
        "pass",
        "relation_failures: level component 'not properly unrelated' branch off",
    ),
    Mutant(
        RES,
        "if report.related != (comp in reducible):",
        "if False:",
        "relation_failures: level component relatedness-vs-reducible branch off",
    ),
    Mutant(
        RES,
        "\n            if not report.properly_unrelated:",
        "\n            if False:",
        "relation_failures: merged component 'not properly unrelated' branch off",
    ),
    Mutant(
        RES,
        "if report.related != nonempty:",
        "if False:",
        "relation_failures: merged component relatedness-vs-nonempty branch off",
    ),
    Mutant(
        RES,
        "\n            and sum(b.codim_global for b in blocks) == up - res",
        "",
        "component_report: codim_global total left out of the consistency check",
    ),
    Mutant(
        RES,
        "sum(b.block_dim for b in blocks) == up\n            and ",
        "",
        "component_report: block_dim total left out of the consistency check",
    ),
    Mutant(
        RES,
        "\n            and sum(b.codim_local for b in blocks) == up - local",
        "",
        "component_report: codim_local total left out of the consistency check",
    ),
    Mutant(
        RES,
        "\n            and sum(b.codim_rosenlicht for b in blocks) == up - ros",
        "",
        "component_report: codim_rosenlicht total left out of the consistency check",
    ),
    Mutant(
        RES,
        "ok = self.spaces[bigger].contains(self.spaces[smaller])",
        "ok = True",
        "ResidueFlag.inclusions: flag containment off",
    ),
    Mutant(
        VER,
        "if lhs != rhs:",
        "if False:",
        "verify: component-set identity off",
    ),
    # -- owners derived from a row's lowest arrow
    Mutant(
        RES,
        "return n, next(c for c in self.masks[n].special if c & head)",
        "return n, self.masks[n].special[0]",
        "LevelGraph.owner: a global row gets its level's first special component",
    ),
    Mutant(
        RES,
        "            return tail\n",
        "            return graph.index[arrow.head]\n",
        "LevelGraph.owner: a local row is owned by its lowest arrow's head",
    ),
    # -- verdict branches of check_polytope_faces
    Mutant(
        POLY,
        "containment_ok = False",
        "pass",
        "check_polytope_faces: one-level containment off",
    ),
    Mutant(
        POLY,
        "if not feasible:",
        "if False:",
        "check_polytope_faces: per-partition chain match off",
    ),
    Mutant(
        POLY,
        '        orientation = "none"\n        chain_match_ok = False\n',
        '        orientation = "none"\n',
        "check_polytope_faces: no consistent orientation no longer fails the chain match",
    ),
    Mutant(
        POLY,
        "if not set(face) <= set(coarser_face):",
        "if False:",
        "check_polytope_faces: coarsening vertex containment off",
    ),
    Mutant(
        POLY,
        "if any(map(gt, table.values, coarser_table.values)):",
        "if False:",
        "check_polytope_faces: coarsening table domination off",
    ),
    Mutant(
        POLY,
        "cover_ok = {upper for _, _, _, upper in entries.values()} == realized",
        "cover_ok = True",
        "check_polytope_faces: cover check off",
    ),
    Mutant(
        POLY,
        '"lower": entries[reversed_levels][3]',
        '"lower": upper',
        "check_polytope_faces: lower face read from the partition itself, not its reversal",
    ),
    # -- verdict branches of check_degeneration
    Mutant(
        DEG,
        "limit_matches=limit == fine_space,",
        "limit_matches=True,",
        "check_degeneration: leading-form limit verdict always true",
    ),
    Mutant(
        DEG,
        "realization_matches=realization == fine_space,",
        "realization_matches=True,",
        "check_degeneration: realization verdict always true",
    ),
    Mutant(
        DEG,
        "splitting_matches=split == fine_table,",
        "splitting_matches=True,",
        "check_degeneration: splitting verdict always true",
    ),
    Mutant(
        DEG,
        "oracle_matches = plucker_limit_oracle(laurent) == limit",
        "oracle_matches = True",
        "check_degeneration: oracle verdict always true",
    ),
    Mutant(
        DEG,
        "\n            and self.oracle_matches is not False",
        "",
        "DegenerationReport.ok: a failed oracle no longer fails the report",
    ),
    # -- leading-form limit as one weight-ordered echelon
    Mutant(
        DEG,
        "order = sorted(range(width), key=lambda j: (-weights[j], j))",
        "order = sorted(range(width), key=lambda j: (weights[j], j))",
        "initial_space_limit: coordinates sorted by weight ascending",
    ),
    Mutant(
        DEG,
        "if weights[j] == top:",
        "if True:",
        "initial_space_limit: leading form keeps every coordinate (weight filter dropped)",
    ),
    Mutant(
        DEG,
        "top = weights[order[pivot]]",
        "top = weights[pivot]",
        "initial_space_limit: pivot weight read at the unpermuted index",
    ),
    # -- polytope-layer kernels and checks
    Mutant(
        POLY,
        "any(map(gt, sums, values))",
        "any(s > v + 1 for s, v in zip(sums, values))",
        "base_polytope: greedy re-check relaxed by 1",
    ),
    Mutant(
        POLY,
        " or sums[full] != values[full]",
        "",
        "base_polytope: greedy re-check without the ground-set equality",
    ),
    Mutant(
        POLY,
        "for t in range(i, n - 1):",
        "for t in range(i + 1, n - 1):",
        "is_submodular: the nearest higher element skipped",
    ),
    Mutant(
        POLY,
        "if not all(map(ge, lower, upper)):",
        "if not all(map(ge, upper, lower)):",
        "is_submodular: marginal comparison reversed",
    ),
    Mutant(
        POLY,
        "for i in range(self.n)\n",
        "for i in range(self.n - 1)\n",
        "is_nondecreasing: the last element skipped",
    ),
    Mutant(
        POLY,
        "out[r::step] = map(",
        "out[r * len(out) // step : (r + 1) * len(out) // step] = map(",
        "_marginals: strided marginals stored in blocks, not interleaved at stride step",
    ),
    Mutant(
        POLY,
        "child = list(echelon)",
        "child = echelon",
        "projection_rank_table: children share their parent's echelon",
    ),
    Mutant(
        POLY,
        "values[mask :: 1 << start] = [dim] * (1 << (n - start))",
        "values[mask] = dim",
        "projection_rank_table: full-rank subtree fill dropped",
    ),
    Mutant(
        POLY,
        "if state not in seen:",
        "if all(m != state[0] for m, _ in seen):",
        "base_polytope: prefix walk pruned by prefix mask alone",
    ),
    Mutant(
        POLY,
        "itertools.accumulate(top_down, or_, initial=0)",
        "itertools.accumulate(top_down, or_)",
        "splitting: U_n includes level n",
    ),
    # -- input contract
    Mutant(
        GRAPHS,
        "if not isinstance(w, str) or w not in index:",
        "if w not in index:",
        "Multigraph: edge endpoint type test dropped",
    ),
    Mutant(
        VER,
        'if not item["component"]:',
        "if False:",
        "_check_expect: empty global-condition component accepted",
    ),
    Mutant(
        VER,
        "if label not in arrow_labels:",
        "if False:",
        "_check_expect: unknown arrow label accepted",
    ),
    Mutant(
        VER,
        "if not 1 <= int(level) <= levels.r:",
        "if False:",
        "_check_expect: expect level key outside 1..r accepted",
    ),
    # -- each identity of flag_identities, one side off by one
    Mutant(
        RES,
        "2 * counts.edges - counts.vertical_edges,",
        "2 * counts.edges - counts.vertical_edges + 1,",
        "flag_identities: downward dimension off by one",
    ),
    Mutant(
        RES,
        "counts.vertices - counts.summits_irreducible,",
        "counts.vertices - counts.summits_irreducible + 1,",
        "flag_identities: local codimension off by one",
    ),
    Mutant(
        RES,
        "counts.horizontal_edges - counts.summits_reducible,",
        "counts.horizontal_edges - counts.summits_reducible + 1,",
        "flag_identities: rosenlicht codimension off by one",
    ),
    Mutant(
        RES,
        "counts.summits - counts.components)",
        "counts.summits - counts.components + 1)",
        "flag_identities: global codimension off by one",
    ),
    Mutant(
        RES,
        "counts.edges - counts.vertices + counts.components,",
        "counts.edges - counts.vertices + counts.components + 1,",
        "flag_identities: residue dimension off by one",
    ),
    # -- vertex-mask tables, level-component groups and the sparse echelon
    Mutant(
        LIN,
        "row = {c: a * y for c, a in row.items()}",
        "row = dict(row)",
        "_sparse_insert: the row is not multiplied by the pivot's entry",
    ),
    Mutant(
        GRAPHS,
        "value = table.get(mask)",
        "value = table.get(mask & -mask)",
        "_tabled: vertex-mask tables read at the mask's lowest bit",
    ),
    Mutant(
        RES,
        "group = self._rows_within(here)",
        "group = groups[next(c for c in at.components if c & here)]",
        "blocks: a block over several level components reuses the first one's group",
    ),
    # -- the fixed size bounds, each one vertex too strict
    Mutant(
        POLY,
        "if len(graph.vertices) > TABLE_BOUND:",
        "if len(graph.vertices) >= TABLE_BOUND:",
        "_check_table_bound: a graph at the table bound rejected",
    ),
    Mutant(
        POLY,
        "if n > POLYTOPE_BOUND:",
        "if n >= POLYTOPE_BOUND:",
        "base_polytope: a table at the polytope bound rejected",
    ),
    Mutant(
        POLY,
        "if len(graph.vertices) > FACE_SWEEP_BOUND:",
        "if len(graph.vertices) >= FACE_SWEEP_BOUND:",
        "check_polytope_faces: a graph at the face-sweep bound rejected",
    ),
    Mutant(
        GRAPHS,
        "if len(vertices) > ENUMERATION_BOUND:",
        "if len(vertices) >= ENUMERATION_BOUND:",
        "ordered_partitions: a vertex tuple at the enumeration bound rejected",
    ),
    Mutant(
        VER,
        "if len(graph.vertices) <= FACE_SWEEP_BOUND:",
        "if len(graph.vertices) < FACE_SWEEP_BOUND:",
        "verify_document: no face sweep for a fixture at the face-sweep bound",
    ),
    Mutant(
        VER,
        "len(graph.vertices) <= POLYTOPE_BOUND:",
        "len(graph.vertices) < POLYTOPE_BOUND:",
        "_expect_failures: no vertex count for a fixture at the polytope bound",
    ),
    # -- each term of the `dims` verdict
    Mutant(
        CLI,
        'all(item["ok"] for item in identities)\n        and ',
        "",
        "cmd_dims: identities left out of ok",
    ),
    Mutant(
        CLI,
        '\n        and all(item["ok"] for item in payload["inclusions"])',
        "",
        "cmd_dims: inclusions left out of ok",
    ),
    Mutant(
        CLI,
        "\n        and report.totals_consistent\n    )",
        "\n    )",
        "cmd_dims: component totals left out of ok",
    ),
    # -- each term of verify_document's verdict
    Mutant(
        VER,
        "all(c.ok for c in identities)\n        and ",
        "",
        "verify_document: identities left out of ok",
    ),
    Mutant(
        VER,
        "\n        and all(x for _, x in inclusions)",
        "",
        "verify_document: inclusions left out of ok",
    ),
    Mutant(
        VER,
        "\n        and report.totals_consistent",
        "",
        "verify_document: component totals left out of ok",
    ),
    Mutant(
        VER,
        "\n        and not relation_failures",
        "",
        "verify_document: relation failures left out of ok",
    ),
    Mutant(
        VER,
        "\n        and not identity_failures",
        "",
        "verify_document: component identity failures left out of ok",
    ),
    Mutant(
        VER,
        "\n        and not expect_failures",
        "",
        "verify_document: expect failures left out of ok",
    ),
    Mutant(
        VER,
        '\n        and (section["faces"] is None or section["faces"]["ok"])',
        "",
        "verify_document: the face sweep left out of ok",
    ),
    Mutant(
        VER,
        'd["limit_ok"] and ',
        "",
        "verify_document: degeneration limit left out of ok",
    ),
    Mutant(
        VER,
        'and d["realization_ok"] ',
        "",
        "verify_document: degeneration realization left out of ok",
    ),
    Mutant(
        VER,
        'and d["splitting_ok"] ',
        "",
        "verify_document: degeneration splitting left out of ok",
    ),
    Mutant(
        VER,
        ' and d["oracle_ok"]',
        "",
        "verify_document: degeneration oracle left out of ok",
    ),
)


def occurs_once(mutant):
    """Whether the mutant's old text occurs exactly once in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old) == 1


def _first_failure(output):
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return ""


def _suite(tree):
    """Run the tier-1 suite in `tree`: (passed, seconds, first failure)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, *SUITE],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start, f"timeout after {TIME_LIMIT_S} s"
    return done.returncode == 0, time.monotonic() - start, _first_failure(done.stdout)


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
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".perfbench", "*.egg-info"
            ),
        )
        passed, seconds, failure = _suite(tree)
        if not passed:
            print(f"the unmutated suite fails ({failure}); no mutant run", file=sys.stderr)
            return 2
        print(f"unmutated suite passes in {seconds:.0f} s", flush=True)
        survivors = 0
        for number in chosen:
            mutant = CATALOGUE[number]
            path = tree / mutant.path
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                passed, seconds, failure = _suite(tree)
            finally:
                path.write_text(original)
            verdict = "SURVIVED" if passed else "killed"
            survivors += passed
            print(f"{number:3d}  {verdict:8s} {seconds:5.0f} s  {mutant.note}  {failure}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
