import dataclasses
import itertools
import json
import random
from fractions import Fraction
from functools import cached_property
from operator import or_
from typing import NamedTuple

import pytest

from resipoly import fixtures
from resipoly.graphs import (
    GraphDocumentError,
    LevelStructure,
    load_level_graph,
    ordered_partitions,
)
from resipoly.linalg import SetTheoreticReport, Subspace, det, to_fraction
from resipoly.polytopes import (
    BasePolytope,
    FaceReport,
    InvariantViolation,
    SetFunction,
    base_polytope,
    residue_projection_table,
)


# the triangular prism: two triangles v1v2v3 and v4v5v6 joined by three edges
PRISM = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6"],
    "edges": [
        ["v1", "v2"], ["v2", "v3"], ["v1", "v3"],
        ["v4", "v5"], ["v5", "v6"], ["v4", "v6"],
        ["v1", "v4"], ["v2", "v5"], ["v3", "v6"],
    ],
}


def load_fixture(name):
    """(Multigraph, LevelStructure, expect-dict) for a named shipped fixture."""
    doc = fixtures.document(name)
    graph, levels = load_level_graph(doc)
    return graph, levels, doc.get("expect", {})


@pytest.fixture(scope="session")
def fig1():
    return load_fixture("fig1")


@pytest.fixture(scope="session")
def fig2():
    return load_fixture("fig2")


@pytest.fixture(scope="session")
def k4():
    return load_fixture("k4")


@pytest.fixture(scope="session")
def c3():
    return load_fixture("c3")


@pytest.fixture(scope="session")
def loop1():
    return load_fixture("loop1")


def fig1_degenerate_argv(tmp_path):
    """The argv of `resipoly degenerate` from fig1's one-level graph to its
    levels, with both documents written under `tmp_path`."""
    coarse = fixtures.document("fig1")
    fine_levels = coarse.pop("levels")
    graph_path = tmp_path / "coarse.json"
    graph_path.write_text(json.dumps(coarse))
    fine_path = tmp_path / "fine.json"
    fine_path.write_text(json.dumps({"levels": fine_levels}))
    return ["degenerate", "--input", str(graph_path), "--fine", str(fine_path)]


def rng(seed):
    return random.Random(seed)


def fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def reference_rank(rows):
    """Plain rational Gaussian elimination, independent of the package's
    integer echelon path."""
    mat = fraction_rows(rows)
    if not mat:
        return 0
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def reference_rref(rows, num_cols):
    """Reduced row echelon form of a list of Fraction rows, by plain rational
    Gauss-Jordan elimination, independent of the package's integer path.

    Returns ``(rows, pivots)`` with zero rows dropped.  The output is the
    unique RREF of the row space.
    """
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    nrows = len(mat)
    for c in range(num_cols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        lead = mat[r][c]
        if lead != 1:
            inv = Fraction(1) / lead
            mat[r] = [x * inv for x in mat[r]]
        row_r = mat[r]
        for i in range(nrows):
            if i != r:
                f = mat[i][c]
                if f:
                    mat[i] = [a - f * b for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def reference_plucker_oracle(laurent):
    """Limit subspace of a ``LaurentSubspace`` from all C(n, m) maximal
    minors, with no size bound.

    Every nonzero minor is stored with its weight sum; those of the largest
    weight survive, and the limit is decoded from the lexicographically
    first of them: row k holds the anchor minor at the k-th anchor column
    and, at each other column j, plus or minus the surviving minor with j in
    place of that column.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    m = space.dim
    ambient = space.ambient_dim
    if m == 0:
        return space
    basis = space.rows
    minors = {}
    best = None
    for cols in itertools.combinations(range(ambient), m):
        value = det([[row[c] for c in cols] for row in basis]).numerator
        if value:
            weight = sum(weights[c] for c in cols)
            minors[cols] = (weight, value)
            if best is None or weight > best:
                best = weight
    support = sorted(cols for cols, (w, _) in minors.items() if w == best)
    anchor = support[0]
    anchor_value = minors[anchor][1]

    def plucker(cols):
        entry = minors.get(cols)
        if entry is None or entry[0] != best:
            return 0
        return entry[1]

    anchor_set = set(anchor)
    rows = []
    for k, s in enumerate(anchor):
        row = [0] * ambient
        row[s] = anchor_value
        for j in range(ambient):
            if j in anchor_set:
                continue
            cols = tuple(sorted((anchor_set - {s}) | {j}))
            position = cols.index(j) + 1
            sign = -1 if (k + 1 + position) % 2 else 1
            row[j] = sign * plucker(cols)
        rows.append(row)
    return Subspace(ambient, rows)


def _leading_form(row, weights):
    support = [j for j, x in enumerate(row) if x]
    top = max(weights[j] for j in support)
    return top, tuple(x if weights[j] == top else 0 for j, x in enumerate(row))


def reference_initial_space_limit(laurent):
    """Limit subspace of a ``LaurentSubspace`` via leading forms, by plain
    rational elimination, independent of the package's weight-ordered
    integer echelon.

    Leading forms of distinct weights live on disjoint coordinate sets, so
    any dependency happens within one weight; replacing one participating
    row by the dependent combination strictly lowers its leading weight, and
    the process terminates with as many independent leading forms as the
    input dimension.
    """
    space = laurent.space
    weights = laurent.coordinate_weights
    if space.dim == 0:
        return space
    width = space.ambient_dim
    rows = [list(row) for row in space.rows]
    while True:
        leads = [_leading_form(row, weights) for row in rows]
        by_weight = {}
        for idx, (top, _) in enumerate(leads):
            by_weight.setdefault(top, []).append(idx)
        replacement = None
        for top in sorted(by_weight, reverse=True):
            group = by_weight[top]
            pivots = []  # (column, lead vector, multipliers over row indices)
            for idx in group:
                vec = list(leads[idx][1])
                mult = {idx: Fraction(1)}
                for col, pvec, pmult in pivots:
                    f = vec[col]
                    if f:
                        vec = [a - f * b for a, b in zip(vec, pvec)]
                        for k, c in pmult.items():
                            mult[k] = mult.get(k, Fraction(0)) - f * c
                lead_col = next((j for j, a in enumerate(vec) if a), None)
                if lead_col is None:
                    # dependent leading forms: the same combination of full
                    # rows drops strictly below this weight
                    new_row = [Fraction(0)] * width
                    for k, c in mult.items():
                        if c:
                            new_row = [a + c * b for a, b in zip(new_row, rows[k])]
                    if not any(new_row):
                        raise InvariantViolation("basis rows were dependent")
                    replacement = (idx, new_row)
                    break
                inv = Fraction(1) / vec[lead_col]
                vec = [a * inv for a in vec]
                mult = {k: c * inv for k, c in mult.items()}
                pivots.append((lead_col, vec, mult))
            if replacement:
                break
        if replacement is None:
            limit = Subspace(width, [lead for _, lead in leads])
            if limit.dim != space.dim:
                raise InvariantViolation("limit changed the dimension")
            return limit
        idx, new_row = replacement
        rows[idx] = new_row


def reference_is_submodular(table):
    """The pairwise subset inequalities one at a time, as diminishing
    marginal returns: the previous body of `SetFunction.is_submodular`."""
    if not table.is_zero_at_empty():
        return False
    n = table.n
    for mask in range(1 << n):
        outside = [i for i in range(n) if not mask >> i & 1]
        for x in range(len(outside)):
            a = 1 << outside[x]
            for y in range(x + 1, len(outside)):
                b = 1 << outside[y]
                if (
                    table.values[mask | a] + table.values[mask | b]
                    < table.values[mask | a | b] + table.values[mask]
                ):
                    return False
    return True


def reference_is_nondecreasing(table):
    """The previous body of `SetFunction.is_nondecreasing`."""
    n = table.n
    return all(
        table.values[mask | (1 << i)] >= table.values[mask]
        for mask in range(1 << n)
        for i in range(n)
        if not mask >> i & 1
    )


def reference_projection_rank_table(space, ground, blocks):
    """The rank of the basis rows sliced to each subset's columns, by
    `reference_rank`'s rational Gauss elimination, one subset at a time."""
    ground = tuple(ground)
    blocks = [tuple(b) for b in blocks]
    if len(blocks) != len(ground):
        raise ValueError("one coordinate block per ground element required")
    flat = [c for b in blocks for c in b]
    if len(flat) != len(set(flat)):
        raise ValueError("coordinate blocks overlap")
    basis = space.rows
    values = []
    for mask in range((1 << len(ground))):
        cols = [c for i in range(len(ground)) if mask >> i & 1 for c in blocks[i]]
        values.append(reference_rank([[row[c] for c in cols] for row in basis]))
    table = SetFunction(ground, values)
    if not (
        reference_is_submodular(table)
        and table.is_nonnegative()
        and reference_is_nondecreasing(table)
    ):
        raise InvariantViolation("projection table violates its invariants")
    return table


def _point_value(point, mask):
    return sum(x for i, x in enumerate(point) if mask >> i & 1)


def reference_base_polytope(table):
    """The greedy rule over all n! vertex orderings, deduplicated, with each
    point re-checked one subset at a time: the previous body of
    `base_polytope`."""
    n = table.n
    if not reference_is_submodular(table):
        raise InvariantViolation("base polytope of a non-submodular table")
    seen = set()
    for perm in itertools.permutations(range(n)):
        point = [0] * n
        mask = 0
        previous = table.values[0]
        for i in perm:
            mask |= 1 << i
            current = table.values[mask]
            point[i] = current - previous
            previous = current
        seen.add(tuple(point))
    vertices = sorted(seen)
    full = table.full_mask
    for q in vertices:
        for mask in range(full + 1):
            value = _point_value(q, mask)
            if value > table.values[mask] or (mask == full and value != table.values[mask]):
                raise InvariantViolation("greedy point violates the subset inequalities")
    return BasePolytope(table.ground, vertices, table)


def reference_tight(polytope):
    """Each subset's tight set as a vertex mask, read one subset and one
    vertex at a time."""
    return tuple(
        sum(1 << i for i, q in enumerate(polytope.vertices) if _point_value(q, mask) == value)
        for mask, value in enumerate(polytope.table.values)
    )


def adjoint(table):
    """The adjoint I -> f(V) - f(V \\ I); an involution swapping sub- and
    supermodularity, with f* <= f for submodular f."""
    full = table.full_mask
    top = table.values[full]
    return SetFunction(
        table.ground, [top - table.values[full ^ mask] for mask in range(full + 1)]
    )


def reference_splitting(table, levels, kind):
    """The supermodular split along the prefix chain, and the submodular
    one conjugated by the adjoint: the previous body of `splitting`."""
    if kind not in ("supermodular", "submodular"):
        raise ValueError(f"unknown splitting kind {kind!r}")
    if tuple(levels.vertices) != table.ground:
        raise ValueError("ground set does not match the level structure")
    if kind == "submodular":
        return adjoint(reference_splitting(adjoint(table), levels, "supermodular"))
    prefix_masks = list(itertools.accumulate(levels.masks, or_))
    values = []
    for subset in range(1 << table.n):
        total = 0
        previous = 0
        for pm in prefix_masks:
            total += table.values[(subset & pm) | previous] - table.values[previous]
            previous = pm
        values.append(total)
    return SetFunction(table.ground, values)


def reference_chain_face(polytope, levels, orientation):
    """Tightness on the prefix chain against the table (``upper``) or its
    adjoint (``lower``), cross-checked by each orientation's weight argmax:
    the previous body of `chain_face`, with the face as a vertex mask."""
    if orientation not in ("upper", "lower"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if tuple(levels.vertices) != polytope.ground:
        raise ValueError("level structure does not match the polytope ground set")
    table = polytope.table
    bounds = table if orientation == "upper" else adjoint(table)
    prefix_masks = list(itertools.accumulate(levels.masks, or_))
    tight = sum(
        1 << i
        for i, q in enumerate(polytope.vertices)
        if all(_point_value(q, pm) == bounds.values[pm] for pm in prefix_masks)
    )

    if orientation == "upper":
        weight = [levels.r - n for n in levels.levels]
    else:
        weight = levels.levels
    scores = [sum(w * x for w, x in zip(weight, q)) for q in polytope.vertices]
    best = max(scores)
    argmax = sum(1 << i for i, s in enumerate(scores) if s == best)
    if argmax != tight:
        raise InvariantViolation("chain-tight vertices differ from the weight argmax")
    return tight


def reference_face_lattice(tight):
    """The nonempty tight sets, with the nonempty intersection of every two
    of them added until no new set appears."""
    faces = {mask for mask in tight if mask}
    while True:
        more = {a & b for a in faces for b in faces if a & b} - faces
        if not more:
            return faces
        faces |= more


def reference_check_polytope_faces(graph):
    """The face sweep with a fresh table and polytope per partition, no memo,
    every coarsening compared, each lower face read as tightness against
    the adjoint rather than as the reversed partition's face, and the face
    lattice closed from tight sets read one subset at a time."""
    trivial = LevelStructure.trivial(graph.vertices)
    reference = base_polytope(residue_projection_table(graph, trivial))
    locate = {v: 1 << i for i, v in enumerate(reference.vertices)}

    entries = {}
    for pi in ordered_partitions(graph.vertices):
        table = residue_projection_table(graph, pi)
        poly = base_polytope(table)
        face = None
        if all(v in locate for v in poly.vertices):
            face = sum(locate[v] for v in poly.vertices)
        upper = reference_chain_face(reference, pi, "upper")
        lower = reference_chain_face(reference, pi, "lower")
        entries[pi.levels] = (pi, face, table, upper, lower)

    failures = []
    containment_ok = True
    chain_match_ok = True
    chain_faces = []
    for pi, face, _, _, lower in entries.values():
        if face is None:
            containment_ok = False
            failures.append(f"{pi!r}: vertex outside the one-level polytope")
        if face != lower:
            chain_match_ok = False
            failures.append(f"{pi!r}: not its lower chain face")
        chain_faces.append((pi, lower))
    symmetric = all(upper == lower for _, _, _, upper, lower in entries.values())

    coarsening_ok = True
    for pi, face, table, _, _ in entries.values():
        for key in coarsened_levels(pi):
            coarser, coarser_face, coarser_table, _, _ = entries[key]
            if face is None or coarser_face is None:
                continue
            if face & ~coarser_face:
                coarsening_ok = False
                failures.append(f"{pi!r} -> {coarser!r}: vertex set not contained")
            if any(a > b for a, b in zip(table.values, coarser_table.values)):
                coarsening_ok = False
                failures.append(f"{pi!r} -> {coarser!r}: table not dominated")

    realized = {face for _, face, _, _, _ in entries.values() if face is not None}
    lattice_ok = reference_face_lattice(reference_tight(reference)) == realized
    if not lattice_ok:
        failures.append("face lattice and realized faces differ")

    return FaceReport(
        orientation="both" if symmetric else "lower",
        partitions_checked=len(entries),
        distinct_faces=len(realized),
        containment_ok=containment_ok,
        chain_match_ok=chain_match_ok,
        coarsening_ok=coarsening_ok,
        lattice_ok=lattice_ok,
        failures=tuple(failures),
        reference=reference,
        chain_faces=tuple(chain_faces),
    )


def face_report_fields(report):
    """Every field of a `FaceReport`, comparable with ``==``: the reference
    polytope (which compares by identity) as its ground, vertices and table."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    poly = report.reference
    fields["reference"] = (poly.ground, poly.vertices, poly.table)
    return fields


# Helpers that only the tests use.


def is_supermodular(table):
    if not table.is_zero_at_empty():
        return False
    n = table.n
    for mask in range(1 << n):
        outside = [i for i in range(n) if not mask >> i & 1]
        for x in range(len(outside)):
            a = 1 << outside[x]
            for y in range(x + 1, len(outside)):
                b = 1 << outside[y]
                if (
                    table.values[mask | a] + table.values[mask | b]
                    > table.values[mask | a | b] + table.values[mask]
                ):
                    return False
    return True


def range_value(table):
    return table.values[table.full_mask]


def mask_of(table, names):
    mask = 0
    position = {v: i for i, v in enumerate(table.ground)}
    for name in names:
        mask |= 1 << position[name]
    return mask


def value_of(table, names):
    return table.values[mask_of(table, names)]


def rank_mod_p(rows, p):
    """Rank over the prime field GF(p); a cheap cross-check of :func:`rank`.

    Rows whose denominators vanish mod p are rejected.
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    mat = []
    for row in rows:
        reduced = []
        for x in row:
            q = to_fraction(x)
            if q.denominator % p == 0:
                raise ValueError("denominator divisible by p")
            reduced.append(q.numerator * pow(q.denominator, -1, p) % p)
        mat.append(reduced)
    if not mat:
        return 0
    width = len(mat[0])
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [a * inv % p for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def random_subspace(rng, ambient, max_dim=4, entry_bound=3):
    """span of a few random small-integer vectors (dimension not forced)."""
    count = rng.randint(0, max_dim)
    rows = [
        [rng.randint(-entry_bound, entry_bound) for _ in range(ambient)]
        for _ in range(count)
    ]
    return Subspace(ambient, rows)


def find_arrows(graph, tail, head):
    """Indices of all arrows tail->head (several for parallel edges)."""
    return tuple(
        i
        for i, a in enumerate(graph.arrows)
        if a.tail == tail and a.head == head
    )


def reverse(graph, arrow_index):
    return arrow_index ^ 1


def arrow_tags(graph, classification):
    """Per-arrow "upward", "downward" or "horizontal" tag read off a
    classification, checking that its upward arrows, downward arrows and
    the arrows of its horizontal edges partition the arrows."""
    horizontal = [a for e in classification.horizontal_edges for a in (2 * e, 2 * e + 1)]
    tags = {}
    for tag, arrows in (
        ("upward", classification.upward),
        ("downward", classification.downward),
        ("horizontal", horizontal),
    ):
        for a in arrows:
            assert a not in tags, f"arrow {a} tagged twice"
            tags[a] = tag
    assert sorted(tags) == list(range(graph.num_arrows))
    return tuple(tags[a] for a in range(graph.num_arrows))


def reference_ordered_partitions(items):
    """Every ordered partition of the list `items`, as a list of parts, in
    the order :func:`ordered_partitions` yields them: the partitions of
    ``items[:-1]`` first; for each, the last item joins each part in turn,
    then stands alone at each place in turn."""
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for smaller in reference_ordered_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1 :]
        for i in range(len(smaller) + 1):
            yield smaller[:i] + [[last]] + smaller[i:]


def reference_parts(levels):
    """The vertex names of each level of an ordered partition, in input
    order, grouped from its level tuple alone."""
    return tuple(
        tuple(v for v, m in zip(levels.vertices, levels.levels) if m == n)
        for n in range(1, max(levels.levels) + 1)
    )


def coarsened_levels(levels):
    """The level tuples of all coarsenings of an ordered partition (merges
    of consecutive parts), the structure itself and the trivial one
    included."""
    for gaps in itertools.product((False, True), repeat=levels.r - 1):
        relabel = [0, 1]  # old level n -> its level in the coarsening
        for cut in gaps:
            relabel.append(relabel[-1] + cut)
        yield tuple(relabel[n] for n in levels.levels)


def coarsenings(levels):
    """All coarsenings of an ordered partition, each structure built
    straight from its level tuple of :func:`coarsened_levels`."""
    for coarse in coarsened_levels(levels):
        yield LevelStructure(levels.vertices, coarse)


def reference_random_coarsening(rng, levels):
    """The parts-based :func:`~resipoly.randomized.random_coarsening`: one
    draw per part after the first, which starts a new coarse part below 0.5
    and joins the part to the one above it otherwise."""
    merged = [list(levels.parts[0])]
    for part in levels.parts[1:]:
        if rng.random() < 0.5:
            merged.append(list(part))
        else:
            merged[-1].extend(part)
    return LevelStructure.from_parts(levels.vertices, merged)


def summit_names(model):
    """A LevelGraph's (irreducible, reducible) summits as vertex-name tuples."""
    names, pairs = model.graph.names, model.pairs
    return (
        [names(c) for pair in pairs for c in pair.irreducible],
        [names(c) for pair in pairs for c in pair.reducible],
    )


# The frozenset level-graph model that the bitmask model in graphs,
# residues and linalg replaced, kept as a reference for it.  Each body is
# the replaced one with `self` turned into an argument where it was a
# Multigraph or LevelStructure method; supports are frozensets of arrow or
# coordinate indices, and vertex sets are vertex-name tuples.


def arrows_with_tail(graph):
    """Vertex name -> indices of the arrows with that tail, ascending."""
    out = {v: [] for v in graph.vertices}
    for i, (u, v) in enumerate(graph.edges):
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    return {v: tuple(a) for v, a in out.items()}


def prefix(levels, n):
    """Vertices of level <= n, in graph order."""
    return tuple(v for v, lv in zip(levels.vertices, levels.levels) if lv <= n)


def reference_adjacency(graph):
    """Vertex index -> ((edge, neighbour index), ...), as Multigraph held it."""
    index = graph.index
    adjacency = {i: [] for i in range(len(graph.vertices))}
    for i, (u, v) in enumerate(graph.edges):
        adjacency[index[u]].append((i, index[v]))
        if u != v:
            adjacency[index[v]].append((i, index[u]))
    return {i: tuple(n) for i, n in adjacency.items()}


def induced_components(graph, subset):
    """Connected components of the induced subgraph, as vertex tuples.

    Components are sorted by their first vertex in input order; vertices
    within a component likewise.
    """
    adjacency = reference_adjacency(graph)
    chosen = {graph.index[v] for v in subset}
    seen = set()
    components = []
    for start in sorted(chosen):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for _, j in adjacency[i]:
                if j in chosen and j not in seen:
                    seen.add(j)
                    stack.append(j)
        components.append(tuple(graph.vertices[i] for i in sorted(comp)))
    return components


def induced_edges(graph, subset):
    """Edge indices with both endpoints (loops included) inside subset."""
    chosen = set(subset)
    return tuple(
        i
        for i, (u, v) in enumerate(graph.edges)
        if u in chosen and v in chosen
    )


def genus_of_induced(graph, subset):
    chosen = tuple(dict.fromkeys(subset))
    if not chosen:
        return 0
    edges = len(induced_edges(graph, chosen))
    comps = len(induced_components(graph, chosen))
    return edges - len(chosen) + comps


def level_components(graph, levels, n):
    """Connected components of the subgraph induced on the level-n vertices."""
    return induced_components(graph, levels.part(n))


class ReferenceClassification(NamedTuple):
    upward: tuple
    downward: tuple
    vertical_edges: tuple
    horizontal_edges: tuple


def reference_classify_arrows(graph, levels):
    """The arrow classification read arrow by arrow off the levels of the
    arrow's own tail and head: upward when the tail's level number is the
    larger (level 1 is drawn on top), downward when it is the smaller; an
    edge is horizontal when its two ends share a level."""
    level = dict(zip(levels.vertices, levels.levels))
    rise = [level[a.tail] - level[a.head] for a in graph.arrows]
    same = [level[u] == level[v] for u, v in graph.edges]
    return ReferenceClassification(
        upward=tuple(a for a, d in enumerate(rise) if d > 0),
        downward=tuple(a for a, d in enumerate(rise) if d < 0),
        vertical_edges=tuple(e for e, flat in enumerate(same) if not flat),
        horizontal_edges=tuple(e for e, flat in enumerate(same) if flat),
    )


def split_summits(graph, classification, components):
    """The summits among the given level components, as (irreducible,
    reducible) lists in the order given."""
    irreducible = []
    reducible = []
    upward = set(classification.upward)
    tails = arrows_with_tail(graph)
    for comp in components:
        has_upward = any(a in upward for v in comp for a in tails[v])
        if has_upward:
            continue
        if len(comp) == 1 and not induced_edges(graph, comp):
            irreducible.append(comp)
        else:
            reducible.append(comp)
    return irreducible, reducible


def components_below(graph, levels, n):
    """Components of the subgraph strictly below level n, and the special ones.

    A component is special when it receives an upward arrow from level n.
    For n = 1 both lists are empty.
    """
    if not 1 <= n <= levels.r:
        raise GraphDocumentError(f"level {n} out of range 1..{levels.r}")
    below = tuple(
        v for v, lv in zip(levels.vertices, levels.levels) if lv < n
    )
    if not below:
        return [], []
    comps = induced_components(graph, below)
    membership = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            membership[v] = idx
    special_idx = set()
    part = levels.part(n)
    tails = arrows_with_tail(graph)
    for v in part:
        for a in tails[v]:
            head = graph.arrows[a].head
            if head in membership:
                special_idx.add(membership[head])
    special = [comps[i] for i in sorted(special_idx)]
    return comps, special


def _is_set_independent(supports):
    seen = set()
    for s in supports:
        if not s or s & seen:
            return False
        seen |= s
    return True


def _matching_components(sup1, sup2):
    """Connected components of the support overlap graph between collections.

    Under set-theoretic independence a pair of subcollections covers the
    same coordinate set iff it is a union of components whose two support
    unions coincide ("closed" components), so relatedness reduces to a
    finite component scan.
    """
    n1, n2 = len(sup1), len(sup2)
    parent = list(range(n1 + n2))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    owner = {}
    for i, s in enumerate(sup1):
        for c in s:
            owner[c] = i
    for j, s in enumerate(sup2):
        for c in s:
            if c in owner:
                union(owner[c], n1 + j)
    groups = {}
    for node in range(n1 + n2):
        groups.setdefault(find(node), []).append(node)
    components = []
    for nodes in groups.values():
        u1 = frozenset().union(*(sup1[i] for i in nodes if i < n1)) if any(
            i < n1 for i in nodes
        ) else frozenset()
        u2 = frozenset().union(*(sup2[i - n1] for i in nodes if i >= n1)) if any(
            i >= n1 for i in nodes
        ) else frozenset()
        components.append((nodes, u1 == u2))
    return components


def _related_bruteforce(sup1, sup2):
    related = False
    properly = True
    for mask1 in range(1, 1 << len(sup1)):
        u1 = frozenset().union(
            *(sup1[i] for i in range(len(sup1)) if mask1 >> i & 1)
        )
        for mask2 in range(1, 1 << len(sup2)):
            u2 = frozenset().union(
                *(sup2[j] for j in range(len(sup2)) if mask2 >> j & 1)
            )
            if u1 == u2:
                related = True
                full = mask1 == (1 << len(sup1)) - 1 and mask2 == (1 << len(sup2)) - 1
                if not full:
                    properly = False
    return related, properly


def reference_support_checks(sup1, sup2):
    """Relatedness on two tuples of frozenset supports."""
    sti_1 = _is_set_independent(sup1)
    sti_2 = _is_set_independent(sup2)
    if sti_1 and sti_2:
        components = _matching_components(sup1, sup2)
        closed = [nodes for nodes, ok in components if ok]
        related = bool(closed)
        properly = not closed or (
            len(components) == 1
            and components[0][1]
            and len(components[0][0]) == len(sup1) + len(sup2)
        )
    else:
        if len(sup1) + len(sup2) > 22:
            raise ValueError(
                "collections too large for the general relatedness search"
            )
        related, properly = _related_bruteforce(sup1, sup2)
    return SetTheoreticReport(sti_1, sti_2, related, properly)


def _supports(rows):
    return tuple(row.support for row in rows)


class Row(NamedTuple):
    """One condition of the reference model: its label, its support as a
    frozenset of arrow indices and its owner, with vertex sets as name
    tuples."""

    label: str
    support: frozenset
    owner: object


class ReferenceBlock(NamedTuple):
    level: int
    component: tuple
    level_vertices: tuple
    local: tuple
    rosenlicht: tuple
    glob: tuple


class ReferenceLevelGraph:
    """The frozenset model of a graph with an ordered partition."""

    def __init__(self, graph, levels):
        self.graph = graph
        self.levels = levels
        self.classification = reference_classify_arrows(graph, levels)

    @property
    def level_numbers(self):
        return range(1, self.levels.r + 1)

    @cached_property
    def level_components(self):
        return {n: level_components(self.graph, self.levels, n) for n in self.level_numbers}

    @cached_property
    def components_below(self):
        return {n: components_below(self.graph, self.levels, n) for n in self.level_numbers}

    @cached_property
    def prefix_components(self):
        return {
            n: induced_components(self.graph, prefix(self.levels, n))
            for n in self.level_numbers
        }

    @cached_property
    def summits(self):
        components = [c for comps in self.level_components.values() for c in comps]
        return split_summits(self.graph, self.classification, components)

    @cached_property
    def rows(self):
        graph, levels, cls = self.graph, self.levels, self.classification
        tails = arrows_with_tail(graph)
        downward = tuple(
            Row(graph.arrows[a].label, frozenset((a,)), a) for a in cls.downward
        )
        local = []
        for v in graph.vertices:
            support = frozenset(a for a in tails[v] if a not in cls.downward)
            if support:
                local.append(Row(v, support, v))
        rosenlicht = []
        for e in cls.horizontal_edges:
            u, v = graph.edges[e]
            rosenlicht.append(Row(f"e{e}:{u}-{v}", frozenset((2 * e, 2 * e + 1)), e))
        glob = []
        for n in self.level_numbers:
            for comp in self.components_below[n][1]:
                members = set(comp)
                support = frozenset(
                    a
                    for v in levels.part(n)
                    for a in tails[v]
                    if graph.arrows[a].head in members
                )
                glob.append(Row(f"{n}:{'+'.join(comp)}", support, (n, comp)))
        return {
            "downward": downward,
            "local": tuple(local),
            "rosenlicht": tuple(rosenlicht),
            "global": tuple(glob),
        }

    def _rows_within(self, vertices):
        """The local rows of `vertices` and the rosenlicht rows of the
        horizontal edges with both ends among them."""
        edges = self.graph.edges
        local = tuple(row for row in self.rows["local"] if row.owner in vertices)
        ros = tuple(
            row for row in self.rows["rosenlicht"] if vertices.issuperset(edges[row.owner])
        )
        return local, ros

    @cached_property
    def blocks(self):
        blocks = []
        for n in self.level_numbers:
            for comp in self.prefix_components[n]:
                members = set(comp)
                here = tuple(v for v in self.levels.part(n) if v in members)
                glob = tuple(
                    row
                    for row in self.rows["global"]
                    if row.owner[0] == n and members.issuperset(row.owner[1])
                )
                blocks.append(
                    ReferenceBlock(n, comp, here, *self._rows_within(set(here)), glob)
                )
        return tuple(blocks)

    def relation_failures(self):
        failures = []
        reducible = set(self.summits[1])
        for n, comps in self.level_components.items():
            for comp in comps:
                local, ros = self._rows_within(set(comp))
                report = reference_support_checks(_supports(local), _supports(ros))
                if not (report.sti_1 and report.sti_2):
                    failures.append(f"level {n} component {comp}: not set-theoretically independent")
                    continue
                if not report.properly_unrelated:
                    failures.append(f"level {n} component {comp}: not properly unrelated")
                if report.related != (comp in reducible):
                    failures.append(
                        f"level {n} component {comp}: related={report.related} "
                        f"but reducible-summit={comp in reducible}"
                    )

        for b in self.blocks:
            if not b.level_vertices:
                continue
            report = reference_support_checks(
                _supports(b.glob + b.rosenlicht), _supports(b.local)
            )
            if not (report.sti_1 and report.sti_2):
                failures.append(
                    f"level {b.level} merged component {b.component}: "
                    "not set-theoretically independent"
                )
                continue
            if not report.properly_unrelated:
                failures.append(
                    f"level {b.level} merged component {b.component}: not properly unrelated"
                )
            nonempty = bool(b.local or b.rosenlicht or b.glob)
            if report.related != nonempty:
                failures.append(
                    f"level {b.level} merged component {b.component}: "
                    f"related={report.related} with nonempty={nonempty}"
                )
        return failures
