"""Exact linear algebra over the rationals.

Nothing here ever touches a float.  A subspace is held by its canonical
integer basis: the reduced row-echelon basis with each row scaled to a
primitive integer row with a positive pivot entry.  That form is unique, so
equality of subspaces is literal equality of integer rows.

Every row reduction runs on plain integers, in one routine,
:func:`_sparse_insert`: an integer row echelon of dict rows, each row
pivoted at its lowest column and divided by its content.  A dense input
row has its denominators cleared once (a row of ints is taken as it is)
and its nonzero entries taken as a dict; the 0/1 residue conditions go in
straight from their masks.  The echelon alone gives ranks, containment and
the greedy column bases; a caller that wants its columns in another order
remaps their keys.  Back-substitution on it (:func:`_reduced`) gives an
integral kernel basis (:func:`_kernel_basis`, sparse, one vector per free
column), which is all a rank of the kernel needs, and canonical bases and
kernels, stored as dense integer rows.  Determinants
use fraction-free (Bareiss) elimination.  Fractions appear only at input
(``"p/q"`` strings and Fraction entries), in a determinant, and in
:attr:`Subspace.basis`, the printed reduced basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Subspace",
    "VectorCollection",
    "SetTheoreticReport",
    "det",
    "kernel",
    "kernel_of_projection",
    "project_image",
    "rank",
    "set_theoretic_checks",
    "support_checks",
    "to_fraction",
]

_INT = {int}


def to_fraction(value):
    """Coerce ints, ``"p/q"`` strings and Fractions to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _cleared(row):
    """Clear the denominators of one row: ``(lcm, integer row)``, the integer
    row being the rational row times the lcm of its denominators.  A row of
    plain ints comes back unchanged, so it is never converted."""
    if not isinstance(row, (list, tuple)):
        row = list(row)
    if set(map(type, row)) <= _INT:  # every entry is exactly an int
        return 1, row
    row = [to_fraction(x) for x in row]
    mult = 1
    for x in row:
        d = x.denominator
        if d != 1:
            mult = mult * d // gcd(mult, d)
    return mult, [x.numerator * (mult // x.denominator) for x in row]


def _sparse_insert(echelon, row):
    """Reduce a sparse integer row against a sparse echelon, keep it if nonzero.

    A row is a dict ``{column: nonzero entry}``; it is consumed.  Columns
    may be any keys that sort, so a caller can take the columns in an order
    of its own by remapping them.  ``echelon`` maps each pivot column to its
    row, the one whose lowest column it is, held as ``(entry at the pivot,
    the rest of the row)``.  While the row's lowest column holds a pivot,
    that column is cleared by cross-multiplication with the pivot's row,
    which moves the lowest column up.  A row left nonzero is divided by its
    content and becomes the pivot at its lowest column.
    """
    while row:
        lead = min(row)
        x = row.pop(lead)
        pivot = echelon.get(lead)
        if pivot is None:
            g = gcd(x, *row.values())
            if g > 1:
                x //= g
                row = {c: a // g for c, a in row.items()}
            echelon[lead] = (x, row)
            return True
        y, rest = pivot
        if y != 1:
            row = {c: a * y for c, a in row.items()}
        for c, b in rest.items():
            a = row.get(c, 0) - x * b
            if a:
                row[c] = a
            else:
                del row[c]
    return False


def _reduced(echelon):
    """Back-substitution on a sparse echelon: ``[(pivot, row)]`` by pivot
    ascending, each row a dict that holds its pivot entry too.

    Each returned row is primitive, zero on every other row's pivot column,
    with a positive pivot entry ``p``.  Dividing it by ``p`` gives the row
    of the unique RREF of the row space; that division is the only place a
    Fraction is made.  A row of the echelon is zero left of its pivot, so it
    is cleared only at the later pivots, as ``row * p - x * other`` over
    gcd(p, x), bottom row first.  The echelon is not modified.
    """
    done = {}
    for pivot in sorted(echelon, reverse=True):
        x, rest = echelon[pivot]
        row = {pivot: x, **rest}
        # `other` is zero at every pivot but its own, so clearing one later
        # pivot only scales the entries at the others: `later` is listed once
        later = [c for c in rest if c in done]
        for c in later:
            other = done[c]
            p, y = other[c], row[c]
            g = gcd(p, y)
            p, y = p // g, y // g
            if p != 1:
                row = {k: a * p for k, a in row.items()}
            for k, b in other.items():
                a = row.get(k, 0) - y * b
                if a:
                    row[k] = a
                else:
                    del row[k]
        g = gcd(*row.values()) if later else 1
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {k: a // g for k, a in row.items()}
        done[pivot] = row
    return sorted(done.items())


def _canonical(echelon, width):
    """``(pivots, rows)`` of the canonical basis of the span of a sparse
    echelon on the columns ``0 .. width - 1``: the rows of :func:`_reduced`,
    made dense."""
    pivots, rows = [], []
    for pivot, row in _reduced(echelon):
        dense = [0] * width
        for c, a in row.items():
            dense[c] = a
        pivots.append(pivot)
        rows.append(tuple(dense))
    return tuple(pivots), tuple(rows)


def _span(width, echelon):
    """The :class:`Subspace` of Q^width spanned by the rows of a sparse echelon."""
    space = Subspace.__new__(Subspace)
    space.ambient_dim = width
    space.pivots, space.rows = _canonical(echelon, width)
    return space


def _kernel_basis(echelon, columns):
    """An integral basis of the right kernel of the rows of a sparse echelon,
    on the given columns, which must hold every column of the rows: one
    sparse vector per free column (a column that is no pivot), in column
    order, ``len(columns) - len(echelon)`` of them.

    Reduced row k reads ``p_k * x[pivot_k] + (free columns) = 0``, and a
    reduced row is nonzero only at its pivot and at free columns.  The
    vector of free column f is the solution with x[f] the lcm of the pivot
    entries, which keeps it integral, and every other free coordinate 0.
    The basis is not canonical; :func:`_kernel` takes its span.
    """
    reduced = _reduced(echelon)
    scale = lcm(*(row[pivot] for pivot, row in reduced))
    vectors = {f: {f: scale} for f in columns if f not in echelon}
    for pivot, row in reduced:
        m = scale // row[pivot]
        for c, a in row.items():
            if c != pivot:
                vectors[c][pivot] = -a * m
    return list(vectors.values())


def _kernel(echelon, width):
    """Right kernel of the rows of a sparse echelon, as a canonical
    :class:`Subspace` of Q^width: the span of :func:`_kernel_basis`."""
    spanned = {}
    for v in _kernel_basis(echelon, range(width)):
        _sparse_insert(spanned, v)
    return _span(width, spanned)


def _echelon(matrix):
    """``(width, echelon)`` of a matrix given as an iterable of dense rows,
    which must all have the same length: the sparse echelon of its rows,
    each cleared of its denominators.  The width of no rows is None."""
    echelon = {}
    width = None
    for row in matrix:
        row = _cleared(row)[1]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged rows")
        _sparse_insert(echelon, {c: a for c, a in enumerate(row) if a})
    return width, echelon


def rank(rows):
    """Rank of a matrix given as an iterable of rows (exact, integer path)."""
    return len(_echelon(rows)[1])


def det(rows):
    """Exact determinant of a square matrix (Bareiss over cleared integers)."""
    scale = 1
    mat = []
    for row in rows:
        mult, ints = _cleared(row)
        scale *= mult
        mat.append(list(ints))
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if mat[i][k]:
                    swap = i
                    break
            if swap is None:
                return Fraction(0)
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return Fraction(sign * mat[n - 1][n - 1], scale)


class Subspace:
    """A linear subspace of Q^n, held by its canonical integer basis.

    ``rows`` come from one sparse echelon of the input vectors and its
    back-substitution (:func:`_reduced`): row k is the k-th row of the
    reduced row-echelon basis times its pivot entry ``rows[k][pivots[k]]``,
    which is positive and makes the row primitive.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        width, echelon = _echelon(vectors)
        if width not in (None, ambient_dim):
            raise ValueError("vector length does not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.pivots, self.rows = _canonical(echelon, ambient_dim)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        """The reduced row-echelon basis, as Fraction rows."""
        return tuple(
            tuple(Fraction(a, row[c]) for a in row) for row, c in zip(self.rows, self.pivots)
        )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains(self, other):
        """Subspace containment: the echelon of this basis and the rows of
        `other` together has this space's dimension."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return len(_echelon(self.rows + other.rows)[1]) == self.dim


def kernel(matrix, num_cols=None):
    """Right kernel of a matrix, as a canonical :class:`Subspace`.

    ``num_cols``, a nonnegative int, gives the width of an empty matrix and
    must match the rows of any other, which must all have the same length;
    anything else raises ValueError.
    """
    width, echelon = _echelon(matrix)
    if num_cols is None:
        if width is None:
            raise ValueError("column count required for an empty matrix")
        num_cols = width
    elif type(num_cols) is not int or num_cols < 0 or width not in (None, num_cols):
        raise ValueError(f"column count {num_cols!r} is not a nonnegative int matching the rows")
    return _kernel(echelon, num_cols)


def _canonical_coords(coords, ambient_dim):
    out = sorted(set(coords))
    if out and (out[0] < 0 or out[-1] >= ambient_dim):
        raise IndexError("coordinate index out of range")
    return out


def project_image(space, coords):
    """Image of a subspace under deleting all coordinates outside `coords`.

    The retained coordinates keep their relative order; the result lives in
    Q^len(coords).
    """
    coords = _canonical_coords(coords, space.ambient_dim)
    echelon = {}
    for row in space.rows:
        _sparse_insert(echelon, {i: row[c] for i, c in enumerate(coords) if row[c]})
    return _span(len(coords), echelon)


def kernel_of_projection(space, coords):
    """Vectors of the subspace vanishing on every coordinate in `coords`.

    This is the kernel of :func:`project_image` onto `coords`; rank plus
    nullity always equals ``space.dim``.  The basis rows go into one echelon
    with the `coords` columns taken first, each other column c keyed
    ``c + ambient_dim``.  The rows whose lowest key falls past the `coords`
    vanish on them, and there are exactly nullity many.  Their lowest
    columns are distinct, so they are an echelon in the plain columns.
    """
    width = space.ambient_dim
    coords = _canonical_coords(coords, width)
    if space.dim == 0 or not coords:
        return space
    taken = set(coords)
    key = [c if c in taken else c + width for c in range(width)]
    echelon = {}
    for row in space.rows:
        _sparse_insert(echelon, {key[c]: a for c, a in enumerate(row) if a})
    vanishing = {
        lead - width: (x, {c - width: a for c, a in rest.items()})
        for lead, (x, rest) in echelon.items()
        if lead >= width
    }
    return _span(width, vanishing)


def _exact(value):
    """An exact entry as an int when it is integral, else as a Fraction;
    floats and booleans are rejected by :func:`to_fraction`."""
    if type(value) is int:
        return value
    q = to_fraction(value)
    return q.numerator if q.denominator == 1 else q


class VectorCollection:
    """Labeled vectors in Q^n with exactly computed supports, each an int
    bitmask of the nonzero coordinates.  An integral entry is stored as an
    int, any other as a Fraction."""

    __slots__ = ("ambient_dim", "labels", "vectors", "supports")

    def __init__(self, ambient_dim, items=()):
        labels = []
        vectors = []
        for label, coords in items:
            v = tuple(map(_exact, coords))
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            labels.append(label)
            vectors.append(v)
        self.ambient_dim = ambient_dim
        self.labels = tuple(labels)
        self.vectors = tuple(vectors)
        self.supports = tuple(_mask(j for j, x in enumerate(v) if x) for v in vectors)

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"VectorCollection({len(self)} vectors in Q^{self.ambient_dim})"


@dataclass(frozen=True)
class SetTheoreticReport:
    """:func:`set_theoretic_checks`'s answer; the two relatedness fields are
    None unless both collections are set-theoretically independent."""

    sti_1: bool
    sti_2: bool
    related: bool | None
    properly_unrelated: bool | None


def _is_set_independent(supports):
    seen = 0
    for s in supports:
        if not s or s & seen:
            return False
        seen |= s
    return True


def _closed_components(sup1, sup2):
    """One flag per component of the support overlap graph between two
    set-independent collections: whether it is closed, that is whether its
    two support unions coincide.

    Under set-theoretic independence a pair of subcollections covers the
    same coordinate set iff it is a union of closed components, so
    relatedness reduces to a finite component scan.  The components come
    out of one merge pass: each first-collection support starts a group
    ``(union1, 0)``, and each second-collection support merges every group
    whose ``union1`` it meets into one, adding itself to that group's
    ``union2``.  It can meet no group's ``union2``, which is made of
    second-collection supports disjoint from it.
    """
    groups = [(s, 0) for s in sup1]
    for t in sup2:
        union1, union2 = 0, t
        apart = []
        for group in groups:
            if group[0] & t:
                union1 |= group[0]
                union2 |= group[1]
            else:
                apart.append(group)
        apart.append((union1, union2))
        groups = apart
    return [union1 == union2 for union1, union2 in groups]


def _mask(support):
    """The int bitmask of an iterable of distinct indices."""
    mask = 0
    for c in support:
        mask |= 1 << c
    return mask


def set_theoretic_checks(collection_1, collection_2):
    """Set-theoretic independence and (proper) relatedness of two collections.

    Each collection is set-theoretically independent when its supports are
    nonempty and pairwise disjoint.  The collections are related when some
    nonempty subcollections cover exactly the same coordinate set; properly
    unrelated when only the two full collections can do so.  Relatedness is
    decided for two independent collections only: otherwise ``related`` and
    ``properly_unrelated`` are None.
    """
    if collection_1.ambient_dim != collection_2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    sup1, sup2 = collection_1.supports, collection_2.supports
    verdict = support_checks(sup1, sup2) or (None, None)
    return SetTheoreticReport(_is_set_independent(sup1), _is_set_independent(sup2), *verdict)


def support_checks(sup1, sup2):
    """``(related, properly_unrelated)`` of two tuples of supports, one per
    vector, each an int bitmask of coordinate indices; None when either
    tuple is not set-theoretically independent.  See
    :func:`set_theoretic_checks`."""
    if not (_is_set_independent(sup1) and _is_set_independent(sup2)):
        return None
    closed = _closed_components(sup1, sup2)
    related = any(closed)
    return related, not related or len(closed) == 1
