"""Exact linear algebra over the rationals.

Nothing here ever touches a float.  A subspace is held by its canonical
integer basis: the reduced row-echelon basis with each row scaled to a
primitive integer row with a positive pivot entry.  That form is unique, so
equality of subspaces is literal equality of integer rows.

All elimination runs on plain integers.  Each input row has its
denominators cleared once (a row of ints is taken as it is), and then goes
into an integer row echelon with content reduction: that echelon alone
gives ranks, containment and kernels of projections, and back-substitution
on it gives canonical bases and kernels.  Sparse integer rows, such as the
0/1 residue conditions, have an echelon of their own, :func:`_sparse_insert`,
on dict rows pivoted at their lowest column.  Determinants use
fraction-free (Bareiss) elimination.  Fractions appear only at input
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
    "embed",
    "format_fraction",
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


def format_fraction(value):
    """Serialize a rational as ``"n"`` (denominator one) or ``"p/q"``."""
    q = to_fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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


def _primitive(row):
    """An integer row divided by the gcd of its entries (its content)."""
    g = gcd(*row)
    if g > 1:
        return [a // g for a in row]
    return row


def _echelon_insert(echelon, row):
    """Reduce an integer row against an echelon list, append if nonzero.

    ``echelon`` holds ``(pivot_column, row)`` pairs; rows stay integral via
    cross-multiplication followed by content reduction.  The appended row is
    primitive, has a positive lead entry, and is zero at the pivot columns
    of every row before it.
    """
    for pivot_col, pivot_row in echelon:
        x = row[pivot_col]
        if x:
            y = pivot_row[pivot_col]
            row = [a * y - x * b for a, b in zip(row, pivot_row)]
    lead = None
    for j, a in enumerate(row):
        if a:
            lead = j
            break
    if lead is None:
        return False
    g = 0
    for a in row:
        if a:
            g = gcd(g, abs(a))
            if g == 1:
                break
    if g > 1:
        row = [a // g for a in row]
    if row[lead] < 0:
        row = [-a for a in row]
    echelon.append((lead, row))
    return True


def _sparse_insert(echelon, row):
    """Reduce a sparse integer row against a sparse echelon, keep it if nonzero.

    A row is a dict ``{column: nonzero entry}``.  ``echelon`` maps each pivot
    column to its row, the one whose lowest column it is, held as ``(entry
    at the pivot, the rest of the row)``.  While the row's lowest column
    holds a pivot, that column is cleared by cross-multiplication with the
    pivot's row, which moves the lowest column up.  A row left nonzero is
    divided by its content and becomes the pivot at its lowest column.
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
        row = {c: a * y for c, a in row.items()}
        for c, b in rest.items():
            a = row.get(c, 0) - x * b
            if a:
                row[c] = a
            else:
                del row[c]
    return False


def _rref_rows(mat):
    """Reduced row echelon form of a list of int rows: the echelon of
    :func:`_echelon_insert`, then back-substitution.

    Returns ``(rows, pivots)`` with zero rows dropped, pivots ascending.
    Each returned row is a list of ints: primitive, zero on every other
    row's pivot column, with a positive pivot entry ``p``.  Dividing it by
    ``p`` gives the row of the unique RREF of the row space; that division
    is the only place a Fraction is made.  A row of the echelon is zero left
    of its pivot, so back-substitution only clears it at the later pivots,
    as ``row * p - x * other`` over gcd(p, x), bottom row first.  No input
    row is modified.
    """
    echelon = []
    for row in mat:
        _echelon_insert(echelon, row)
    echelon.sort()  # pivots are distinct
    pivots = [c for c, _ in echelon]
    rows = [row for _, row in echelon]
    for k in range(len(rows) - 2, -1, -1):
        row = rows[k]
        for j in range(k + 1, len(rows)):
            x = row[pivots[j]]
            if x:
                other = rows[j]
                p = other[pivots[j]]
                g = gcd(p, x)
                pg, xg = p // g, x // g
                row = _primitive([a * pg - xg * b for a, b in zip(row, other)])
        rows[k] = row
    return rows, pivots


def rank(rows):
    """Rank of a matrix given as an iterable of rows (exact, integer path)."""
    echelon = []
    width = None
    for row in rows:
        ints = _cleared(row)[1]
        if width is None:
            width = len(ints)
        elif len(ints) != width:
            raise ValueError("ragged rows")
        _echelon_insert(echelon, ints)
    return len(echelon)


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

    ``rows`` are the rows of :func:`_rref_rows`: row k is the k-th row of the
    reduced row-echelon basis times its pivot entry ``rows[k][pivots[k]]``,
    which is positive and makes the row primitive.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        rows = [_cleared(v)[1] for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = _rref_rows(rows)
        self.ambient_dim = ambient_dim
        self.rows = tuple(map(tuple, reduced))
        self.pivots = tuple(pivots)

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
        """Subspace containment: no row of `other` survives integer
        elimination against this basis."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        echelon = list(zip(self.pivots, self.rows))
        return not any(_echelon_insert(echelon, row) for row in other.rows)


def kernel(matrix, num_cols=None):
    """Right kernel of a matrix, as a canonical :class:`Subspace`.

    ``num_cols`` gives the width of an empty matrix; otherwise the width is
    that of the rows, which must all have the same length.
    """
    rows = [_cleared(row)[1] for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
    elif num_cols is not None:
        width = num_cols
    else:
        raise ValueError("column count required for an empty matrix")
    reduced, pivots = _rref_rows(rows)
    pivot_set = set(pivots)
    # Row k reads row_k[p_k] * x[p_k] + (free columns) = 0.  Setting one free
    # coordinate to the lcm of the pivot entries keeps the solution integral.
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    vectors = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [0] * width
        v[f] = scale
        for row, p in zip(reduced, pivots):
            v[p] = -row[f] * (scale // row[p])
        vectors.append(v)
    return Subspace(width, vectors)


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
    rows = [[row[c] for c in coords] for row in space.rows]
    return Subspace(len(coords), rows)


def kernel_of_projection(space, coords):
    """Vectors of the subspace vanishing on every coordinate in `coords`.

    This is the kernel of :func:`project_image` onto `coords`; rank plus
    nullity always equals ``space.dim``.  The basis rows go into one echelon
    with the `coords` columns taken first; the rows whose lead falls after
    them vanish on `coords`, and there are exactly nullity many.
    """
    coords = _canonical_coords(coords, space.ambient_dim)
    if space.dim == 0 or not coords:
        return space
    taken = set(coords)
    rest = [c for c in range(space.ambient_dim) if c not in taken]
    order = coords + rest
    echelon = []
    for row in space.rows:
        _echelon_insert(echelon, [row[c] for c in order])
    vectors = []
    for lead, row in echelon:
        if lead >= len(coords):
            v = [0] * space.ambient_dim
            for c, x in zip(rest, row[len(coords) :]):
                v[c] = x
            vectors.append(v)
    return Subspace(space.ambient_dim, vectors)


def embed(space, ambient_dim, coords):
    """Place a subspace of Q^len(coords) into Q^ambient at the given coordinates."""
    coords = sorted(set(coords))
    if len(coords) != space.ambient_dim:
        raise ValueError("coordinate count does not match the subspace ambient")
    if coords and coords[-1] >= ambient_dim:
        raise IndexError("coordinate index out of range")
    rows = []
    for row in space.rows:
        v = [0] * ambient_dim
        for c, x in zip(coords, row):
            v[c] = x
        rows.append(v)
    return Subspace(ambient_dim, rows)


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
    relatedness reduces to a finite component scan.  Each component is
    found by a coordinate-closure sweep: starting from one support, take in
    every support meeting the covered coordinates until none is left.
    """
    rest1, rest2 = list(sup1), list(sup2)
    closed = []
    while rest1 or rest2:
        if rest1:
            union1, union2 = rest1.pop(), 0
        else:
            union1, union2 = 0, rest2.pop()
        grown = True
        while grown:
            cover = union1 | union2
            grown = False
            keep1 = []
            for s in rest1:
                if s & cover:
                    union1 |= s
                    grown = True
                else:
                    keep1.append(s)
            keep2 = []
            for s in rest2:
                if s & cover:
                    union2 |= s
                    grown = True
                else:
                    keep2.append(s)
            rest1, rest2 = keep1, keep2
        closed.append(union1 == union2)
    return closed


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
