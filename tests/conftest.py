import random
from fractions import Fraction

import pytest

from resipoly import fixtures
from resipoly.linalg import Subspace, to_fraction


@pytest.fixture(scope="session")
def fig1():
    return fixtures.load("fig1")


@pytest.fixture(scope="session")
def fig2():
    return fixtures.load("fig2")


@pytest.fixture(scope="session")
def k4():
    return fixtures.load("k4")


@pytest.fixture(scope="session")
def c3():
    return fixtures.load("c3")


@pytest.fixture(scope="session")
def loop1():
    return fixtures.load("loop1")


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
