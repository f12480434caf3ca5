"""Exact integer and rational linear algebra used throughout the toolkit.

Everything here works with Python ints and fractions.Fraction; no floating
point.  Matrices are sequences of equal-length rows, vectors are sequences of
numbers.  Functions return tuples so results can be hashed and cached.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def strict_int(x) -> int:
    """x when it is an int, for reading JSON; bools, floats and strings raise TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def freeze_matrix(rows) -> Matrix:
    """rows as a tuple of int tuples; entries are read by `strict_int`, never truncated."""
    return tuple(tuple(map(strict_int, row)) for row in rows)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m[0])))


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, x, y) with x*a + y*b == g.
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def det(m) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    if not m:
        return 0
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u*m*v = d, u and v unimodular, d diagonal with
    non-negative entries d1 | d2 | ... .
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # Move a minimal nonzero entry of the trailing block to (t, t).
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # Enforce divisibility of the trailing block by the pivot.
        piv = a[t][t]
        fix = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % piv != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            row_op(t, fix, -1)  # add row `fix` to row t, then restart the sweep
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return freeze_matrix(a), freeze_matrix(u), freeze_matrix(v)


def invariant_factors(m) -> tuple[int, ...]:
    d, _, _ = smith_normal_form(m)
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def integer_kernel_basis(m) -> tuple[Vector, ...]:
    """Basis of the saturated integer kernel {x : m*x = 0}, as column vectors."""
    d, _, v = smith_normal_form(m)
    rows = len(m)
    cols = len(m[0])
    r = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    vt = transpose(v)
    return tuple(vt[j] for j in range(r, cols))


def hnf_row_basis(rows) -> tuple[Vector, ...]:
    """Echelon basis (over Z) of the row span of the given integer rows."""
    basis: list[list[int]] = []  # kept in echelon order by pivot column
    pivot_col: list[int] = []
    for row in rows:
        vec = list(row)
        while True:
            lead = next((j for j, x in enumerate(vec) if x != 0), None)
            if lead is None:
                break
            pos = next((k for k, p in enumerate(pivot_col) if p == lead), None)
            if pos is None:
                ins = next((k for k, p in enumerate(pivot_col) if p > lead), len(basis))
                basis.insert(ins, vec)
                pivot_col.insert(ins, lead)
                break
            piv = basis[pos]
            g, x, y = _xgcd(piv[lead], vec[lead])
            if g != piv[lead]:
                # Replace the pivot row by the gcd combination.
                pa, pb = piv[lead] // g, vec[lead] // g
                new_piv = [x * p + y * w for p, w in zip(piv, vec)]
                vec = [pa * w - pb * p for p, w in zip(piv, vec)]
                basis[pos] = new_piv
            else:
                q = vec[lead] // piv[lead]
                vec = [w - q * p for p, w in zip(piv, vec)]
    # Normalize: positive pivots, reduce entries above each pivot.
    for k in range(len(basis)):
        if basis[k][pivot_col[k]] < 0:
            basis[k] = [-x for x in basis[k]]
    for k in range(len(basis) - 1, -1, -1):
        p = pivot_col[k]
        for i in range(k):
            q = basis[i][p] // basis[k][p]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return freeze_matrix(basis)


def isqrt_fraction_floor(fr: Fraction) -> int:
    """floor(sqrt(p/q)) for a non-negative rational p/q."""
    if fr < 0:
        raise ValueError("negative radicand")
    return isqrt(fr.numerator * fr.denominator) // fr.denominator


def sign_normalize(v: Sequence[int]) -> Vector:
    """Flip v so its first nonzero coordinate is positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def canonical_key(v: Sequence[int]):
    """Deterministic sort key: lexicographic after sign normalization."""
    norm = sign_normalize(v)
    flipped = 1 if norm != tuple(v) else 0
    return (norm, flipped)


def primitive_part(v: Sequence[int]) -> Vector:
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)
