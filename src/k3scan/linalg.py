"""Exact integer and rational linear algebra used throughout the toolkit.

Everything here works with Python ints and fractions.Fraction; no floating
point.  Matrices are sequences of equal-length rows, vectors are sequences of
numbers.  Functions return tuples so results can be hashed and cached.
"""

from __future__ import annotations

from math import gcd, lcm
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


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def gram_of(vectors, m) -> Matrix:
    """The pairings a.m.b of a sequence of vectors: B m B^T, B the vectors as rows."""
    images = [mat_vec(m, b) for b in vectors]
    return tuple(tuple(dot(a, mb) for mb in images) for a in vectors)


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _echelon(m) -> tuple[int, int]:
    """Fraction-free row echelon of m: (rank, signed last pivot).

    Bareiss elimination (Math. Comp. 22, 1968): the first row from r down
    that is non-zero in column c becomes pivot row r, and each row below it
    takes a_ij <- (p*a_ij - a_ic*a_rj) / prev for j > c, an exact division;
    columns <= c are not read again.  The last pivot of a square matrix of
    full rank, signed by the row swaps, is its determinant.

    The division is exact in integers only, so a matrix with a non-integer
    entry is first scaled row by row to integers, each row times the lcm of
    its denominators: the rank stays, and the last pivot is divided by the
    product of those lcms.
    """
    a = [list(row) for row in m]
    scale = 1
    if any(type(x) is not int for row in a for x in row):
        for row in a:
            d = lcm(*(x.denominator for x in row))
            row[:] = [int(x * d) for x in row]
            scale *= d
    rows, cols = len(a), len(a[0]) if a else 0
    r, sign, prev = 0, 1, 1
    for c in range(cols):
        if not a[r][c]:
            for i in range(r + 1, rows):
                if a[i][c]:
                    break
            else:
                continue
            a[r], a[i] = a[i], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        r += 1
        if r == rows:
            prev = p
            break
        for row in a[r:]:
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    if scale == 1:
        return r, sign * prev
    from fractions import Fraction  # loaded already: the entries are Fractions

    return r, Fraction(sign * prev, scale)


def det(m) -> int:
    """Determinant of a square matrix.

    Orders 2-4, the size of every minor the search, the sieve and the group
    take, are closed forms: ad - bc, a cofactor expansion, and for 4x4 the
    Laplace expansion pairing the 2x2 minors of rows 0-1 with the
    complementary ones of rows 2-3.  Other orders are read from `_echelon`.
    """
    n = len(m)
    if m and len(m[0]) != n:
        raise ValueError("matrix must be square")
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    r, last = _echelon(m)
    return last if r == n else 0


def symmetric_elimination(m) -> tuple[list[int], list[list[int]]]:
    """Fraction-free LDL^T of a symmetric integer matrix: (pivots, rows).

    Bareiss elimination (Math. Comp. 22, 1968) with no row exchange: step k
    sets a_ij <- (a_kk*a_ij - a_ik*a_kj) / p for i, j > k, p the last
    non-zero pivot.  By Sylvester's identity the numerator is D_k times the
    bordered minor det(A[{1..k+1, i}, {1..k+1, j}]), with D_k the leading
    k x k minor, which is p: the division is exact.  So pivots[k] =
    rows[k][k] = D_{k+1}, and when no pivot is zero, x^T A x =
    sum_k (rows[k].x)^2 / (D_k*D_{k+1}) with D_0 = 1.

    A zero pivot is removed by a congruence of the trailing block, after
    which the above holds for the moved matrix: a symmetric swap with a
    later non-zero diagonal entry, or else row_k += row_j and col_k += col_j
    for an a_kj != 0, which puts 2*a_kj on the diagonal.  A zero trailing
    row k is skipped with pivot 0.  So the non-zero pivots' successive
    ratios are a diagonal form congruent to A, the zero pivots count its
    nullity, and a positive definite matrix is never moved.
    """
    if not is_symmetric(m):
        raise ValueError("matrix must be square and symmetric")
    n = len(m)
    a = [list(row) for row in m]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            s = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if s is not None:
                a[k], a[s] = a[s], a[k]
                for row in a:
                    row[k], row[s] = row[s], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a:
                    row[k] += row[j]
        piv, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k:] = [0] + [(piv * x - f * y) // prev for x, y in zip(a[i][k + 1:], tail)]
        prev = piv
    return [a[k][k] for k in range(n)], a


def rank(m) -> int:
    """Rank over the rationals, read from `_echelon`."""
    return _echelon(m)[0]


def smith_normal_form(m) -> tuple[tuple[int, ...], Matrix]:
    """Smith normal form of an integer matrix: (factors, v).

    factors are the min(rows, cols) invariant factors d1 | d2 | ... >= 0, zeros
    last; v is unimodular with m*v = w*diag(factors) for a unimodular w that is
    not built (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

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

    return tuple(abs(a[i][i]) for i in range(min(rows, cols))), freeze_matrix(v)


def canonical_key(v: Sequence[int]):
    """Deterministic sort key: (v sign-normalized, 1 if that flipped v else 0).

    Sign-normalized means the first nonzero coordinate is positive.
    """
    v = tuple(v)
    for x in v:
        if x:
            if x < 0:
                return tuple(-y for y in v), 1
            break
    return v, 0


def primitive_part(v: Sequence[int]) -> Vector:
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)
