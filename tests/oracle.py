"""Independent brute-force oracle for the enumeration results.

Everything here is a naive box scan in the original coordinates, vectorized
with numpy over exact integers.  The box bounds come from a positive definite
reduction that is derived here from scratch (own Gaussian inverse), not from
the package's Cholesky/branch-and-bound path, so agreement is a genuine
cross-check of the enumeration kernel.

For a class D with D^2 = d and H.D = k the form
    R(v) = 2 (v.H)^2 / H^2 - v^2
is positive definite on the whole space when the lattice has signature
(1, rho-1); solutions satisfy R(D) = 2k^2/H^2 - d, which caps |D_i| by
sqrt(R(D) * (R^-1)_ii).

The discriminant scan checks isotropic classes of L*/L the same way: it
tests every candidate coset representative directly, not through the
package's Smith normal form or discriminant-group code.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np


def _inverse(matrix):
    """Plain Gaussian inverse over Fractions, local to the oracle."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _box_bounds(pd_matrix, value) -> list[int]:
    inv = _inverse(pd_matrix)
    bounds = []
    for i in range(len(pd_matrix)):
        cap = Fraction(value) * inv[i][i]
        assert cap >= 0
        bounds.append(isqrt(cap.numerator * cap.denominator) // cap.denominator)
    return bounds


def _grid(bounds, centers=None):
    axes = []
    for i, b in enumerate(bounds):
        c = 0 if centers is None else centers[i]
        axes.append(np.arange(c - b, c + b + 1, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def box_scan_vectors_of_norm(gram, n):
    """All v with v^T G v == n for a negative definite G, by brute box scan."""
    size = len(gram)
    q = [[-gram[i][j] for j in range(size)] for i in range(size)]
    bounds = _box_bounds(q, -n)
    pts = _grid(bounds)
    g = np.array(gram, dtype=np.int64)
    squares = np.einsum("ij,jk,ik->i", pts, g, pts)
    hits = pts[squares == n]
    out = [tuple(int(x) for x in row) for row in hits]
    return sorted(v for v in out if any(v))


def box_scan_classes(lat, h, d, k):
    """All D with D^2 == d and H.D == k, by brute box scan in lattice coordinates."""
    gram = lat.gram
    rho = lat.rank
    g = np.array(gram, dtype=np.int64)
    hvec = np.array(h, dtype=np.int64)
    w = g @ hvec
    h2 = int(hvec @ w)
    value = 2 * k * k - d * h2
    if value < 0:
        return []
    r_scaled = [[2 * int(w[i]) * int(w[j]) - h2 * gram[i][j] for j in range(rho)]
                for i in range(rho)]
    bounds = _box_bounds(r_scaled, value)
    pts = _grid(bounds)
    squares = np.einsum("ij,jk,ik->i", pts, g, pts)
    degrees = pts @ w
    hits = pts[(squares == d) & (degrees == k)]
    return sorted(tuple(int(x) for x in row) for row in hits)


def box_scan_classes_between(lat, h, lo, hi, k):
    """All (D^2, D) with lo <= D^2 <= hi and H.D == k, by one box scan, sorted.

    The box for the least square lo holds every class of a larger square.
    """
    gram = lat.gram
    rho = lat.rank
    g = np.array(gram, dtype=np.int64)
    w = g @ np.array(h, dtype=np.int64)
    h2 = int(np.array(h, dtype=np.int64) @ w)
    value = 2 * k * k - lo * h2
    if value < 0 or lo > hi:
        return []
    r_scaled = [[2 * int(w[i]) * int(w[j]) - h2 * gram[i][j] for j in range(rho)]
                for i in range(rho)]
    pts = _grid(_box_bounds(r_scaled, value))
    squares = np.einsum("ij,jk,ik->i", pts, g, pts)
    hits = (squares >= lo) & (squares <= hi) & (pts @ w == k)
    return sorted(
        (int(sq), tuple(int(x) for x in row)) for sq, row in zip(squares[hits], pts[hits])
    )


def box_scan_big_nef_count(lat, h, curves, ell, d, primitive_only):
    """Count big-and-nef classes of square d by per-degree box scans."""
    from math import gcd

    h2 = sum(h[i] * lat.gram[i][j] * h[j] for i in range(lat.rank) for j in range(lat.rank))
    bound = Fraction(ell) * h2 * d
    kmax = isqrt(bound.numerator * bound.denominator) // bound.denominator
    g = np.array(lat.gram, dtype=np.int64)
    count = 0
    for k in range(1, kmax + 1):
        for cls in box_scan_classes(lat, h, d, k):
            vec = np.array(cls, dtype=np.int64)
            if any(int(vec @ g @ np.array(c, dtype=np.int64)) < 0 for c in curves):
                continue
            if primitive_only and gcd(*[abs(x) for x in cls]) != 1:
                continue
            count += 1
    return count


def _det(matrix) -> int:
    """Exact determinant by Fraction elimination, local to the oracle."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return int(det)


def scan_isotropic_dual_classes(gram):
    """Non-zero classes x of L*/L with x^2 = 0 in Q/2Z, by a brute scan.

    With m = |det G| the lattice m L* lies in L, so every class of L*/L has a
    representative x = u/m with u in [0, m)^n.  Such an x pairs integrally
    with L iff G u = 0 (mod m), and x^2 = u^T G u / m^2 lies in 2Z iff
    u^T G u = 0 (mod 2 m^2).  The scan visits all m^n vectors u (27^4 rows
    for L25) and returns the representatives x in [0, 1)^n, sorted.
    """
    n = len(gram)
    m = abs(_det(gram))
    assert m > 0
    g = np.array(gram, dtype=np.int64)
    pts = np.indices((m,) * n, dtype=np.int64).reshape(n, -1).T
    dual = np.all((pts @ g) % m == 0, axis=1)
    norms = np.einsum("ij,jk,ik->i", pts, g, pts)
    hits = pts[dual & (norms % (2 * m * m) == 0) & np.any(pts != 0, axis=1)]
    return sorted(tuple(Fraction(int(c), m) for c in row) for row in hits)
