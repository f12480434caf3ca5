"""Exact enumeration of lattice vectors in an ellipsoidal shell.

Every caller shares one Fincke-Pohst kernel (Fincke & Pohst, Math. Comp. 44
(1985); Cohen, A Course in Computational Algebraic Number Theory, 2.7).  It
runs on plain ints: a positive definite rational form Q is rewritten as
scale*Q(x) = sum_i t_i*(m_i*x_i + sum_{j>i} n_ij*x_j)^2, and the kernel lists
every integer x with lo <= scale*den^2*Q(x - c/den) <= hi, for an integer
centre c over a denominator den.

`DegreeCoset` is built once per lattice and H of positive square.  Its
`classes(k, lo, hi, walls)` finds every class D with H.D = k, D^2 in a
closed range and D.r >= 0 for each wall row r.  Those classes form the coset
D0 + h^perp, where D0 = (k/g)*u for a point u with H.u = g, the gcd of the
entries of G.H; when g does not divide k there are none.  Over a basis B of
h^perp, D = D0 + B*x has D^2 = k^2/H^2 - Q(x - c), where Q is the opposite
form on h^perp and B*c is minus the projection of D0 to h^perp.  The kernel
walks that coset directly, so every solution is an integral class and none
is thrown away.  A wall row r becomes the half-space
(B^T r).x + D0.r >= 0, which clips the innermost coordinate's range, so a
class on the wrong side of a wall is never built.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from . import linalg
from .errors import K3ScanError
from .lattice import GramLattice
from .linalg import Vector, canonical_key


class EnumerationStats:
    """Work counters of the kernel, filled in only when one is passed in.

    `nodes` counts branch-and-bound nodes visited.  `lifts_tried` counts the
    classes built from kernel solutions; with walls, only those that pass the
    clip are built, so only they are counted.  The kernel is centred on the
    coset {H.D = k}, so every class built is integral and none is discarded.
    """

    __slots__ = ("lifts_tried", "nodes")

    def __init__(self, lifts_tried: int = 0, nodes: int = 0):
        self.lifts_tried = lifts_tried
        self.nodes = nodes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lifts_tried, self.nodes) == (other.lifts_tried, other.nodes)


def _cholesky(q):
    """Decompose a positive definite rational matrix as sum d_i (x_i + sum u_ij x_j)^2.

    Returns (d, u) with d a list of positive Fractions and u strictly upper
    triangular.  Raises ValueError when the form is not positive definite.
    """
    n = len(q)
    a = [[Fraction(q[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= d[i] * u[i][k] * u[i][l]
    return d, u


def _scaled_form(q):
    """Integer branch-and-bound data for a positive definite rational form.

    Rewrites scale*Q(x) = sum_i t_i * (m_i*x_i + sum_{j>i} n_ij*x_j)^2 with all
    of t_i, m_i, n_ij integers, so the enumeration runs on plain ints.
    """
    d, u = _cholesky(q)
    n = len(d)
    mults = [lcm(1, *(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    nums = [[int(u[i][j] * mults[i]) for j in range(n)] for i in range(n)]
    scale = lcm(1, *(d[i].denominator * mults[i] * mults[i] for i in range(n)))
    t = [int(d[i] * scale) // (mults[i] * mults[i]) for i in range(n)]
    return n, t, mults, nums, scale


def _solve_form(form, p) -> list[Fraction]:
    """The c with Q c = p, from the factors scale*Q = M^T diag(t) M of `_scaled_form`.

    M is upper triangular with m_i on its diagonal and n_ij above it: a
    forward substitution with M^T, a division by t, a back substitution with M.
    """
    n, t, mults, nums, scale = form
    y: list[Fraction] = []
    for i in range(n):
        y.append(Fraction(scale * p[i] - sum(nums[j][i] * y[j] for j in range(i)), mults[i]))
    c = [Fraction(0)] * n
    for i in reversed(range(n)):
        c[i] = (y[i] / t[i] - sum(nums[i][j] * c[j] for j in range(i + 1, n))) / mults[i]
    return c


def _shell(form, centre, den: int, lo: int, hi: int, stats: EnumerationStats | None, walls=()):
    """All (x, v) with x integral and lo <= v <= hi, where v = scale*den^2*Q(x - centre/den).

    Branch and bound from the last coordinate down.  With the coordinates
    above level i fixed, the budget left for level i bounds |y| for
    y = step*x_i - base, an interval of x_i.  At level 0 what falls short of
    lo is dropped.  Each wall (a, b) keeps only the x with a.x + b >= 0: its
    partial sum b + sum_{l>i} a_l*x_l is carried down the levels, and at
    level 0 it clips the interval of x_0 by exact floor and ceiling division.
    """
    n, t, mults, nums, _ = form
    if hi < 0 or lo > hi:
        return []
    if n == 0:
        return [((), 0)] if lo <= 0 and all(b >= 0 for _, b in walls) else []
    out = []
    width = hi - lo
    steps = [m * den for m in mults]
    cols = [[a[i] for a, _ in walls] for i in range(n)]  # the walls' x_i coefficients
    x = [0] * n
    z = [0] * n  # den*x - centre: the scaled offset from the centre
    nodes = 0

    def level(i: int, rem: int, sums: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        ti, row, step, col = t[i], nums[i], steps[i], cols[i]
        base = mults[i] * centre[i] - sum(row[j] * z[j] for j in range(i + 1, n))
        r = isqrt(rem // ti)
        first = -((r - base) // step)
        last = (r + base) // step
        if i:
            for xi in range(first, last + 1):
                y = step * xi - base
                x[i] = xi
                z[i] = den * xi - centre[i]
                level(i - 1, rem - ti * y * y, [s + c * xi for s, c in zip(sums, col)])
            return
        for s, c in zip(sums, col):
            if c > 0:
                bound = -(s // c)  # ceil(-s/c)
                if bound > first:
                    first = bound
            elif c < 0:
                bound = s // -c
                if bound < last:
                    last = bound
            elif s < 0:
                return
        for xi in range(first, last + 1):
            y = step * xi - base
            left = rem - ti * y * y
            if left <= width:
                x[0] = xi
                out.append((tuple(x), hi - left))

    level(n - 1, hi, [b for _, b in walls])
    if stats is not None:
        stats.nodes += nodes
    return out


class DegreeCoset:
    """The classes of each degree against one H of positive square, in the kernel's terms.

    Built once per (lattice, H), which is validated here: w = G.H, g = gcd(w)
    with w.unit = g, a saturated basis of h^perp, the scaled opposite form on
    it, and centre/den, the kernel centre of the coset H.D = g, so that the
    centre of H.D = k is (k/g)*centre/den.
    """

    def __init__(self, lat: GramLattice, h):
        self.h = h = lat.check_vector(h)
        self.gram = gram = lat.gram
        w = linalg.mat_vec(gram, h)
        self.h2 = linalg.dot(h, w)
        if self.h2 <= 0:
            raise ValueError("degree class must have positive square")
        d, u, v = linalg.smith_normal_form((w,))
        cols = linalg.transpose(v)
        self.w, self.g = w, d[0][0]
        self.unit = tuple(u[0][0] * x for x in cols[0])  # u*w*v = d, with u = (+-1)
        self.basis = basis = cols[1:]  # each a lattice vector orthogonal to h
        q = [[-linalg.dot(a, linalg.mat_vec(gram, b)) for b in basis] for a in basis]
        self.form = _scaled_form(q)
        p = [linalg.dot(a, linalg.mat_vec(gram, self.unit)) for a in basis]
        c = _solve_form(self.form, p)
        self.den = lcm(1, *(x.denominator for x in c))
        self.centre = tuple(int(x * self.den) for x in c)
        self.rows = [tuple(b[i] for b in basis) for i in range(lat.rank)]  # D = d0 + rows*x

    def classes(self, k: int, lo: int, hi: int, walls=(), stats=None) -> list[tuple[int, Vector]]:
        """All (D^2, D) with H.D = k, lo <= D^2 <= hi and D.r >= 0 for each wall row r.

        The classes come in canonical order.  Each one's square and degree are
        re-checked in plain integer arithmetic before it is returned.
        """
        if k < 0:
            raise ValueError("degree must be non-negative")
        if k % self.g:
            return []
        h2, den, form = self.h2, self.den, self.form
        # D^2 = k^2/H^2 - Q(x - c), and the kernel measures scale*den^2*Q.
        big = form[4] * den * den
        vhi = big * (k * k - lo * h2) // h2
        vlo = max(0, -(big * (hi * h2 - k * k) // h2))
        m = k // self.g
        kc = [m * c for c in self.centre]
        d0 = [m * x for x in self.unit]
        # D.r = d0.r + sum_i x_i (basis_i.r): a half-space in h^perp coordinates.
        walls = [(tuple(linalg.dot(b, r) for b in self.basis), linalg.dot(d0, r)) for r in walls]
        gram, w, rows = self.gram, self.w, self.rows
        out = []
        for x, v in _shell(form, kc, den, vlo, vhi, stats, walls):
            cls = tuple(a + sum(map(mul, row, x)) for a, row in zip(d0, rows))
            sq, deg = linalg.dot(cls, linalg.mat_vec(gram, cls)), linalg.dot(w, cls)
            if deg != k or big * (k * k - sq * h2) != v * h2:
                raise K3ScanError(
                    f"kernel class {cls} has H.D = {deg} and D^2 = {sq}, "
                    f"not degree {k} and the square of its kernel value {v}"
                )
            out.append((sq, cls))
        if stats is not None:
            stats.lifts_tried += len(out)
        out.sort(key=lambda item: canonical_key(item[1]))
        return out
