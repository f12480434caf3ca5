"""Exact enumeration of lattice vectors in an ellipsoidal shell.

Every caller shares one Fincke-Pohst kernel (Fincke & Pohst, Math. Comp. 44
(1985); Cohen, A Course in Computational Algebraic Number Theory, 2.7).  It
runs on plain ints: a positive definite integral form Q is rewritten as
scale*Q(x) = sum_i t_i*(M x)_i^2 with M upper triangular, (M x)_i =
m_i*x_i + sum_{j>i} n_ij*x_j, and t_i, m_i, n_ij integers read off the
fraction-free elimination of Q (`linalg.symmetric_elimination`).  The
kernel lists every integer x with lo <= scale*den^2*Q(x - c) <= hi, for a
rational centre c with den*M*c integral.  Affine forms in x are carried
down its levels as running sums, so each level reads its centre, its walls
and, at the last level, the output coordinates without a matrix product.

`DegreeCoset` is built once per lattice and H of positive square.  Its
`classes(k, lo, hi, walls)` finds every class D with H.D = k, D^2 in a
closed range and D.r >= 0 for each wall row r.  Those classes form the coset
D0 + h^perp, where D0 = (k/g)*u for a point u with H.u = g, the gcd of the
entries of G.H; when g does not divide k there are none.  Over a basis B of
h^perp, D = D0 + B*x has D^2 = k^2/H^2 - Q(x - c), where Q is the opposite
form on h^perp and B*c is minus the projection of D0 to h^perp.  B is
LLL-reduced under Q (Lenstra, Lenstra & Lovasz, Math. Ann. 261 (1982)) on
the same elimination's integers, so its Gram-Schmidt lengths fall off
slowly and every level's range is short.  The kernel walks the coset
directly, so every solution is an integral class and none is thrown away.
A wall row r becomes the half-space (B^T r).x + D0.r >= 0.  Fourier-Motzkin
elimination projects the walls onto every level (`Walls`), so each
coordinate's range is clipped by what the walls leave for it, a class on
the wrong side of a wall is never built, and a degree the walls rule out as
a whole visits no node.  D, G.D and each D.r reach the last level as
carried sums, and every class returned is re-checked there: its degree, its
square and its pairing with every wall.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg
from .errors import K3ScanError
from .lattice import GramLattice
from .linalg import Vector

# Fourier-Motzkin pairs each row of one sign with each of the other, so a
# level can hold the square of the rows of the level before it.  Past this
# many pairs a level keeps only the rows it inherits: a weaker cut, still sound.
_MAX_WALL_PAIRS = 1024


class EnumerationStats:
    """Work counter of the kernel, filled in only when one is passed in.

    `nodes` counts branch-and-bound nodes visited: one per range of a
    coordinate scanned, at every level, including ranges the walls leave
    empty.  A degree that the projected walls rule out as a whole adds
    nothing.  The classes a call builds are the list it returns: the kernel
    is centred on the coset {H.D = k}, so none is discarded.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: int = 0):
        self.nodes = nodes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes


def _lll(basis, gram):
    """LLL-reduce the list `basis` in place under x.gram.y, positive definite on its span.

    Cohen's integral LLL (A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) with delta = 3/4, on d_i = pivots[i] and lambda_ij =
    d_j*mu_ij = rows[j][i] from `linalg.symmetric_elimination` of the basis'
    Gram.  Each move is unimodular: b_i -= r*b_j with r = round(mu_ij), ties
    to even, or a swap of neighbours, after which the elimination is re-run.
    Returns it for the reduced basis: 2|lambda_ij| <= d_j for j < i and
    4*d_i*d_{i-2} >= 3*d_{i-1}^2 - 4*lambda_{i,i-1}^2.
    """

    def eliminate():
        return linalg.symmetric_elimination(linalg.gram_of(basis, gram))

    d, rows = eliminate()
    i = 1
    while i < len(basis):
        for j in reversed(range(i)):  # size-reduce b_i, the nearest b_j first
            r, rem = divmod(rows[j][i], d[j])
            if 2 * rem > d[j] or (2 * rem == d[j] and r % 2):
                r += 1
            if r:
                basis[i] = [a - r * b for a, b in zip(basis[i], basis[j])]
                for l in range(j + 1):  # rows[j][j] = d_j
                    rows[l][i] -= r * rows[l][j]
        if 4 * d[i] * (d[i - 2] if i > 1 else 1) >= 3 * d[i - 1] ** 2 - 4 * rows[i - 1][i] ** 2:
            i += 1  # the Lovasz condition
            continue
        basis[i - 1], basis[i] = basis[i], basis[i - 1]
        d, rows = eliminate()
        i = max(i - 1, 1)
    return d, rows


def _scaled_form(pivots, rows):
    """Integer branch-and-bound data for a positive definite form from its elimination.

    Q(x) = sum_i (rows[i].x)^2 / (D_{i-1}*D_i), D_i = pivots[i], D_{-1} = 1.
    Row i over its content g_i is m_i = D_i/g_i, then the n_ij: scale*Q(x) =
    sum_i t_i*(m_i*x_i + sum_{j>i} n_ij*x_j)^2, t_i = scale*g_i^2/(D_{i-1}*D_i).
    """
    n = len(rows)
    contents = [gcd(*row) for row in rows]
    mults = [d // g for d, g in zip(pivots, contents)]
    nums = [[0] * (i + 1) + [x // g for x in rows[i][i + 1:]] for i, g in enumerate(contents)]
    ratios = [Fraction(g * g, a * b) for g, a, b in zip(contents, [1, *pivots], pivots)]
    scale = lcm(*(r.denominator for r in ratios))
    return n, [int(r * scale) for r in ratios], mults, nums, scale


def _solve_form(form, p) -> list[Fraction]:
    """M*c for the c with Q c = p, from the factors scale*Q = M^T diag(t) M of `_scaled_form`.

    M is upper triangular with m_i on its diagonal and n_ij above it: a
    forward substitution with M^T, then a division by t.
    """
    n, t, mults, nums, scale = form
    y: list[Fraction] = []
    for i in range(n):
        y.append(Fraction(scale * p[i] - sum(nums[j][i] * y[j] for j in range(i)), mults[i]))
    return [yi / ti for yi, ti in zip(y, t)]


def _shell(form, den: int, lo: int, hi: int, outputs, levels, stats: EnumerationStats | None):
    """All (values, v) with lo <= v <= hi, where v = scale*den^2*Q(x - c), x integral.

    Every form is an int pair (a, b) meaning a.x + b.  `levels[i]` is
    (base, clips) for coordinate i: base is den*(M c)_i - den*sum_{j>i}
    n_ij*x_j, a form in the coordinates above i, and each clip (a, b) with
    a_i != 0 keeps only the x_i with a.x + b >= 0.  The values returned are
    those of `outputs` at x.

    Branch and bound from the last coordinate down.  With the coordinates
    above level i fixed, the budget left for level i bounds |y| for
    y = step*x_i - base, an interval of x_i, and each clip narrows it by
    exact floor and ceiling division.  At level 0 what falls short of lo
    is dropped.  The forms' partial sums b + sum_{l>i} a_l*x_l are carried
    down the levels; a level's own forms are dropped once it has read them.
    """
    n, t, mults, _, _ = form
    if hi < 0 or lo > hi:
        return []
    if n == 0:
        return [(tuple(b for _, b in outputs), 0)] if lo <= 0 else []
    # The carried forms: outputs, then level 0's base and clips, level 1's, ...
    forms = list(outputs)
    ends = []
    for base, clips in levels:
        ends.append(len(forms))
        forms.append(base)
        forms.extend(clips)
    cols = [[a[i] for a, _ in forms[: ends[i]]] for i in range(n)]  # x_i's coefficients below i
    clip_cols = [[a[i] for a, _ in clips] for i, (_, clips) in enumerate(levels)]
    out = []
    width = hi - lo
    steps = [m * den for m in mults]
    nodes = 0

    def level(i: int, rem: int, sums: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        ti, step, col = t[i], steps[i], cols[i]
        at = ends[i]
        base = sums[at]
        r = isqrt(rem // ti)
        first = -((r - base) // step)
        last = (r + base) // step
        for s, c in zip(sums[at + 1:], clip_cols[i]):
            if c > 0:
                bound = -(s // c)  # ceil(-s/c)
                if bound > first:
                    first = bound
            else:
                bound = s // -c
                if bound < last:
                    last = bound
        if i:
            for xi in range(first, last + 1):
                y = step * xi - base
                level(i - 1, rem - ti * y * y, [s + c * xi for s, c in zip(sums, col)])
            return
        for xi in range(first, last + 1):
            y = step * xi - base
            left = rem - ti * y * y
            if left <= width:
                out.append((tuple([s + c * xi for s, c in zip(sums, col)]), hi - left))

    level(n - 1, hi, [b for _, b in forms])
    if stats is not None:
        stats.nodes += nodes
    return out


class Walls:
    """Wall rows compiled against one `DegreeCoset`: D.r >= 0, projected onto every level.

    In h^perp coordinates a row r is the half-space a.x + m*c >= 0, with
    a = B^T r, c = u.r and m = k/g: the coefficients do not depend on the
    degree and the constant is linear in it, so the projection is computed
    once here for every degree.  Level i scans x_i with x_0..x_{i-1} still
    free, so it reads the system with those coordinates eliminated
    (Fourier-Motzkin; Schrijver, Theory of Linear and Integer Programming,
    12.2).  Each row, as given or combined, is divided by the content g of
    its coefficients; its constant becomes floor(m*c/g) (Chvatal-Gomory),
    which no integral x can tell apart, and rows with the same coefficients
    keep the least c.  A row with a_i != 0 clips level i, one with a_i = 0
    passes on to the next system, and one with no coefficients left needs
    m*c >= 0.  Eliminating real variables never cuts an integral point, so
    the projected rows only prune, and level 0 applies the rows themselves.
    """

    __slots__ = ("forms", "levels", "least")

    def __init__(self, coset: DegreeCoset, rows):
        # D.r = a.x + m*c for each row, carried to the last level for the re-check.
        self.forms = [
            (tuple(linalg.dot(b, r) for b in coset.basis), linalg.dot(coset.unit, r)) for r in rows
        ]
        self.least = 0  # the least c of a row with no coefficients
        self.levels: list[list] = []
        system: dict[Vector, Fraction] = {}

        def add(a, c) -> None:
            g = gcd(*a)
            if g:
                a, c = tuple(x // g for x in a), Fraction(c, g)
                system[a] = min(system.get(a, c), c)
            else:
                self.least = min(self.least, c)

        for a, c in self.forms:
            add(a, c)
        for i in range(len(coset.basis)):
            pos, neg, prior = [], [], system
            system = {}
            for a, c in prior.items():
                if a[i] > 0:
                    pos.append((a, c))
                elif a[i] < 0:
                    neg.append((a, c))
                else:
                    system[a] = c
            self.levels.append(pos + neg)
            if len(pos) * len(neg) <= _MAX_WALL_PAIRS:
                for ap, cp in pos:
                    for aq, cq in neg:  # -aq_i * p + ap_i * q has no x_i
                        a = [ap[i] * y - aq[i] * x for x, y in zip(ap, aq)]
                        add(a, ap[i] * cq - aq[i] * cp)

    def clips(self, m: int):
        """Each level's clips (a, b) for m = k/g; None when a row with no coefficients fails."""
        if m and self.least < 0:
            return None
        return [[(a, m * c.numerator // c.denominator) for a, c in level] for level in self.levels]


class DegreeCoset:
    """The classes of each degree against one H of positive square, in the kernel's terms.

    Built once per (lattice, H), which is validated here: w = G.H, g = gcd(w)
    with w.unit = g, a saturated basis of h^perp, LLL-reduced under the
    opposite form, the scaled opposite form on it, and each level's centre
    form for the coset H.D = g; the centre of H.D = k is k/g times it.
    """

    def __init__(self, lat: GramLattice, h):
        self.h = h = lat.check_vector(h)
        gram = lat.gram
        w = linalg.mat_vec(gram, h)
        self.h2 = linalg.dot(h, w)
        if self.h2 <= 0:
            raise ValueError("degree class must have positive square")
        (self.g,), v = linalg.smith_normal_form((w,))
        unit, *basis = linalg.transpose(v)  # the basis: lattice vectors orthogonal to h
        self.unit = unit = unit if linalg.dot(w, unit) > 0 else tuple(-x for x in unit)
        basis = [list(b) for b in basis]
        self.form = form = _scaled_form(*_lll(basis, [[-x for x in row] for row in gram]))
        self.basis = basis = [tuple(b) for b in basis]
        gbasis, gunit = [linalg.mat_vec(gram, b) for b in basis], linalg.mat_vec(gram, unit)
        # Level i's y = step*x_i - base is den*(M(x - c))_i, so base is the form
        # den*(Mc)_i - den*sum_{j>i} n_ij*x_j in x, with den clearing (Mc)'s denominators.
        mc = _solve_form(form, [linalg.dot(b, gunit) for b in basis])
        self.den = den = lcm(1, *(x.denominator for x in mc))
        self.bases = [(tuple(-den * x for x in row), int(den * y)) for row, y in zip(form[3], mc)]
        # Each coordinate of D = d0 + sum x_i*b_i and of G.D, as a form in x.
        coords = linalg.transpose([*basis, unit]) + linalg.transpose([*gbasis, gunit])
        self.outputs = [(row[:-1], row[-1]) for row in coords]

    def classes(self, k: int, lo: int, hi: int, walls=(), stats=None) -> list[tuple[int, Vector]]:
        """All (D^2, D) with H.D = k, lo <= D^2 <= hi and D.r >= 0 for each wall row r.

        `walls` is a sequence of int rows, or `Walls(self, rows)` to compile
        them once for many degrees.  The classes come in the kernel's order,
        deterministic but unsorted: a caller that prints their order sorts
        them.  Each one's square, degree and pairing with every wall row are
        re-checked in plain integer arithmetic before it is returned.
        """
        # Walls' least constants and clips(m) hold only for m = k/g >= 0: k < 0 could lose classes.
        if k < 0:
            raise ValueError("degree must be non-negative")
        if k % self.g:
            return []
        if not isinstance(walls, Walls):
            walls = Walls(self, walls)
        m = k // self.g
        clips = walls.clips(m)
        if clips is None:
            return []
        h2, den, form = self.h2, self.den, self.form
        # D^2 = k^2/H^2 - Q(x - c), and the kernel measures scale*den^2*Q.
        big = form[4] * den * den
        vhi = big * (k * k - lo * h2) // h2
        vlo = max(0, -(big * (hi * h2 - k * k) // h2))
        levels = [((a, m * b), level) for (a, b), level in zip(self.bases, clips)]
        # D, G.D and D.r for each wall row r, carried as forms to the last level.
        outputs = [(a, m * b) for a, b in self.outputs + walls.forms]
        rank, h = len(self.h), self.h
        out = []
        for values, v in _shell(form, den, vlo, vhi, outputs, levels, stats):
            cls, gcls = values[:rank], values[rank: 2 * rank]
            sq, deg = sum(map(mul, cls, gcls)), sum(map(mul, h, gcls))
            if deg != k or big * (k * k - sq * h2) != v * h2:
                raise K3ScanError(
                    f"kernel class {cls} has H.D = {deg} and D^2 = {sq}, "
                    f"not degree {k} and the square of its kernel value {v}"
                )
            pairings = values[2 * rank:]
            if pairings and min(pairings) < 0:
                raise K3ScanError(f"kernel class {cls} meets a wall row negatively: {pairings}")
            out.append((sq, cls))
        return out
