"""Shared test utilities: paper reference data and matrix matching."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

from hypothesis import strategies as st

from k3scan import linalg
from k3scan.classify import AffineExpr
from k3scan.cone import CurveSystem, _chamber
from k3scan.enumeration import DegreeCoset
from k3scan.errors import IncompleteSieveError, InvalidLatticeError, WallError
from k3scan.lattice import GramLattice, bilinear, square
from k3scan.presets import catalog
from k3scan.series import big_nef_classes_by_square


def sieve_presets():
    """Names of the presets that carry an ample seed."""
    return tuple(name for name, p in catalog().items() if p.ample is not None)


def is_ample(cs, d) -> bool:
    """Positive square and strictly positive degree on every curve."""
    return square(cs.lattice, d) > 0 and all(bilinear(cs.lattice, d, c) > 0 for c in cs.curves)


def is_primitive(v) -> bool:
    """True when the gcd of the coordinates is 1."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector")
    return g == 1


def primitive_counts(cs, max_square):
    """theta counted class by class: {d: primitive big-and-nef classes of square d}.

    The library derives theta from xi; this count is the independent check
    that ties the two series to the kernel's classes.
    """
    classes = big_nef_classes_by_square(cs, max_square)
    return {d: sum(map(is_primitive, classes.get(d, ()))) for d in range(2, max_square + 1, 2)}


def convolution(theta, d):
    """sum over m^2 | d of theta(d/m^2), for theta a dict {square: count}."""
    return sum(theta.get(d // (m * m), 0) for m in range(1, isqrt(d) + 1) if d % (m * m) == 0)


def hyperbolic_ell(lat, d, d2):
    """ell(D, D') = (D.D')^2 / (D^2 D'^2), exactly; >= 1 by the Hodge index."""
    a = square(lat, d)
    b = square(lat, d2)
    if a <= 0 or b <= 0:
        raise ValueError("both classes must have positive square")
    return Fraction(bilinear(lat, d, d2) ** 2, a * b)

# Lattices with many overlattices: 40, 58 and 37 isotropic elements of orders
# 2-45, where the presets carry six.
MANY_ISOTROPIC_GRAMS = (
    ((42, 1, -2), (1, -12, -1), (-2, -1, -8)),
    ((30, -3, 2, -2), (-3, -4, 1, 3), (2, 1, -4, -2), (-2, 3, -2, -12)),
    (
        (42, -3, 3, -3, -1),
        (-3, -2, -2, -2, -2),
        (3, -2, -6, 2, -2),
        (-3, -2, 2, -6, -2),
        (-1, -2, -2, -2, -10),
    ),
)


def mat_mul(a, b):
    """The matrix product a*b, as tuples."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def bezout(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, x, y) with x*a + y*b == g.
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def echelon_row_basis(rows):
    """An echelon basis (over Z) of the row span of the given integer rows.

    Not the Hermite normal form: the entries above each positive pivot are
    reduced from the last pivot up, and a later step can move one out of
    [0, pivot).  The general routine that saturated the overlattice before
    the one-pass `discriminant._saturation`, kept as its reference.
    """
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
            g, x, y = bezout(piv[lead], vec[lead])
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
    return linalg.freeze_matrix(basis)


@st.composite
def unimodular_change(draw, n):
    """(U, U^-1) for a random product of 0-4 elementary moves col_i += f*col_j.

    A Gram G becomes U^T G U in the new basis, and a class v becomes U^-1 v.
    """
    u, uinv = linalg.identity(n), linalg.identity(n)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        j += j >= i
        f = draw(st.integers(-2, 2))
        for row in u:
            row[i] += f * row[j]
        uinv[j] = [x - f * y for x, y in zip(uinv[j], uinv[i])]
    return u, uinv


def gram_permutation_equivalent(a, b):
    """A permutation p with a[p[i]][p[j]] == b[i][j], or None.

    Backtracking with row-multiset pruning; fine for sizes up to 8.
    """
    n = len(a)
    if len(b) != n:
        return None
    profile_a = [tuple(sorted(row)) for row in a]
    profile_b = [tuple(sorted(row)) for row in b]
    if sorted(profile_a) != sorted(profile_b):
        return None
    perm = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or profile_a[cand] != profile_b[i]:
                continue
            if a[cand][cand] != b[i][i]:
                continue
            if any(a[cand][perm[j]] != b[i][j] for j in range(i)):
                continue
            perm[i] = cand
            used[cand] = True
            if extend(i + 1):
                return True
            used[cand] = False
        perm[i] = None
        return False

    return tuple(perm) if extend(0) else None


# Curve intersection matrices as published, one per seeded preset.
PUBLISHED_CURVE_GRAMS = {
    "S1": [
        [-2, 0, 4, 6, 4, 0],
        [0, -2, 0, 4, 6, 4],
        [4, 0, -2, 0, 4, 6],
        [6, 4, 0, -2, 0, 4],
        [4, 6, 4, 0, -2, 0],
        [0, 4, 6, 4, 0, -2],
    ],
    "S2": [
        [-2, 1, 7, 10, 7, 1],
        [1, -2, 1, 7, 10, 7],
        [7, 1, -2, 1, 7, 10],
        [10, 7, 1, -2, 1, 7],
        [7, 10, 7, 1, -2, 1],
        [1, 7, 10, 7, 1, -2],
    ],
    "S3": [
        [-2, 1, 4, 1],
        [1, -2, 1, 4],
        [4, 1, -2, 1],
        [1, 4, 1, -2],
    ],
    "S4": [
        [-2, 1, 3, 1],
        [1, -2, 1, 6],
        [3, 1, -2, 1],
        [1, 6, 1, -2],
    ],
    "S5": [
        [-2, 1, 3, 0],
        [1, -2, 0, 3],
        [3, 0, -2, 1],
        [0, 3, 1, -2],
    ],
    "S6": [
        [-2, 6, 1, 5, 5, 1],
        [6, -2, 5, 1, 1, 5],
        [1, 5, -2, 11, 0, 9],
        [5, 1, 11, -2, 9, 0],
        [5, 1, 0, 9, -2, 11],
        [1, 5, 9, 0, 11, -2],
    ],
    "L24": [
        [-2, 0, 0, 3, 1, 1],
        [0, -2, 0, 1, 3, 1],
        [0, 0, -2, 1, 1, 3],
        [3, 1, 1, -2, 0, 0],
        [1, 3, 1, 0, -2, 0],
        [1, 1, 3, 0, 0, -2],
    ],
    "L27": [
        [-2, 3, 1, 1, 1, 1, 1, 1],
        [3, -2, 1, 1, 1, 1, 1, 1],
        [1, 1, -2, 6, 4, 0, 4, 0],
        [1, 1, 6, -2, 0, 4, 0, 4],
        [1, 1, 4, 0, -2, 6, 4, 0],
        [1, 1, 0, 4, 6, -2, 0, 4],
        [1, 1, 4, 0, 4, 0, -2, 6],
        [1, 1, 0, 4, 0, 4, 6, -2],
    ],
}

# Chamber vertex tables as published, in each preset's shipped basis.
# S2's table is printed in the curve basis (A1, A2, A3) with A3 = L-5A1-3A2;
# converted here to the preset basis (L, A1, A2) by (a,b,c) -> (c, a-5c, b-3c).
PUBLISHED_VERTICES = {
    "S2": sorted(
        (c, a - 5 * c, b - 3 * c)
        for a, b, c in [
            (5, 3, 1),
            (13, -9, 5),
            (17, -21, 13),
            (13, -21, 17),
            (5, -9, 13),
            (1, 3, 5),
        ]
    ),
    "S6": sorted(
        [
            (34, -49, 41),
            (10, 5, 3),
            (34, -27, 19),
            (10, -17, 25),
            (2, 1, 5),
            (20, -23, 17),
        ]
    ),
    "L27": sorted(
        [
            (6, 3, 7, 2),
            (6, -27, 22, 17),
            (-6, -18, 23, 13),
            (6, 3, 2, 7),
            (6, -27, 17, 22),
            (-6, -18, 13, 23),
            (6, -12, 17, 7),
            (-6, -3, 13, 8),
            (-6, -33, 28, 23),
            (6, -12, 7, 17),
            (-6, -3, 8, 13),
            (-6, -33, 23, 28),
        ]
    ),
}

# Expected vertex (square, degree) multisets per preset.
PUBLISHED_VERTEX_STATS = {
    "S1": sorted([(6, 6)] * 6),
    "S2": sorted([(36, 36)] * 6),
    "S3": sorted([(12, 12)] * 4),
    "S4": sorted([(60, 20)] * 4),
    "S5": sorted([(4, 4)] * 2 + [(12, 6)] * 2),
    "S6": sorted([(132, 44)] * 4 + [(44, 22)] * 2),
    "L24": sorted([(14, 7)] * 2 + [(28, 14)] * 6),
    "L27": sorted([(60, 30)] * 12),
}

# Swap symmetries of five built-in templates, each a map parameter ->
# expression in the old values.  Dropping a template's normalizations must
# recover exactly the orbit of its published solutions under them.
TEMPLATE_SYMMETRIES = {
    "S1": ({"a": "4-a", "c": "4-c"}, {"b": "4-b", "c": "4-c"}),
    "S3": ({"a": "2-a"},),
    "S4": ({"t": "2-t"},),
    "S6": ({"u": "6-u", "a": "9-a"}, {"v": "6-v", "a": "9-a"}),
    "L27": (
        {"a": "4-a", "b": "4-b", "u": "2-u"},
        {"a": "4-a", "c": "4-c", "v": "2-v"},
        {"b": "4-b", "c": "4-c", "w": "2-w"},
        {"u": "2-u", "v": "2-v", "w": "2-w"},
    ),
}


def evaluate(expr, assignment) -> int:
    """The value of an AffineExpr at an assignment {name: int}."""
    return expr.const + sum(c * assignment[name] for name, c in expr.coeffs)


def instantiate(template, values):
    """The matrix of a MatrixTemplate at a tuple of parameter values."""
    assignment = dict(zip(template.parameters, values))
    return tuple(tuple(evaluate(e, assignment) for e in row) for row in template.entries)


def orbit(parameters, symmetries, values):
    """Closure of a parameter tuple under swap symmetries (maps parameter -> expression)."""
    maps = [{p: AffineExpr.parse(e) for p, e in sym.items()} for sym in symmetries]
    seen = {tuple(values)}
    queue = [tuple(values)]
    while queue:
        assignment = dict(zip(parameters, queue.pop()))
        for mapping in maps:
            image = tuple(
                evaluate(mapping[p], assignment) if p in mapping else assignment[p]
                for p in parameters
            )
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def isotropic_elements_whole_group(dg):
    """`isotropic_elements` as a scan of every element of the group, in order.

    The reference for the primary split: the same integer test
    c^T form c = 0 mod 2N on each element, kept up to inversion.
    """
    two_n, factors = 2 * dg.denominator, dg.invariant_factors
    out = []
    for coeffs in dg.elements():
        if (
            dg._scaled_norm(coeffs) % two_n == 0
            and any(coeffs)
            and coeffs <= tuple((-c) % d for c, d in zip(coeffs, factors))
        ):
            out.append(coeffs)
    return out


def sieve_every_degree(lat, h, kmax):
    """`vinberg_sieve` without its early stop: every degree up to kmax, then one test.

    The reference for the stop rule.  It accepts classes as the sieve does and
    makes the sieve's own closure test once, at kmax.
    """
    coset = DegreeCoset(lat, h)
    walls = [r for _, r in coset.classes(0, -2, -2)]
    if walls:
        raise WallError(min(walls, key=linalg.canonical_key))
    accepted = []
    for k in range(1, kmax + 1):
        for r in sorted((r for _, r in coset.classes(k, -2, -2)), key=linalg.canonical_key):
            if all(bilinear(lat, r, c) >= 0 for c in accepted):
                accepted.append(r)
    if not accepted:
        raise IncompleteSieveError(f"no (-2)-curves found up to degree {kmax}")
    curves = tuple(accepted)
    chamber = _chamber(lat, coset.h, curves, kmax)
    gram = tuple(tuple(bilinear(lat, a, b) for b in curves) for a in curves)
    return CurveSystem(
        lattice=lat, ample_seed=coset.h, curves=curves, gram_of_curves=gram, chamber=chamber
    )


def random_seeded_lattices(seed, count):
    """`count` (lattice, seed) pairs of rank 2-4 with small even Gram entries."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3, 3, 4, 4))
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = rng.choice((-6, -4, -2, -2, -2, 2, 4, 6, 8, 12))
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        try:
            lat = GramLattice(n, gram)
        except InvalidLatticeError:
            continue
        for _ in range(50):
            h = tuple(rng.randint(-3, 3) for _ in range(n))
            if square(lat, h) > 0:
                out.append((lat, h))
                break
    return out
