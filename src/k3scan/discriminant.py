"""Discriminant forms of even lattices: the group, its isotropic elements, overlattices, genus.

`discriminant_group` reads the finite quadratic form (NS*/NS, q) off the
Smith normal form of the Gram; `isotropic_elements` scans it one p-primary
part at a time, and `overlattice_from_isotropic` adjoins an isotropic coset.
`identify_type` names the catalog lattice in a given lattice's genus
(Nikulin 1979).  Of the commands, only `disc` and `classify` load this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from . import linalg
from .errors import CostLimitError, InvalidLatticeError, K3ScanError
from .lattice import GramLattice
from .linalg import Matrix, dot, freeze_matrix, identity, mat_vec
from .presets import catalog

# isotropic_elements refuses a group of more elements than this.  It visits
# only sum |A_p| of them, but for a p-group that is every element, so the
# guard still bounds |A|, the worst case.
MAX_SCANNED_ELEMENTS = 2_000_000


class DiscriminantGroup(NamedTuple):
    """The finite quadratic form (NS*/NS, q) of an even lattice.

    `invariant_factors` lists the cyclic orders > 1; `generator_lifts` are
    rational vectors in lattice coordinates representing the generators.
    Group elements are coefficient tuples c with 0 <= c_i < d_i.  The pairings
    of the generator lifts are stored as the integer matrix `form` = N (g_i.g_j)
    with N = `denominator`, so that x.x = c^T form c / N for x = sum c_i g_i.
    """

    lattice: GramLattice
    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[Fraction, ...], ...]
    form: Matrix
    denominator: int

    def order(self) -> int:
        return prod(self.invariant_factors)

    def elements(self):
        """All coefficient tuples, the zero element first."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def lift(self, coeffs) -> tuple[Fraction, ...]:
        """A rational vector in lattice coordinates representing the coset."""
        rho = self.lattice.rank
        out = [Fraction(0)] * rho
        for c, g in zip(coeffs, self.generator_lifts):
            for i in range(rho):
                out[i] += c * g[i]
        # Reduce mod the lattice for a canonical representative in [0,1)^rho.
        return tuple(x - x.__floor__() for x in out)

    def q_value(self, coeffs) -> Fraction:
        """Discriminant form q(x) = x.x as an element of Q/2Z, in [0, 2).

        Moving x by a lattice vector l changes x.x by 2 x.l + l.l, an even
        integer, so q is read off the generator form without lifting x.
        """
        n = self.denominator
        return Fraction(self._scaled_norm(coeffs) % (2 * n), n)

    def _scaled_norm(self, coeffs) -> int:
        """N x.x = c^T form c for x = sum c_i g_i, an exact integer."""
        return linalg.dot(coeffs, linalg.mat_vec(self.form, coeffs))

    def element_order(self, coeffs) -> int:
        n = 1
        for c, d in zip(coeffs, self.invariant_factors):
            n = lcm(n, d // gcd(c, d))
        return n


def discriminant_group(lat: GramLattice) -> DiscriminantGroup:
    """NS*/NS with generator lifts taken from the Smith normal form of the Gram."""
    snf, v = linalg.smith_normal_form(lat.gram)
    lifts = []
    factors = []
    for f, col in zip(snf, linalg.transpose(v)):
        if f > 1:
            factors.append(f)
            lifts.append(tuple(Fraction(x % f, f) for x in col))
    pairings = linalg.gram_of(lifts, lat.gram)
    n = lcm(1, *(b.denominator for row in pairings for b in row))
    return DiscriminantGroup(
        lattice=lat,
        invariant_factors=tuple(factors),
        generator_lifts=tuple(lifts),
        form=freeze_matrix([[int(b * n) for b in row] for row in pairings]),
        denominator=n,
    )


def isotropic_elements(dg: DiscriminantGroup) -> list[tuple[int, ...]]:
    """Non-trivial elements with q = 0 in Q/2Z, reported up to inversion.

    x and -x generate the same cyclic subgroup, hence the same overlattice, so
    only the lexicographically smaller of the two coefficient tuples is kept
    (an element of order 2 is its own inverse and is kept once), in sorted
    order.  A group of more than MAX_SCANNED_ELEMENTS elements raises
    CostLimitError before the scan.

    A is the orthogonal sum of its p-primary parts A_p (Nikulin 1979), and
    each A_p is scanned on its own: in the Smith coordinates it is generated
    by the multiples (d_i / p^a_i) g_i with p^a_i || d_i.  An element of A_p
    is isotropic when c^T form c = 0 mod 2N in plain integers.  Every sum of
    one isotropic element per prime is then formed (mod d_i), so the work is
    sum |A_p| form evaluations plus the output, not |A|.  This is exact:
    x = sum x_p uniquely, and elements of coprime orders pair to 0 in Q/Z,
    so q(x) = sum q(x_p) mod 2.  The q(x_p) have denominators that are
    powers of different primes, so the sum is 0 mod 2 only if each q(x_p)
    is an integer.  For odd p, q(x_p) = 1 would give
    q(p^k x_p) = p^2k q(x_p) = 1, but p^k x_p = 0; so every odd part has
    q = 0, and then q(x_2) = 0 as well.
    """
    if dg.order() > MAX_SCANNED_ELEMENTS:
        raise CostLimitError(
            f"the discriminant group has order {dg.order()}, more than "
            f"{MAX_SCANNED_ELEMENTS} elements to scan for isotropic ones"
        )
    two_n, factors = 2 * dg.denominator, dg.invariant_factors
    found = [(0,) * len(factors)]
    for p in _prime_divisors(dg.order()):
        # d // gcd(d, p^bits) is d with its p-part removed: the step of A_p.
        part = [
            c
            for c in itertools.product(
                *(range(0, d, d // gcd(d, p ** d.bit_length())) for d in factors)
            )
            if dg._scaled_norm(c) % two_n == 0
        ]
        found = [
            tuple((a + b) % d for a, b, d in zip(x, y, factors)) for x in found for y in part
        ]
    return sorted(
        c for c in found if any(c) and c <= tuple((-x) % d for x, d in zip(c, factors))
    )


def _prime_divisors(n: int) -> list[int]:
    """The primes dividing n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, x, y) with x*a + y*b == g.
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _saturation(den: int, y) -> list[list[int]]:
    """den times an echelon basis of Z^n + Z y/den, for integers 0 <= y_i < den.

    One pass of integer row reduction on the rows den*e_1..den*e_n, then y:
    for each column j in order where den does not divide the remainder
    rest_j of y, row j becomes b*rest with g = gcd(den, rest_j) = a*den +
    b*rest_j on the diagonal (`_xgcd`), and rest is scaled by den/g; then
    rest_j is 0.  Since y >= 0, every g is positive and no pivot changes
    sign.  Last, the entries above each pivot are reduced by floor division
    from the last pivot up, so a later step can move one out of [0, pivot):
    not quite the Hermite normal form.
    """
    n = len(y)
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    rest = list(y)
    for j in range(n):
        if rest[j] % den:
            g, _, b = _xgcd(den, rest[j])
            rows[j] = [b * x for x in rest]
            rows[j][j] = g
            rest = [den // g * x for x in rest]
        rest[j] = 0
    for k in reversed(range(n)):
        for i in range(k):
            q = rows[i][k] // rows[k][k]
            if q:
                rows[i] = [x - q * z for x, z in zip(rows[i], rows[k])]
    return rows


def overlattice_from_isotropic(dg: DiscriminantGroup, element) -> GramLattice:
    """The even overlattice obtained by adjoining an isotropic coset.

    The result has the same rank, contains dg.lattice with index equal to the
    order of the element, and its determinant shrinks by the index squared.
    """
    element = tuple(element)
    if not any(element):
        raise ValueError("the trivial element does not give a proper overlattice")
    if dg.q_value(element) != 0:
        raise ValueError("element is not isotropic")
    lat = dg.lattice
    g = dg.lift(element)
    den = lcm(*(x.denominator for x in g))
    basis = _saturation(den, [int(x * den) for x in g])
    # Basis of the overlattice is basis/den; its Gram must be integral and even.
    raw = linalg.gram_of(basis, lat.gram)
    if any(num % (den * den) for row in raw for num in row):
        raise ValueError("overlattice pairing is not integral")
    return GramLattice(lat.rank, [[num // (den * den) for num in row] for row in raw])


def identify_type(gram_or_lattice) -> str | None:
    """Name of the catalog lattice isometric to the given even lattice, or None.

    Decided by genus.  Every GramLattice has signature (1, rho-1), so two of
    equal rank lie in one genus exactly when their discriminant quadratic
    forms are isomorphic (Nikulin 1979, Cor. 1.9.4).  Rank, determinant and
    invariant factors rule most catalog lattices out before the form test.
    Every catalog genus has one class (`_one_class_in_genus`, checked before
    a name is returned), so a name is a proof of isometry, and None a proof
    that no catalog lattice is in the input's genus.
    """
    if isinstance(gram_or_lattice, GramLattice):
        lat = gram_or_lattice
    else:
        try:
            lat = GramLattice(rank=len(gram_or_lattice), gram=gram_or_lattice)
        except InvalidLatticeError:
            return None
    det, dg = lat.det(), None
    for preset in catalog().values():
        ref = preset.lattice
        if ref.rank != lat.rank or ref.det() != det:
            continue
        if dg is None:
            dg = discriminant_group(lat)
        ref_dg = discriminant_group(ref)
        if ref_dg.invariant_factors != dg.invariant_factors or not _forms_isomorphic(dg, ref_dg):
            continue
        if not _one_class_in_genus(ref):
            raise K3ScanError(f"the genus of {preset.name} is not known to have one class")
        return preset.name
    return None


def _forms_isomorphic(a: DiscriminantGroup, b: DiscriminantGroup) -> bool:
    """Whether two finite quadratic forms of equal invariant factors are isomorphic.

    Backtracks over images x_i in B of A's Smith generators g_i, drawn from
    the elements of B of g_i's order and q, with b(x_i, x_j) = b(g_i, g_j)
    in Q/Z for every j < i.  Such images give a homomorphism A -> B, as
    d_i x_i = 0, and it keeps q, since q(sum c_i g_i) = sum c_i^2 q(g_i) +
    2 sum_{i<j} c_i c_j b(g_i, g_j) in Q/2Z.  It is injective, because an
    element of its kernel pairs to 0 with all of A and b is non-degenerate;
    and |A| = |B| makes it onto.
    """
    buckets: dict[tuple[int, Fraction], list] = {}
    for x in b.elements():
        key = (b.element_order(x), b.q_value(x))
        buckets.setdefault(key, []).append((x, mat_vec(b.form, x)))
    pools = [
        buckets.get((d, a.q_value(unit)), [])
        for d, unit in zip(a.invariant_factors, identity(len(a.form)))
    ]
    pairings = [[Fraction(f, a.denominator) for f in row] for row in a.form]
    images: list = []

    def extend(i: int) -> bool:
        if i == len(pools):
            return True
        for x, bx in pools[i]:
            if all(
                (Fraction(dot(y, bx), b.denominator) - pairings[i][j]).denominator == 1
                for j, y in enumerate(images)
            ):
                images.append(x)
                if extend(i + 1):
                    return True
                images.pop()
        return False

    return extend(0)


def _one_class_in_genus(lat: GramLattice) -> bool:
    """Whether Eichler's theorem leaves lat alone in its genus.

    Conway and Sloane, SPLAG, ch. 15, section 9.7, Cor. 22: if an indefinite
    form of dimension n >= 3 has more than one class in its genus, then
    4^[n/2] d is divisible by k^(n(n-1)/2) for some non-square natural number
    k = 0 or 1 (mod 4), d its determinant.  So when no such k divides, the
    genus has one class.  A lattice of signature (1, n-1) is indefinite.
    """
    n = lat.rank
    if n < 3:
        return False
    e, m = n * (n - 1) // 2, 4 ** (n // 2) * abs(lat.det())
    k = 2
    while k ** e <= m:
        if k % 4 in (0, 1) and isqrt(k) ** 2 != k and m % k ** e == 0:
            return False
        k += 1
    return True
