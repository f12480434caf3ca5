"""Even hyperbolic lattices of signature (1, rho-1) and their exact invariants.

The central object is `GramLattice`: a fixed basis together with a symmetric
integer Gram matrix with even diagonal, one positive and rho-1 negative
eigenvalues.  Divisor classes are plain integer tuples in that basis.
All arithmetic is exact; one fraction-free elimination finds the signature.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import CostLimitError, InvalidLatticeError
from . import linalg
from .linalg import Matrix, Vector, freeze_matrix

# isotropic_elements refuses a group of more elements than this.  It visits
# only sum |A_p| of them, but for a p-group that is every element, so the
# guard still bounds |A|, the worst case.
MAX_SCANNED_ELEMENTS = 2_000_000


class _LatticeFields(NamedTuple):
    rank: int
    gram: Matrix
    basis_labels: tuple[str, ...] = ()


class GramLattice(_LatticeFields):
    """An immutable record, validated when it is built; `gram` is stored as int tuples."""

    __slots__ = ()

    def __new__(cls, rank: int, gram, basis_labels=()):
        try:
            linalg.strict_int(rank)
            if not isinstance(gram, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in gram
            ):
                raise TypeError("gram must be a list of rows of integers")
            gram = freeze_matrix(gram)
        except TypeError as exc:
            raise InvalidLatticeError(str(exc)) from exc
        if rank < 1 or len(gram) != rank:
            raise InvalidLatticeError("rank does not match the Gram matrix size")
        if not linalg.is_symmetric(gram):
            raise InvalidLatticeError("Gram matrix must be symmetric")
        if any(gram[i][i] % 2 != 0 for i in range(rank)):
            raise InvalidLatticeError("Gram matrix must have even diagonal")
        pos, neg, zero = signature(gram)
        if zero:
            raise InvalidLatticeError("Gram matrix is singular")
        if not isinstance(basis_labels, (list, tuple)) or not all(
            isinstance(x, str) for x in basis_labels
        ):
            raise InvalidLatticeError("labels must be a list of strings")
        if not basis_labels:
            basis_labels = tuple(f"e{i + 1}" for i in range(rank))
        elif len(basis_labels) != rank:
            raise InvalidLatticeError("wrong number of basis labels")
        if pos != 1:
            raise InvalidLatticeError(f"signature is ({pos},{neg},0), expected (1,{rank - 1},0)")
        return super().__new__(cls, rank, gram, tuple(basis_labels))

    @classmethod
    def _make(cls, iterable):
        """Validated like the constructor; `_replace` builds through here."""
        return cls(*iterable)

    def det(self) -> int:
        return linalg.det(self.gram)

    def check_vector(self, v) -> Vector:
        """v as a tuple of ints; a float, bool or string entry raises TypeError."""
        v = tuple(v)
        for x in v:
            if x.__class__ is not int:  # plain ints skip the per-entry call
                v = tuple(map(linalg.strict_int, v))
                break
        if len(v) != self.rank:
            raise ValueError(f"vector has length {len(v)}, lattice has rank {self.rank}")
        return v


def bilinear(lat: GramLattice, v, w) -> int:
    """Intersection pairing v.w in the fixed basis."""
    v = lat.check_vector(v)
    w = lat.check_vector(w)
    return linalg.dot(v, linalg.mat_vec(lat.gram, w))


def square(lat: GramLattice, v) -> int:
    return bilinear(lat, v, v)


def signature(gram) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of a symmetric integer matrix.

    The signs of the successive ratios of the non-zero pivots of
    `linalg.symmetric_elimination`, whose zero pivots count the nullity;
    exact integers, no eigenvalues.
    """
    pivots, _ = linalg.symmetric_elimination(gram)
    nonzero = [d for d in pivots if d]
    pos = sum((d > 0) == (prev > 0) for prev, d in zip([1, *nonzero], nonzero))
    return pos, len(nonzero) - pos, len(pivots) - len(nonzero)


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
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

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
    d, _, v = linalg.smith_normal_form(lat.gram)
    rho = lat.rank
    diag = tuple(d[i][i] for i in range(rho))
    vt = linalg.transpose(v)
    lifts = []
    factors = []
    for i in range(rho):
        if diag[i] > 1:
            factors.append(diag[i])
            col = vt[i]
            lift = tuple(Fraction(x, diag[i]) for x in col)
            lifts.append(tuple(x - x.__floor__() for x in lift))
    pairings = [[linalg.dot(g, linalg.mat_vec(lat.gram, h)) for h in lifts] for g in lifts]
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
    rho = lat.rank
    g = dg.lift(element)
    den = lcm(*(x.denominator for x in g))
    rows = [[den if i == j else 0 for j in range(rho)] for i in range(rho)]
    rows.append([int(x * den) for x in g])
    basis = linalg.echelon_row_basis(rows)
    if len(basis) != rho:
        raise ValueError("saturation is not of full rank")
    # Basis of the overlattice is basis/den; its Gram must be integral and even.
    raw = linalg.mat_mul(basis, linalg.mat_mul(lat.gram, linalg.transpose(basis)))
    gram = []
    for i in range(rho):
        row = []
        for j in range(rho):
            num = raw[i][j]
            if num % (den * den) != 0:
                raise ValueError("overlattice pairing is not integral")
            row.append(num // (den * den))
        gram.append(row)
    return GramLattice(rank=rho, gram=freeze_matrix(gram))
