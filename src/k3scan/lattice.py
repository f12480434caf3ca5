"""Even hyperbolic lattices of signature (1, rho-1) and their exact invariants.

The central object is `GramLattice`: a fixed basis together with a symmetric
integer Gram matrix with even diagonal, one positive and rho-1 negative
eigenvalues.  Divisor classes are plain integer tuples in that basis.
All arithmetic is exact (ints and Fractions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidLatticeError
from . import linalg
from .linalg import Matrix, Vector, freeze_matrix


@dataclass(frozen=True)
class GramLattice:
    rank: int
    gram: Matrix
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        gram = freeze_matrix(self.gram)
        object.__setattr__(self, "gram", gram)
        if self.rank < 1 or len(gram) != self.rank:
            raise InvalidLatticeError("rank does not match the Gram matrix size")
        if not linalg.is_symmetric(gram):
            raise InvalidLatticeError("Gram matrix must be symmetric")
        if any(gram[i][i] % 2 != 0 for i in range(self.rank)):
            raise InvalidLatticeError("Gram matrix must have even diagonal")
        if linalg.det(gram) == 0:
            raise InvalidLatticeError("Gram matrix is singular")
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"e{i + 1}" for i in range(self.rank))
            )
        elif len(self.basis_labels) != self.rank:
            raise InvalidLatticeError("wrong number of basis labels")
        else:
            object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        pos, neg, zero = signature(self)
        if (pos, neg, zero) != (1, self.rank - 1, 0):
            raise InvalidLatticeError(
                f"signature is ({pos},{neg},{zero}), expected (1,{self.rank - 1},0)"
            )

    def det(self) -> int:
        return linalg.det(self.gram)

    def check_vector(self, v) -> Vector:
        v = tuple(int(x) for x in v)
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


def signature(lat_or_gram) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of a symmetric matrix.

    Computed by exact rational congruence diagonalization; no eigenvalues.
    """
    gram = lat_or_gram.gram if isinstance(lat_or_gram, GramLattice) else lat_or_gram
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                # All remaining diagonal entries vanish; create a pivot from an
                # off-diagonal entry via the congruence row_k += row_j.
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a:
                    row[k] = row[k] + row[j]
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        # Row elimination below the pivot leaves the symmetric Schur complement
        # in the trailing block; clearing row/column k completes the congruence.
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        for i in range(k + 1, n):
            a[i][k] = Fraction(0)
            a[k][i] = Fraction(0)
    return pos, neg, zero


def is_primitive(v) -> bool:
    """True when the gcd of the coordinates is 1."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector")
    return g == 1


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite quadratic form (NS*/NS, q) of an even lattice.

    `invariant_factors` lists the cyclic orders > 1; `generator_lifts` are
    rational vectors in lattice coordinates representing the generators.
    Group elements are coefficient tuples c with 0 <= c_i < d_i.
    """

    lattice: GramLattice
    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[Fraction, ...], ...]

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
        """Discriminant form q(x) = x.x as an element of Q/2Z, in [0, 2)."""
        x = self.lift(coeffs)
        val = Fraction(0)
        gram = self.lattice.gram
        rho = self.lattice.rank
        for i in range(rho):
            for j in range(rho):
                val += x[i] * gram[i][j] * x[j]
        return val % 2

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
    return DiscriminantGroup(
        lattice=lat,
        invariant_factors=tuple(factors),
        generator_lifts=tuple(lifts),
    )


def isotropic_elements(dg: DiscriminantGroup) -> list[tuple[int, ...]]:
    """Non-trivial elements with q = 0 in Q/2Z, reported up to inversion.

    x and -x generate the same cyclic subgroup, hence the same overlattice, so
    only the lexicographically smaller of the two coefficient tuples is kept.
    """
    out = []
    seen = set()
    for coeffs in dg.elements():
        if not any(coeffs):
            continue
        inverse = tuple((-c) % d for c, d in zip(coeffs, dg.invariant_factors))
        if inverse in seen:
            continue
        if dg.q_value(coeffs) == 0:
            out.append(coeffs)
            seen.add(coeffs)
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
    basis = linalg.hnf_row_basis(rows)
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
