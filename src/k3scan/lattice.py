"""Even hyperbolic lattices of signature (1, rho-1) and their exact invariants.

The central object is `GramLattice`: a fixed basis together with a symmetric
integer Gram matrix with even diagonal, one positive and rho-1 negative
eigenvalues.  Divisor classes are plain integer tuples in that basis.
All arithmetic is exact; one fraction-free elimination finds the signature.
The discriminant form and the overlattices live in `discriminant`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidLatticeError
from . import linalg
from .linalg import Matrix, Vector, freeze_matrix


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
