"""Generating series of big-and-nef classes, counted by square.

Every function takes the `CurveSystem` of the sieve, which carries its
compact chamber.  The chamber's radius `cs.chamber.ell` gives the degree
bound (H.D)^2 <= ell * H^2 * D^2, and the Hodge index gives
H^2 * D^2 <= (H.D)^2.  So the big-and-nef classes with square in [lo, hi]
are the nef classes found by one enumeration pass per degree
k <= floor(sqrt(ell*H^2*hi)), each over the squares
[max(lo, k^2/(ell*H^2)), min(hi, k^2/H^2)], bucketed by square.  The rows
G.c of the curves are the kernel's walls, so a class that is not nef is never
built; each class returned is still checked against every row.

theta counts primitive classes only, xi counts all of them; the two are tied
by xi(d) = sum over m^2 | d of theta(d/m^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .cone import CurveSystem
from .enumeration import DegreeCoset
from .errors import K3ScanError
from .lattice import GramLattice, is_primitive, square
from .linalg import Vector


@dataclass
class SeriesTable:
    kind: str  # "theta" or "xi"
    max_square: int
    coefficients: dict[int, int]

    def coefficient(self, d: int) -> int:
        return self.coefficients.get(d, 0)

    def as_polynomial(self, var: str = "T") -> str:
        terms = []
        for d in sorted(self.coefficients):
            c = self.coefficients[d]
            if c == 0:
                continue
            terms.append(f"{var}^{d}" if c == 1 else f"{c}{var}^{d}")
        return " + ".join(terms) if terms else "0"

    def factored_polynomial(self, var: str = "T") -> str | None:
        """The display form 'T^a + g(...)' when the tail has a common factor g > 1."""
        nonzero = [(d, c) for d, c in sorted(self.coefficients.items()) if c]
        if len(nonzero) < 2 or nonzero[0][1] != 1:
            return None
        g = 0
        for _, c in nonzero[1:]:
            g = gcd(g, c)
        if g <= 1:
            return None
        tail = []
        for d, c in nonzero[1:]:
            q = c // g
            tail.append(f"{var}^{d}" if q == 1 else f"{q}{var}^{d}")
        return f"{var}^{nonzero[0][0]} + {g}(" + " + ".join(tail) + ")"


def degree_bound(lat: GramLattice, h, ell: Fraction, d: int) -> int:
    """Largest integer k with k^2 <= ell * H^2 * d, by exact rational comparison."""
    if d <= 0:
        raise ValueError("square must be positive")
    h2 = square(lat, h)
    if h2 <= 0:
        raise ValueError("degree class must have positive square")
    ell = Fraction(ell)
    if ell < 1:
        raise ValueError("chamber radius parameter must be >= 1")
    return linalg.isqrt_fraction_floor(ell * h2 * d)


def big_nef_classes_by_square(cs: CurveSystem, lo: int, hi: int) -> dict[int, list[Vector]]:
    """Big-and-nef classes with square in [lo, hi], keyed by square.

    Only squares that have classes appear; each list is in (degree,
    canonical) order.  Complete by the chamber radius bound.
    """
    if lo <= 0:
        raise ValueError("squares of big classes must be positive")
    lat = cs.lattice
    coset = DegreeCoset(lat, cs.ample_seed)
    ell = cs.chamber.ell
    rows = [linalg.mat_vec(lat.gram, c) for c in cs.curves]
    out: dict[int, list[Vector]] = {}
    for k in range(1, degree_bound(lat, cs.ample_seed, ell, hi) + 1):
        least = max(lo, -(-k * k * ell.denominator // (ell.numerator * coset.h2)))
        for d, cls in coset.classes(k, least, hi, rows):
            if not all(linalg.dot(cls, row) >= 0 for row in rows):
                raise K3ScanError(f"kernel class {cls} is not nef: it meets a curve negatively")
            out.setdefault(d, []).append(cls)
    return out


def big_nef_classes_of_square(cs: CurveSystem, d: int) -> list[Vector]:
    """All big-and-nef classes of square d, complete by the chamber radius bound."""
    if d % 2 != 0 or d <= 0:
        raise ValueError("square must be a positive even integer")
    return big_nef_classes_by_square(cs, d, d).get(d, [])


def theta_series(cs: CurveSystem, max_square: int) -> SeriesTable:
    """Counts of primitive big-and-nef classes for each even square up to max_square."""
    _check_max_square(max_square)
    classes = big_nef_classes_by_square(cs, 2, max_square)
    coeffs = {
        d: sum(1 for c in classes.get(d, ()) if is_primitive(c))
        for d in range(2, max_square + 1, 2)
    }
    return SeriesTable(kind="theta", max_square=max_square, coefficients=coeffs)


def xi_series(cs: CurveSystem, max_square: int) -> SeriesTable:
    """Counts of all big-and-nef classes for each even square up to max_square."""
    _check_max_square(max_square)
    classes = big_nef_classes_by_square(cs, 2, max_square)
    coeffs = {d: len(classes.get(d, ())) for d in range(2, max_square + 1, 2)}
    return SeriesTable(kind="xi", max_square=max_square, coefficients=coeffs)


def _check_max_square(max_square: int) -> None:
    if max_square < 2 or max_square % 2 != 0:
        raise ValueError("max_square must be an even integer >= 2")
