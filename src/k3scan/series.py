"""Generating series of big-and-nef classes, counted by square.

Every function takes the `CurveSystem` of the sieve, which carries its
compact chamber.  The chamber's radius `cs.chamber.ell` gives the degree
bound (H.D)^2 <= ell * H^2 * D^2, and the Hodge index gives
H^2 * D^2 <= (H.D)^2.  So the big-and-nef classes with square in [lo, hi]
are the nef classes found by one enumeration pass per degree
k <= floor(sqrt(ell*H^2*hi)), each over the squares
[max(lo, k^2/(ell*H^2)), min(hi, k^2/H^2)], bucketed by square.  The rows
G.c of the curves are the kernel's walls, compiled once for every degree, so
a class that is not nef is never built; the kernel still checks each class
it returns against every row, on the pairings it carries down its levels.

xi counts these classes; theta counts the primitive ones, derived from xi
by Moebius inversion (Hardy & Wright, ch. 16): every nef class is m*D' with
D' primitive and nef, so xi(d) = sum over m^2 | d of theta(d/m^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from . import linalg
from .cone import CurveSystem
from .enumeration import DegreeCoset, Walls
from .lattice import GramLattice, square
from .linalg import Vector


class SeriesTable(NamedTuple):
    kind: str  # "theta" or "xi"
    max_square: int
    coefficients: dict[int, int]

    def coefficient(self, d: int) -> int:
        return self.coefficients.get(d, 0)

    def as_polynomial(self) -> str:
        terms = [_term(d, c) for d, c in sorted(self.coefficients.items()) if c]
        return " + ".join(terms) or "0"

    def factored_polynomial(self) -> str | None:
        """The display form 'T^a + g(...)' when the tail has a common factor g > 1."""
        nonzero = [(d, c) for d, c in sorted(self.coefficients.items()) if c]
        if len(nonzero) < 2 or nonzero[0][1] != 1:
            return None
        g = gcd(*(c for _, c in nonzero[1:]))
        if g <= 1:
            return None
        tail = " + ".join(_term(d, c // g) for d, c in nonzero[1:])
        return f"T^{nonzero[0][0]} + {g}({tail})"


def _term(d: int, c: int) -> str:
    return f"T^{d}" if c == 1 else f"{c}T^{d}"


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

    Only squares that have classes appear; each list is in ascending degree,
    and within a degree in the kernel's order, which is deterministic but
    unsorted.  Complete by the chamber radius bound.
    """
    if lo <= 0:
        raise ValueError("squares of big classes must be positive")
    lat = cs.lattice
    coset = DegreeCoset(lat, cs.ample_seed)
    ell = cs.chamber.ell
    walls = Walls(coset, [linalg.mat_vec(lat.gram, c) for c in cs.curves])
    out: dict[int, list[Vector]] = {}
    for k in range(1, degree_bound(lat, cs.ample_seed, ell, hi) + 1):
        least = max(lo, -(-k * k * ell.denominator // (ell.numerator * coset.h2)))
        for d, cls in coset.classes(k, least, hi, walls):
            out.setdefault(d, []).append(cls)
    return out


def theta_series(cs: CurveSystem, max_square: int) -> SeriesTable:
    """Counts of primitive big-and-nef classes for each even square up to max_square.

    Derived from `xi_series` in ascending d: theta(d) = xi(d) minus each
    theta(d/m^2), m >= 2, m^2 | d; an odd d/m^2 counts 0 (the lattice is even).
    """
    xi = xi_series(cs, max_square).coefficients
    theta: dict[int, int] = {}
    for d in range(2, max_square + 1, 2):
        theta[d] = xi[d] - sum(
            theta.get(d // (m * m), 0) for m in range(2, isqrt(d) + 1) if d % (m * m) == 0
        )
    return SeriesTable(kind="theta", max_square=max_square, coefficients=theta)


def xi_series(cs: CurveSystem, max_square: int) -> SeriesTable:
    """Counts of all big-and-nef classes for each even square up to max_square."""
    if max_square < 2 or max_square % 2 != 0:
        raise ValueError("max_square must be an even integer >= 2")
    classes = big_nef_classes_by_square(cs, 2, max_square)
    coeffs = {d: len(classes.get(d, ())) for d in range(2, max_square + 1, 2)}
    return SeriesTable(kind="xi", max_square=max_square, coefficients=coeffs)
