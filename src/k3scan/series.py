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
D' primitive and nef, so xi(d) = sum over m^2 | d of theta(d/m^2).  Both
return a plain {square: count} dict over every even square up to the bound,
zeros included; the CLI formats what it prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import linalg
from .cone import CurveSystem
from .enumeration import DegreeCoset, Walls
from .lattice import GramLattice, square
from .linalg import Vector


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


def theta_series(cs: CurveSystem, max_square: int) -> dict[int, int]:
    """{d: count} of primitive big-and-nef classes for each even square d up to max_square.

    Derived from `xi_series` in ascending d: theta(d) = xi(d) minus each
    theta(d/m^2), m >= 2, m^2 | d; an odd d/m^2 counts 0 (the lattice is even).
    """
    xi = xi_series(cs, max_square)
    theta: dict[int, int] = {}
    for d in range(2, max_square + 1, 2):
        theta[d] = xi[d] - sum(
            theta.get(d // (m * m), 0) for m in range(2, isqrt(d) + 1) if d % (m * m) == 0
        )
    return theta


def xi_series(cs: CurveSystem, max_square: int) -> dict[int, int]:
    """{d: count} of all big-and-nef classes for each even square d up to max_square."""
    if max_square < 2 or max_square % 2 != 0:
        raise ValueError("max_square must be an even integer >= 2")
    classes = big_nef_classes_by_square(cs, 2, max_square)
    return {d: len(classes.get(d, ())) for d in range(2, max_square + 1, 2)}
