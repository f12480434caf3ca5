"""Generating series of big-and-nef classes, counted by square.

Every function takes the `CurveSystem` of the sieve, which carries its
compact chamber.  The chamber's radius `cs.chamber.ell` gives the degree
bound (H.D)^2 <= ell * H^2 * D^2, and the Hodge index gives
H^2 * D^2 <= (H.D)^2.  A big class of the even lattice has D^2 >= 2, so the
big-and-nef classes with square at most hi are the nef classes found by one
enumeration pass per degree k = 1, 2, ..., each over the squares
[max(2, k^2/(ell*H^2)), min(hi, k^2/H^2)], bucketed by square.  The least
square ceil(k^2/(ell*H^2)) never decreases as k grows, so the passes stop at
the first k where it exceeds hi.  The rows G.c of the curves are the kernel's
walls, compiled once for every degree, so a class that is not nef is never
built; the kernel still checks each class it returns against every row, on the
pairings it carries down its levels.

xi counts these classes; theta counts the primitive ones, derived from xi
by Moebius inversion (Hardy & Wright, ch. 16): every nef class is m*D' with
D' primitive and nef, so xi(d) = sum over m^2 | d of theta(d/m^2).  Both
return a plain {square: count} dict over every even square up to the bound,
zeros included; the CLI formats what it prints.
"""

from __future__ import annotations

import itertools
from math import isqrt

from . import linalg
from .cone import CurveSystem
from .enumeration import DegreeCoset, Walls
from .errors import CostLimitError
from .linalg import Vector

# L27 theta to square 800 builds 106,302 classes; a series past this many is stopped.
MAX_SERIES_CLASSES = 200_000


def big_nef_classes_by_square(cs: CurveSystem, hi: int) -> dict[int, list[Vector]]:
    """Big-and-nef classes with square at most hi, keyed by square.

    Only squares that have classes appear; each list is in ascending degree,
    and within a degree in the kernel's order, which is deterministic but
    unsorted.  Complete by the chamber radius bound.  Raises CostLimitError
    after the degree pass that takes the classes built past MAX_SERIES_CLASSES.
    """
    lat = cs.lattice
    coset = DegreeCoset(lat, cs.ample_seed)
    ell = cs.chamber.ell
    walls = Walls(coset, [linalg.mat_vec(lat.gram, c) for c in cs.curves])
    out: dict[int, list[Vector]] = {}
    built = 0
    for k in itertools.count(1):
        least = -(-k * k * ell.denominator // (ell.numerator * coset.h2))
        if least > hi:
            return out
        found = coset.classes(k, max(2, least), hi, walls)
        built += len(found)
        if built > MAX_SERIES_CLASSES:
            raise CostLimitError(f"more than {MAX_SERIES_CLASSES} classes built by degree {k}")
        for d, cls in found:
            out.setdefault(d, []).append(cls)


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
    classes = big_nef_classes_by_square(cs, max_square)
    return {d: len(classes.get(d, ())) for d in range(2, max_square + 1, 2)}
