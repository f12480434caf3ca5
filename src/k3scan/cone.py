"""From (-2)-classes to (-2)-curves, nef tests, and the compact chamber.

The sieve walks the (-2)-classes in ascending degree against an interior
ample seed and keeps a class exactly when it pairs non-negatively with every
curve kept so far.  Once the resulting wall system closes up a compact
chamber (all rays have positive square), no further (-2)-class can pass the
filter, so the curve list is complete whatever the degree cutoff was.  That
chamber is the certificate, and the sieve returns it with the curves: every
`CurveSystem` carries its own `ChamberDescription`, computed once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .enumeration import DegreeCoset
from .errors import (
    CostLimitError, IncompleteSieveError, K3ScanError, NonCompactChamberError, WallError,
)
from .lattice import GramLattice, bilinear, square
from .linalg import Matrix, Vector, canonical_key

# chamber_vertices tries every (rho-1)-subset of the curves; L27 has 56.
MAX_CURVE_SUBSETS = 200_000


@dataclass(frozen=True)
class CurveSystem:
    lattice: GramLattice
    ample_seed: Vector
    curves: tuple[Vector, ...]
    gram_of_curves: Matrix
    chamber: ChamberDescription

    def degrees(self) -> tuple[int, ...]:
        return tuple(bilinear(self.lattice, self.ample_seed, c) for c in self.curves)


@dataclass(frozen=True)
class ChamberVertex:
    coords: Vector
    square: int
    degree: int


@dataclass(frozen=True)
class ChamberDescription:
    vertices: tuple[ChamberVertex, ...]
    ell: Fraction

    @property
    def dmax_display(self) -> float:
        """arccosh(sqrt(ell)); for display only, never used in logic."""
        return math.acosh(math.sqrt(self.ell))


def hyperbolic_ell(lat: GramLattice, d, d2) -> Fraction:
    """ell(D, D') = (D.D')^2 / (D^2 D'^2), exactly; >= 1 by the Hodge index."""
    a = square(lat, d)
    b = square(lat, d2)
    if a <= 0 or b <= 0:
        raise ValueError("both classes must have positive square")
    return Fraction(bilinear(lat, d, d2) ** 2, a * b)


def is_nef(cs: CurveSystem, d) -> bool:
    """Non-negative square and non-negative degree on every curve."""
    return square(cs.lattice, d) >= 0 and all(
        bilinear(cs.lattice, d, c) >= 0 for c in cs.curves
    )


def is_ample(cs: CurveSystem, d) -> bool:
    """Positive square and strictly positive degree on every curve."""
    return square(cs.lattice, d) > 0 and all(
        bilinear(cs.lattice, d, c) > 0 for c in cs.curves
    )


def vinberg_sieve(lat: GramLattice, h, kmax: int) -> CurveSystem:
    """Sort the (-2)-curves among the (-2)-classes of degree at most kmax.

    Classes are processed in ascending degree (canonical order within a
    degree); r is accepted iff r.c >= 0 for every curve accepted before it.
    The result carries the compact chamber that certifies the list complete.
    Raises WallError when the seed is orthogonal to some (-2)-class and
    IncompleteSieveError when kmax is hit before the chamber closes.
    """
    coset = DegreeCoset(lat, h)  # refuses a seed of non-positive square
    walls = coset.classes(0, -2, -2)
    if walls:
        raise WallError(walls[0][1])
    accepted: list[Vector] = []
    for k in range(1, kmax + 1):
        for _, r in coset.classes(k, -2, -2):
            if all(bilinear(lat, r, c) >= 0 for c in accepted):
                accepted.append(r)
    if not accepted:
        raise IncompleteSieveError(f"no (-2)-curves found up to degree {kmax}")
    curves = tuple(accepted)
    chamber = chamber_vertices(lat, coset.h, curves)
    _verify_closure(lat, curves, chamber, kmax)
    gram = tuple(tuple(bilinear(lat, a, b) for b in curves) for a in curves)
    return CurveSystem(
        lattice=lat, ample_seed=coset.h, curves=curves, gram_of_curves=gram, chamber=chamber
    )


def _verify_closure(lat: GramLattice, curves, chamber: ChamberDescription, kmax: int) -> None:
    # A compact chamber of dimension rho-1 has at least rho vertices and every
    # wall carries one; with that certificate in hand no further (-2)-class
    # can be non-negative on all curves, so the list is complete.
    if len(chamber.vertices) < lat.rank:
        raise IncompleteSieveError(
            f"chamber did not close at degree {kmax}: "
            f"only {len(chamber.vertices)} rays found"
        )
    missing = [
        i for i, c in enumerate(curves)
        if all(bilinear(lat, vertex.coords, c) for vertex in chamber.vertices)
    ]
    if missing:
        raise IncompleteSieveError(
            f"chamber did not close at degree {kmax}: "
            f"curves {missing} support no vertex"
        )


def chamber_vertices(lat: GramLattice, h, curves) -> ChamberDescription:
    """Rays of the nef cone: primitive nef generators orthogonal to rho-1 curves.

    Every (rho-1)-subset of curves whose common orthogonal complement has rank
    one contributes a candidate, oriented by H.v > 0; nef candidates must have
    positive square or the chamber is not compact (NonCompactChamberError).
    More than MAX_CURVE_SUBSETS subsets raise CostLimitError before any is tried;
    an h of non-positive square raises ValueError.
    """
    h = lat.check_vector(h)
    h2 = square(lat, h)
    if h2 <= 0:
        raise ValueError("degree class must have positive square")
    rho = lat.rank
    subsets = math.comb(len(curves), rho - 1)
    if subsets > MAX_CURVE_SUBSETS:
        raise CostLimitError(
            f"{len(curves)} curves in rank {rho} give {subsets} subsets to try "
            f"for chamber vertices, more than {MAX_CURVE_SUBSETS}"
        )
    seen = set()
    vertices = []
    for subset in itertools.combinations(range(len(curves)), rho - 1):
        rows = [linalg.mat_vec(lat.gram, curves[i]) for i in subset]
        if linalg.rank(rows) != rho - 1:
            continue
        kernel = linalg.integer_kernel_basis(rows)
        if len(kernel) != 1:
            raise K3ScanError(
                f"curves {subset} of rank {rho - 1} have a kernel of rank {len(kernel)}, not 1"
            )
        v = linalg.primitive_part(kernel[0])
        deg = bilinear(lat, h, v)
        if deg < 0:
            v = tuple(-x for x in v)
            deg = -deg
        if deg == 0:
            continue
        if v in seen:
            continue
        seen.add(v)
        if not all(bilinear(lat, v, c) >= 0 for c in curves):
            continue
        sq = square(lat, v)
        if sq <= 0:
            raise NonCompactChamberError(
                f"nef ray {v} has square {sq}; the chamber is not compact"
            )
        vertices.append(ChamberVertex(coords=v, square=sq, degree=deg))
    vertices.sort(key=lambda vx: (vx.square, vx.degree, canonical_key(vx.coords)))
    ell = max(
        (Fraction(vx.degree ** 2, h2 * vx.square) for vx in vertices),
        default=Fraction(1),
    )
    return ChamberDescription(vertices=tuple(vertices), ell=ell)
