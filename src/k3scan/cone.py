"""From (-2)-classes to (-2)-curves, nef tests, and the compact chamber.

The sieve walks the (-2)-classes in ascending degree against an interior
ample seed and keeps a class exactly when it pairs non-negatively with every
curve kept so far.  Once the resulting wall system closes up a compact
chamber (all rays have positive square), no further (-2)-class can pass the
filter, so the sieve stops after the first whole degree whose curves close
it; the degree cap kmax only ends the inputs that never close.  That
chamber is the certificate, and the sieve returns it with the curves: every
`CurveSystem` carries its own `ChamberDescription`, computed once.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .enumeration import DegreeCoset
from .errors import CostLimitError, IncompleteSieveError, NonCompactChamberError, WallError
from .lattice import GramLattice, bilinear, square
from .linalg import Matrix, Vector, canonical_key

# _chamber_vertices tries every (rho-1)-subset of the curves; L27 has 56.
MAX_CURVE_SUBSETS = 200_000


class CurveSystem(NamedTuple):
    lattice: GramLattice
    ample_seed: Vector
    curves: tuple[Vector, ...]
    gram_of_curves: Matrix
    chamber: ChamberDescription

    def degrees(self) -> tuple[int, ...]:
        return tuple(bilinear(self.lattice, self.ample_seed, c) for c in self.curves)


class ChamberVertex(NamedTuple):
    coords: Vector
    square: int
    degree: int


class ChamberDescription(NamedTuple):
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


def is_ample(cs: CurveSystem, d) -> bool:
    """Positive square and strictly positive degree on every curve."""
    return square(cs.lattice, d) > 0 and all(
        bilinear(cs.lattice, d, c) > 0 for c in cs.curves
    )


def vinberg_sieve(lat: GramLattice, h, kmax: int) -> CurveSystem:
    """Sort the (-2)-curves among the (-2)-classes, stopping where their chamber closes.

    Classes are processed in ascending degree (canonical order within a
    degree); r is accepted iff r.c >= 0 for every curve accepted before it.
    After a degree that added a curve and left at least rho of them (a
    compact chamber has at least rho walls), the curves are tested for a
    closed chamber, and the first one found is returned with them.  At
    degree kmax the test is made whatever the count, and its error is final.

    Stopping there is exact.  Let C = {x : x.c >= 0 for every accepted c}.
    When the test passes, `_chamber_vertices` found at least rho >= 2
    distinct rays, so the curves have rank rho (curves of lower rank cut out
    at most one line) and C holds no line.  Each ray of C then lies on rho-1
    independent walls, so it is one end of a line that `_verify_closure`
    looks at from both ends: the ray has positive degree, so
    `_chamber_vertices` saw it, and it has positive square.  C is the cone
    over its rays, so every non-zero class in C lies in the (convex)
    positive cone.  A class that passes the filter at a later degree lies in
    C, so it has positive square: no (-2)-class can, and running on to kmax
    would return the same curves and chamber.  A failed test only means "not
    closed yet": the curve list only grows, so the test at kmax raises the
    error a sieve that runs every degree up to kmax would raise there.

    Raises WallError when the seed is orthogonal to some (-2)-class and
    IncompleteSieveError, NonCompactChamberError or CostLimitError when the
    chamber has not closed by degree kmax.
    """
    coset = DegreeCoset(lat, h)  # refuses a seed of non-positive square
    walls = coset.classes(0, -2, -2)
    if walls:
        raise WallError(walls[0][1])
    accepted: list[Vector] = []
    for k in range(1, kmax + 1):
        before = len(accepted)
        for _, r in coset.classes(k, -2, -2):
            if all(bilinear(lat, r, c) >= 0 for c in accepted):
                accepted.append(r)
        if not accepted or (k < kmax and (len(accepted) == before or len(accepted) < lat.rank)):
            continue
        curves = tuple(accepted)
        try:
            chamber = _chamber_vertices(lat, coset.h, curves)
            _verify_closure(lat, coset.h, curves, chamber, k)
        except (IncompleteSieveError, NonCompactChamberError, CostLimitError):
            if k == kmax:
                raise
            continue
        gram = tuple(tuple(bilinear(lat, a, b) for b in curves) for a in curves)
        return CurveSystem(
            lattice=lat, ample_seed=coset.h, curves=curves, gram_of_curves=gram, chamber=chamber
        )
    raise IncompleteSieveError(f"no (-2)-curves found up to degree {kmax}")


def _verify_closure(lat: GramLattice, h, curves, chamber: ChamberDescription, k: int) -> None:
    # A compact chamber of dimension rho-1 has at least rho vertices and every
    # wall carries one.  `_chamber_vertices` orients each line by H.v > 0, so
    # it cannot see a ray of the cone on the far side of h^perp: every line
    # is looked at from both ends here, and a nef end of degree <= 0 means
    # the cone is not inside the positive cone.
    if len(chamber.vertices) < lat.rank:
        raise IncompleteSieveError(
            f"chamber did not close at degree {k}: "
            f"only {len(chamber.vertices)} rays found"
        )
    missing = [
        i for i, c in enumerate(curves)
        if all(bilinear(lat, vertex.coords, c) for vertex in chamber.vertices)
    ]
    if missing:
        raise IncompleteSieveError(
            f"chamber did not close at degree {k}: "
            f"curves {missing} support no vertex"
        )
    for v, pairings in _lines(lat, curves):
        if min(pairings) < 0:
            v = tuple(-x for x in v)
            if max(pairings) > 0:
                continue
        deg = bilinear(lat, h, v)
        if deg <= 0:
            raise NonCompactChamberError(
                f"nef ray {v} has degree {deg}; the chamber is not compact"
            )


def _chamber_vertices(lat: GramLattice, h, curves) -> ChamberDescription:
    """Rays of the nef cone: primitive nef generators orthogonal to rho-1 curves.

    Every (rho-1)-subset of curves whose common orthogonal complement has rank
    one contributes a candidate, oriented by H.v > 0; nef candidates must have
    positive square or the chamber is not compact (NonCompactChamberError).
    More than MAX_CURVE_SUBSETS subsets raise CostLimitError before any is tried;
    an h of non-positive square raises ValueError.  It sees no ray on the far
    side of h^perp, so it certifies nothing alone: only `vinberg_sieve`
    calls it, and `_verify_closure` checks both ends of every line.
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
    for v, pairings in _lines(lat, curves):
        deg = bilinear(lat, h, v)
        if deg < 0:
            v, deg, pairings = tuple(-x for x in v), -deg, [-x for x in pairings]
        if deg == 0 or v in seen:
            continue
        seen.add(v)
        if min(pairings) < 0:
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


def _lines(lat: GramLattice, curves):
    """Each line orthogonal to rho-1 curves of rank rho-1: (v, [v.c for each curve]).

    v is the primitive generator; the signed maximal minors of the rho-1
    rows G.c span the line (Cramer's rule), and all vanish exactly when the
    rows are dependent.
    """
    rho = lat.rank
    rows = [linalg.mat_vec(lat.gram, c) for c in curves]
    for subset in itertools.combinations(rows, rho - 1):
        v = [(-1) ** j * linalg.det([r[:j] + r[j + 1:] for r in subset]) for j in range(rho)]
        if any(v):
            v = linalg.primitive_part(v)
            yield v, [linalg.dot(v, r) for r in rows]
