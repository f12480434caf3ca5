"""From (-2)-classes to (-2)-curves, and the compact chamber that certifies them.

The sieve walks the (-2)-classes in ascending degree against an interior
ample seed and keeps a class exactly when it pairs non-negatively with every
curve kept so far.  Once the resulting wall system closes up a compact
chamber (all rays have positive square), no further (-2)-class can pass the
filter, so the sieve stops after the first whole degree whose curves close
it; the degree cap kmax only ends the inputs that never close.  That
chamber is the certificate, found in one pass over the lines orthogonal to
rho-1 curves, and the sieve returns it with the curves: every `CurveSystem`
carries its own `ChamberDescription`, computed once.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .enumeration import DegreeCoset
from .errors import CostLimitError, IncompleteSieveError, NonCompactChamberError
from .errors import UsageError, WallError
from .lattice import GramLattice, bilinear, square
from .linalg import Matrix, Vector, canonical_key

# _chamber tries every (rho-1)-subset of the curves; L27 has 56.
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


def vinberg_sieve(lat: GramLattice, h, kmax: int) -> CurveSystem:
    """Sort the (-2)-curves among the (-2)-classes, stopping where their chamber closes.

    Classes are processed in ascending degree, sorted canonically within a
    degree to fix the order of the curves; r is accepted iff r.c >= 0 for
    every curve accepted before it.  The curves of lower degree suffice, so
    their rows G.c are the kernel's walls and every class it returns for a
    degree is accepted: distinct (-2)-classes r1, r2 of equal degree pair to
    >= 0, as r1 - r2 lies in the negative definite h^perp.  r1.r2 = -1 makes
    r1 - r2 a degree-0 (-2)-class, refused by WallError first; r1.r2 <= -2
    gives (r1 - r2)^2 = -4 - 2*r1.r2 >= 0, so r1 = r2.

    After a degree that added a curve and left at least rho of them (a
    compact chamber has at least rho walls), the curves are tested for a
    closed chamber, and the first one found is returned with them.  At
    degree kmax the test is made whatever the count, and its error is final.

    Stopping there is exact.  Let C = {x : x.c >= 0 for every accepted c}.
    When the test passes, `_chamber` found at least rho >= 2 distinct
    vertices, so the curves have rank rho (curves of lower rank cut out at
    most one line) and C holds no line.  Each ray of C then lies on rho-1
    independent walls, so it is the nef end of a line that `_chamber` looks
    at: the test passes only when that end has positive degree, so the ray
    is a vertex, and a vertex has positive square.  C is the cone
    over its rays, so every non-zero class in C lies in the (convex)
    positive cone.  A class that passes the filter at a later degree lies in
    C, so it has positive square: no (-2)-class can, and running on to kmax
    would return the same curves and chamber.  A failed test only means "not
    closed yet": the curve list only grows, so the test at kmax raises the
    error a sieve that runs every degree up to kmax would raise there.

    Raises WallError when the seed is orthogonal to some (-2)-class and
    IncompleteSieveError, NonCompactChamberError or CostLimitError when the
    chamber has not closed by degree kmax, and UsageError when h is None.
    """
    if h is None:
        raise UsageError("the sieve needs an ample seed, and none was given")
    coset = DegreeCoset(lat, h)  # refuses a seed of non-positive square
    walls = [r for _, r in coset.classes(0, -2, -2)]
    if walls:
        raise WallError(min(walls, key=canonical_key))
    accepted: list[Vector] = []
    for k in range(1, kmax + 1):
        before = len(accepted)
        rows = [linalg.mat_vec(lat.gram, c) for c in accepted]  # the curves of lower degree
        accepted += sorted((r for _, r in coset.classes(k, -2, -2, rows)), key=canonical_key)
        if not accepted or (k < kmax and (len(accepted) == before or len(accepted) < lat.rank)):
            continue
        curves = tuple(accepted)
        try:
            chamber = _chamber(lat, coset.h, curves, k)
        except (IncompleteSieveError, NonCompactChamberError, CostLimitError):
            if k == kmax:
                raise
            continue
        gram = linalg.gram_of(curves, lat.gram)
        return CurveSystem(
            lattice=lat, ample_seed=coset.h, curves=curves, gram_of_curves=gram, chamber=chamber
        )
    raise IncompleteSieveError(f"no (-2)-curves found up to degree {kmax}")


def _chamber(lat: GramLattice, h, curves, k: int) -> ChamberDescription:
    """The compact chamber of the curves, or the error that says why it is not closed.

    One pass over `_lines`.  A nef end of positive degree is a vertex (a line
    orthogonal to every curve is nef at both ends), and a vertex of square
    <= 0 raises NonCompactChamberError at once.  A compact chamber has at
    least rho vertices and every wall carries one, else IncompleteSieveError
    names degree k.  Last, a nef end of degree <= 0, taken as `_lines` gives
    it, is a ray behind h^perp: NonCompactChamberError.  More than
    MAX_CURVE_SUBSETS subsets raise CostLimitError before any is tried.
    """
    rho = lat.rank
    subsets = math.comb(len(curves), rho - 1)
    if subsets > MAX_CURVE_SUBSETS:
        raise CostLimitError(
            f"{len(curves)} curves in rank {rho} give {subsets} subsets to try "
            f"for chamber vertices, more than {MAX_CURVE_SUBSETS}"
        )
    vertices = {}
    supported = set()
    behind = None
    for v, pairings in _lines(lat, curves):
        if min(pairings) < 0:
            if max(pairings) > 0:
                continue
            v, pairings = tuple(-x for x in v), [-x for x in pairings]
        deg = bilinear(lat, h, v)
        if deg <= 0:
            behind = behind or f"nef ray {v} has degree {deg}; the chamber is not compact"
            if deg == 0 or any(pairings):
                continue
            v, deg = tuple(-x for x in v), -deg
        sq = square(lat, v)
        if sq <= 0:
            raise NonCompactChamberError(
                f"nef ray {v} has square {sq}; the chamber is not compact"
            )
        vertices[v] = ChamberVertex(coords=v, square=sq, degree=deg)
        supported.update(i for i, x in enumerate(pairings) if x == 0)
    if len(vertices) < rho:
        raise IncompleteSieveError(
            f"chamber did not close at degree {k}: only {len(vertices)} rays found"
        )
    missing = [i for i in range(len(curves)) if i not in supported]
    if missing:
        raise IncompleteSieveError(
            f"chamber did not close at degree {k}: curves {missing} support no vertex"
        )
    if behind:
        raise NonCompactChamberError(behind)
    ordered = sorted(
        vertices.values(), key=lambda vx: (vx.square, vx.degree, canonical_key(vx.coords))
    )
    ell = max(Fraction(vx.degree ** 2, vx.square) for vx in ordered) / square(lat, h)
    return ChamberDescription(vertices=tuple(ordered), ell=ell)


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
