"""An isometry search for small hyperbolic lattices, kept as a test-side witness.

The library identifies lattices by genus (`k3scan.presets.identify_type`).
This module is the independent check on it: a search that returns an
explicit basis map, so a name from `identify_type` can be backed by a map
U with U^T G2 U == G1 found without any discriminant form.

Cheap invariants (rank, determinant, Smith invariant factors) decide most
non-isometric pairs outright; the signature needs no test, since every
GramLattice has signature (1, rho-1).  When the invariants agree, both
Gram matrices are first put through a greedy unimodular reduction that
shrinks the basis norms, then a backtracking search looks for a basis map:
candidate images of each basis vector are enumerated with the
square-and-degree machinery against a fixed positive vector of the target,
with the degree cap deepened iteratively.  The search is complete at the
scale of the built-in catalog (small determinants); a None after the
invariants agree means no map was found within the search bound.  Above
rank 5 the search is refused: a pair of equal Grams still gives the
identity and differing invariants still give None, but any other pair
raises K3ScanError.  `witness_type` names the catalog lattice, if any, that
the search maps a given lattice to.
"""

from __future__ import annotations

import itertools
from math import isqrt

from helpers import mat_mul

from k3scan import linalg
from k3scan.enumeration import DegreeCoset
from k3scan.errors import InvalidLatticeError, K3ScanError
from k3scan.lattice import GramLattice, bilinear, square
from k3scan.linalg import Matrix, Vector, canonical_key
from k3scan.presets import catalog

_DEGREE_CAPS = (8, 16, 32, 64)


def _greedy_reduce(gram) -> tuple[Matrix, Matrix, Matrix]:
    """Unimodular T with small-normed T*gram*T^T, by steepest descent.

    Repeatedly applies the single move b_i <- b_i + s*b_j that most reduces
    (sum |G_ii|, sum |G_ij|); terminates because the cost is a strictly
    decreasing non-negative integer.  Returns (T*gram*T^T, T, T^-1); T^-1
    follows each move by the inverse column move.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    t = linalg.identity(n)
    tinv = linalg.identity(n)

    def cost(m):
        diag = sum(abs(m[i][i]) for i in range(n))
        off = sum(abs(m[i][j]) for i in range(n) for j in range(n) if i != j)
        return (diag, off)

    current = cost(g)
    while True:
        best = None
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for s in (1, -1):
                    trial = [row[:] for row in g]
                    for k in range(n):
                        trial[i][k] += s * g[j][k]
                    for k in range(n):
                        trial[k][i] += s * trial[k][j]
                    c = cost(trial)
                    if c < current and (best is None or c < best[0]):
                        best = (c, i, j, s, trial)
        if best is None:
            break
        current, i, j, s, g = best[0], best[1], best[2], best[3], best[4]
        for k in range(n):
            t[i][k] += s * t[j][k]
            tinv[k][j] -= s * tinv[k][i]
    return linalg.freeze_matrix(g), linalg.freeze_matrix(t), linalg.freeze_matrix(tinv)


def _small_positive_vector(lat: GramLattice) -> Vector:
    """Deterministic interior probe: a vector of positive square from a small box."""
    best = None
    for radius in range(1, 6):
        for coords in itertools.product(range(-radius, radius + 1), repeat=lat.rank):
            if all(abs(c) < radius for c in coords):
                continue  # only the new shell of the box
            sq = square(lat, coords)
            if sq > 0:
                key = (sq, canonical_key(coords))
                if best is None or key < best[0]:
                    best = (key, tuple(coords))
        if best is not None:
            return best[1]
    raise ValueError("no positive-square vector in a small box")


def _candidates(coset: DegreeCoset, norm: int, cap: int) -> list[Vector]:
    """All vectors of the given square with |H.v| <= cap, both orientations."""
    if norm > 0:
        cap = max(cap, isqrt(coset.h2 * norm) + 1)
    out = [v for _, v in coset.classes(0, norm, norm)]
    for k in range(1, cap + 1):
        for _, v in coset.classes(k, norm, norm):
            out.append(v)
            out.append(tuple(-x for x in v))
    return out


def isometry_small(l1: GramLattice, l2: GramLattice) -> Matrix | None:
    """A unimodular basis map U with U^T G2 U == G1, or None.

    Columns of U are the images in l2 of the basis vectors of l1.  Raises
    K3ScanError above rank 5 when the Grams differ but the invariants agree.
    """
    if l1.gram == l2.gram:
        return linalg.freeze_matrix(linalg.identity(l1.rank))
    if l1.rank != l2.rank or l1.det() != l2.det():
        return None
    if linalg.smith_normal_form(l1.gram)[0] != linalg.smith_normal_form(l2.gram)[0]:
        return None
    if l1.rank > 5:
        raise K3ScanError(f"isometry search supports rank at most 5, not {l1.rank}")
    g1r, _, t1inv = _greedy_reduce(l1.gram)
    g2r, t2, _ = _greedy_reduce(l2.gram)
    l2r = GramLattice(rank=l2.rank, gram=g2r)
    coset = DegreeCoset(l2r, _small_positive_vector(l2r))
    for cap in _DEGREE_CAPS:
        found = _search(g1r, l2r, coset, cap)
        if found is not None:
            # Map the solution back through both reductions.
            w = mat_mul(linalg.transpose(t2), found)
            u = mat_mul(w, linalg.transpose(t1inv))
            check = mat_mul(linalg.transpose(u), mat_mul(l2.gram, u))
            if check != l1.gram:
                raise K3ScanError("isometry mapped back through the reductions gives U^T G2 U != G1")
            return u
    return None


def witness_type(gram_or_lattice) -> str | None:
    """Name from the built-in catalog realized by the given even lattice.

    Tries `isometry_small` against each catalog lattice in turn, which
    compares the invariants before it searches; None when nothing matches.
    """
    if isinstance(gram_or_lattice, GramLattice):
        lat = gram_or_lattice
    else:
        try:
            lat = GramLattice(rank=len(gram_or_lattice), gram=gram_or_lattice)
        except InvalidLatticeError:
            return None
    for name, preset in catalog().items():
        if isometry_small(lat, preset.lattice) is not None:
            return name
    return None


def _search(g1, l2: GramLattice, coset: DegreeCoset, cap: int) -> Matrix | None:
    rho = len(g1)
    pools = {}
    for i in range(rho):
        norm = g1[i][i]
        if norm not in pools:
            pools[norm] = _candidates(coset, norm, cap)
    images: list[Vector] = []

    def extend(i: int):
        if i == rho:
            return True
        for v in pools[g1[i][i]]:
            if i == 0 and canonical_key(v)[1]:
                continue  # composing with -1 makes the first image canonical
            if all(bilinear(l2, v, images[j]) == g1[i][j] for j in range(i)):
                images.append(v)
                if extend(i + 1):
                    return True
                images.pop()
        return False

    if not extend(0):
        return None
    u = tuple(tuple(images[j][i] for j in range(rho)) for i in range(rho))
    # The map is automatically unimodular: equal determinants force det(U)^2 = 1.
    check = mat_mul(linalg.transpose(u), mat_mul(l2.gram, u))
    if check != g1:
        raise K3ScanError("basis map found by the search gives U^T G2 U != G1")
    return u
