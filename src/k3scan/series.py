"""Generating series of big-and-nef classes, counted by square.

Every function takes the `CurveSystem` of the sieve, which carries its
compact chamber.  The chamber's radius `cs.chamber.ell` gives the degree
bound (H.D)^2 <= ell * H^2 * D^2, and the Hodge index gives
H^2 * D^2 <= (H.D)^2.  A big class of the even lattice has D^2 >= 2, so the
big-and-nef classes with square at most hi are the nef classes found by one
enumeration pass per degree k = 1, 2, ..., each over the squares
[max(2, k^2/(ell*H^2)), min(hi, k^2/H^2)], bucketed by square.  The least
square ceil(k^2/(ell*H^2)) never decreases as k grows, so the passes stop at
the first k where it exceeds hi.  The rows Q.c of the curves, Q the Gram
matrix, are the kernel's walls, compiled once for every degree, so a class
that is not nef is never built; the kernel still checks each class it
returns against every row, on the pairings it carries down its levels.

xi counts these classes one symmetry orbit at a time.  G is the group of
isometries g of NS that permute the curves and fix H (`symmetry_group`).
For g in G, gD.c = D.g^-1 c, so g maps the big-and-nef classes S(k, d) of
degree k and square d onto themselves.  Fix a point p.  A class D weighs

    w(D) = |G| / #{g : (gD).p = D.p}  when D.p = max_g (gD).p, else 0,

and the weights over S(k, d) add up to |S(k, d)|, whatever p is.  Proof:
in an orbit O, let O_M hold the classes E with the largest E.p.  For D in
O_M, the g with (gD).p = D.p are those with gD in O_M, |O_M| * |Stab(D)| of
them.  So O_M weighs |O_M| * |G| / (|O_M| * |Stab(D)|) = |O|, and the rest
of O weighs 0.  For p = H every weight is 1.  A total over S(k, d) that is
not whole raises K3ScanError, and MAX_SERIES_CLASSES is charged with the
totals, the classes counted, so it stops a series at the same degree as a
count of every class.

As g is an isometry, (g^-1 D).p = D.gp, so D.p >= (g^-1 D).p is the wall
D.r >= 0 for the row r = Q(p - gp).  A class of positive weight meets every
such row non-negatively, so the kernel may take any subset of these rows as
walls: it still returns every class that weighs, and the weight test, made
against every g, drops the rest.  The rows are orthogonal to H, so they cut
out H times a cone C in h^perp.  With p generic (no g != 1 fixes it), C is
a fundamental domain of G, the Dirichlet domain of p, and the kernel builds
about 1/|G| of the classes.  It takes only the rows that are facets of C
(`_facet_rows`), and re-checks each class against them as against the curves.

theta counts the primitive classes, derived from xi by Moebius inversion
(Hardy & Wright, ch. 16): every nef class is m*D' with D' primitive and nef,
so xi(d) = sum over m^2 | d of theta(d/m^2).  Both return a plain
{square: count} dict over every even square up to the bound, zeros
included; the CLI formats what it prints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt
from operator import mul

from . import linalg
from .cone import CurveSystem
from .enumeration import DegreeCoset, Walls
from .errors import CostLimitError, K3ScanError
from .linalg import Matrix, Vector

# L27 theta to square 800 counts 106,302 classes.  A series that counts more,
# each class of every orbit whether built or not, is stopped.
MAX_SERIES_CLASSES = 200_000
# The presets' group searches enter at most 43 nodes (L24); past this many G = {1}.
MAX_GROUP_NODES = 10_000


def _degree_passes(cs: CurveSystem, coset: DegreeCoset, hi: int, rows=()):
    """(k, [(D^2, D)]) for k = 1, 2, ...: nef D, H.D = k, 2 <= D^2 <= hi, D.r >= 0 per row."""
    ell = cs.chamber.ell
    walls = Walls(coset, [linalg.mat_vec(cs.lattice.gram, c) for c in cs.curves] + list(rows))
    for k in itertools.count(1):
        least = -(-k * k * ell.denominator // (ell.numerator * coset.h2))
        if least > hi:
            return
        yield k, coset.classes(k, max(2, least), hi, walls)


def _charge(built: int, k: int) -> None:
    if built > MAX_SERIES_CLASSES:
        raise CostLimitError(f"more than {MAX_SERIES_CLASSES} classes built by degree {k}")


def big_nef_classes_by_square(cs: CurveSystem, hi: int) -> dict[int, list[Vector]]:
    """Big-and-nef classes with square at most hi, keyed by square.

    Only squares that have classes appear; each list is in ascending degree,
    and within a degree in the kernel's order, which is deterministic but
    unsorted.  Complete by the chamber radius bound.  Raises CostLimitError
    after the degree pass that takes the classes built past MAX_SERIES_CLASSES.
    """
    coset = DegreeCoset(cs.lattice, cs.ample_seed)
    out: dict[int, list[Vector]] = {}
    built = 0
    for k, found in _degree_passes(cs, coset, hi):
        built += len(found)
        _charge(built, k)
        for d, cls in found:
            out.setdefault(d, []).append(cls)
    return out


def symmetry_group(cs: CurveSystem) -> tuple[Matrix, ...]:
    """The isometries g of NS that permute the curves and fix H, as matrices acting on columns.

    The first rho independent curves b_1..b_rho fix g by their images, which
    are curves of the same degree (H.gc = H.c when gH = H) and the same
    pairings with each other.  Each consistent choice E of images, found by
    backtracking, gives g = E adj(B) / det(B), B the b_i as columns.  That g
    keeps the Gram Q, since E^T Q E = B^T Q B, and g is kept when it is
    integral, fixes H and maps every curve to a curve (so onto the curves).
    The curves of a compact chamber span NS over Q, so every element of G is
    found.  A search that enters more than MAX_GROUP_NODES nodes returns
    G = {1}: the counts do not depend on the group.
    """
    lat, h, curves = cs.lattice, cs.ample_seed, cs.curves
    rho, pairs, degrees = lat.rank, cs.gram_of_curves, cs.degrees()
    identity = linalg.freeze_matrix(linalg.identity(rho))
    basis: list[int] = []
    for i, c in enumerate(curves):
        if len(basis) < rho and linalg.rank([curves[j] for j in basis] + [c]) > len(basis):
            basis.append(i)
    if len(basis) < rho:
        return (identity,)
    rows = linalg.transpose([curves[i] for i in basis])  # B
    det = linalg.det(rows)
    # adj[j] is column j of adj(B): the cofactors of row j of B.
    adj = [
        [(-1) ** (i + j) * linalg.det([r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]])
         for i in range(rho)]
        for j in range(rho)
    ]
    candidates = [[e for e in range(len(curves)) if degrees[e] == degrees[b]] for b in basis]
    curve_set = set(curves)
    group: list[Matrix] = []
    images: list[int] = []
    nodes = 0

    def extend(j: int) -> bool:
        """Every g that extends `images`; False once past MAX_GROUP_NODES nodes."""
        nonlocal nodes
        nodes += 1
        if nodes > MAX_GROUP_NODES:
            return False
        if j == rho:
            g = []
            for row in linalg.transpose([curves[e] for e in images]):  # E
                entries = [divmod(linalg.dot(row, col), det) for col in adj]
                if any(r for _, r in entries):
                    return True
                g.append(tuple(q for q, _ in entries))
            if linalg.mat_vec(g, h) == h and all(linalg.mat_vec(g, c) in curve_set for c in curves):
                group.append(tuple(g))
            return True
        b = basis[j]
        for e in candidates[j]:
            if pairs[e][e] == pairs[b][b] and all(
                pairs[e][images[l]] == pairs[b][basis[l]] for l in range(j)
            ):
                images.append(e)
                done = extend(j + 1)
                images.pop()
                if not done:
                    return False
        return True

    return tuple(group) if extend(0) else (identity,)


def _generic_point(group, rank: int) -> Vector:
    """(1, t, ..., t^(rank-1)) for the least t >= 3 that no g != 1 fixes.

    A proper fixed space meets this curve in at most rank - 1 points.  From
    t = 2, L27 would build 719 nodes to square 100, not 536.
    """
    for t in itertools.count(3):
        p = tuple(t ** i for i in range(rank))
        if sum(linalg.mat_vec(g, p) == p for g in group) == 1:
            return p


def _facet_rows(coset: DegreeCoset, rows) -> list[Vector]:
    """The rows that are facets of C = {y in h^perp : y.r >= 0 for every row}, or all of them.

    A row acts on h^perp as a = B^T r, B its basis; rows with the same
    primitive a are one half-space, and the first is kept.  C is full: no
    row is zero, and minus the projection q of p pairs with r = Q(q - gq)
    to q.gq - q^2 > 0, as h^perp is negative definite.  When h^perp has
    dimension n = 2 or 3 and the a's have rank n, C is also pointed, so it is
    the cone over its extreme rays: each is orthogonal to n - 1 of the a's
    (a cross product, with (0, 0, 1) padding n = 2) and pairs >= 0 with all
    of them.  A row is a facet exactly when the rays on it have rank n - 1.
    Otherwise every row is kept.
    """
    n = len(coset.basis)
    first = {}
    for r in rows:
        first.setdefault(linalg.primitive_part([linalg.dot(b, r) for b in coset.basis]), r)
    if n not in (2, 3) or linalg.rank(list(first)) < n:
        return list(first.values())
    normals = [a + (0,) * (3 - n) for a in first]
    pairs = itertools.combinations(normals, 2) if n == 3 else ((a, (0, 0, 1)) for a in normals)
    rays = set()
    for (a0, a1, a2), (b0, b1, b2) in pairs:
        v0, v1, v2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        sign = 0  # the sign of the first non-zero a.v: every other must agree
        for c0, c1, c2 in normals:
            x = v0 * c0 + v1 * c1 + v2 * c2
            if x * sign < 0:
                break
            sign = sign or x
        else:
            if sign:  # v is not zero
                rays.add(linalg.primitive_part((v0, v1, v2) if sign > 0 else (-v0, -v1, -v2)))
    return [
        r for a, r in zip(normals, first.values())
        if linalg.rank([w for w in rays if not linalg.dot(w, a)]) == n - 1
    ]


def _orbit_counts(cs: CurveSystem, hi: int, group, p) -> dict[int, int]:
    """{d: count} of the big-and-nef classes of square d <= hi, each orbit weighed from p.

    Only squares that have classes appear.  Raises CostLimitError after the
    degree pass that takes the classes counted past MAX_SERIES_CLASSES.
    """
    gram = cs.lattice.gram
    coset = DegreeCoset(cs.lattice, cs.ample_seed)
    seen = linalg.mat_vec(gram, p)
    # (gD).p = D.Q g^-1 p, so over the group the values (gD).p are the D.view.
    views = [linalg.mat_vec(gram, linalg.mat_vec(g, p)) for g in group]
    rows = [tuple(x - y for x, y in zip(seen, v)) for v in views if v != seen]
    order = len(group)
    counts: dict[int, int] = {}
    built = 0
    for k, found in _degree_passes(cs, coset, hi, _facet_rows(coset, rows)):
        weights: dict[int, int | Fraction] = {}
        for d, cls in found:
            values = [sum(map(mul, cls, v)) for v in views]
            top = max(values)
            if linalg.dot(cls, seen) == top:
                ties = values.count(top)
                w, rem = divmod(order, ties)
                weights[d] = weights.get(d, 0) + (Fraction(order, ties) if rem else w)
        for d, w in weights.items():
            if w.denominator != 1:
                raise K3ScanError(f"the classes of square {d} and degree {k} weigh {w}")
            counts[d] = counts.get(d, 0) + int(w)
            built += int(w)
        _charge(built, k)
    return counts


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
    """{d: count} of all big-and-nef classes for each even square d up to max_square.

    Counted by orbit of `symmetry_group` from a generic point; raises
    CostLimitError after the degree pass that takes the count past
    MAX_SERIES_CLASSES.
    """
    if max_square < 2 or max_square % 2 != 0:
        raise ValueError("max_square must be an even integer >= 2")
    group = symmetry_group(cs)
    counts = _orbit_counts(cs, max_square, group, _generic_point(group, cs.lattice.rank))
    return {d: counts.get(d, 0) for d in range(2, max_square + 1, 2)}
