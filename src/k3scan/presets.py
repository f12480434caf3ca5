"""Catalog of the built-in lattices, and identification against it by genus.

Eight lattices come with an interior ample seed: S1..S6 of rank 3 and L24,
L27 of rank 4.  Three more reference lattices (L25, S113, S114) ship without
seeds; they exist to be recognized by identify_type and probed by the
discriminant machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import InvalidLatticeError, K3ScanError
from .lattice import DiscriminantGroup, GramLattice, discriminant_group
from .linalg import Vector, dot, identity, mat_vec


class Preset(NamedTuple):
    name: str
    lattice: GramLattice
    ample: Vector | None = None


def _lat(gram, labels):
    return GramLattice(rank=len(gram), gram=tuple(map(tuple, gram)), basis_labels=labels)


_PRESETS = (
    Preset(
        name="S1",
        lattice=_lat([[6, 0, 0], [0, -2, 0], [0, 0, -2]], ("L", "A1", "A2")),
        ample=(1, -1, -1),
    ),
    Preset(
        name="S2",
        lattice=_lat([[36, 0, 0], [0, -2, 1], [0, 1, -2]], ("L", "A1", "A2")),
        ample=(1, -4, -4),
    ),
    Preset(
        name="S3",
        lattice=_lat([[12, 0, 0], [0, -2, 1], [0, 1, -2]], ("L", "A1", "A2")),
        ample=(1, -2, -2),
    ),
    Preset(
        name="S4",
        lattice=_lat([[-2, 1, 3], [1, -2, 1], [3, 1, -2]], ("A1", "A2", "A3")),
        ample=(1, 0, 1),
    ),
    Preset(
        name="S5",
        lattice=_lat([[4, 0, 0], [0, -2, 1], [0, 1, -2]], ("L", "A1", "A2")),
        ample=(1, -1, -1),
    ),
    Preset(
        name="S6",
        lattice=_lat([[-2, 1, 5], [1, -2, 0], [5, 0, -2]], ("A1", "A3", "A5")),
        ample=(1, -1, 1),
    ),
    Preset(
        name="L24",
        lattice=_lat(
            [[2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]],
            ("L", "A1", "A2", "A3"),
        ),
        ample=(1, 0, 0, 0),
    ),
    Preset(
        name="L27",
        lattice=_lat(
            [[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 4], [1, 0, 4, -2]],
            ("A2", "A4", "A5", "A7"),
        ),
        ample=(0, -1, 1, 1),
    ),
    # Reference lattices without seeds: recognized by identify_type and usable
    # with the discriminant commands only.
    Preset(
        name="L25",
        lattice=_lat(
            [[-2, 3, 0, 0], [3, -2, 1, 1], [0, 1, -2, 1], [0, 1, 1, -2]],
            ("B1", "B2", "B3", "B5"),
        ),
    ),
    Preset(
        name="S113",
        lattice=_lat([[-2, 3, 0], [3, -2, 2], [0, 2, -2]], ("B1", "B2", "B3")),
    ),
    Preset(
        name="S114",
        lattice=_lat([[-2, 4, 0], [4, -2, 2], [0, 2, -2]], ("B1", "B2", "B3")),
    ),
)


def catalog() -> dict[str, Preset]:
    return {p.name: p for p in _PRESETS}


def identify_type(gram_or_lattice) -> str | None:
    """Name of the catalog lattice isometric to the given even lattice, or None.

    Decided by genus.  Every GramLattice has signature (1, rho-1), so two of
    equal rank lie in one genus exactly when their discriminant quadratic
    forms are isomorphic (Nikulin 1979, Cor. 1.9.4).  Rank, determinant and
    invariant factors rule most catalog lattices out before the form test.
    Every catalog genus has one class (`_one_class_in_genus`, checked before
    a name is returned), so a name is a proof of isometry, and None a proof
    that no catalog lattice is in the input's genus.
    """
    if isinstance(gram_or_lattice, GramLattice):
        lat = gram_or_lattice
    else:
        try:
            lat = GramLattice(rank=len(gram_or_lattice), gram=gram_or_lattice)
        except InvalidLatticeError:
            return None
    det, dg = lat.det(), None
    for preset in _PRESETS:
        ref = preset.lattice
        if ref.rank != lat.rank or ref.det() != det:
            continue
        if dg is None:
            dg = discriminant_group(lat)
        ref_dg = discriminant_group(ref)
        if ref_dg.invariant_factors != dg.invariant_factors or not _forms_isomorphic(dg, ref_dg):
            continue
        if not _one_class_in_genus(ref):
            raise K3ScanError(f"the genus of {preset.name} is not known to have one class")
        return preset.name
    return None


def _forms_isomorphic(a: DiscriminantGroup, b: DiscriminantGroup) -> bool:
    """Whether two finite quadratic forms of equal invariant factors are isomorphic.

    Backtracks over images x_i in B of A's Smith generators g_i, drawn from
    the elements of B of g_i's order and q, with b(x_i, x_j) = b(g_i, g_j)
    in Q/Z for every j < i.  Such images give a homomorphism A -> B, as
    d_i x_i = 0, and it keeps q, since q(sum c_i g_i) = sum c_i^2 q(g_i) +
    2 sum_{i<j} c_i c_j b(g_i, g_j) in Q/2Z.  It is injective, because an
    element of its kernel pairs to 0 with all of A and b is non-degenerate;
    and |A| = |B| makes it onto.
    """
    buckets: dict[tuple[int, Fraction], list] = {}
    for x in b.elements():
        key = (b.element_order(x), b.q_value(x))
        buckets.setdefault(key, []).append((x, mat_vec(b.form, x)))
    pools = [
        buckets.get((d, a.q_value(unit)), [])
        for d, unit in zip(a.invariant_factors, identity(len(a.form)))
    ]
    pairings = [[Fraction(f, a.denominator) for f in row] for row in a.form]
    images: list = []

    def extend(i: int) -> bool:
        if i == len(pools):
            return True
        for x, bx in pools[i]:
            if all(
                (Fraction(dot(y, bx), b.denominator) - pairings[i][j]).denominator == 1
                for j, y in enumerate(images)
            ):
                images.append(x)
                if extend(i + 1):
                    return True
                images.pop()
        return False

    return extend(0)


def _one_class_in_genus(lat: GramLattice) -> bool:
    """Whether Eichler's theorem leaves lat alone in its genus.

    Conway and Sloane, SPLAG, ch. 15, section 9.7, Cor. 22: if an indefinite
    form of dimension n >= 3 has more than one class in its genus, then
    4^[n/2] d is divisible by k^(n(n-1)/2) for some non-square natural number
    k = 0 or 1 (mod 4), d its determinant.  So when no such k divides, the
    genus has one class.  A lattice of signature (1, n-1) is indefinite.
    """
    n = lat.rank
    if n < 3:
        return False
    e, m = n * (n - 1) // 2, 4 ** (n // 2) * abs(lat.det())
    k = 2
    while k ** e <= m:
        if k % 4 in (0, 1) and isqrt(k) ** 2 != k and m % k ** e == 0:
            return False
        k += 1
    return True
