import random
from fractions import Fraction

import pytest

from helpers import (
    PUBLISHED_CURVE_GRAMS,
    PUBLISHED_VERTEX_STATS,
    PUBLISHED_VERTICES,
    gram_permutation_equivalent,
)

from k3scan.cone import (
    chamber_vertices,
    hyperbolic_ell,
    is_ample,
    is_nef,
    vinberg_sieve,
)
from k3scan.enumeration import classes_with_square_and_degree
from k3scan.errors import IncompleteSieveError, NonCompactChamberError, WallError
from k3scan.lattice import bilinear, is_primitive, square

EXPECTED_COUNTS = {"S1": 6, "S2": 6, "S3": 4, "S4": 4, "S5": 4, "S6": 6, "L24": 6, "L27": 8}
EXPECTED_ELL = {
    "S1": Fraction(3),
    "S2": Fraction(9),
    "S3": Fraction(3),
    "S4": Fraction(10, 3),
    "S5": Fraction(2),
    "S6": Fraction(22, 3),
    "L24": Fraction(7, 2),
    "L27": Fraction(15, 2),
}


def test_curve_counts_and_grams_match_published(curve_systems):
    for name, cs in curve_systems.items():
        assert len(cs.curves) == EXPECTED_COUNTS[name]
        perm = gram_permutation_equivalent(cs.gram_of_curves, PUBLISHED_CURVE_GRAMS[name])
        assert perm is not None, f"{name}: curve gram differs from the published matrix"


def test_curve_system_invariants(curve_systems):
    for cs in curve_systems.values():
        lat = cs.lattice
        for i, c in enumerate(cs.curves):
            assert square(lat, c) == -2
            assert bilinear(lat, cs.ample_seed, c) > 0
            for j, c2 in enumerate(cs.curves):
                assert cs.gram_of_curves[i][j] == bilinear(lat, c, c2)
                if i != j:
                    assert cs.gram_of_curves[i][j] >= 0


def test_seed_is_ample_on_every_preset(curve_systems):
    for cs in curve_systems.values():
        assert is_ample(cs, cs.ample_seed)


def _pairing_partners(cs, target):
    """Indices paired so that curve_i + curve_j equals the target vector."""
    n = len(cs.curves)
    pairs = []
    for i in range(n):
        for j in range(i, n):
            if tuple(a + b for a, b in zip(cs.curves[i], cs.curves[j])) == target:
                pairs.append((i, j))
    return pairs


def test_linear_relations(curve_systems):
    # every curve pairs with a partner so the sums hit small multiples of the
    # minimal polarization: 2D (S1, S2), D (S3, L24), 2D+3D pattern (S6), etc.
    def seed_multiple(cs, m):
        return tuple(m * x for x in cs.ample_seed)

    for name, multiple, expected_pairs in (
        ("S1", 2, 3),
        ("S2", 2, 3),
        ("S3", 1, 2),
        ("L24", 1, 3),
    ):
        cs = curve_systems[name]
        pairs = _pairing_partners(cs, seed_multiple(cs, multiple))
        assert len(pairs) == expected_pairs
        assert sorted(i for p in pairs for i in p) == list(range(len(cs.curves)))

    s6 = curve_systems["S6"]
    deg2 = _pairing_partners(s6, seed_multiple(s6, 2))
    deg3 = _pairing_partners(s6, seed_multiple(s6, 3))
    assert len(deg2) == 1 and len(deg3) == 2
    assert sorted(i for p in deg2 + deg3 for i in p) == list(range(6))

    l27 = curve_systems["L27"]
    deg1 = _pairing_partners(l27, seed_multiple(l27, 1))
    deg2 = _pairing_partners(l27, seed_multiple(l27, 2))
    assert len(deg1) == 1 and len(deg2) == 3
    assert sorted(i for p in deg1 + deg2 for i in p) == list(range(8))


def test_s6_curve_relation(curve_systems):
    # one degree-2 curve is a combination of the basis curves: A1 - 2A3 + 2A5
    cs = curve_systems["S6"]
    assert (1, -2, 2) in cs.curves


def test_is_nef_and_ample_examples(curve_systems):
    s3 = curve_systems["S3"]
    assert is_nef(s3, (1, -2, -2)) and is_ample(s3, (1, -2, -2))
    assert is_nef(s3, (1, -2, -1)) and not is_ample(s3, (1, -2, -1))
    assert not is_nef(s3, s3.curves[0])
    assert not is_ample(s3, (0, 0, 0))

    s2 = curve_systems["S2"]
    assert is_ample(s2, s2.ample_seed)
    assert all(bilinear(s2.lattice, s2.ample_seed, c) == 4 for c in s2.curves)

    s6 = curve_systems["S6"]
    degrees = sorted(bilinear(s6.lattice, s6.ample_seed, c) for c in s6.curves)
    assert degrees == [2, 2, 3, 3, 3, 3]


def test_chamber_inventories(curve_systems):
    for name, cs in curve_systems.items():
        ch = cs.chamber
        stats = sorted((v.square, v.degree) for v in ch.vertices)
        assert stats == PUBLISHED_VERTEX_STATS[name], name
        assert ch.ell == EXPECTED_ELL[name], name
        rho = cs.lattice.rank
        for v in ch.vertices:
            assert is_nef(cs, v.coords)
            assert is_primitive(v.coords)
            assert v.square > 0
            orthogonal = [c for c in cs.curves if bilinear(cs.lattice, v.coords, c) == 0]
            from k3scan import linalg

            rows = [linalg.mat_vec(cs.lattice.gram, c) for c in orthogonal]
            assert linalg.rank(rows) == rho - 1


def test_chamber_vertex_coordinates_match_published(curve_systems):
    for name, table in PUBLISHED_VERTICES.items():
        got = sorted(v.coords for v in curve_systems[name].chamber.vertices)
        assert got == table, name


def test_l24_vertices_from_20_triples(curve_systems):
    import itertools

    cs = curve_systems["L24"]
    assert len(list(itertools.combinations(range(6), 3))) == 20
    assert len(cs.chamber.vertices) == 8


def test_hyperbolic_ell_examples(curve_systems):
    s2 = curve_systems["S2"]
    assert hyperbolic_ell(s2.lattice, s2.ample_seed, s2.ample_seed) == 1
    vertex = (1, 0, 0)  # the nef generator of square 36
    assert hyperbolic_ell(s2.lattice, s2.ample_seed, vertex) == 9

    s4 = curve_systems["S4"]
    v4 = next(v for v in s4.chamber.vertices if v.square == 60)
    assert hyperbolic_ell(s4.lattice, s4.ample_seed, v4.coords) == Fraction(10, 3)

    with pytest.raises(ValueError):
        hyperbolic_ell(s2.lattice, s2.ample_seed, s2.curves[0])


def test_hodge_index_randomized(curve_systems):
    rng = random.Random(2024)
    for cs in curve_systems.values():
        lat = cs.lattice
        found = 0
        while found < 200:
            v = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            w = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            if square(lat, v) <= 0 or square(lat, w) <= 0:
                continue
            found += 1
            ell = hyperbolic_ell(lat, v, w)
            assert ell >= 1
            proportional = all(
                v[i] * w[j] == v[j] * w[i]
                for i in range(lat.rank)
                for j in range(lat.rank)
            )
            assert (ell == 1) == proportional


def test_sieve_is_tie_order_independent(curve_systems):
    rng = random.Random(99)
    for name in ("S1", "S5", "L27"):
        cs = curve_systems[name]
        lat, h = cs.lattice, cs.ample_seed
        kmax = {"S1": 4, "S5": 2, "L27": 4}[name]
        for _ in range(5):
            accepted = []
            for k in range(1, kmax + 1):
                batch = list(classes_with_square_and_degree(lat, h, -2, k))
                rng.shuffle(batch)
                for r in batch:
                    if all(bilinear(lat, r, c) >= 0 for c in accepted):
                        accepted.append(r)
            assert set(accepted) == set(cs.curves)


def test_wall_seed_rejected(presets):
    with pytest.raises(WallError) as err:
        vinberg_sieve(presets["S1"].lattice, (1, 0, 0), 4)
    assert square(presets["S1"].lattice, err.value.wall_class) == -2


def test_incomplete_sieve_reported(presets):
    s6 = presets["S6"]
    with pytest.raises(IncompleteSieveError):
        vinberg_sieve(s6.lattice, s6.ample, 2)


def test_noncompact_chamber_detected(presets):
    lat = presets["S114"].lattice
    with pytest.raises(NonCompactChamberError):
        vinberg_sieve(lat, (1, 1, 0), 6)


def test_nonpositive_seed_rejected(presets):
    with pytest.raises(ValueError):
        vinberg_sieve(presets["S1"].lattice, (0, 1, 0), 4)


def test_chamber_vertices_validates_seed(curve_systems):
    cs = curve_systems["S1"]
    for bad in ((0, 1, 0), (0, 0, 0)):  # square -2, square 0
        with pytest.raises(ValueError, match="positive square"):
            chamber_vertices(cs.lattice, bad, cs.curves)
    with pytest.raises(ValueError, match="length"):
        chamber_vertices(cs.lattice, cs.ample_seed[:2], cs.curves)
    with pytest.raises(TypeError):
        chamber_vertices(cs.lattice, tuple(map(float, cs.ample_seed)), cs.curves)
    assert chamber_vertices(cs.lattice, list(cs.ample_seed), cs.curves) == cs.chamber
