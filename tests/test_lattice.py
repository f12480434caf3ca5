import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import unimodular_change
from oracle import scan_isotropic_dual_classes

from k3scan import linalg
from k3scan.errors import InvalidLatticeError
from k3scan.lattice import (
    GramLattice,
    bilinear,
    discriminant_group,
    is_primitive,
    isotropic_elements,
    overlattice_from_isotropic,
    signature,
    square,
)


def test_construction_rejects_bad_input(presets):
    with pytest.raises(InvalidLatticeError):
        GramLattice(2, [[2, 1], [0, 2]])  # not symmetric
    with pytest.raises(InvalidLatticeError):
        GramLattice(2, [[1, 0], [0, -2]])  # odd diagonal
    with pytest.raises(InvalidLatticeError):
        GramLattice(2, [[2, 2], [2, 2]])  # singular
    with pytest.raises(InvalidLatticeError):
        GramLattice(2, [[2, 0], [0, 2]])  # definite, not hyperbolic
    with pytest.raises(InvalidLatticeError):
        GramLattice(3, [[-2, 0, 0], [0, -2, 0], [0, 0, -2]])


def test_gram_entries_must_be_ints():
    # No truncation: 2.5 is not read as 2, nor 2.0 as 2, nor True as 1.
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(InvalidLatticeError, match="expected an integer"):
            GramLattice(2, [[bad, 1], [1, -2]])
    for bad in (2.0, True, "2"):
        with pytest.raises(InvalidLatticeError, match="expected an integer"):
            GramLattice(bad, [[2, 1], [1, -2]])
    lat = GramLattice(2, [[2, 1], [1, -2]])
    assert lat.gram == ((2, 1), (1, -2))
    assert GramLattice(2, [(2, 1), [1, -2]]) == lat


def test_vector_entries_must_be_ints():
    lat = GramLattice(3, [[6, 0, 0], [0, -2, 0], [0, 0, -2]])
    for bad in ((1.9, -1, -1), (1.0, -1, -1), (True, -1, -1), ("1", -1, -1)):
        with pytest.raises(TypeError, match="expected an integer"):
            square(lat, bad)
        with pytest.raises(TypeError, match="expected an integer"):
            bilinear(lat, (1, 0, 0), bad)
    assert square(lat, (1, -1, -1)) == 2
    assert lat.check_vector([1, -1, -1]) == (1, -1, -1)
    assert lat.check_vector(x for x in (1, -1, -1)) == (1, -1, -1)


def test_bilinear_examples(presets):
    s1 = presets["S1"].lattice
    assert bilinear(s1, (0, 1, 0), (0, 1, 0)) == -2
    assert bilinear(s1, (0, 0, 0), (1, 2, 3)) == 0
    s5 = presets["S5"].lattice
    assert bilinear(s5, (1, 0, 0), (0, 1, 0)) == 0
    with pytest.raises(ValueError):
        bilinear(s1, (1, 0), (0, 1, 0))


def test_bilinear_symmetry_randomized(presets):
    rng = random.Random(11)
    for preset in presets.values():
        lat = preset.lattice
        for _ in range(50):
            v = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            w = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            assert bilinear(lat, v, w) == bilinear(lat, w, v)


def test_signature_examples(presets):
    assert signature(presets["S2"].lattice) == (1, 2, 0)
    assert signature([[2]]) == (1, 0, 0)
    assert signature(presets["L27"].lattice) == (1, 3, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)  # zero diagonal path


def _random_unimodular(rng, n):
    m = linalg.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_signature_invariant_under_unimodular_change(presets):
    rng = random.Random(5)
    for preset in presets.values():
        gram = preset.lattice.gram
        n = len(gram)
        for _ in range(10):
            u = _random_unimodular(rng, n)
            conj = linalg.mat_mul(u, linalg.mat_mul(gram, linalg.transpose(u)))
            assert signature(conj) == signature(gram)


def test_discriminant_group_s2(presets):
    dg = discriminant_group(presets["S2"].lattice)
    assert dg.order() == 108
    assert dg.invariant_factors == (3, 36)
    assert dg.element_order((0, 1)) == 36
    for d, g in zip(dg.invariant_factors, dg.generator_lifts):
        assert all((d * x).denominator == 1 for x in g)


def test_discriminant_group_trivial_for_unimodular():
    lat = GramLattice(2, [[0, 1], [1, 0]])
    dg = discriminant_group(lat)
    assert dg.order() == 1
    assert dg.invariant_factors == ()
    assert isotropic_elements(dg) == []


def test_discriminant_group_l24_order(presets):
    lat = presets["L24"].lattice
    assert abs(lat.det()) == 28
    assert discriminant_group(lat).order() == 28


def test_q_value_independent_of_lift(presets):
    rng = random.Random(3)
    for name in ("S1", "S2", "S4", "L24"):
        lat = presets[name].lattice
        dg = discriminant_group(lat)
        gram = lat.gram
        for coeffs in list(dg.elements())[:20]:
            base = dg.lift(coeffs)
            reference = dg.q_value(coeffs)
            for _ in range(5):
                shift = [rng.randint(-3, 3) for _ in range(lat.rank)]
                moved = [x + s for x, s in zip(base, shift)]
                val = sum(
                    moved[i] * gram[i][j] * moved[j]
                    for i in range(lat.rank)
                    for j in range(lat.rank)
                ) % 2
                assert val == reference


def test_isotropic_elements_examples(presets):
    s2 = discriminant_group(presets["S2"].lattice)
    iso = isotropic_elements(s2)
    assert len(iso) == 1
    assert s2.lift(iso[0]) == (Fraction(1, 3), 0, 0)
    assert isotropic_elements(discriminant_group(presets["S1"].lattice)) == []
    assert isotropic_elements(discriminant_group(presets["S3"].lattice)) == []
    assert isotropic_elements(discriminant_group(presets["S5"].lattice)) == []
    assert isotropic_elements(discriminant_group(presets["S4"].lattice)) == []


def test_s114_isotropic_elements_and_saturations(presets):
    # Brute-force check against the full group: every element with q = 0 must
    # produce an even overlattice of index equal to its order, and only those.
    # q is recomputed here from the rational lift and the Gram, not from the
    # integer generator form that isotropic_elements reads.
    lat = presets["S114"].lattice
    dg = discriminant_group(lat)
    iso = isotropic_elements(dg)

    def q(c):
        x = dg.lift(c)
        return sum(
            x[i] * lat.gram[i][j] * x[j] for i in range(lat.rank) for j in range(lat.rank)
        ) % 2

    brute = [c for c in dg.elements() if any(c) and q(c) == 0]
    inverses = {
        tuple((-x) % d for x, d in zip(c, dg.invariant_factors)) for c in iso
    }
    assert set(brute) == set(iso) | inverses
    for element in iso:
        over = overlattice_from_isotropic(dg, element)
        index = dg.element_order(element)
        assert abs(lat.det()) == abs(over.det()) * index * index


@st.composite
def small_hyperbolic_lattice(draw):
    """An even Gram of rank 2-3 and signature (1, rho-1) with 0 < |det| <= 30.

    Hyperbolic by construction: an even negative definite block N of rank
    1-2 (diagonal -2..-8, off-diagonal in [-4, 4]), bordered by a row r in
    [-4, 4], with an even corner 2a, 0 <= a <= 4 (a > 0 when r = 0).  By
    interlacing the bordered Gram has at least rho-1 negative eigenvalues,
    and |det| = 2a |det N| + (|det| at a = 0) is non-zero, so the last
    eigenvalue is positive.  Only rows that leave room for some a under the
    det bound are offered, and a is drawn inside the room left, so no draw
    is rejected.  A random unimodular basis change then scrambles the
    entries.  Every discriminant form reachable with diagonals in [-8, 8]
    and off-diagonals in [-4, 4] is reachable here.
    """
    b = draw(st.integers(1, 4))
    if draw(st.booleans()):
        block = [[-2 * b]]
    else:
        e = draw(st.integers(1, 4))
        m = min(4, isqrt(4 * b * e - 1))
        c = draw(st.integers(-m, m))
        block = [[-2 * b, c], [c, -2 * e]]
    n = 1 + len(block)
    dn = abs(linalg.det(block))

    def bordered(r, corner):
        return [[corner, *r]] + [[x] + row for x, row in zip(r, block)]

    rows = []
    for r in itertools.product(sorted(range(-4, 5), key=abs), repeat=n - 1):
        rest, lo = abs(linalg.det(bordered(r, 0))), 0 if any(r) else 1
        if rest + 2 * lo * dn <= 30:
            rows.append((r, lo, min(4, (30 - rest) // (2 * dn))))
    r, lo, hi = draw(st.sampled_from(rows))
    gram = bordered(r, 2 * draw(st.integers(lo, hi)))
    u, _ = draw(unimodular_change(n))
    return GramLattice(n, linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(gram, u)))


@settings(max_examples=80, deadline=None)
@given(small_hyperbolic_lattice())
@example(GramLattice(3, [[-2, 1, 3], [1, -2, 1], [3, 1, -2]]))  # S4: an all-negative diagonal
@example(GramLattice(2, [[0, 3], [3, 0]]))  # U(3): (Z/3)^2
@example(GramLattice(2, [[0, 4], [4, 0]]))  # U(4): (Z/4)^2
@example(GramLattice(2, [[2, 0], [0, -8]]))  # <2> + <-8>: Z/2 x Z/8
def test_isotropic_elements_match_oracle_random_lattices(lat):
    # The oracle scans [0, |det|)^rho in numpy and knows nothing of the
    # generator form; both sides give dual classes as vectors in [0, 1)^rho.
    # Each class must appear exactly once among the lifts of {c, -c}.
    dg = discriminant_group(lat)
    iso = isotropic_elements(dg)
    lifts = []
    for c in iso:
        inverse = tuple((-x) % d for x, d in zip(c, dg.invariant_factors))
        assert any(c) and c <= inverse
        lifts += {dg.lift(c), dg.lift(inverse)}
    assert iso == sorted(iso)
    assert sorted(lifts) == scan_isotropic_dual_classes(lat.gram)


def test_overlattice_s2_properties(presets):
    lat = presets["S2"].lattice
    dg = discriminant_group(lat)
    element = isotropic_elements(dg)[0]
    over = overlattice_from_isotropic(dg, element)
    assert over.rank == lat.rank
    assert all(over.gram[i][i] % 2 == 0 for i in range(over.rank))
    assert abs(over.det()) * 9 == abs(lat.det())  # index 3 shrinks det by 9
    with pytest.raises(ValueError):
        overlattice_from_isotropic(dg, (0, 0))
    non_iso = next(c for c in dg.elements() if any(c) and dg.q_value(c) != 0)
    with pytest.raises(ValueError):
        overlattice_from_isotropic(dg, non_iso)


def test_is_primitive():
    assert not is_primitive((2, -2, 2))
    assert is_primitive((1, -1, 1))
    assert is_primitive((0, 3, 5))
    with pytest.raises(ValueError):
        is_primitive((0, 0, 0))


def test_snf_det_consistency_all_presets(presets):
    for preset in presets.values():
        gram = preset.lattice.gram
        product = 1
        for f in linalg.invariant_factors(gram):
            product *= f
        assert product == abs(preset.lattice.det())
