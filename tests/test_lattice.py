import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MANY_ISOTROPIC_GRAMS,
    echelon_row_basis,
    is_primitive,
    isotropic_elements_whole_group,
    mat_mul,
    unimodular_change,
)
from oracle import scan_isotropic_dual_classes

from k3scan import linalg
from k3scan.errors import InvalidLatticeError
from k3scan.discriminant import (
    _saturation,
    discriminant_group,
    isotropic_elements,
    overlattice_from_isotropic,
)
from k3scan.lattice import GramLattice, bilinear, signature, square


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


def test_labels_must_be_a_list_of_strings():
    # Checked at the type, so the library refuses what the CLI refuses.
    gram = [[6, 0, 0], [0, -2, 0], [0, 0, -2]]
    for bad in ("LAB", (1, 2, 3), ["L", 1, "B"], None):
        with pytest.raises(InvalidLatticeError, match="labels must be a list of strings"):
            GramLattice(3, gram, bad)
    assert GramLattice(3, gram, ["L", "A1", "A2"]).basis_labels == ("L", "A1", "A2")
    assert GramLattice(3, gram).basis_labels == ("e1", "e2", "e3")


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
    assert signature(presets["S2"].lattice.gram) == (1, 2, 0)
    assert signature([[2]]) == (1, 0, 0)
    assert signature(presets["L27"].lattice.gram) == (1, 3, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)  # zero diagonal path


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_signature_invariant_under_unimodular_change(presets, data):
    for preset in presets.values():  # one conjugate of each catalog lattice
        gram, n = preset.lattice.gram, preset.lattice.rank
        u, _ = data.draw(unimodular_change(n).filter(lambda c: c[0] != linalg.identity(n)))
        conj = mat_mul(linalg.transpose(u), mat_mul(gram, u))
        assert signature(conj) == signature(gram)


@st.composite
def small_symmetric(draw):
    """A symmetric matrix of size 1-6 with entries in [-3, 3].

    Often its diagonal is zero, and often it is singular: coordinate j repeats coordinate i.
    """
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 0 if zero_diagonal else draw(entry)
        for j in range(i):
            a[i][j] = a[j][i] = draw(entry)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            if k != j:
                a[j][k] = a[k][j] = a[i][k]
        a[j][j] = a[i][i]
    return a


@settings(max_examples=300, deadline=None)
@given(small_symmetric())
def test_signature_matches_numpy_eigenvalues(a):
    n = len(a)
    pos, neg, zero = signature(a)
    assert zero == n - linalg.rank(a)
    # |eigenvalue| <= 18 by Gershgorin, and the non-zero ones multiply to a
    # non-zero integer coefficient of the characteristic polynomial, so each
    # non-zero one has magnitude at least 1/18^5: far above float error.
    eig = np.linalg.eigvalsh(np.array(a, dtype=float))
    tol = 0.5 / 18**5
    assert (pos, neg) == (int((eig > tol).sum()), int((eig < -tol).sum())), eig
    # Until a leading minor vanishes no move fires, and the pivots are the minors.
    pivots, _ = linalg.symmetric_elimination(a)
    for m in range(1, n + 1):
        minor = linalg.det([row[:m] for row in a[:m]])
        if minor == 0:
            break
        assert pivots[m - 1] == minor, (m, pivots)


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
    return GramLattice(n, mat_mul(linalg.transpose(u), mat_mul(gram, u)))


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


def saturation_matches_echelon_basis(den, y):
    """_saturation(den, y) is the echelon basis of den*I and y, of index den / gcd(den, y)."""
    n = len(y)
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    basis = linalg.freeze_matrix(_saturation(den, y))
    assert basis == echelon_row_basis([*rows, y])
    assert linalg.det(basis) * den // gcd(den, *y) == den**n


@st.composite
def saturation_input(draw):
    den = draw(st.integers(2, 200))
    return den, draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(saturation_input())
@example((2, [1, 1]))  # the rows (2, 0), (0, 2), (1, 1): index 2 in Z^2
def test_saturation_matches_echelon_basis(case):
    saturation_matches_echelon_basis(*case)


def test_saturation_matches_echelon_basis_on_isotropic_elements(presets):
    lattices = [p.lattice for p in presets.values()]
    lattices += [GramLattice(len(g), g) for g in MANY_ISOTROPIC_GRAMS]
    count = 0
    for lat in lattices:
        dg = discriminant_group(lat)
        for element in isotropic_elements(dg):
            g = dg.lift(element)
            den = lcm(*(x.denominator for x in g))
            saturation_matches_echelon_basis(den, [int(x * den) for x in g])
            count += 1
    assert count == 6 + 135


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
        assert prod(linalg.smith_normal_form(gram)[0]) == abs(preset.lattice.det())


def _split_grams():
    """Rank-3 even hyperbolic Grams whose |A| <= 3000 has two or three primes.

    Three shapes: <2a> + <-2b> + <-2c>, <2a> + 2b A2 and U(2a) + <-2b>, with
    a, b, c in [1, 12].  Each 2-part has rank 3, so it is never cyclic, and
    one or two odd primes split off from it.
    """
    out = []
    for a, b, c in itertools.product(range(1, 13), repeat=3):
        shapes = [([[2 * a, 0, 0], [0, -2 * b, 0], [0, 0, -2 * c]], 8 * a * b * c)]
        if c == 1:
            shapes.append(([[2 * a, 0, 0], [0, -4 * b, 2 * b], [0, 2 * b, -4 * b]], 24 * a * b * b))
            shapes.append(([[0, 2 * a, 0], [2 * a, 0, 0], [0, 0, -2 * b]], 8 * a * a * b))
        for gram, order in shapes:
            primes = sum(order % p == 0 for p in (2, 3, 5, 7, 11))
            if order <= 3000 and primes in (2, 3):
                out.append(gram)
    return out


SPLIT_GRAMS = _split_grams()


@st.composite
def split_hyperbolic_lattice(draw):
    gram = draw(st.sampled_from(SPLIT_GRAMS))
    u, _ = draw(unimodular_change(3))
    return GramLattice(3, mat_mul(linalg.transpose(u), mat_mul(gram, u)))


@settings(max_examples=60, deadline=None)
@given(split_hyperbolic_lattice())
def test_isotropic_elements_primary_split_matches_whole_group(lat):
    dg = discriminant_group(lat)
    assert isotropic_elements(dg) == isotropic_elements_whole_group(dg)


def test_isotropic_elements_primary_split_examples(presets):
    cases = [
        # A = (2, 2, 18): (1, 0, 3) has order 6, a sum across the 2- and 3-parts.
        ([[2, 0, 0], [0, -2, 0], [0, 0, -18]], (2, 2, 18),
         [(0, 0, 6), (1, 0, 3), (1, 0, 9), (1, 1, 0), (1, 1, 6)]),
        ([[0, 1], [1, 0]], (), []),  # the trivial group
        ([[2, 0], [0, -2]], (2, 2), [(1, 1)]),  # order 2: kept once
    ]
    for gram, factors, expected in cases:
        dg = discriminant_group(GramLattice(len(gram), gram))
        assert dg.invariant_factors == factors
        assert isotropic_elements(dg) == expected == isotropic_elements_whole_group(dg)
    # L25: a 3-group, nothing to split.
    dg = discriminant_group(presets["L25"].lattice)
    assert dg.invariant_factors == (3, 9)
    assert isotropic_elements(dg) == [(0, 3)] == isotropic_elements_whole_group(dg)
