import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import unimodular_change
from oracle import box_scan_classes, box_scan_vectors_of_norm

from k3scan import linalg
from k3scan.enumeration import DegreeCoset, EnumerationStats
from k3scan.lattice import GramLattice, bilinear, square


def vectors_of_norm(neg_def_gram, n):
    """The vectors of square n in N, as the classes of degree 0 against e0 in <2> + N.

    This is the kernel at centre 0, the path the sieve's wall check takes.
    """
    size = len(neg_def_gram)
    gram = [[2] + [0] * size] + [[0] + list(row) for row in neg_def_gram]
    e0 = (1,) + (0,) * size
    coset = DegreeCoset(GramLattice(rank=size + 1, gram=gram), e0)
    return [cls[1:] for _, cls in coset.classes(0, n, n)]


def classes(lat, h, d, k, stats=None):
    return [cls for _, cls in DegreeCoset(lat, h).classes(k, d, d, stats=stats)]


def test_vectors_of_norm_rank_one():
    assert vectors_of_norm([[-2]], -2) == [(1,), (-1,)] or set(
        vectors_of_norm([[-2]], -2)
    ) == {(1,), (-1,)}
    assert vectors_of_norm([[-2]], 0) == [(0,)]


def test_vectors_of_norm_a2():
    # frozen from a |coords| <= 3 box scan: the six roots of A2(-1)
    roots = vectors_of_norm([[-2, 1], [1, -2]], -2)
    assert len(roots) == 6
    assert set(roots) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


def test_vectors_of_norm_contract():
    out = vectors_of_norm([[-2, 0], [0, -4]], -6)
    assert len(out) == len(set(out))
    assert all(tuple(-x for x in v) in set(out) for v in out)


def test_vectors_of_norm_against_oracle():
    for gram in ([[-2, 1], [1, -2]], [[-4, 1], [1, -6]], [[-2, 0, 1], [0, -4, 1], [1, 1, -6]]):
        for n in (-2, -4, -6, -8, -12, -20):
            assert vectors_of_norm(gram, n) == sorted(
                box_scan_vectors_of_norm(gram, n),
                key=lambda v: (tuple(map(abs, v)), v),
            ) or set(vectors_of_norm(gram, n)) == set(box_scan_vectors_of_norm(gram, n))


def test_classes_examples(presets):
    s2 = presets["S2"]
    found = classes(s2.lattice, s2.ample, 4, 4)
    assert found == [s2.ample]  # projected norm 0: only the seed itself

    s1 = presets["S1"]
    curves = classes(s1.lattice, s1.ample, -2, 2)
    assert len(curves) == 6
    for c in curves:
        assert square(s1.lattice, c) == -2
        assert bilinear(s1.lattice, s1.ample, c) == 2

    # positive projected norm: no solutions in the negative definite complement
    assert classes(s1.lattice, s1.ample, 4, 1) == []


def test_classes_validation(presets):
    s1 = presets["S1"]
    with pytest.raises(ValueError):
        DegreeCoset(s1.lattice, (0, 1, 0))  # seed square < 0
    with pytest.raises(ValueError):
        DegreeCoset(s1.lattice, s1.ample).classes(-1, 2, 2)


def test_projection_identity(presets):
    # pi(D) = (H^2) D - (D.H) H must land in the complement with the predicted norm
    for name in ("S1", "S4", "L27"):
        p = presets[name]
        lat, h = p.lattice, p.ample
        h2 = square(lat, h)
        for d, k in ((-2, 1), (-2, 2), (2, 3), (4, 4)):
            for cls in classes(lat, h, d, k):
                proj = tuple(h2 * a - k * b for a, b in zip(cls, h))
                assert bilinear(lat, proj, h) == 0
                assert square(lat, proj) == h2 * h2 * d - k * k * h2


def test_kernel_counters(presets):
    p = presets["S2"]
    stats = EnumerationStats()
    classes(p.lattice, p.ample, -2, 4, stats=stats)
    assert stats.lifts_tried > 0
    assert stats.nodes > 0


def test_minus_two_up_to_degree(presets):
    def up_to_degree(p, kmax):
        return [
            r
            for k in range(1, kmax + 1)
            for r in classes(p.lattice, p.ample, -2, k)
        ]

    s5 = presets["S5"]
    found = up_to_degree(s5, 1)
    assert len(found) == 4
    assert all(bilinear(s5.lattice, s5.ample, r) == 1 for r in found)
    assert up_to_degree(s5, 0) == []

    l27 = presets["L27"]
    found = up_to_degree(l27, 2)
    degrees = sorted(bilinear(l27.lattice, l27.ample, r) for r in found)
    assert degrees == [1, 1, 2, 2, 2, 2, 2, 2]


def test_enumeration_matches_oracle_small(presets):
    for name in ("S1", "S3", "S5"):
        p = presets[name]
        for d in (-2, 2, 4):
            for k in range(0 if d == -2 else 1, 9):
                got = classes(p.lattice, p.ample, d, k)
                assert sorted(got) == box_scan_classes(p.lattice, p.ample, d, k)


@st.composite
def hyperbolic_lattice_and_class(draw):
    """<2a> + an even negative definite block of rank 1-2, in a scrambled basis.

    Returns the lattice and a class H of square 1..40 in the new basis; the
    gcd of G.H is often > 1, which puts a denominator on the kernel's centre.
    """
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 4))
    if draw(st.booleans()):
        block = [[-2 * b]]
    else:
        e = draw(st.integers(1, 4))
        c = draw(st.integers(-(2 * min(b, e) - 1), 2 * min(b, e) - 1))
        block = [[-2 * b, c], [c, -2 * e]]
    n = 1 + len(block)
    gram = [[0] * n for _ in range(n)]
    gram[0][0] = 2 * a
    for i, row in enumerate(block):
        gram[i + 1][1:] = row
    h0 = [draw(st.integers(1, 3))] + [draw(st.integers(-2, 2)) for _ in block]
    h0sq = linalg.dot(h0, linalg.mat_vec(gram, h0))
    assume(0 < h0sq <= 40)
    u, uinv = draw(unimodular_change(n))
    new_gram = linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(gram, u))
    h = linalg.mat_vec(uinv, h0)
    return GramLattice(rank=n, gram=new_gram), h


@settings(max_examples=60, deadline=None)
@given(hyperbolic_lattice_and_class())
def test_enumeration_matches_oracle_random_lattices(case):
    lat, h = case
    assert 0 < square(lat, h) <= 40
    for d in (-2, 2, 4):
        for k in range(0, 6):
            got = classes(lat, h, d, k)
            assert sorted(got) == box_scan_classes(lat, h, d, k), (d, k)


def _clear_a0(basis0, r):
    """r minus its part along basis0, scaled to stay integral: then a[0] = basis0.r = 0."""
    n0, t = linalg.dot(basis0, basis0), linalg.dot(basis0, r)
    return tuple(n0 * x - t * y for x, y in zip(r, basis0))


def _wall_rows(draw, lat, h, basis0):
    """0-6 int rows: random ones, ones with a[0] = 0, and multiples of G.H.

    A multiple m*G.H pairs with every class of degree k as m*k: at k = 0 every
    class meets it with equality, and for m*k < 0 it empties the whole coset.
    """
    w = linalg.mat_vec(lat.gram, h)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        r = [draw(st.integers(-4, 4)) for _ in range(lat.rank)]
        kind = draw(st.sampled_from(("random", "a0_zero", "degree")))
        if kind == "a0_zero":
            r = _clear_a0(basis0, r)
        elif kind == "degree":
            r = [r[0] * x for x in w]
        rows.append(tuple(r))
    return rows


@settings(max_examples=80, deadline=None)
@given(hyperbolic_lattice_and_class(), st.data())
def test_walls_clip_exactly_the_classes_they_exclude(case, data):
    lat, h = case
    coset = DegreeCoset(lat, h)
    basis0 = coset.basis[0]
    w = linalg.mat_vec(lat.gram, h)
    minus_w = tuple(-x for x in w)
    a0_zero = [_clear_a0(basis0, e) for e in linalg.identity(lat.rank)]
    assert all(linalg.dot(basis0, r) == 0 for r in a0_zero)
    random_rows = _wall_rows(data.draw, lat, h, basis0)
    for lo, hi in ((-2, -2), (-4, 6), (2, 12)):
        for k in range(0, 6):
            full = coset.classes(k, lo, hi)
            # Random walls; rows with a[0] = 0; G.H, which every class of
            # degree 0 meets with equality; -G.H, which cuts every class of
            # degree k > 0 and so drops the whole level.
            for rows in (random_rows, a0_zero, [w], [minus_w]):
                stats = EnumerationStats()
                got = coset.classes(k, lo, hi, rows, stats)
                want = [(sq, c) for sq, c in full if all(linalg.dot(c, r) >= 0 for r in rows)]
                assert got == want, (k, lo, hi, rows)
                assert stats.lifts_tried == len(got)
            assert coset.classes(k, lo, hi, [minus_w]) == ([] if k else full)
