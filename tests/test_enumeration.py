from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import mat_mul, sieve_presets, unimodular_change
from oracle import box_scan_classes, box_scan_classes_between, box_scan_vectors_of_norm

from k3scan import enumeration, linalg
from k3scan.enumeration import DegreeCoset, EnumerationStats, Walls
from k3scan.errors import K3ScanError
from k3scan.lattice import GramLattice, bilinear, square
from k3scan.series import theta_series


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
    new_gram = mat_mul(linalg.transpose(u), mat_mul(gram, u))
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
                got = coset.classes(k, lo, hi, rows, EnumerationStats())
                want = [(sq, c) for sq, c in full if all(linalg.dot(c, r) >= 0 for r in rows)]
                assert got == want, (k, lo, hi, rows)
            assert coset.classes(k, lo, hi, [minus_w]) == ([] if k else full)


def _gram_schmidt(q):
    """(d, mu) of a positive definite Gram q by the textbook recurrence, in Fractions."""
    n = len(q)
    d: list[Fraction] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mu[i][j] = (q[i][j] - sum(mu[j][l] * mu[i][l] * d[l] for l in range(j))) / d[j]
        d.append(Fraction(q[i][i]) - sum(mu[i][l] ** 2 * d[l] for l in range(i)))
    return d, mu


def assert_lll_reduced_basis(lat, h):
    """The coset's h^perp basis: the Smith basis up to a unimodular change, LLL-reduced."""
    coset = DegreeCoset(lat, h)
    w = linalg.mat_vec(lat.gram, coset.h)
    _, v = linalg.smith_normal_form((w,))
    basis = coset.basis
    assert len(basis) == lat.rank - 1
    assert all(linalg.dot(w, b) == 0 for b in basis)
    # Each b in the coordinates of V = [u | Smith basis]: (0, t) with t integral.
    vinv = np.linalg.inv(np.array(v, dtype=float))
    coords = [[int(round(x)) for x in vinv @ np.array(b, dtype=float)] for b in basis]
    assert all(linalg.mat_vec(v, c) == b for c, b in zip(coords, basis))
    assert all(c[0] == 0 for c in coords)
    assert abs(linalg.det([c[1:] for c in coords])) == 1
    q = [[-bilinear(lat, a, b) for b in basis] for a in basis]
    d, mu = _gram_schmidt(q)
    for i in range(len(basis)):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i)), (i, mu)
        if i:
            assert d[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * d[i - 1], (i, d, mu)


def test_lll_reduced_basis_on_presets(presets):
    for name in sieve_presets():
        assert_lll_reduced_basis(presets[name].lattice, presets[name].ample)


@st.composite
def hyperbolic_lattice_rank_3_or_4(draw):
    """<2a> + an even negative definite block of rank 2-3, in a scrambled basis, with H."""
    a = draw(st.integers(1, 4))
    size = draw(st.integers(2, 3))
    block = [[0] * size for _ in range(size)]
    for i in range(size):
        block[i][i] = -2 * draw(st.integers(1, 3))
        for j in range(i):
            block[i][j] = block[j][i] = draw(st.integers(-1, 1))
    minors = [linalg.det([row[:m] for row in block[:m]]) for m in range(1, size + 1)]
    assume(all((-1) ** m * x > 0 for m, x in enumerate(minors, 1)))  # negative definite
    n = size + 1
    gram = [[0] * n for _ in range(n)]
    gram[0][0] = 2 * a
    for i, row in enumerate(block):
        gram[i + 1][1:] = row
    h0 = [draw(st.integers(1, 2))] + [draw(st.integers(-1, 1)) for _ in block]
    assume(0 < linalg.dot(h0, linalg.mat_vec(gram, h0)) <= 24)
    u, uinv = draw(unimodular_change(n))
    new_gram = mat_mul(linalg.transpose(u), mat_mul(gram, u))
    return GramLattice(rank=n, gram=new_gram), linalg.mat_vec(uinv, h0)


@settings(max_examples=40, deadline=None)
@given(st.one_of(hyperbolic_lattice_and_class(), hyperbolic_lattice_rank_3_or_4()))
def test_lll_reduced_basis_random_lattices(case):
    # Ranks 2 to 4: h^perp of dimension 1 (nothing to reduce) up to 3.
    assert_lll_reduced_basis(*case)


def _row_of(coset, c, a):
    """The lattice row r with u.r = c and b_i.r = a_i: the wall a.x + m*c >= 0."""
    v = [coset.unit, *coset.basis]  # unimodular: u and a basis of h^perp
    rhs = np.array([c, *a], dtype=float)
    r = [int(round(x)) for x in np.linalg.solve(np.array(v, dtype=float), rhs)]
    assert linalg.mat_vec(v, r) == (c, *a)
    return tuple(r)


@settings(max_examples=40, deadline=None)
@given(hyperbolic_lattice_rank_3_or_4(), st.data())
def test_walls_match_oracle_at_every_level(case, data):
    lat, h = case
    coset = DegreeCoset(lat, h)
    n = len(coset.basis)
    e = linalg.identity(n)
    c1, c2 = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
    # x_0 + x_1 and -x_0 + x_1 combine into 2*x_1 + m*(c1 + c2) >= 0, which clips level 1.
    combined = [_row_of(coset, c1, [x + y for x, y in zip(e[0], e[1])]),
                _row_of(coset, c2, [y - x for x, y in zip(e[0], e[1])])]
    # x_0 >= m and x_0 <= 0: eliminating x_0 leaves -m >= 0, empty for m >= 1.
    empty = [_row_of(coset, -1, e[0]), _row_of(coset, 0, [-x for x in e[0]])]
    # 2*x_0 >= m and 2*x_0 <= m: empty over the integers for odd m, by the rounding.
    rounded = [_row_of(coset, -1, [2 * x for x in e[0]]),
               _row_of(coset, 1, [-2 * x for x in e[0]])]
    random_rows = [
        tuple(data.draw(st.integers(-3, 3)) for _ in range(lat.rank))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    for rows in (combined, empty, rounded, random_rows, combined + random_rows):
        walls = Walls(coset, rows)
        for k in range(0, 4):
            m, rem = divmod(k, coset.g)
            if rem:
                continue
            clips = walls.clips(m)
            if rows is combined:
                assert clips is not None and clips[1], clips
            if rows is empty and m:
                assert clips is None
            for lo, hi in ((-4, 2), (0, 8)):
                stats = EnumerationStats()
                got = coset.classes(k, lo, hi, walls, stats)
                assert got == coset.classes(k, lo, hi, rows)
                want = [
                    (sq, c) for sq, c in box_scan_classes_between(lat, coset.h, lo, hi, k)
                    if all(linalg.dot(c, r) >= 0 for r in rows)
                ]
                assert sorted(got) == want, (rows, k, lo, hi)
                if clips is None:
                    assert stats.nodes == 0 and got == []
                if rows is rounded and m % 2:
                    assert got == []


def test_capped_wall_projection_stays_sound(curve_systems, monkeypatch):
    # With no pairs allowed, every level keeps only the rows it inherits.
    for name in ("S2", "L24", "L27"):
        cs = curve_systems[name]
        coset = DegreeCoset(cs.lattice, cs.ample_seed)
        rows = [linalg.mat_vec(cs.lattice.gram, c) for c in cs.curves]
        full = {k: coset.classes(k, 2, 60, rows) for k in range(1, 25)}
        projected = sum(map(len, Walls(coset, rows).clips(1)))
        monkeypatch.setattr(enumeration, "_MAX_WALL_PAIRS", 0)
        assert sum(map(len, Walls(coset, rows).clips(1))) < projected
        for k, want in full.items():
            assert coset.classes(k, 2, 60, rows) == want, (name, k)
        monkeypatch.undo()


# Kernel nodes of one theta pass to square 100, counted by symmetry orbit over
# one fundamental domain of the curve isometries.  Every class, with the
# LLL-reduced basis and the walls projected onto every level, took S1 120,
# S2 228, S3 120, S4 94, S5 95, S6 242, L24 1,167 and L27 2,863; the plain
# kernel, with the walls at level 0 only, took 990 / 3,237 / 9,489.
THETA_100_NODES = {
    "S1": 72, "S2": 129, "S3": 72, "S4": 65, "S5": 62, "S6": 149, "L24": 334, "L27": 536,
}


@pytest.mark.parametrize("name", sorted(THETA_100_NODES))
def test_theta_pass_node_count_guard(curve_systems, monkeypatch, name):
    stats = EnumerationStats()
    classes = DegreeCoset.classes

    def counted(self, k, lo, hi, walls=(), _stats=None):
        return classes(self, k, lo, hi, walls, stats)

    monkeypatch.setattr(DegreeCoset, "classes", counted)
    theta_series(curve_systems[name], 100)
    assert 0 < stats.nodes <= THETA_100_NODES[name], stats.nodes


def test_kernel_rechecks_every_wall(curve_systems, monkeypatch):
    cs = curve_systems["L27"]
    coset = DegreeCoset(cs.lattice, cs.ample_seed)
    rows = [linalg.mat_vec(cs.lattice.gram, c) for c in cs.curves]
    k = next(k for k in range(1, 20) if coset.classes(k, 2, 40, rows) != coset.classes(k, 2, 40))
    # Walls whose projection forgot every clip let non-nef classes through to the re-check.
    monkeypatch.setattr(Walls, "clips", lambda self, m: [[] for _ in coset.basis])
    with pytest.raises(K3ScanError, match="meets a wall row negatively"):
        coset.classes(k, 2, 40, rows)
