import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from k3scan import linalg

small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def naive_rank(m):
    rows = [[Fraction(x) for x in row] for row in m]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_rank_matches_rational_gauss(m):
    assert linalg.rank(m) == naive_rank(m)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_properties(m):
    d, u, v = linalg.smith_normal_form(m)
    n = len(m)
    assert linalg.mat_mul(u, linalg.mat_mul(tuple(map(tuple, m)), v)) == d
    assert abs(linalg.det(u)) == 1
    assert abs(linalg.det(v)) == 1
    diag = [d[i][i] for i in range(n)]
    assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0


def test_smith_normal_form_examples():
    d, _, _ = linalg.smith_normal_form([[2, 0], [0, 2]])
    assert (d[0][0], d[1][1]) == (2, 2)
    # frozen from row/column reduction by hand; |det| = 108 is preserved
    assert linalg.invariant_factors([[36, 0, 0], [0, -2, 1], [0, 1, -2]]) == (1, 3, 36)
    assert linalg.invariant_factors(
        [[-2, 3, 0, 0], [3, -2, 1, 1], [0, 1, -2, 1], [0, 1, 1, -2]]
    ) == (1, 1, 3, 9)


def test_determinant_matches_snf():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        product = 1
        for f in linalg.invariant_factors(m):
            product *= f
        assert abs(linalg.det(m)) == product


def test_integer_kernel_is_saturated():
    m = ((2, 4, 6),)
    basis = linalg.integer_kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert linalg.dot(m[0], v) == 0
    # saturation: (1,1,-1) is in the kernel and must be an integer combination
    target = (1, 1, -1)
    from itertools import product

    assert any(
        tuple(a * basis[0][i] + b * basis[1][i] for i in range(3)) == target
        for a in range(-6, 7)
        for b in range(-6, 7)
    )


def test_hnf_row_basis():
    rows = [[2, 0], [0, 2], [1, 1]]
    basis = linalg.hnf_row_basis(rows)
    assert len(basis) == 2
    assert abs(linalg.det(basis)) == 2  # index 2 in Z^2


def test_exact_sqrt_bounds():
    assert linalg.isqrt_fraction_floor(Fraction(30)) == 5
    assert linalg.isqrt_fraction_floor(Fraction(49, 4)) == 3  # sqrt = 3.5


def test_canonical_key_sign_normalization():
    vs = [(0, -1, 2), (0, 1, -2), (1, 0, 0)]
    ordered = sorted(vs, key=linalg.canonical_key)
    assert ordered[0] == (0, 1, -2)
    assert ordered[1] == (0, -1, 2)
    assert ordered[2] == (1, 0, 0)
