import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import smith_diagonal

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


def naive_det(m):
    """Signed determinant of a square matrix by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


@st.composite
def flawed_matrix(draw, rows, cols):
    """A rows x cols matrix, often singular: first column zero, or a row a combination of two others."""
    m = [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)) for _ in range(rows)]
    flaw = draw(st.sampled_from(("none", "zero column", "combination")))
    if flaw == "zero column" and cols:
        for row in m:
            row[0] = 0
    elif flaw == "combination" and rows > 1:
        k = draw(st.integers(0, rows - 1))
        others = st.sampled_from([i for i in range(rows) if i != k])
        i, j, a, b = draw(others), draw(others), draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


square_matrix = st.integers(0, 5).flatmap(lambda n: flawed_matrix(n, n))
# rows != cols; rows = cols - 1 is the shape of the rho-1 wall rows in `cone._lines`.
wide_or_tall_matrix = st.integers(1, 6).flatmap(
    lambda cols: st.integers(0, 6).filter(lambda rows: rows != cols).flatmap(
        lambda rows: flawed_matrix(rows, cols)
    )
)


@given(st.one_of(small_matrix, wide_or_tall_matrix))
@example([[0, 2, 1, -1], [0, 1, 3, 2], [0, 3, 4, 1]])
@example([[1, 2], [2, 4], [0, 0]])
@settings(max_examples=300, deadline=None)
def test_rank_matches_rational_gauss(m):
    assert linalg.rank(m) == naive_rank(m)


@given(square_matrix)
@example([])
@example([[0, 1], [1, 0]])
@example([[0, 2, 1], [0, 1, 3], [0, 5, -2]])
@settings(max_examples=300, deadline=None)
def test_signed_determinant_matches_rational_gauss(m):
    assert linalg.det(m) == naive_det(m)


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
    assert smith_diagonal([[36, 0, 0], [0, -2, 1], [0, 1, -2]]) == (1, 3, 36)
    assert smith_diagonal(
        [[-2, 3, 0, 0], [3, -2, 1, 1], [0, 1, -2, 1], [0, 1, 1, -2]]
    ) == (1, 1, 3, 9)


def test_determinant_matches_snf():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        product = 1
        for f in smith_diagonal(m):
            product *= f
        assert abs(linalg.det(m)) == product


def test_echelon_row_basis():
    rows = [[2, 0], [0, 2], [1, 1]]
    basis = linalg.echelon_row_basis(rows)
    assert len(basis) == 2
    assert abs(linalg.det(basis)) == 2  # index 2 in Z^2


def test_freeze_matrix_refuses_non_ints():
    assert linalg.freeze_matrix([[1, -2], (3, 4)]) == ((1, -2), (3, 4))
    for bad in (2.5, 2.0, True, "2", Fraction(2)):
        with pytest.raises(TypeError, match="expected an integer"):
            linalg.freeze_matrix([[1, bad]])


def test_canonical_key_sign_normalization():
    vs = [(0, -1, 2), (0, 1, -2), (1, 0, 0)]
    ordered = sorted(vs, key=linalg.canonical_key)
    assert ordered[0] == (0, 1, -2)
    assert ordered[1] == (0, -1, 2)
    assert ordered[2] == (1, 0, 0)
    assert linalg.canonical_key([0, -3, 1]) == ((0, 3, -1), 1)
    assert linalg.canonical_key((0, 0)) == ((0, 0), 0)


def test_symmetric_elimination_refuses_non_symmetric():
    for bad in ([[0, 1], [2, 0]], [[1, 2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.symmetric_elimination(bad)
    assert linalg.symmetric_elimination([]) == ([], [])
