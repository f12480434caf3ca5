import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mat_mul

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
# Bareiss's floor division once floored Fractions: this read as rank 2.
@example([[Fraction(1, 2), 1, 0, 0, 0], [1, Fraction(1, 3), 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
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


@st.composite
def closed_form_matrix(draw):
    """An n x n matrix, n = 1-4, of ints up to 10^30 or of Fractions, often with a row a combination of others."""
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from((
        st.integers(-10**30, 10**30),
        st.integers(-3, 3),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    )))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != k]
        m[k] = [0] * n
        for i in draw(st.lists(st.sampled_from(others), max_size=2)):
            c = draw(entry)
            m[k] = [x + c * y for x, y in zip(m[k], m[i])]
    return m


@given(closed_form_matrix())
@example([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
@example([[10**30, 10**30 - 1], [10**30 + 1, 10**30]])
@example([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 5, 0]])
@settings(max_examples=300, deadline=None)
def test_closed_form_determinant_matches_echelon(m):
    # Orders 2-4 are closed forms; `_echelon` stays the reference, and reads
    # Fractions by clearing each row's denominators first.
    r, last = linalg._echelon(m)
    assert linalg.det(m) == (last if r == len(m) else 0) == naive_det(m)
    assert r == naive_rank(m)


def minors_gcd(m, k):
    """The gcd of all k x k minors of m."""
    rows, cols = range(len(m)), range(len(m[0]))
    return gcd(
        *(
            linalg.det([[m[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(rows, k)
            for cs in itertools.combinations(cols, k)
        )
    )


# 1-4 rows x 1-5 columns; one row is the shape `DegreeCoset` reduces.
smith_matrix = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 5).flatmap(lambda cols: flawed_matrix(rows, cols))
)


@given(smith_matrix)
@example([[4, 6, -10]])
@example([[0, 0, 0]])
@example([[2, 4, 6], [1, 1, 1], [3, 5, 7]])
@settings(max_examples=300, deadline=None)
def test_smith_normal_form_properties(m):
    """(factors, v) checked against the gcds of minors, not against the algorithm.

    The product of the first k invariant factors is the gcd of the k x k
    minors (the determinantal divisors), and m*v = w*diag(factors) with w
    unimodular: column i of m*v is factors[i] times column i of w, and the
    first r columns of w, r the rank, have r x r minors of gcd 1.
    """
    factors, v = linalg.smith_normal_form(m)
    n = min(len(m), len(m[0]))
    assert len(factors) == n and all(f >= 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    for k in range(1, n + 1):
        assert prod(factors[:k]) == minors_gcd(m, k), k
    assert abs(linalg.det(v)) == 1
    mv = linalg.transpose(mat_mul(m, v))
    r = sum(map(bool, factors))
    assert all(not any(col) for col in mv[r:])
    w = [tuple(x // f for x in col) for col, f in zip(mv, factors[:r])]
    assert all(tuple(x * f for x in c) == col for c, col, f in zip(w, mv, factors))
    if r:
        assert minors_gcd(linalg.transpose(w), r) == 1


def test_smith_normal_form_examples():
    assert linalg.smith_normal_form([[2, 0], [0, 2]])[0] == (2, 2)
    # frozen from row/column reduction by hand; |det| = 108 is preserved
    assert linalg.smith_normal_form([[36, 0, 0], [0, -2, 1], [0, 1, -2]])[0] == (1, 3, 36)
    assert linalg.smith_normal_form(
        [[-2, 3, 0, 0], [3, -2, 1, 1], [0, 1, -2, 1], [0, 1, 1, -2]]
    )[0] == (1, 1, 3, 9)
    assert linalg.smith_normal_form([[2, 4], [1, 2], [3, 6]])[0] == (1, 0)
    factors, v = linalg.smith_normal_form([[-4, 6, 10]])
    assert factors == (2,) and linalg.dot((-4, 6, 10), linalg.transpose(v)[0]) in (2, -2)


def test_determinant_matches_snf():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert abs(linalg.det(m)) == prod(linalg.smith_normal_form(m)[0])


def test_det_refuses_non_square():
    for bad in ([[1, 2, 3]], [[2, 0], [0, 3], [1, 1]]):
        with pytest.raises(ValueError, match="square"):
            linalg.det(bad)


def triple_product(b, m):
    """B M B^T by its defining sum, for k rows of B (k = 0 allowed)."""
    n = len(m)
    return tuple(
        tuple(sum(x[p] * m[p][q] * y[q] for p in range(n) for q in range(n)) for y in b)
        for x in b
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gram_of_matches_triple_product(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, 6))
    entry = st.integers(-9, 9)
    m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    assert linalg.gram_of(b, m) == triple_product(b, m)
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(m, zip(*m))]
    gram = linalg.gram_of(b, sym)
    assert gram == triple_product(b, sym) and gram == tuple(zip(*gram))
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    q = data.draw(st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=k, max_size=k))
    assert linalg.gram_of(q, m) == triple_product(q, m)


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
