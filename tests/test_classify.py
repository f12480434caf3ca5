import functools
import itertools
import json
import pickle
import random
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    PUBLISHED_CURVE_GRAMS,
    TEMPLATE_SYMMETRIES,
    evaluate,
    gram_permutation_equivalent,
    instantiate,
    mat_mul,
    orbit,
)
from isometry_witness import isometry_small

from k3scan import classify, linalg
from k3scan.classify import (
    AffineExpr,
    Constraint,
    MatrixTemplate,
    _search_sequential,
    builtin_searches,
    identify_type,
    search_template,
    span_gram,
    template_from_dict,
)
from k3scan.errors import CostLimitError, UsageError
from k3scan.lattice import GramLattice


def test_rank_examples():
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["S1"]) == 3
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["L27"]) == 4
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["S2"]) == 3
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["L24"]) == 4


def test_affine_expression_parsing():
    e = AffineExpr.parse("4-a")
    assert evaluate(e, {"a": 1}) == 3
    e = AffineExpr.parse("16-a1-b1-c1")
    assert evaluate(e, {"a1": 1, "b1": 7, "c1": 7}) == 1
    assert evaluate(AffineExpr.parse("-2"), {}) == -2
    assert evaluate(AffineExpr.parse("2*u"), {"u": 3}) == 6
    with pytest.raises(UsageError):
        AffineExpr.parse("a*b")
    assert evaluate(AffineExpr.parse(-2), {}) == -2
    for bad in (True, False, None, 2.0):  # JSON true/false/null/2.0 are not expressions
        with pytest.raises(UsageError, match="expected an integer"):
            AffineExpr.parse(bad)


def test_constraint_parsing():
    c = Constraint.parse("a1+b1<=16")
    assert c.lhs == AffineExpr(coeffs=(("a1", 1), ("b1", 1)))
    assert (c.op, c.rhs) == ("<=", AffineExpr(const=16))
    c = Constraint.parse("2*a==b-1")
    assert c.lhs == AffineExpr(coeffs=(("a", 2),))
    assert (c.op, c.rhs) == ("==", AffineExpr(const=-1, coeffs=(("b", 1),)))
    with pytest.raises(UsageError):
        Constraint.parse("a<b")


def test_template_rejects_asymmetric():
    with pytest.raises(UsageError):
        MatrixTemplate(
            size=2,
            entries=(
                (AffineExpr.parse(-2), AffineExpr.parse("a")),
                (AffineExpr.parse("b"), AffineExpr.parse(-2)),
            ),
            parameters=("a", "b"),
            domains=((0, 1), (0, 1)),
        )


def test_search_refuses_negative_target_rank():
    # -1 used to return no solutions and -2 to raise a bare ValueError.
    template = builtin_searches()["S5"].template
    for target_rank in (-1, -2):
        with pytest.raises(UsageError, match="target_rank must be non-negative"):
            search_template(template, target_rank)


EXPECTED_IDENTIFICATIONS = {
    "S1": {(0, 0, 4): "S1"},
    "S2": {(1, 7, 7, 1, 1, 7, 7, 1, 7, 1, 1, 7): "S2"},
    "S3": {(0,): "S114", (1,): "S3"},
    "S4": {(0,): "S113", (1,): "S4"},
    "S5": {(0,): "S5"},
    "S6": {(1, 1, 9): "S6"},
    "L24": {(0, 0, 0): "L24", (0, 0, 1): "L25"},
}


def test_builtin_searches_return_published_solutions(curve_systems):
    searches = builtin_searches()
    assert set(searches) == {"S1", "S2", "S3", "S4", "S5", "S6", "L24", "L27"}
    for name, bs in searches.items():
        solutions = search_template(bs.template, bs.target_rank)
        assert {s.values for s in solutions} == set(bs.expected), name
        for sol in solutions:
            assert sol.rank == bs.target_rank
            expected_type = EXPECTED_IDENTIFICATIONS.get(name, {}).get(sol.values)
            if expected_type is not None:
                assert sol.identified == expected_type, (name, sol.values)
        # The sieve's curve matrix is, up to a permutation of the curves, the
        # matrix of exactly one solution, and that solution is named after it.
        gram = curve_systems[name].gram_of_curves
        matches = [
            s for s in solutions if gram_permutation_equivalent(s.matrix, gram) is not None
        ]
        assert [s.identified for s in matches] == [name], (name, [s.values for s in matches])


def test_l27_solution_isometry_classes():
    bs = builtin_searches()["L27"]
    by_values = {s.values: s for s in search_template(bs.template, bs.target_rank)}
    groups = {
        "first": [(0, 0, 4, 0, 1, 0), (0, 0, 4, 1, 2, 0), (0, 0, 4, 1, 0, 2), (0, 0, 4, 0, 0, 1)],
        "second": [(2, 0, 4, 0, 2, 2), (0, 2, 4, 0, 2, 2), (0, 0, 2, 0, 2, 2),
                   (0, 2, 0, 0, 2, 0), (2, 0, 0, 0, 0, 2)],
    }
    for members in groups.values():
        lattices = [
            GramLattice(rank=4, gram=by_values[v].basis_gram) for v in members
        ]
        for a in lattices:
            for b in lattices:
                assert isometry_small(a, b) is not None
    # the two groups are distinct lattices
    first = GramLattice(rank=4, gram=by_values[groups["first"][0]].basis_gram)
    second = GramLattice(rank=4, gram=by_values[groups["second"][0]].basis_gram)
    assert isometry_small(first, second) is None
    assert identify_type(by_values[(0, 0, 4, 1, 1, 1)].basis_gram) == "L27"


def test_orbit_property_without_normalizations():
    searches = builtin_searches()
    for name, symmetries in TEMPLATE_SYMMETRIES.items():
        bs = searches[name]
        t = bs.template
        free = MatrixTemplate(
            t.size, t.entries, t.parameters, t.domains,
            tuple(c for c in t.constraints if c.op == "=="),
        )
        expected = set()
        for sol in bs.expected:
            expected |= orbit(t.parameters, symmetries, sol)
        assert {s.values for s in search_template(free, bs.target_rank)} == expected, name


def test_random_non_solutions_have_larger_rank():
    rng = random.Random(17)
    bs = builtin_searches()["S1"]
    solutions = set(bs.expected)
    tried = 0
    while tried < 40:
        values = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 4))
        if values in solutions:
            continue
        tried += 1
        assert linalg.rank(instantiate(bs.template, values)) > bs.target_rank


def test_span_gram_uses_all_generators():
    # the S1 solution matrix spans a lattice of determinant 24 even though the
    # first three generators alone only span an index-2 sublattice
    bs = builtin_searches()["S1"]
    matrix = instantiate(bs.template, (0, 0, 4))
    gram = span_gram(matrix)
    from k3scan import linalg

    assert len(gram) == 3
    assert abs(linalg.det(gram)) == 24


def span_gram_by_slicing(m):
    """The top-left r x r block of V^T m V, r the count of non-zero Smith factors."""
    factors, v = linalg.smith_normal_form(m)
    r = sum(map(bool, factors))
    full = mat_mul(linalg.transpose(v), mat_mul(m, v))
    return tuple(tuple(full[i][j] for j in range(r)) for i in range(r))


def test_span_gram_matches_the_sliced_congruence():
    rng = random.Random(29)
    for n in range(1, 7):
        for r in range(n + 1):
            for _ in range(8):
                # m = A^T diag(d) A has rank r for a generic r x n integer A.
                while True:
                    a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)]
                    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
                    m = [
                        [sum(d[k] * a[k][i] * a[k][j] for k in range(r)) for j in range(n)]
                        for i in range(n)
                    ]
                    if linalg.rank(m) == r:
                        break
                gram = span_gram(m)
                assert len(gram) == r and gram == span_gram_by_slicing(m), m
    for bs in builtin_searches().values():
        for values in bs.expected:
            m = instantiate(bs.template, values)
            assert span_gram(m) == span_gram_by_slicing(m), values


def test_identify_type_negative():
    assert identify_type(((10, 0, 0), (0, -100, 0), (0, 0, -2))) is None
    assert identify_type(((2, 1), (1, -2))) is None  # rank 2: not in the catalog
    assert identify_type(((2, 0), (0, 2))) is None  # signature (2, 0): no GramLattice


def test_custom_template_roundtrip(tmp_path):
    doc = {
        "size": 4,
        "entries": [
            ["-2", "4", "a", "2-a"],
            ["4", "-2", "2-a", "a"],
            ["a", "2-a", "-2", "4"],
            ["2-a", "a", "4", "-2"],
        ],
        "domains": {"a": [0, 2]},
        "normalize": ["a<=1"],
        "target_rank": 3,
    }
    template, target = template_from_dict(doc)
    assert {s.values for s in search_template(template, target)} == {(0,), (1,)}
    # A string row used to be read character by character, as the cells a and b.
    for entries in ([["-2", "a"], "ab"], "ab", [["-2"], 3], {"0": ["-2"]}):
        with pytest.raises(UsageError, match="entries must be a list of rows"):
            template_from_dict({**doc, "entries": entries})


def test_template_pickles_by_value():
    # A template is a value: it pickles, and unpickling re-validates it.
    for bs in builtin_searches().values():
        copy = pickle.loads(pickle.dumps(bs.template))
        assert copy == bs.template and type(copy) is MatrixTemplate


NAMES = ("p0", "p1", "p2")


def _expr(const, coeffs):
    return AffineExpr(const=const, coeffs=tuple((p, c) for p, c in zip(NAMES, coeffs) if c))


@st.composite
def small_templates(draw):
    """Random small templates; constraints lead with +-2 on their last parameter."""
    size = draw(st.integers(2, 4))
    nparams = draw(st.integers(1, 3))
    coeff = st.integers(-2, 2)
    cells = {}
    for i in range(size):
        for j in range(i, size):
            cells[i, j] = cells[j, i] = _expr(
                draw(st.integers(-3, 3)), [draw(coeff) for _ in range(nparams)]
            )
    domains = []
    for _ in range(nparams):
        lo = draw(st.integers(-3, 1))
        empty = draw(st.integers(0, 19)) == 19
        domains.append((lo, lo - 1 if empty else draw(st.integers(lo, 3))))
    constraints = []
    for _ in range(draw(st.integers(0, 3))):
        constant = draw(st.integers(0, 5)) == 0
        last = -1 if constant else draw(st.integers(0, nparams - 1))
        diff = [draw(coeff) if k < last else 0 for k in range(nparams)]
        if not constant:
            diff[last] = draw(st.sampled_from((-2, 2)))
        # lhs - rhs = const + diff, with a random shift written on both sides
        shift = [draw(coeff) for _ in range(nparams)]
        constraints.append(Constraint(
            _expr(draw(st.integers(-1, 1) if constant else st.integers(-4, 4)),
                  [d + s for d, s in zip(diff, shift)]),
            draw(st.sampled_from(("<=", "<=", "=="))),
            _expr(0, shift),
        ))
    template = MatrixTemplate(
        size=size,
        entries=tuple(tuple(cells[i, j] for j in range(size)) for i in range(size)),
        parameters=NAMES[:nparams],
        domains=tuple(domains),
        constraints=tuple(constraints),
    )
    return template, draw(st.integers(0, size))


def _planted(base, combos, domains, *constraints):
    """The template A B A^T, B the symmetric base of (const, coeffs) cells, A the rows combos.

    Row a of A B A^T is sum_s a_s * (row s of B A^T) for every assignment:
    the rows satisfy the relations that combos plants among them.
    """
    k, nparams = len(base), len(domains)

    def cell(a, b):
        pairs = [(a[s] * b[t], base[s][t]) for s in range(k) for t in range(k)]
        return _expr(sum(w * const for w, (const, _) in pairs),
                     [sum(w * coeffs[q] for w, (_, coeffs) in pairs) for q in range(nparams)])

    return MatrixTemplate(
        size=len(combos),
        entries=tuple(tuple(cell(a, b) for b in combos) for a in combos),
        parameters=NAMES[:nparams],
        domains=tuple(domains),
        constraints=tuple(map(Constraint.parse, constraints)),
    )


@st.composite
def planted_templates(draw):
    """Templates whose later rows are integer combinations of the base rows.

    Most are pairs with a common sum, row + row_c = row_a + row_b, as a curve
    that splits in the double plane gives; the rest have coefficients in
    [-2, 2].  The rows come in a random order.
    """
    k = draw(st.integers(1, 3))
    nparams = draw(st.integers(1, 2))
    coeff = st.integers(-2, 2)
    base = [[None] * k for _ in range(k)]
    for s in range(k):
        for t in range(s, k):
            base[s][t] = base[t][s] = (draw(st.integers(-3, 3)), [draw(coeff) for _ in range(nparams)])
    combos = [[int(s == t) for t in range(k)] for s in range(k)]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            a, b, c = (draw(st.integers(0, k - 1)) for _ in range(3))
            row = [0] * k
            row[a] += 1
            row[b] += 1
            row[c] -= 1
        else:
            row = [draw(coeff) for _ in range(k)]
        combos.append(row)
    combos = [combos[i] for i in draw(st.permutations(range(len(combos))))]
    domains = []
    for _ in range(nparams):
        lo = draw(st.integers(-3, 1))
        domains.append((lo, draw(st.integers(lo, 3))))
    return _planted(base, combos, domains), draw(st.integers(0, len(combos)))


def _holds(c, assignment):
    a, b = evaluate(c.lhs, assignment), evaluate(c.rhs, assignment)
    return a <= b if c.op == "<=" else a == b


def _brute_force(template, target_rank):
    hits = []
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in template.domains)):
        assignment = dict(zip(template.parameters, values))
        matrix = instantiate(template, values)
        r = linalg.rank(matrix)
        if r <= target_rank and all(_holds(c, assignment) for c in template.constraints):
            hits.append((values, r, matrix))
    return hits


def _template(rows, parameters, domains, *constraints):
    return MatrixTemplate(
        size=len(rows),
        entries=tuple(tuple(AffineExpr.parse(c) for c in row) for row in rows),
        parameters=parameters,
        domains=domains,
        constraints=tuple(map(Constraint.parse, constraints)),
    )


def _pinned(domains, *constraints):
    return _template((("-2", "p0"), ("p0", "p1")), ("p0", "p1"), domains, *constraints)


# 1 <= 2*p0 needs the ceiling of 1/2, and 2*p1 == p0 the divisibility test.
PINNED = _pinned(((-3, 3), (-3, 3)), "1<=2*p0", "2*p1==p0")


# Rows whose later terms clip an earlier parameter: p1 in [0, 1] leaves p0 only
# 2 or 3 in p0+p1==3; the lead -2 makes the bound on p0 a ceiling (<=) and a
# ceiling and a floor (==); -p1 makes the later terms reach [-2, 0].
CLIPPING_PINS = (
    _pinned(((-3, 3), (0, 1)), "p0+p1==3"),
    _pinned(((-3, 3), (0, 2)), "-2*p0+p1<=-3"),
    _pinned(((-3, 3), (0, 2)), "-2*p0+p1==-3"),
    _pinned(((-3, 3), (0, 2)), "2*p0-p1==1"),
)


# Templates with a block of parameters whose bounds and minors never read the
# parameters before it, so the search replays the block for every prefix but
# the first.  Two constant 2x2 pairs are joined by four parameters under their
# own == constraint, as in S2.  The cell d+p is filled at the block's depths
# but reads the prefix p; a last parameter q keeps the minors of d+p at d's
# depth (the last parameter's are left to the rank test), where they end the
# block before d.  Three pairs: the joins (a2, b2) form the block
# after the prefix (a1, b1), and q joins the second and third pairs.
BLOCK_PINS = (
    _template(
        (("-2", "-3", "a", "b", "0"), ("-3", "-2", "c", "d+p", "0"),
         ("a", "c", "-2", "-3", "0"), ("b", "d+p", "-3", "-2", "0"), ("0", "0", "0", "0", "q-2")),
        ("p", "a", "b", "c", "d", "q"), ((-1, 1),) + ((0, 3),) * 4 + ((1, 2),), "a+b+c+d==10",
    ),
    _template(
        (("-2", "-3", "a1", "b1", "a2", "b2"), ("-3", "-2", "b1", "a1", "b2", "a2"),
         ("a1", "b1", "-2", "-3", "q", "-5-q"), ("b1", "a1", "-3", "-2", "-5-q", "q"),
         ("a2", "b2", "q", "-5-q", "-2", "-3"), ("b2", "a2", "-5-q", "q", "-3", "-2")),
        ("a1", "b1", "a2", "b2", "q"), ((1, 4),) * 4 + ((-3, 0),), "a1+b1==5", "a2+b2==5",
    ),
)


# b's 2x2 minor reads only b, and the bound on c reads a: b alone is a block,
# searched under a = 0 and replayed under a = 1..4.
ONE_PARAMETER_BLOCK = _template(
    (("0", "b-2", "0"), ("b-2", "0", "0"), ("0", "0", "a+c")),
    ("a", "b", "c"), ((0, 4), (0, 4), (-4, 4)), "a+c<=0",
)

# B2 = [[-2, p0], [p0, -2]] and B3 = [[-2, p0, 1], [p0, -2, p1], [1, p1, -2]].
B2 = (((-2, [0]), (0, [1])), ((0, [1]), (-2, [0])))
B3 = (((-2, [0, 0]), (0, [1, 0]), (1, [0, 0])),
      ((0, [1, 0]), (-2, [0, 0]), (0, [0, 1])),
      ((1, [0, 0]), (0, [0, 1]), (-2, [0, 0])))
E3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Each with its target rank and the size of its leaf, the rows the search keeps:
RELATION_PINS = (
    # row2 = 2*row0 - row1: a non-unit coefficient; rank 1 needs p0 = +-2.
    (_planted(B2, ((1, 0), (0, 1), (2, -1)), ((-3, 3),)), 1, 2),
    # row3 + row2 = row0 + row1, as a split curve gives: 3 rows kept at target
    # rank 3, so every assignment with p0 <= p1 is a solution.
    (_planted(B3, E3 + ((1, 1, -1),), ((-2, 2), (0, 2)), "p0<=p1"), 3, 3),
    # row2 = 2*row0 - row1 in the constants and in p0, not in p1: no row is dropped.
    (_template((("-2", "p0", "-4-p0"), ("p0", "-2", "2+2*p0"), ("-4-p0", "2+2*p0", "-10-4*p0+p1")),
               ("p0", "p1"), ((-3, 3), (-1, 1))), 1, 3),
    # No relation: rank 2 where p0^2 + p0*p1 + p1^2 = 3.
    (_planted(B3, E3, ((-2, 2), (-2, 2))), 2, 3),
)


@given(st.one_of(small_templates(), planted_templates()))
@example((PINNED, 1))
@example((CLIPPING_PINS[0], 1))
@example((CLIPPING_PINS[1], 1))
@example((CLIPPING_PINS[2], 1))
@example((CLIPPING_PINS[3], 1))
@example((BLOCK_PINS[0], 2))
@example((BLOCK_PINS[0], 3))
@example((BLOCK_PINS[1], 2))
@example((BLOCK_PINS[1], 3))
@example(RELATION_PINS[0][:2])
@example(RELATION_PINS[1][:2])
@example(RELATION_PINS[2][:2])
@example(RELATION_PINS[3][:2])
@example((ONE_PARAMETER_BLOCK, 0))
@settings(max_examples=300, deadline=None)
def test_compiled_search_matches_brute_force(case):
    template, target_rank = case
    # At the full size no minor prunes, so only the constraint bounds act.
    for rank in (target_rank, template.size):
        hits = _search_sequential(template, rank)
        assert hits == _brute_force(template, rank)
        assert all(r == linalg.rank(matrix) for _, r, matrix in hits)


def test_rows_clip_earlier_parameters():
    # With one row over box domains the clip is exact, so at full rank (no
    # minor prunes) the search sets p0 only to values that some solution has.
    for template in CLIPPING_PINS:
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "descend" and frame.f_locals["depth"] == 1:
                entered.append(frame.f_locals["values"][0])

        sys.setprofile(profile)
        try:
            hits = _search_sequential(template, template.size)
        finally:
            sys.setprofile(None)
        assert entered == sorted({h[0][0] for h in hits}), template.constraints


def test_s2_searches_its_second_pair_once():
    # The second pair's parameters a2, b2, c2, d2 (depths 4-7) are bounded by
    # their own sum and a2<=b2, and the one minor at those depths reads only
    # them: the pair is searched under the first surviving (a1, b1, c1, d1) and
    # replayed under the other four, not searched five times (2,625 entries).
    bs = builtin_searches()["S2"]
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "descend" and frame.f_locals["depth"] == 7:
            entered.append(frame.f_locals["values"][:4])

    sys.setprofile(profile)
    try:
        hits = _search_sequential(bs.template, bs.target_rank)
    finally:
        sys.setprofile(None)
    assert [h[0] for h in hits] == list(bs.expected)
    assert len(entered) <= 525


def test_search_budget_counts_nodes_and_solutions(monkeypatch):
    # S2 enters 242 nodes (1,282 when every d was scanned), the replayed ones
    # included; L27 finds 10 solutions.
    searches = builtin_searches()
    s2, l27 = searches["S2"], searches["L27"]
    monkeypatch.setattr(classify, "MAX_SEARCH_NODES", 242)
    assert tuple(s.values for s in search_template(s2.template, s2.target_rank)) == s2.expected
    monkeypatch.setattr(classify, "MAX_SEARCH_NODES", 241)
    with pytest.raises(CostLimitError, match="more than 241 nodes"):
        search_template(s2.template, s2.target_rank)
    monkeypatch.setattr(classify, "MAX_SEARCH_NODES", 332)  # L27's nodes
    monkeypatch.setattr(classify, "MAX_SEARCH_HITS", 10)
    found = [s.values for s in search_template(l27.template, l27.target_rank)]
    assert set(found) == set(l27.expected) and len(found) == 10
    monkeypatch.setattr(classify, "MAX_SEARCH_HITS", 9)
    with pytest.raises(CostLimitError, match="more than 9 solutions"):
        search_template(l27.template, l27.target_rank)


def _search_work(monkeypatch, template, target_rank):
    """(determinants evaluated, the size of each leaf's rank test, nodes entered) of one search."""
    dets, leaves, nodes = [], [], []
    det, rank = linalg.det, linalg.rank

    def counted_det(m):
        dets.append(len(m))
        return det(m)

    def counted_rank(m):
        leaves.append(len(m))
        return rank(m)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "descend":
            nodes.append(frame.f_locals["depth"])

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "det", counted_det)
        patch.setattr(linalg, "rank", counted_rank)
        sys.setprofile(profile)
        try:
            _search_sequential(template, target_rank)
        finally:
            sys.setprofile(None)
    return len(dets), leaves, len(nodes)


def test_search_replays_a_one_parameter_block(monkeypatch):
    # The two constant 1x1 minors; b's minor -(b-2)^2 4 times, under a = 0
    # only (at b = 0, at the interpolation points b = 1 and 2, and at its
    # root b = 2), not again under each of a's 5 values (4 + 16 more); and
    # c's minors, the last depth's, 22 times over a = 0..4: a + c, solved
    # for c = -a (a <= 2) or scanned (a >= 3), then the two 2x2 minors
    # beside it.  2 + 4 + 22 = 28; before the solve, 2 + 5 (b scanned) and
    # c left to the leaves' ranks.
    dets, _, _ = _search_work(monkeypatch, ONE_PARAMETER_BLOCK, 0)
    assert dets == 28
    hits = _search_sequential(ONE_PARAMETER_BLOCK, 0)
    assert [h[0] for h in hits] == [(a, 2, -a) for a in range(5)]


def test_search_drops_related_rows(monkeypatch):
    # L27's rows 0+1 = 2+3 = 4+5 = 2*(6+7) for every assignment: its leaves
    # take the rank of the 5 rows kept, now on the candidates only (its 10
    # solutions; 810 leaves before the Schur step), and its one minor, of
    # order 5, is the 2x2 determinant of T, a quadratic in w read from T(0)
    # and C_x and solved, with no determinant taken (810 before, one at each
    # of the 3 values of w under 270 prefixes).  S2 has no relation and
    # keeps all 6 rows.
    searches = builtin_searches()
    l27, s2 = searches["L27"], searches["S2"]
    dets, leaves, _ = _search_work(monkeypatch, l27.template, l27.target_rank)
    assert (dets, leaves) == (0, [5] * 10)
    dets, leaves, nodes = _search_work(monkeypatch, s2.template, s2.target_rank)
    assert (dets, leaves, nodes) == (660, [6], 242)
    for template, target_rank, kept in RELATION_PINS:
        leaves = _search_work(monkeypatch, template, target_rank)[1]
        assert leaves and set(leaves) == {kept}, template.entries


# (determinants, leaves, leaf size, nodes) of each shipped search; before the
# parameters were solved, L27 (0, 810, 5, 952), S1 (0, 45, 4, 52), S2 (1507,
# 1, 6, 1282) and S6 (0, 160, 4, 169); before the last depth's minors of T
# were read from T(0) and C_x, L27 (810, 10, 5, 332), S1 (28, 1, 4, 14) and
# S6 (49, 1, 4, 22).
SEARCH_WORK = {
    "L24": (0, 2, 4, 5),
    "L27": (0, 10, 5, 332),
    "S1": (0, 1, 4, 14),
    "S2": (660, 1, 6, 242),
    "S3": (0, 2, 3, 3),
    "S4": (0, 2, 3, 3),
    "S5": (0, 1, 3, 2),
    "S6": (0, 1, 4, 22),
}


def test_search_work_of_every_template(monkeypatch):
    searches = builtin_searches()
    assert set(searches) == set(SEARCH_WORK)
    for name, bs in searches.items():
        dets, leaves, nodes = _search_work(monkeypatch, bs.template, bs.target_rank)
        assert (dets, len(leaves), *set(leaves), nodes) == SEARCH_WORK[name], name


def test_relation_pass_at_the_minor_limit(monkeypatch):
    # 199 rows at target rank 0 list 199 + comb(199, 2) = 19,900 minors, the
    # most MAX_SCHEDULED_MINORS admits: the relation pass reduces every row,
    # keeps all of them (the diagonal is -2), and the first minor listed, the
    # constant 1x1 minor -2, ends the search.  At 200 rows the limit refuses
    # before the pass.
    passes, masks, dets = [], [], []
    independent_rows, det = classify._independent_rows, linalg.det

    def counted(rows):
        keep = independent_rows(rows)
        passes.append((len(rows), keep))
        return keep

    def counted_det(m):
        dets.append(len(m))
        return det(m)

    def profile(frame, event, arg):
        if event == "c_call" and arg is functools.reduce:  # one minor's mask
            masks.append(frame.f_code.co_name)

    monkeypatch.setattr(classify, "_independent_rows", counted)
    monkeypatch.setattr(linalg, "det", counted_det)

    def sparse(n):
        cell = {(0, 1): "p0", (1, 0): "p0"}
        rows = tuple(tuple(cell.get((i, j), "-2" if i == j else "0") for j in range(n)) for i in range(n))
        return _template(rows, ("p0",), ((0, 1),))

    assert classify.MAX_SCHEDULED_MINORS < 200 + 200 * 199 // 2
    sys.setprofile(profile)
    try:
        assert _search_sequential(sparse(199), 0) == []
    finally:
        sys.setprofile(None)
    assert passes == [(199, list(range(199)))]
    assert (len(masks), dets) == (1, [1])
    with pytest.raises(CostLimitError, match="20100 principal minors"):
        _search_sequential(sparse(200), 0)
    assert len(passes) == 1


def test_parameter_limit(monkeypatch):
    # The descent recurses once a parameter: 1,000 parameters ended in a
    # RecursionError.  Each parameter here is unused, with the one value 0.
    def unused(n):
        names = tuple(f"p{i}" for i in range(n))
        return _template((("-2",),), names, ((0, 0),) * n)

    limit = classify.MAX_TEMPLATE_PARAMETERS
    assert [s.values for s in search_template(unused(limit), 1)] == [(0,) * limit]
    def compiled(*args):
        raise AssertionError("the refused template was compiled")

    monkeypatch.setattr(classify, "_int_row", compiled)
    for n in (limit + 1, 1000):
        with pytest.raises(CostLimitError, match=f"^the template has {n} parameters, more than {limit}$"):
            search_template(unused(n), 1)


def _poly(lead, *roots):
    """The coefficients, lowest first, of lead * prod (x - root)."""
    p = [lead]
    for r in roots:
        p = [a - r * b for a, b in zip([0, *p], [*p, 0])]
    return p


INTEGER_ROOT_CASES = (
    ([5], -10, 10, []),  # degree 0
    (_poly(3, 2), 0, 5, [2]),
    ([-3, 2], -10, 10, []),  # 2x - 3: a rational root only
    (_poly(1, 4, 4), -10, 10, [4]),  # a double root
    ([1, 0, 1], -10, 10, []),  # x^2 + 1: no real root
    ([-2, 0, 1], -10, 10, []),  # x^2 - 2: irrational roots
    ([-6, 1, 1], -3, 2, [-3, 2]),  # (x + 3)(x - 2), roots at both ends
    ([-6, 1, 1], -2, 1, []),  # the same, the interval inside them
    ([-5, 2, 2], -10, 10, []),  # integer floors (2s = -1 +- sqrt 11), no integer root
    (_poly(2, -7, 1) + [0], -7, 1, [-7, 1]),  # a zero leading coefficient is dropped
    ([5, -6, -9, 2], -7, 1, [-1]),  # (x + 1)(2x^2 - 11x + 5): one integer root of three
    (_poly(1, 2, 2, -1), -5, 5, [-1, 2]),  # degree 3, a double root
    ([-9, 0, -8, 0, 1], -10, 10, [-3, 3]),  # (x^2 + 1)(x^2 - 9)
    (_poly(1, 1, 1, 2, 2), 1, 2, [1, 2]),  # two double roots at both ends
    ([1, 0, 0, 0, 1], -100, 100, []),  # x^4 + 1
    (_poly(1, 0, 1, 2, 3), 1, 3, [1, 2, 3]),  # 0 just outside the interval
    # 60-bit coefficients: roots near +-10^9.
    (_poly(1, -987654321, 5, 123456789), -2 * 10**9, 2 * 10**9, [-987654321, 5, 123456789]),
    (_poly(2**60 + 1, 3, -2), -10, 10, [-2, 3]),
)


def test_integer_roots():
    for p, lo, hi, roots in INTEGER_ROOT_CASES:
        assert classify._integer_roots(p, lo, hi) == roots, (p, lo, hi)
        if hi - lo <= 200:
            assert roots == [x for x in range(lo, hi + 1) if sum(c * x**k for k, c in enumerate(p)) == 0]
    for zero in ([], [0], [0, 0, 0]):
        with pytest.raises(ValueError, match="zero polynomial"):
            classify._integer_roots(zero, -5, 5)


def test_interpolation_recovers_integer_polynomials():
    for p in ([7], [-3, 2], _poly(2, -7, 1), _poly(-1, 3, 3, 0, -5), [2**60, -1, 0, 3]):
        ys = [sum(c * y**k for k, c in enumerate(p)) for y in range(len(p))]
        assert classify._interpolate(ys) == p


def _last_parameter_template(rows, domains, *constraints):
    return _template(rows, NAMES[: len(domains)], domains, *constraints)


# The Schur step on one free row: det = 2(x + 2)(x - 1), a quadratic in T.
# Over [-3, 1] its roots are x0 + 1 and hi, the ends of the root interval.
SCHUR_PIN = (("-2", "1", "1"), ("1", "-2", "p0"), ("1", "p0", "-2"))
# Row 0 untouched but A = (0) singular: the fallback to F = {}; det = 2 - 2x.
SINGULAR_PIN = (("0", "1", "1"), ("1", "p0", "1"), ("1", "1", "p0"))
# At p0 = 0 the minor on rows 0, 1 is p0 * p1 - p0^2 = 0 for every p1.
ZERO_MINOR_PIN = (("p0", "p0", "0"), ("p0", "p1", "0"), ("0", "0", "-2"))
S5_ROWS = (("-2", "3", "p0", "1-p0"), ("3", "-2", "1-p0", "p0"),
           ("p0", "1-p0", "-2", "3"), ("1-p0", "p0", "3", "-2"))
# p2 = 3 - p1 and p1 = 2 - p0 are forced, a chain: the entries read p0 alone.
FORCED_PIN = (("-2", "p1", "p2"), ("p1", "-2", "1"), ("p2", "1", "p0"))


@st.composite
def last_parameter_templates(draw):
    """Templates whose last parameter touches 1-3 kept rows over a domain up to 40 wide.

    The rows before them never read it; their block is all zero when
    singular is drawn, so the Schur step falls back.  Coefficients run +-1
    to +-3, and an == constraint with lead +-1 may force a parameter.
    """
    size = draw(st.integers(2, 5))
    nparams = draw(st.integers(1, 3))
    touched = draw(st.integers(1, min(3, size)))
    free, singular = size - touched, draw(st.booleans())
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    cells = {}
    for i in range(size):
        for j in range(i, size):
            zero = singular and j < free
            coeffs = [0] * nparams
            for k in range(nparams - 1):
                if not zero and draw(st.booleans()):
                    coeffs[k] = draw(coeff)
            if i >= free and draw(st.booleans()):
                coeffs[-1] = draw(coeff)
            cells[i, j] = cells[j, i] = _expr(0 if zero else draw(st.integers(-3, 3)), coeffs)
    domains = [(lo, lo + draw(st.integers(0, 2))) for lo in (draw(st.integers(-2, 1)) for _ in range(nparams - 1))]
    lo = draw(st.integers(-20, 0))
    domains.append((lo, draw(st.integers(lo, lo + 40))))
    constraints = []
    if nparams > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(1, nparams - 1))
        diff = [draw(coeff) if j < k else 0 for j in range(nparams)]
        diff[k] = draw(st.sampled_from((-1, 1)))
        constraints.append(Constraint(_expr(draw(st.integers(-4, 4)), diff), "==", _expr(0, [0] * nparams)))
    template = MatrixTemplate(
        size=size,
        entries=tuple(tuple(cells[i, j] for j in range(size)) for i in range(size)),
        parameters=NAMES[:nparams],
        domains=tuple(domains),
        constraints=tuple(constraints),
    )
    return template, draw(st.integers(0, size))


@given(last_parameter_templates())
@example((_last_parameter_template(SCHUR_PIN, ((-20, 20),)), 2))
@example((_last_parameter_template(SCHUR_PIN, ((-3, 1),)), 2))
@example((_last_parameter_template(SCHUR_PIN, ((-20, 20),)), 3))  # vacuous
@example((_last_parameter_template(SINGULAR_PIN, ((-20, 20),)), 2))
@example((_last_parameter_template(ZERO_MINOR_PIN, ((-1, 1), (-20, 20))), 1))
@example((_last_parameter_template(S5_ROWS, ((-20, 20),)), 2))
@example((_last_parameter_template(FORCED_PIN, ((-3, 3), (-5, 5), (-20, 20)), "p0+p1==2", "p1+p2==3"), 2))
@settings(max_examples=150, deadline=None)
def test_solved_search_matches_brute_force(case):
    template, target_rank = case
    hits = _search_sequential(template, target_rank)
    assert hits == _brute_force(template, target_rank)


def _alarm(seconds):
    def expired(signum, frame):
        raise TimeoutError(f"the search ran past {seconds} s")

    signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)


def test_wide_s5_is_solved_not_scanned(monkeypatch):
    # S5's entries over s in [-10^6, 10^6] at target rank 2, no normalize:
    # the kept 3x3 determinant is 12 + 2s - 2s^2.  The scan stops at
    # s = -10^6, interpolates it from 4 values and tests its two roots; it
    # used to send every value to a leaf and stop at 100,000 nodes.
    doc = json.loads(Path(classify.builtin_template("S5")).read_text())
    template, target_rank = template_from_dict(
        {"size": 4, "entries": doc["entries"], "domains": {"s": [-10**6, 10**6]}, "target_rank": 2}
    )
    _alarm(10)
    try:
        dets, leaves, nodes = _search_work(monkeypatch, template, target_rank)
        solutions = search_template(template, target_rank)
    finally:
        signal.alarm(0)
    assert [s.values for s in solutions] == [(-2,), (3,)]
    assert all(s.rank == 2 for s in solutions)
    assert (dets, leaves, nodes) == (6, [3, 3], 3)
