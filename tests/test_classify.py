import itertools
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    PUBLISHED_CURVE_GRAMS,
    TEMPLATE_SYMMETRIES,
    evaluate,
    gram_permutation_equivalent,
    instantiate,
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


@given(small_templates())
@example((PINNED, 1))
@example((CLIPPING_PINS[0], 1))
@example((CLIPPING_PINS[1], 1))
@example((CLIPPING_PINS[2], 1))
@example((CLIPPING_PINS[3], 1))
@example((BLOCK_PINS[0], 2))
@example((BLOCK_PINS[0], 3))
@example((BLOCK_PINS[1], 2))
@example((BLOCK_PINS[1], 3))
@settings(max_examples=300, deadline=None)
def test_compiled_search_matches_brute_force(case):
    template, target_rank = case
    # At the full size no minor prunes, so only the constraint bounds act.
    for rank in (target_rank, template.size):
        assert _search_sequential(template, rank) == _brute_force(template, rank)


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
    # S2 enters 1,282 nodes, the replayed ones included; L27 finds 10 solutions.
    searches = builtin_searches()
    s2, l27 = searches["S2"], searches["L27"]
    monkeypatch.setattr(classify, "MAX_SEARCH_NODES", 1282)
    assert tuple(s.values for s in search_template(s2.template, s2.target_rank)) == s2.expected
    monkeypatch.setattr(classify, "MAX_SEARCH_NODES", 1281)
    with pytest.raises(CostLimitError, match="more than 1281 nodes"):
        search_template(s2.template, s2.target_rank)
    monkeypatch.setattr(classify, "MAX_SEARCH_NODES", 1282)
    monkeypatch.setattr(classify, "MAX_SEARCH_HITS", 10)
    found = [s.values for s in search_template(l27.template, l27.target_rank)]
    assert set(found) == set(l27.expected) and len(found) == 10
    monkeypatch.setattr(classify, "MAX_SEARCH_HITS", 9)
    with pytest.raises(CostLimitError, match="more than 9 solutions"):
        search_template(l27.template, l27.target_rank)
