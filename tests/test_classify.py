import itertools
import multiprocessing
import os
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    PUBLISHED_CURVE_GRAMS,
    TEMPLATE_SYMMETRIES,
    gram_permutation_equivalent,
    orbit,
)
from isometry_witness import isometry_small

from k3scan import linalg
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
from k3scan.errors import UsageError
from k3scan.lattice import GramLattice


def test_rank_examples():
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["S1"]) == 3
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["L27"]) == 4
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["S2"]) == 3
    assert linalg.rank(PUBLISHED_CURVE_GRAMS["L24"]) == 4


def test_affine_expression_parsing():
    e = AffineExpr.parse("4-a")
    assert e.evaluate({"a": 1}) == 3
    e = AffineExpr.parse("16-a1-b1-c1")
    assert e.evaluate({"a1": 1, "b1": 7, "c1": 7}) == 1
    assert AffineExpr.parse("-2").evaluate({}) == -2
    assert AffineExpr.parse("2*u").evaluate({"u": 3}) == 6
    with pytest.raises(UsageError):
        AffineExpr.parse("a*b")
    assert AffineExpr.parse(-2).evaluate({}) == -2
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
        result = search_template(bs.template, bs.target_rank, name=name)
        assert set(result.value_tuples()) == set(bs.expected), name
        for sol in result.solutions:
            assert sol.rank == bs.target_rank
            expected_type = EXPECTED_IDENTIFICATIONS.get(name, {}).get(sol.values)
            if expected_type is not None:
                assert sol.identified == expected_type, (name, sol.values)
        # The sieve's curve matrix is, up to a permutation of the curves, the
        # matrix of exactly one solution, and that solution is named after it.
        gram = curve_systems[name].gram_of_curves
        matches = [
            s for s in result.solutions if gram_permutation_equivalent(s.matrix, gram) is not None
        ]
        assert [s.identified for s in matches] == [name], (name, [s.values for s in matches])


def test_l27_solution_isometry_classes():
    bs = builtin_searches()["L27"]
    result = search_template(bs.template, bs.target_rank, name="L27")
    by_values = {s.values: s for s in result.solutions}
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
        assert set(search_template(free, bs.target_rank).value_tuples()) == expected, name


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
        assert linalg.rank(bs.template.instantiate(values)) > bs.target_rank


def test_span_gram_uses_all_generators():
    # the S1 solution matrix spans a lattice of determinant 24 even though the
    # first three generators alone only span an index-2 sublattice
    bs = builtin_searches()["S1"]
    matrix = bs.template.instantiate((0, 0, 4))
    gram = span_gram(matrix)
    from k3scan import linalg

    assert len(gram) == 3
    assert abs(linalg.det(gram)) == 24


def test_identify_type_negative():
    assert identify_type(((10, 0, 0), (0, -100, 0), (0, 0, -2))) is None
    assert identify_type(((2, 1), (1, -2))) is None  # rank 2: not in the catalog


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
    result = search_template(template, target)
    assert set(result.value_tuples()) == {(0,), (1,)}
    # A string row used to be read character by character, as the cells a and b.
    for entries in ([["-2", "a"], "ab"], "ab", [["-2"], 3], {"0": ["-2"]}):
        with pytest.raises(UsageError, match="entries must be a list of rows"):
            template_from_dict({**doc, "entries": entries})


def test_template_pickles_by_value():
    # --jobs sends the template to its pool workers; unpickling re-validates it.
    for bs in builtin_searches().values():
        copy = pickle.loads(pickle.dumps(bs.template))
        assert copy == bs.template and type(copy) is MatrixTemplate


def test_jobs_do_not_change_results():
    bs = builtin_searches()["S6"]
    seq = search_template(bs.template, bs.target_rank, name="S6", jobs=1)
    par = search_template(bs.template, bs.target_rank, name="S6", jobs=3)
    assert seq.value_tuples() == par.value_tuples()
    assert [s.basis_gram for s in seq.solutions] == [s.basis_gram for s in par.solutions]


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # The pool used to get min(jobs, |first domain|) workers: 10,000 here.
    # A fake pool records its size and maps in this process, so none starts.
    pools = []

    class FakePool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    template, target_rank = template_from_dict(
        {"size": 1, "entries": [["a"]], "domains": {"a": [0, 20000]}, "target_rank": 0}
    )
    sequential = search_template(template, target_rank, jobs=1)
    assert sequential.value_tuples() == ((0,),) and pools == []
    for cpus, sizes in ((3, [3]), (None, [])):  # cpu_count() may be unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        assert search_template(template, target_rank, jobs=10_000) == sequential
        assert pools == sizes, cpus


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
    a, b = c.lhs.evaluate(assignment), c.rhs.evaluate(assignment)
    return a <= b if c.op == "<=" else a == b


def _brute_force(template, target_rank):
    hits = []
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in template.domains)):
        assignment = dict(zip(template.parameters, values))
        matrix = template.instantiate(values)
        r = linalg.rank(matrix)
        if r <= target_rank and all(_holds(c, assignment) for c in template.constraints):
            hits.append((values, r, matrix))
    return hits


# 1 <= 2*p0 needs the ceiling of 1/2, and 2*p1 == p0 the divisibility test.
PINNED = MatrixTemplate(
    size=2,
    entries=tuple(tuple(AffineExpr.parse(c) for c in row) for row in (("-2", "p0"), ("p0", "p1"))),
    parameters=("p0", "p1"),
    domains=((-3, 3), (-3, 3)),
    constraints=(Constraint.parse("1<=2*p0"), Constraint.parse("2*p1==p0")),
)




def _pinned(domains, *constraints):
    return MatrixTemplate(
        size=2, entries=PINNED.entries, parameters=PINNED.parameters, domains=domains,
        constraints=tuple(map(Constraint.parse, constraints)),
    )


# Rows whose later terms clip an earlier parameter: p1 in [0, 1] leaves p0 only
# 2 or 3 in p0+p1==3; the lead -2 makes the bound on p0 a ceiling (<=) and a
# ceiling and a floor (==); -p1 makes the later terms reach [-2, 0].
CLIPPING_PINS = (
    _pinned(((-3, 3), (0, 1)), "p0+p1==3"),
    _pinned(((-3, 3), (0, 2)), "-2*p0+p1<=-3"),
    _pinned(((-3, 3), (0, 2)), "-2*p0+p1==-3"),
    _pinned(((-3, 3), (0, 2)), "2*p0-p1==1"),
)


@given(small_templates())
@example((PINNED, 1))
@example((CLIPPING_PINS[0], 1))
@example((CLIPPING_PINS[1], 1))
@example((CLIPPING_PINS[2], 1))
@example((CLIPPING_PINS[3], 1))
@settings(max_examples=300, deadline=None)
def test_compiled_search_matches_brute_force(case):
    template, target_rank = case
    # At the full size no minor prunes, so only the constraint bounds act.
    for rank in (target_rank, template.size):
        expected = _brute_force(template, rank)
        assert _search_sequential(template, rank) == expected
        lo, hi = template.domains[0]
        evens = [v for v in range(lo, hi + 1) if v % 2 == 0]
        part = _search_sequential(template, rank, first_values=evens)
        assert part == [h for h in expected if h[0][0] % 2 == 0]


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
