"""Parametric intersection-matrix searches.

A MatrixTemplate is a symmetric matrix whose cells are affine expressions in
named integer parameters, together with finite domains and normalization
constraints ("a<=2", "a1+b1+c1+d1==16").  search_template enumerates every
assignment satisfying the constraints and returns, as a tuple of
TemplateSolution, those whose instantiated matrix has rank at most the
target, each identified against the catalog by genus
(discriminant.identify_type).

Templates are JSON documents, built by template_from_dict; the CLI reads a
user's file.  The shipped searches are such documents, templates/<NAME>.json,
each with the extra key "expected" (the published solution set);
builtin_searches reads them all and builtin_template resolves one shipped
name to its file.

The search first compiles the template into int rows const + sum c_k x_k
over the parameter order.  A constraint is the row lhs - rhs; it bounds every
parameter it touches, at that parameter's depth, by floor or ceiling division:
the earlier terms are set by then, and the later ones can reach only a range
fixed by their domains.  So <= clips the range and == clips it from both
sides; at the last parameter == fixes the value or leaves nothing.  No
assignment outside the constraints is visited.

Exhaustiveness under pruning: a matrix of rank <= r has every minor of order
> r equal to zero, so the search may discard a partial assignment as soon as
some fully determined principal minor of order r+1 or r+2 is nonzero.  For a
symmetric matrix these suffice: it has rank <= r exactly when all of them
vanish (take the Schur complement on a maximal nonsingular principal block),
so nothing is lost once a block is fully set, and the final rank computation
decides every leaf.  A minor is scheduled at the depth of the last parameter
with a nonzero coefficient in its entries; a constant minor is tested when it
is listed, and the first nonzero one ends the search.

Row relations: a line or conic totally tangent to the branch sextic pulls
back to two (-2)-curves C + C' whose sum is the pulled-back class, so the
rows of a template come in pairs with a common sum, for every parameter value
(in L27, rows 0+1 = rows 2+3 = rows 4+5 = 2*(rows 6+7)).  The search reads
each row as the vector of its entries' (const, coeff_1..coeff_m) and keeps
it exactly when it is independent of the rows kept before it, by one
incremental elimination.  If each dropped row is row_i = sum_{j in keep}
a_ij row_j for every assignment, then by symmetry the same holds for the
columns, so U M U^T = diag(M[keep, keep], 0) for the invertible U whose rows
are e_j (j in keep) and e_i - sum_j a_ij e_j (i dropped), and rank M =
rank M[keep, keep] at every assignment.  The argument above then applies to
M[keep, keep] unchanged: the minors are scheduled over the rows in keep, and
each leaf takes the rank of M[keep, keep].  The matrix a solution reports is
still the full M.  L27 keeps 5 of its 8 rows, whose one minor of order 5
reads its last parameter w; a template without relations, such as S2, keeps
every row.  The relations are looked for after the forced parameters below
are substituted, so they need hold only where the search goes.

Replay: when the bounds and minors tested at depths s..e-1 (any e > s) read
only parameters s..e-1, the value tuples of s..e-1 that reach depth e are the
same under every prefix of values for 0..s-1, since no test on the way can see
the prefix.  So such a block is searched once, under the first prefix that
reaches it, and its surviving tuples are replayed in the same order under
every later prefix, each with the entries of s..e-1 filled again from that
prefix.  In S2 the second conic pair (a2, b2, c2, d2) is such a block.  A
block ends before the last depth, whose Schur step reads the prefix.

Solving a parameter: at each depth the search scans upward from lo while
every minor scheduled there vanishes, and each such value goes on.  At the
first value x0 where a minor mu is non-zero, mu is not the zero polynomial in
that depth's parameter x, so every later value that passes is a root of mu:
the search interpolates mu (degree at most the number of mu's rows whose
entries read x, by Leibniz, from that many values after x0), takes its exact
integer roots in (x0, hi] (a quadratic by math.isqrt, higher degrees by
bisection between the real roots of the derivative, never by trial
division), and tests each against every minor as a scanned value is.  It
does so only when more values remain than the interpolation costs, so a
minor that vanishes identically is never solved, only scanned.  At the last
depth, the kept rows split into F, untouched by x, and L; B = M[F, L] and
A = M[F, F] are set.  When 0 < |F| <= r and A is non-singular, |F|
fraction-free elimination steps, run once per loop, give +-det A and, by
Sylvester's identity, the bordered minors T = det(A) C - B^T adj(A) B, C =
M[L, L], with T(x) = T(0) + x det(A) C_x.  As rank M = |F| + rank T(x), the
tests are T's principal minors of order r - |F| + 1 and + 2 (one quadratic
on L27).  When each has order 1 or 2, its polynomial is read straight from
T(0) and det(A) C_x, and the candidates are the common integer roots of the
non-zero ones, with no determinant taken; larger orders go through the rule
above.  A singular A falls back to F = {}, where the kept block's own minors
that read x are the tests.  A candidate still reaches the leaf, whose full
rank is the check and the reported rank.  A parameter that ends
an == constraint with coefficient +-1 is forced: wherever the search sets
it, it equals an affine function of the parameters before it, so the entries
read that function, and the minors of a forced x_k are solved for x_{k-1}
(in S2, each d from a, b and c).

Budget: a template with more than MAX_TEMPLATE_PARAMETERS parameters is
refused before it is compiled, and so is one whose principal minors of order
r+1 and r+2 number more than MAX_SCHEDULED_MINORS, before any is listed,
counted over all its rows before the row relations are looked for.  A search
that enters more than MAX_SEARCH_NODES nodes (every call of the descent,
replayed or searched) or finds more than MAX_SEARCH_HITS solutions raises
CostLimitError.  The search cannot be refused up front: S2's raw domain
product is 5.8 * 10^14, while its search enters 242 nodes.  A search once
stopped at the node limit may now be answered: S5's entries over s in
[-10^6, 10^6] at target rank 2 enter 3 nodes (its kept 3x3 determinant is
12 + 2s - 2s^2, so s = -2 and s = 3).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import re
from typing import NamedTuple

from . import linalg
from .errors import CostLimitError, UsageError
from .linalg import Matrix
from .discriminant import identify_type

_TEMPLATE_DIR = os.path.join(os.path.dirname(__file__), "templates")

# Work limits of one search, counted, not timed.  The shipped templates
# count at most 84 minors against the limit (L27, all 8 rows), list at most 21
# over the rows they keep (S2) and evaluate at most 660 determinants (S2),
# enter at most 332 nodes (L27; S2 242) and find at most 10 solutions (L27).
# Scheduling costs about 5 us a minor.
MAX_SCHEDULED_MINORS = 20_000
# The descent recurses once a parameter, and Python stops at 1,000 frames:
# 980 parameters ran, 1,000 ended in a RecursionError.  The shipped
# templates have at most 12 parameters (S2).
MAX_TEMPLATE_PARAMETERS = 500
MAX_SEARCH_NODES = 100_000
MAX_SEARCH_HITS = 1_000

_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\s*\*\s*([A-Za-z]\w*)|(\d+)|([A-Za-z]\w*))"
)


class AffineExpr(NamedTuple):
    """Integer affine expression c0 + sum coeff_i * param_i."""

    const: int = 0
    coeffs: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def parse(text) -> "AffineExpr":
        if isinstance(text, bool) or not isinstance(text, (int, str)):
            raise UsageError(f"expected an integer or an expression string, got {text!r}")
        if isinstance(text, int):
            return AffineExpr(const=text)
        s = text.strip()
        if not s:
            raise UsageError("empty expression")
        const = 0
        coeffs: dict[str, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = _TERM.match(s, pos)
            if not m or (not first and m.group(1) is None):
                raise UsageError(f"cannot parse expression {text!r} at {s[pos:]!r}")
            sign = -1 if m.group(1) == "-" else 1
            if m.group(3) is not None:  # coefficient * name
                coeffs[m.group(3)] = coeffs.get(m.group(3), 0) + sign * int(m.group(2))
            elif m.group(4) is not None:  # plain integer
                const += sign * int(m.group(4))
            else:  # bare name
                coeffs[m.group(5)] = coeffs.get(m.group(5), 0) + sign
            pos = m.end()
            first = False
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return AffineExpr(const=const, coeffs=items)

    def params(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.coeffs)


class Constraint(NamedTuple):
    lhs: AffineExpr
    op: str  # "<=" or "=="
    rhs: AffineExpr

    @staticmethod
    def parse(text) -> "Constraint":
        for op in ("<=", "=="):
            if op in text:
                lhs, rhs = text.split(op, 1)
                return Constraint(AffineExpr.parse(lhs), op, AffineExpr.parse(rhs))
        raise UsageError(f"constraint {text!r} must use <= or ==")


class _TemplateFields(NamedTuple):
    size: int
    entries: tuple[tuple[AffineExpr, ...], ...]
    parameters: tuple[str, ...]
    domains: tuple[tuple[int, int], ...]  # inclusive, aligned with parameters
    constraints: tuple[Constraint, ...] = ()


class MatrixTemplate(_TemplateFields):
    """An immutable template, validated when it is built."""

    __slots__ = ()

    def __new__(cls, size, entries, parameters, domains, constraints=()):
        self = super().__new__(cls, size, entries, parameters, domains, constraints)
        n = self.size
        if n < 1:
            raise UsageError("size must be at least 1")
        if len(set(self.parameters)) != len(self.parameters):
            raise UsageError(f"duplicate parameter names in {list(self.parameters)}")
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise UsageError("entries must form a square matrix of the declared size")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise UsageError(f"entries are not symmetric at ({i},{j})")
        known = set(self.parameters)
        used = set()
        for row in self.entries:
            for e in row:
                used |= e.params()
        for c in self.constraints:
            used |= c.lhs.params() | c.rhs.params()
        if not used <= known:
            raise UsageError(f"unknown parameters {sorted(used - known)}")
        return self

    @classmethod
    def _make(cls, iterable):
        """Validated like the constructor; `_replace` builds through here."""
        return cls(*iterable)


class TemplateSolution(NamedTuple):
    values: tuple[int, ...]
    rank: int
    matrix: Matrix
    basis_gram: Matrix
    identified: str | None


def span_gram(m) -> Matrix:
    """Gram matrix of the lattice generated by all rows of a symmetric matrix.

    The generators may be dependent; the radical is quotiented out via the
    Smith normal form, which also supplies an integral basis of the span.
    """
    factors, v = linalg.smith_normal_form(m)
    basis = linalg.transpose(v)[: sum(map(bool, factors))]
    return linalg.gram_of(basis, m)


def _int_row(pairs, order) -> tuple[int, tuple[tuple[int, int], ...]]:
    """sum sign * expr over (sign, expr) pairs as (const, ((k, c_k), ...)), k ascending."""
    const = 0
    coeffs = [0] * len(order)
    for sign, expr in pairs:
        const += sign * expr.const
        for name, c in expr.coeffs:
            coeffs[order[name]] += sign * c
    return const, tuple((k, c) for k, c in enumerate(coeffs) if c)


def _independent_rows(rows: list[dict]) -> list[int]:
    """The indices of the sparse rows that are independent of the rows kept before them.

    One fraction-free elimination over the rationals: each row is reduced,
    in order, against the reduced rows kept so far, each of which vanishes at
    the pivots of those before it; it is kept when something is left, and
    what is left, divided by its content, joins them with its first key as
    pivot.
    """
    basis: list[tuple] = []  # (pivot, reduced row)
    keep = []
    for i, v in enumerate(rows):
        for p, b in basis:
            c = v.get(p)
            if c:
                w = {key: b[p] * x for key, x in v.items()}
                for key, y in b.items():
                    w[key] = w.get(key, 0) - c * y
                v = {key: x for key, x in w.items() if x}
        if v:
            g = math.gcd(*v.values())
            basis.append((next(iter(v)), {key: x // g for key, x in v.items()}))
            keep.append(i)
    return keep


def _evaluate(const: int, terms, values) -> int:
    """const + sum c * values[k] over the (k, c) in terms."""
    for k, c in terms:
        const += c * values[k]
    return const


def _test(idx, involves):
    """A scheduled minor (rows, reader, degree): its rows' entries are read by one itemgetter.

    involves(i, j) tells whether entry (i, j) reads the parameter x, so the
    minor is a polynomial in x of degree at most the number of its rows that
    do (Leibniz).  itemgetter of one index returns the entry itself, so a
    1x1 minor wraps it.
    """
    get = operator.itemgetter(*idx)
    read = get if len(idx) > 1 else lambda row: (get(row),)
    return idx, read, sum(any(involves(i, j) for j in idx) for i in idx)


def _minor(m, test) -> int:
    rows, read, _ = test
    return linalg.det([read(m[i]) for i in rows])


def _horner(p, x) -> int:
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _interpolate(ys) -> list[int]:
    """The coefficients, lowest first, of the integer polynomial p of degree < len(ys) with p(y) = ys[y].

    Newton's form p(y) = sum_k D^k p(0) y(y-1)...(y-k+1) / k!, expanded from
    the inside out times d! = (len(ys) - 1)!, so in integers; the final
    division by d! is exact because p has integer coefficients.
    """
    d, deltas = len(ys) - 1, []
    while ys:
        deltas.append(ys[0])
        ys = [b - a for a, b in zip(ys, ys[1:])]
    p: list[int] = []
    for k in range(d, -1, -1):  # p <- p * (y - k) + D^k p(0) * d! / k!
        p = [a - k * b for a, b in zip([0, *p], [*p, 0])]
        p[0] += deltas[k] * math.factorial(d) // math.factorial(k)
    return [c // math.factorial(d) for c in p]


def _root_floors(p, lo: int, hi: int) -> set[int]:
    """A set of integers holding floor(c) for every real root c of p in [lo, hi + 1).

    p lists coefficients, lowest first, the last one non-zero.  The
    derivative's root floors in [lo, hi], found the same way, cut [lo, hi + 1]
    into integer runs on whose real hull p is monotone, so a root on a run
    is found by bisection on the sign; a root between a cut f and f + 1 has
    floor f, and every cut is kept.
    """
    if len(p) < 3:
        return {-p[0] // p[1]} if len(p) == 2 else set()
    derivative = [k * c for k, c in enumerate(p)][1:]
    cuts = sorted(f for f in _root_floors(derivative, lo, hi) if lo <= f <= hi)
    found, start = set(cuts), lo
    for end in [*cuts, hi + 1]:
        a, b, pa = start, end, _horner(p, start)
        if not pa:
            found.add(a)
        elif pa * _horner(p, b) <= 0:  # a root in (a, b]
            while b - a > 1:
                mid = (a + b) // 2
                if pa * _horner(p, mid) > 0:
                    a = mid
                else:
                    b = mid
            found.add(a if _horner(p, b) else b)
        start = end + 1
    return found


def _integer_roots(p, lo: int, hi: int) -> list[int]:
    """The integer roots in [lo, hi] of the polynomial p (coefficients, lowest first), ascending.

    A quadratic by its formula (math.isqrt), any other degree by the floors
    of its real roots (`_root_floors`), each tested; no trial division.  The
    zero polynomial, which every integer solves, raises ValueError.
    """
    p = list(p)
    while p and not p[-1]:
        p.pop()
    if not p:
        raise ValueError("the zero polynomial vanishes at every integer")
    if len(p) == 3:
        c, b, a = p
        disc = b * b - 4 * a * c
        s = math.isqrt(max(disc, 0))
        roots = {(e - b) // (2 * a) for e in (-s, s)} if s * s == disc else set()
    else:
        roots = _root_floors(p, lo, hi)
    return sorted(x for x in roots if lo <= x <= hi and not _horner(p, x))


def _candidates(lo: int, hi: int, at, tests):
    """Yield, ascending, each x in [lo, hi] at which every minor of at(x) in tests vanishes.

    at(x) is the matrix the tests read at x; a generator, so that the
    descent still recurses once a parameter.  The first value
    with a non-zero minor mu ends the scan, and when more values remain than
    mu's degree, only mu's integer roots among them are tested (see "Solving
    a parameter" in the module docstring).
    """
    x = lo
    while x <= hi:
        m = at(x)
        for test in tests:
            mu = _minor(m, test)
            if mu:
                break
        else:
            yield x
            x += 1
            continue
        degree = test[2]
        if hi - x > degree:
            ys = [mu, *(_minor(at(x + k), test) for k in range(1, degree + 1))]
            for y in _integer_roots(_interpolate(ys), 1, hi - x):
                m = at(x + y)
                if not any(_minor(m, t) for t in tests):
                    yield x + y
            return
        x += 1


def _solved_candidates(t0, s, tests, lo: int, hi: int):
    """The x in [lo, hi], ascending, at which every test's minor of T(x) = T(0) + x S vanishes.

    Each test has order 1 or 2, so its minor is, lowest coefficient first,
    [t_ii, s_ii] or [det T(0)_ij, t_ii s_jj + s_ii t_jj - t_ij s_ji - s_ij
    t_ji, det S_ij]: the candidates are the common integer roots of the
    non-zero ones, and every value when all are zero.
    """
    polys = []
    for (i, *rest), _, _ in tests:
        if not rest:
            p = [t0[i][i], s[i][i]]
        else:
            (j,) = rest
            p = [
                t0[i][i] * t0[j][j] - t0[i][j] * t0[j][i],
                t0[i][i] * s[j][j] + s[i][i] * t0[j][j] - t0[i][j] * s[j][i] - s[i][j] * t0[j][i],
                s[i][i] * s[j][j] - s[i][j] * s[j][i],
            ]
        if any(p):
            polys.append(p)
    if not polys:
        return range(lo, hi + 1)
    return [x for x in _integer_roots(polys[0], lo, hi) if not any(_horner(p, x) for p in polys[1:])]


def _eliminate(a, f: int) -> int:
    """Eliminate the first f columns of the square matrix a in place: the last pivot, or 0.

    Fraction-free (Bareiss) steps, exchanging rows among the first f only.
    When A = a[:f, :f] is non-singular the last pivot is +-det A, with the
    sign of the exchanges, and by Sylvester's identity each later entry
    a[i][j] is that sign times the bordered minor det(A) a_ij - a_iF adj(A)
    a_Fj.  0 means A is singular.
    """
    prev = 1
    for c in range(f):
        if not a[c][c]:
            r = next((r for r in range(c + 1, f) if a[r][c]), None)
            if r is None:
                return 0
            a[c], a[r] = a[r], a[c]
        top, p = a[c], a[c][c]
        for row in a[c + 1:]:
            g = row[c]
            for j in range(c + 1, len(a)):
                row[j] = (row[j] * p - g * top[j]) // prev
        prev = p
    return prev


def _search_sequential(template: MatrixTemplate, target_rank: int):
    nparams = len(template.parameters)
    if nparams > MAX_TEMPLATE_PARAMETERS:
        raise CostLimitError(
            f"the template has {nparams} parameters, more than {MAX_TEMPLATE_PARAMETERS}"
        )
    n = template.size
    scheduled = math.comb(n, target_rank + 1) + math.comb(n, target_rank + 2)
    if scheduled > MAX_SCHEDULED_MINORS:
        raise CostLimitError(
            f"the template has {scheduled} principal minors of order {target_rank + 1} "
            f"and {target_rank + 2} to test, more than {MAX_SCHEDULED_MINORS}"
        )
    order = {p: k for k, p in enumerate(template.parameters)}
    # Compile: a constraint is the row lhs - rhs, applied as a bound on each
    # parameter it touches, at that parameter's depth: the earlier terms are
    # set by then, and the later ones reach only [below, above] over their
    # domains.  An entry is a row, filled in once its last parameter is set.
    bounds: list[list] = [[] for _ in range(nparams)]
    reach = list(range(nparams))  # the earliest parameter a test at depth d reads
    forced: dict[int, tuple] = {}  # k -> (const, terms) that x_k equals, see "Solving a parameter"
    for c in template.constraints:
        const, terms = _int_row(((1, c.lhs), (-1, c.rhs)), order)
        if not terms and not (const <= 0 if c.op == "<=" else const == 0):
            return []
        if c.op == "==" and terms and terms[-1][1] in (1, -1):
            k, lead = terms[-1]
            forced.setdefault(k, (-lead * const, [(j, -lead * cj) for j, cj in terms[:-1]]))
        below = above = 0
        for t in range(len(terms) - 1, -1, -1):
            k, lead = terms[t]
            bounds[k].append((lead, const, terms[:t], below, above if c.op == "==" else None))
            if t:  # terms ascend, so terms[0] is the earliest
                reach[k] = min(reach[k], terms[0][0])
            lo, hi = template.domains[k]
            below += min(lead * lo, lead * hi)
            above += max(lead * lo, lead * hi)
    entries = {}  # (i, j) -> (const, terms), i <= j
    rows: list[dict] = [{} for _ in range(n)]  # {(column, k): c_k}, k = -1 the constant
    for i in range(n):
        for j in range(i, n):
            const, terms = _int_row(((1, template.entries[i][j]),), order)
            coeffs = dict(terms)
            for k in sorted(forced, reverse=True):  # a forced x_k reads only earlier ones
                c = coeffs.pop(k, 0)
                const += c * forced[k][0]
                for q, cq in forced[k][1] if c else ():
                    coeffs[q] = coeffs.get(q, 0) + c * cq
            terms = tuple(sorted((k, c) for k, c in coeffs.items() if c))
            entries[i, j] = const, terms
            for k, c in ((-1, const), *terms):
                if c:
                    rows[i][j, k] = rows[j][i, k] = c
    keep = _independent_rows(rows)  # see "Row relations" in the module docstring
    # The descent fills and reads only the kept block M[keep, keep], cur.
    size, last = len(keep), nparams - 1
    cur = [[0] * size for _ in range(size)]
    masks = [[0] * size for _ in range(size)]
    slope = [[0] * size for _ in range(size)]  # the last parameter's coefficients
    fills: list[list] = [[] for _ in range(nparams)]
    for a, i in enumerate(keep):
        for b, j in enumerate(keep[a:], a):
            const, terms = entries[i, j]
            cur[a][b] = cur[b][a] = const
            masks[a][b] = masks[b][a] = sum(1 << k for k, _ in terms)
            slope[a][b] = slope[b][a] = dict(terms).get(last, 0)
            if terms:
                fills[terms[-1][0]].append((a, b, const, terms))
    values = [0] * nparams
    hits = []

    # A principal minor of order r+1 or r+2 is tested at the depth of the last
    # parameter its entries use, and a constant one as it is listed.
    minors: list[list] = [[] for _ in range(nparams)]
    for minor_size in (target_rank + 1, target_rank + 2):
        for idx in itertools.combinations(range(size), minor_size):
            mask = functools.reduce(int.__or__, (masks[i][j] for i in idx for j in idx), 0)
            d = mask.bit_length() - 1
            if d < 0:
                if linalg.det([[cur[i][j] for j in idx] for i in idx]):
                    return []
            else:
                minors[d].append(_test(idx, lambda i, j: masks[i][j] >> d & 1))
                reach[d] = min(reach[d], (mask & -mask).bit_length() - 1)

    # The last parameter's Schur step (see "Solving a parameter"): the kept
    # rows it leaves free, the rows it touches, and T's minors, used when
    # 0 < |free| <= r and T has any of order r - |free| + 1.
    touched = [a for a in range(size) if any(slope[a])]
    free = [a for a in range(size) if not any(slope[a])]
    c_x = [[slope[a][b] for b in touched] for a in touched]
    schur_tests = [
        _test(idx, lambda i, j: c_x[i][j])
        for minor_size in (target_rank - len(free) + 1, target_rank - len(free) + 2)
        for idx in itertools.combinations(range(len(touched)), minor_size)
    ] if 0 < len(free) <= target_rank else []
    schur_order = operator.itemgetter(*free, *touched) if schur_tests else None
    schur_solved = all(len(idx) <= 2 for idx, _, _ in schur_tests)

    # Replay blocks (see the module docstring), taken greedily from the left,
    # each as long as it goes, and ending before the last depth.
    blocks: dict[int, tuple[int, list]] = {}  # s -> (e, the fills of s..e-1)
    s = 1
    while s < last:
        e = s
        while e < last and reach[e] >= s:
            e += 1
        if e > s:
            blocks[s] = (e, [f for d in range(s, e) for f in fills[d]])
        s = max(e, s + 1)
    passed: dict[int, list] = {}  # s -> the tuples of s..e-1 that reached e
    recording: dict[int, tuple[int, list]] = {}  # e -> (s, tuples so far)
    nodes = 0

    def descend(depth: int):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise CostLimitError(
                f"the search entered more than {MAX_SEARCH_NODES} nodes; "
                "narrow the domains or add normalize constraints"
            )
        if depth in recording:
            start, tuples = recording[depth]
            tuples.append(tuple(values[start:depth]))
        if depth == nparams:
            r = linalg.rank(cur)
            if r <= target_rank:
                matrix = [[0] * n for _ in range(n)]
                for (i, j), (const, terms) in entries.items():
                    matrix[i][j] = matrix[j][i] = _evaluate(const, terms, values)
                hits.append((tuple(values), r, tuple(map(tuple, matrix))))
                if len(hits) > MAX_SEARCH_HITS:
                    raise CostLimitError(
                        f"the search found more than {MAX_SEARCH_HITS} solutions; "
                        "narrow the domains or add normalize constraints"
                    )
            return
        end, block_fills = blocks.get(depth, (None, None))
        if depth in passed:
            for block_values in passed[depth]:
                values[depth:end] = block_values
                for i, j, const, terms in block_fills:
                    cur[i][j] = cur[j][i] = _evaluate(const, terms, values)
                descend(end)
            return
        if end is not None:
            recording[end] = (depth, [])
        lo, hi = template.domains[depth]
        for lead, const, terms, below, above in bounds[depth]:
            # rest + lead*x + (later terms, in [below, above]) <= 0, or == 0;
            # for the last term below = above = 0, and a lead that does not
            # divide -rest leaves the range empty.
            rest = _evaluate(const, terms, values)
            top = -rest - below  # lead*x <= top
            if lead > 0:
                hi = min(hi, top // lead)
            else:
                lo = max(lo, -(-top // lead))
            if above is not None:  # ==: lead*x >= -rest - above
                bottom = -rest - above
                if lead > 0:
                    lo = max(lo, -(-bottom // lead))
                else:
                    hi = min(hi, bottom // lead)
        depth_fills = fills[depth]

        def fill(x):
            values[depth] = x
            for i, j, const, terms in depth_fills:
                cur[i][j] = cur[j][i] = _evaluate(const, terms, values)
            return cur

        at, tests, solved = fill, minors[depth], None
        if depth == last and schur_tests:
            a = [list(schur_order(row)) for row in schur_order(fill(0))]
            pivot = _eliminate(a, len(free))
            if pivot:  # T(x) = T(0) + x * pivot * C_x
                t0 = [row[len(free):] for row in a[len(free):]]
                step = [[pivot * c for c in row] for row in c_x]
                if schur_solved:
                    solved = _solved_candidates(t0, step, schur_tests, lo, hi)
                else:

                    def at(x):
                        return [[t + x * u for t, u in zip(*rows)] for rows in zip(t0, step)]

                    tests = schur_tests
        for x in _candidates(lo, hi, at, tests) if solved is None else solved:
            if at is not fill or solved is not None:
                fill(x)
            descend(depth + 1)
        if end is not None:
            passed[depth] = recording.pop(end)[1]

    descend(0)
    return hits


def search_template(template: MatrixTemplate, target_rank: int) -> tuple[TemplateSolution, ...]:
    """Exhaustive search for assignments of rank <= target_rank: their solutions.

    Solutions come in lexicographic order of their parameter values.  A
    template with more than MAX_TEMPLATE_PARAMETERS parameters or
    MAX_SCHEDULED_MINORS principal minors to test, or a
    search that enters more than MAX_SEARCH_NODES nodes or finds more than
    MAX_SEARCH_HITS solutions, raises CostLimitError.
    """
    if target_rank < 0:
        raise UsageError(f"target_rank must be non-negative, got {target_rank}")
    solutions = []
    for values, r, matrix in _search_sequential(template, target_rank):
        gram = span_gram(matrix)
        solutions.append(
            TemplateSolution(
                values=values,
                rank=r,
                matrix=matrix,
                basis_gram=gram,
                identified=identify_type(gram),
            )
        )
    return tuple(solutions)


def template_from_dict(data) -> tuple[MatrixTemplate, int]:
    """Build a template from the JSON document accepted by the CLI.

    The sign of target_rank is left to search_template, which refuses a
    negative one.
    """
    if not isinstance(data, dict):
        raise UsageError("bad template document: the top level is not a JSON object")
    try:
        size = linalg.strict_int(data["size"])
        rows = data["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise UsageError("entries must be a list of rows, each a list of cells")
        entries = tuple(tuple(AffineExpr.parse(cell) for cell in row) for row in rows)
        if not isinstance(data["domains"], dict):
            raise UsageError("domains must map each parameter to [lo, hi]")
        domains_map = {}
        for k, v in data["domains"].items():
            if not isinstance(v, list) or len(v) != 2:
                raise UsageError(f"domain of {k!r} must be [lo, hi], got {v!r}")
            domains_map[k] = (linalg.strict_int(v[0]), linalg.strict_int(v[1]))
        parameters = data.get("parameters", sorted(domains_map))
        if not isinstance(parameters, list) or not all(isinstance(p, str) for p in parameters):
            raise UsageError(f"parameters must be a list of names, got {parameters!r}")
        parameters = tuple(parameters)
        unlisted = set(domains_map) - set(parameters)
        if unlisted:
            raise UsageError(f"domains name parameters that are not listed: {sorted(unlisted)}")
        undefined = [p for p in parameters if p not in domains_map]
        if undefined:
            raise UsageError(f"listed parameters have no domain: {undefined}")
        domains = tuple(domains_map[p] for p in parameters)
        normalize = data.get("normalize", [])
        if not isinstance(normalize, list) or not all(isinstance(c, str) for c in normalize):
            raise UsageError(f"normalize must be a list of constraint strings, got {normalize!r}")
        constraints = tuple(Constraint.parse(c) for c in normalize)
        target_rank = linalg.strict_int(data["target_rank"])
    except (KeyError, TypeError, ValueError) as exc:
        why = f"missing required key {exc}" if isinstance(exc, KeyError) else exc
        raise UsageError(f"bad template document: {why}") from exc
    return (
        MatrixTemplate(
            size=size,
            entries=entries,
            parameters=parameters,
            domains=domains,
            constraints=constraints,
        ),
        target_rank,
    )


class BuiltinSearch(NamedTuple):
    template: MatrixTemplate
    target_rank: int
    expected: tuple[tuple[int, ...], ...]


def _builtin_names() -> list[str]:
    return sorted(f[: -len(".json")] for f in os.listdir(_TEMPLATE_DIR) if f.endswith(".json"))


def builtin_template(name: str) -> str:
    """The path of the shipped search name, templates/<name>.json.

    name is checked against the shipped files before it touches a path, so
    "../errata" or "S2.json" is an unknown template, not a file.
    """
    names = _builtin_names()
    if name not in names:
        raise UsageError(f"unknown template {name!r}; choose from {', '.join(names)}")
    return os.path.join(_TEMPLATE_DIR, f"{name}.json")


def builtin_searches() -> dict[str, BuiltinSearch]:
    """The shipped configuration searches, keyed by lattice type name, in sorted order.

    Each is read from templates/<name>.json, a --custom document whose extra
    key "expected" lists the published solution set.
    """
    searches = {}
    for name in _builtin_names():
        with open(builtin_template(name), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        template, target_rank = template_from_dict(doc)
        expected = tuple(tuple(values) for values in doc["expected"])
        searches[name] = BuiltinSearch(template, target_rank, expected)
    return searches
