"""Parametric intersection-matrix searches and lattice identification.

A MatrixTemplate is a symmetric matrix whose cells are affine expressions in
named integer parameters, together with finite domains, normalization
constraints ("a<=2", "a1+b1+c1+d1==16") and optional swap symmetries.
search_template enumerates every assignment satisfying the constraints and
reports those whose instantiated matrix has rank at most the target.

The search first compiles the template into int rows const + sum c_k x_k
over the parameter order.  A constraint is the row lhs - rhs; it bounds the
range of its last parameter (== fixes the value, <= clips the range by floor
or ceiling division), so no assignment outside the constraints is visited.

Exhaustiveness under pruning: a matrix of rank <= r has every (r+1)-minor
equal to zero, so the search may discard a partial assignment as soon as some
fully determined (r+1)-minor is nonzero.  A minor is scheduled at the depth
of the last parameter with a nonzero coefficient in its entries and memoized
on the values of those parameters.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from . import linalg
from .errors import InvalidLatticeError, UsageError
from .isometry import isometry_small
from .lattice import GramLattice
from .linalg import Matrix

_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\s*\*\s*([A-Za-z]\w*)|(\d+)|([A-Za-z]\w*))"
)


@dataclass(frozen=True)
class AffineExpr:
    """Integer affine expression c0 + sum coeff_i * param_i."""

    const: int = 0
    coeffs: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def parse(text) -> "AffineExpr":
        if isinstance(text, AffineExpr):
            return text
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
        if s[:pos].strip() != s:
            raise UsageError(f"cannot parse expression {text!r}")
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return AffineExpr(const=const, coeffs=items)

    def params(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.coeffs)

    def evaluate(self, assignment) -> int:
        return self.const + sum(c * assignment[name] for name, c in self.coeffs)


@dataclass(frozen=True)
class Constraint:
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


@dataclass(frozen=True)
class MatrixTemplate:
    size: int
    entries: tuple[tuple[AffineExpr, ...], ...]
    parameters: tuple[str, ...]
    domains: tuple[tuple[int, int], ...]  # inclusive, aligned with parameters
    constraints: tuple[Constraint, ...] = ()
    # Each symmetry maps parameter -> expression; used to test that dropping
    # the normalizations recovers exactly the orbit of the normalized set.
    symmetries: tuple[tuple[tuple[str, AffineExpr], ...], ...] = ()

    def __post_init__(self):
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

    def instantiate(self, values) -> Matrix:
        assignment = dict(zip(self.parameters, values))
        return tuple(
            tuple(e.evaluate(assignment) for e in row) for row in self.entries
        )

    def orbit(self, values) -> set[tuple[int, ...]]:
        """Closure of a parameter tuple under the declared swap symmetries."""
        maps = [dict(sym) for sym in self.symmetries]
        seen = {tuple(values)}
        queue = [tuple(values)]
        while queue:
            current = queue.pop()
            assignment = dict(zip(self.parameters, current))
            for mapping in maps:
                image = tuple(
                    mapping[p].evaluate(assignment) if p in mapping else assignment[p]
                    for p in self.parameters
                )
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
        return seen

    def without_normalizations(self) -> "MatrixTemplate":
        keep = tuple(c for c in self.constraints if c.op == "==")
        return MatrixTemplate(
            size=self.size,
            entries=self.entries,
            parameters=self.parameters,
            domains=self.domains,
            constraints=keep,
            symmetries=self.symmetries,
        )


@dataclass(frozen=True)
class TemplateSolution:
    values: tuple[int, ...]
    rank: int
    matrix: Matrix
    basis_gram: Matrix
    identified: str | None


@dataclass
class ClassificationResult:
    name: str
    target_rank: int
    parameters: tuple[str, ...]
    solutions: tuple[TemplateSolution, ...]

    def value_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.values for s in self.solutions)


def span_gram(m) -> Matrix:
    """Gram matrix of the lattice generated by all rows of a symmetric matrix.

    The generators may be dependent; the radical is quotiented out via the
    Smith normal form, which also supplies an integral basis of the span.
    """
    d, _, v = linalg.smith_normal_form(m)
    n = len(m)
    r = sum(1 for i in range(min(n, len(d[0]))) if d[i][i] != 0)
    full = linalg.mat_mul(linalg.transpose(v), linalg.mat_mul(m, v))
    return tuple(tuple(full[i][j] for j in range(r)) for i in range(r))


def identify_type(gram_or_lattice) -> str | None:
    """Name from the built-in catalog realized by the given even lattice.

    Compares rank, determinant and Smith invariants first, then confirms with
    an explicit isometry; None when nothing matches.
    """
    from .presets import catalog

    if isinstance(gram_or_lattice, GramLattice):
        lat = gram_or_lattice
    else:
        try:
            lat = GramLattice(rank=len(gram_or_lattice), gram=gram_or_lattice)
        except InvalidLatticeError:
            return None
    for name, preset in catalog().items():
        ref = preset.lattice
        if ref.rank != lat.rank or ref.det() != lat.det():
            continue
        if isometry_small(lat, ref) is not None:
            return name
    return None


def _int_row(pairs, order) -> tuple[int, tuple[tuple[int, int], ...]]:
    """sum sign * expr over (sign, expr) pairs as (const, ((k, c_k), ...)), k ascending."""
    const = 0
    coeffs = [0] * len(order)
    for sign, expr in pairs:
        const += sign * expr.const
        for name, c in expr.coeffs:
            coeffs[order[name]] += sign * c
    return const, tuple((k, c) for k, c in enumerate(coeffs) if c)


def _search_sequential(template: MatrixTemplate, target_rank: int, first_values=None):
    nparams = len(template.parameters)
    n = template.size
    order = {p: k for k, p in enumerate(template.parameters)}
    # Compile: a constraint is the row lhs - rhs, applied as a bound on its
    # last parameter; an entry is a row, filled in once its last parameter is set.
    bounds: list[list] = [[] for _ in range(nparams)]
    for c in template.constraints:
        const, terms = _int_row(((1, c.lhs), (-1, c.rhs)), order)
        if terms:
            bounds[terms[-1][0]].append((c.op, terms[-1][1], const, terms[:-1]))
        elif not (const <= 0 if c.op == "<=" else const == 0):
            return []
    cur = [[0] * n for _ in range(n)]
    masks = [[0] * n for _ in range(n)]
    fills: list[list] = [[] for _ in range(nparams)]
    for i in range(n):
        for j in range(i, n):
            const, terms = _int_row(((1, template.entries[i][j]),), order)
            cur[i][j] = cur[j][i] = const
            masks[i][j] = masks[j][i] = sum(1 << k for k, _ in terms)
            if terms:
                fills[terms[-1][0]].append((i, j, const, terms))
    values = [0] * nparams
    minor_cache: dict = {}
    hits = []

    def minor_ok(rows, cols, dep) -> bool:
        key = (rows, cols, tuple(values[k] for k in dep))
        val = minor_cache.get(key)
        if val is None:
            val = linalg.det([[cur[i][j] for j in cols] for i in rows])
            minor_cache[key] = val
        return val == 0

    # An (r+1)-minor is tested at the depth of the last parameter its entries
    # use, memoized on the values of those parameters; minors of the last
    # parameter are left to the final rank computation.
    minors: dict[int, list] = {}
    subsets = list(itertools.combinations(range(n), target_rank + 1))
    for rows in subsets:
        for cols in subsets:
            mask = functools.reduce(int.__or__, (masks[i][j] for i in rows for j in cols), 0)
            if mask.bit_length() < nparams:
                dep = tuple(k for k in range(mask.bit_length()) if mask >> k & 1)
                minors.setdefault(mask.bit_length() - 1, []).append((rows, cols, dep))
    if not all(minor_ok(*m) for m in minors.get(-1, ())):
        return []

    def descend(depth: int):
        if depth == nparams:
            matrix = tuple(map(tuple, cur))
            r = linalg.rank(matrix)
            if r <= target_rank:
                hits.append((tuple(values), r, matrix))
            return
        lo, hi = template.domains[depth]
        for op, lead, const, terms in bounds[depth]:
            rest = const + sum(c * values[k] for k, c in terms)
            if op == "==":  # lead * x + rest == 0
                x, rem = divmod(-rest, lead)
                if rem:
                    return
                lo, hi = max(lo, x), min(hi, x)
            elif lead > 0:  # x <= floor(-rest / lead)
                hi = min(hi, -rest // lead)
            else:  # x >= ceil(-rest / lead)
                lo = max(lo, -(rest // lead))
        candidates = range(lo, hi + 1)
        if first_values is not None and depth == 0:
            candidates = [v for v in first_values if lo <= v <= hi]
        for value in candidates:
            values[depth] = value
            for i, j, const, terms in fills[depth]:
                cur[i][j] = cur[j][i] = const + sum(c * values[k] for k, c in terms)
            if all(minor_ok(*m) for m in minors.get(depth, ())):
                descend(depth + 1)

    descend(0)
    return hits


def _worker(args):
    template, target_rank, chunk = args
    return _search_sequential(template, target_rank, first_values=chunk)


def search_template(
    template: MatrixTemplate,
    target_rank: int,
    name: str = "custom",
    jobs: int = 1,
) -> ClassificationResult:
    """Exhaustive search for assignments of rank <= target_rank.

    With jobs > 1 the domain of the first parameter is partitioned across a
    process pool; results are merged in canonical parameter order, so the
    outcome is independent of the worker count.
    """
    if jobs > 1 and template.parameters:
        import multiprocessing

        lo, hi = template.domains[0]
        values = list(range(lo, hi + 1))
        chunks = [values[i::jobs] for i in range(jobs) if values[i::jobs]]
        with multiprocessing.Pool(processes=len(chunks)) as pool:
            parts = pool.map(
                _worker, [(template, target_rank, chunk) for chunk in chunks]
            )
        hits = [h for part in parts for h in part]
        hits.sort(key=lambda h: h[0])
    else:
        hits = _search_sequential(template, target_rank)
    solutions = []
    for values, r, matrix in hits:
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
    return ClassificationResult(
        name=name,
        target_rank=target_rank,
        parameters=template.parameters,
        solutions=tuple(solutions),
    )


def template_from_dict(data) -> tuple[MatrixTemplate, int]:
    """Build a template from the JSON document accepted by the CLI."""
    try:
        size = linalg.strict_int(data["size"])
        entries = tuple(
            tuple(AffineExpr.parse(cell) for cell in row) for row in data["entries"]
        )
        if not isinstance(data["domains"], dict):
            raise UsageError("domains must map each parameter to [lo, hi]")
        domains_map = {}
        for k, v in data["domains"].items():
            if not isinstance(v, list) or len(v) != 2:
                raise UsageError(f"domain of {k!r} must be [lo, hi], got {v!r}")
            domains_map[k] = (linalg.strict_int(v[0]), linalg.strict_int(v[1]))
        parameters = tuple(data.get("parameters", sorted(domains_map)))
        domains = tuple(domains_map[p] for p in parameters)
        constraints = tuple(Constraint.parse(c) for c in data.get("normalize", []))
        target_rank = linalg.strict_int(data["target_rank"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad template document: {exc}") from exc
    if target_rank < 0:
        raise UsageError(f"target_rank must be non-negative, got {target_rank}")
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


def _sym(*pairs) -> tuple[tuple[str, AffineExpr], ...]:
    return tuple((name, AffineExpr.parse(expr)) for name, expr in pairs)


def _grid(rows) -> tuple[tuple[AffineExpr, ...], ...]:
    return tuple(tuple(AffineExpr.parse(cell) for cell in row) for row in rows)


@dataclass(frozen=True)
class BuiltinSearch:
    template: MatrixTemplate
    target_rank: int
    expected: tuple[tuple[int, ...], ...]


def builtin_searches() -> dict[str, BuiltinSearch]:
    """The eight shipped configuration searches, keyed by lattice type name."""
    searches: dict[str, BuiltinSearch] = {}

    searches["S1"] = BuiltinSearch(
        template=MatrixTemplate(
            size=6,
            entries=_grid([
                [-2, 6, "a", "4-a", "b", "4-b"],
                [6, -2, "4-a", "a", "4-b", "b"],
                ["a", "4-a", -2, 6, "c", "4-c"],
                ["4-a", "a", 6, -2, "4-c", "c"],
                ["b", "4-b", "c", "4-c", -2, 6],
                ["4-b", "b", "4-c", "c", 6, -2],
            ]),
            parameters=("a", "b", "c"),
            domains=((0, 4), (0, 4), (0, 4)),
            constraints=(Constraint.parse("a<=2"), Constraint.parse("b<=2")),
            symmetries=(_sym(("a", "4-a"), ("c", "4-c")), _sym(("b", "4-b"), ("c", "4-c"))),
        ),
        target_rank=3,
        expected=((0, 0, 4),),
    )

    searches["S2"] = BuiltinSearch(
        template=MatrixTemplate(
            size=6,
            entries=_grid([
                [-2, 10, "a1", "b1", "a2", "b2"],
                [10, -2, "c1", "d1", "c2", "d2"],
                ["a1", "c1", -2, 10, "a3", "b3"],
                ["b1", "d1", 10, -2, "c3", "d3"],
                ["a2", "c2", "a3", "c3", -2, 10],
                ["b2", "d2", "b3", "d3", 10, -2],
            ]),
            parameters=("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2",
                        "a3", "b3", "c3", "d3"),
            domains=tuple(((0, 16),) * 12),
            constraints=(
                Constraint.parse("a1+b1+c1+d1==16"),
                Constraint.parse("a2+b2+c2+d2==16"),
                Constraint.parse("a3+b3+c3+d3==16"),
                Constraint.parse("a1<=b1"),
                Constraint.parse("a2<=b2"),
            ),
            symmetries=(
                _sym(("a1", "b1"), ("b1", "a1"), ("c1", "d1"), ("d1", "c1"),
                     ("a3", "c3"), ("c3", "a3"), ("b3", "d3"), ("d3", "b3")),
                _sym(("a2", "b2"), ("b2", "a2"), ("c2", "d2"), ("d2", "c2"),
                     ("a3", "b3"), ("b3", "a3"), ("c3", "d3"), ("d3", "c3")),
            ),
        ),
        target_rank=3,
        expected=((1, 7, 7, 1, 1, 7, 7, 1, 7, 1, 1, 7),),
    )

    searches["S3"] = BuiltinSearch(
        template=MatrixTemplate(
            size=4,
            entries=_grid([
                [-2, 4, "a", "2-a"],
                [4, -2, "2-a", "a"],
                ["a", "2-a", -2, 4],
                ["2-a", "a", 4, -2],
            ]),
            parameters=("a",),
            domains=((0, 2),),
            constraints=(Constraint.parse("a<=1"),),
            symmetries=(_sym(("a", "2-a")),),
        ),
        target_rank=3,
        expected=((0,), (1,)),
    )

    searches["S4"] = BuiltinSearch(
        template=MatrixTemplate(
            size=4,
            entries=_grid([
                [-2, 3, "t", "2-t"],
                [3, -2, "2-t", "t"],
                ["t", "2-t", -2, 6],
                ["2-t", "t", 6, -2],
            ]),
            parameters=("t",),
            domains=((0, 2),),
            constraints=(Constraint.parse("t<=1"),),
            symmetries=(_sym(("t", "2-t")),),
        ),
        target_rank=3,
        expected=((0,), (1,)),
    )

    searches["S5"] = BuiltinSearch(
        template=MatrixTemplate(
            size=4,
            entries=_grid([
                [-2, 3, "s", "1-s"],
                [3, -2, "1-s", "s"],
                ["s", "1-s", -2, 3],
                ["1-s", "s", 3, -2],
            ]),
            parameters=("s",),
            domains=((0, 1),),
            constraints=(Constraint.parse("s<=0"),),
            symmetries=(_sym(("s", "1-s")),),
        ),
        target_rank=3,
        expected=((0,),),
    )

    searches["S6"] = BuiltinSearch(
        template=MatrixTemplate(
            size=6,
            entries=_grid([
                [-2, 6, "u", "6-u", "6-v", "v"],
                [6, -2, "6-u", "u", "v", "6-v"],
                ["u", "6-u", -2, 11, "9-a", "a"],
                ["6-u", "u", 11, -2, "a", "9-a"],
                ["6-v", "v", "9-a", "a", -2, 11],
                ["v", "6-v", "a", "9-a", 11, -2],
            ]),
            parameters=("u", "v", "a"),
            domains=((0, 6), (0, 6), (0, 9)),
            constraints=(Constraint.parse("u<=3"), Constraint.parse("v<=3")),
            symmetries=(_sym(("u", "6-u"), ("a", "9-a")), _sym(("v", "6-v"), ("a", "9-a"))),
        ),
        target_rank=3,
        expected=((1, 1, 9),),
    )

    searches["L24"] = BuiltinSearch(
        template=MatrixTemplate(
            size=6,
            entries=_grid([
                [-2, 3, "p", "1-p", "q", "1-q"],
                [3, -2, "1-p", "p", "1-q", "q"],
                ["p", "1-p", -2, 3, "r", "1-r"],
                ["1-p", "p", 3, -2, "1-r", "r"],
                ["q", "1-q", "r", "1-r", -2, 3],
                ["1-q", "q", "1-r", "r", 3, -2],
            ]),
            parameters=("p", "q", "r"),
            domains=((0, 1), (0, 1), (0, 1)),
            constraints=(Constraint.parse("p<=0"), Constraint.parse("q<=0")),
            symmetries=(
                _sym(("p", "1-p"), ("q", "1-q")),
                _sym(("p", "1-p"), ("r", "1-r")),
                _sym(("q", "1-q"), ("r", "1-r")),
            ),
        ),
        target_rank=4,
        expected=((0, 0, 0), (0, 0, 1)),
    )

    searches["L27"] = BuiltinSearch(
        template=MatrixTemplate(
            size=8,
            entries=_grid([
                [-2, 6, "a", "4-a", "b", "4-b", "u", "2-u"],
                [6, -2, "4-a", "a", "4-b", "b", "2-u", "u"],
                ["a", "4-a", -2, 6, "c", "4-c", "v", "2-v"],
                ["4-a", "a", 6, -2, "4-c", "c", "2-v", "v"],
                ["b", "4-b", "c", "4-c", -2, 6, "w", "2-w"],
                ["4-b", "b", "4-c", "c", 6, -2, "2-w", "w"],
                ["u", "2-u", "v", "2-v", "w", "2-w", -2, 3],
                ["2-u", "u", "2-v", "v", "2-w", "w", 3, -2],
            ]),
            parameters=("a", "b", "c", "u", "v", "w"),
            domains=((0, 4), (0, 4), (0, 4), (0, 2), (0, 2), (0, 2)),
            constraints=(
                Constraint.parse("a<=2"),
                Constraint.parse("b<=2"),
                Constraint.parse("u<=1"),
            ),
            symmetries=(
                _sym(("a", "4-a"), ("b", "4-b"), ("u", "2-u")),
                _sym(("a", "4-a"), ("c", "4-c"), ("v", "2-v")),
                _sym(("b", "4-b"), ("c", "4-c"), ("w", "2-w")),
                _sym(("u", "2-u"), ("v", "2-v"), ("w", "2-w")),
            ),
        ),
        target_rank=4,
        expected=(
            (0, 0, 4, 1, 1, 1),
            (0, 0, 4, 0, 1, 0),
            (0, 0, 4, 1, 2, 0),
            (0, 0, 4, 1, 0, 2),
            (0, 0, 4, 0, 0, 1),
            (2, 0, 4, 0, 2, 2),
            (0, 2, 4, 0, 2, 2),
            (0, 0, 2, 0, 2, 2),
            (0, 2, 0, 0, 2, 0),
            (2, 0, 0, 0, 0, 2),
        ),
    )

    return searches
