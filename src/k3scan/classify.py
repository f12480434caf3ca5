"""Parametric intersection-matrix searches.

A MatrixTemplate is a symmetric matrix whose cells are affine expressions in
named integer parameters, together with finite domains and normalization
constraints ("a<=2", "a1+b1+c1+d1==16").  search_template enumerates every
assignment satisfying the constraints and returns, as a tuple of
TemplateSolution, those whose instantiated matrix has rank at most the
target, each identified against the catalog by genus (presets.identify_type).

Templates are JSON documents, built by template_from_dict and read from a
file by read_template alone.  The shipped searches are such documents,
templates/<NAME>.json, each with the extra key "expected" (the published
solution set); builtin_searches reads them all and builtin_template resolves
one shipped name to its file.

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
with a nonzero coefficient in its entries and memoized on the values of those
parameters.

Replay: when the bounds and minors tested at depths s..e-1 (e > s+1) read only
parameters s..e-1, the value tuples of s..e-1 that reach depth e are the same
under every prefix of values for 0..s-1, since no test on the way can see the
prefix.  So such a block is searched once, under the first prefix that reaches
it, and its surviving tuples are replayed in the same order under every later
prefix, each with the entries of s..e-1 filled again from that prefix.  In S2
the second conic pair (a2, b2, c2, d2) is such a block.

Budget: a template whose principal minors of order r+1 and r+2 number more
than MAX_SCHEDULED_MINORS is refused before any is listed.  A search that
enters more than MAX_SEARCH_NODES nodes (every call of the descent, replayed
or searched) or finds more than MAX_SEARCH_HITS solutions raises
CostLimitError.  The search cannot be refused up front: S2's raw domain
product is 5.8 * 10^14, while its search enters 1,282 nodes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
from typing import NamedTuple

from . import linalg
from .errors import CostLimitError, UsageError
from .linalg import Matrix
from .presets import identify_type

_TEMPLATE_DIR = os.path.join(os.path.dirname(__file__), "templates")

# Work limits of one search, counted, not timed.  The shipped templates
# schedule at most 84 minors (L27), enter at most 1,282 nodes (S2) and find at
# most 10 solutions (L27).  Scheduling costs about 5 us a minor.
MAX_SCHEDULED_MINORS = 20_000
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
    d, _, v = linalg.smith_normal_form(m)
    n = len(m)
    r = sum(1 for i in range(min(n, len(d[0]))) if d[i][i] != 0)
    full = linalg.mat_mul(linalg.transpose(v), linalg.mat_mul(m, v))
    return tuple(tuple(full[i][j] for j in range(r)) for i in range(r))


def _int_row(pairs, order) -> tuple[int, tuple[tuple[int, int], ...]]:
    """sum sign * expr over (sign, expr) pairs as (const, ((k, c_k), ...)), k ascending."""
    const = 0
    coeffs = [0] * len(order)
    for sign, expr in pairs:
        const += sign * expr.const
        for name, c in expr.coeffs:
            coeffs[order[name]] += sign * c
    return const, tuple((k, c) for k, c in enumerate(coeffs) if c)


def _search_sequential(template: MatrixTemplate, target_rank: int):
    nparams = len(template.parameters)
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
    for c in template.constraints:
        const, terms = _int_row(((1, c.lhs), (-1, c.rhs)), order)
        if not terms and not (const <= 0 if c.op == "<=" else const == 0):
            return []
        below = above = 0
        for t in range(len(terms) - 1, -1, -1):
            k, lead = terms[t]
            bounds[k].append((lead, const, terms[:t], below, above if c.op == "==" else None))
            lo, hi = template.domains[k]
            below += min(lead * lo, lead * hi)
            above += max(lead * lo, lead * hi)
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

    def minor_ok(idx, dep) -> bool:
        key = (idx, tuple(values[k] for k in dep))
        val = minor_cache.get(key)
        if val is None:
            val = linalg.det([[cur[i][j] for j in idx] for i in idx])
            minor_cache[key] = val
        return val == 0

    # A principal minor of order r+1 or r+2 is tested at the depth of the last
    # parameter its entries use, memoized on the values of those parameters;
    # minors of the last parameter are left to the final rank computation.
    minors: dict[int, list] = {}
    for size in (target_rank + 1, target_rank + 2):
        for idx in itertools.combinations(range(n), size):
            mask = functools.reduce(int.__or__, (masks[i][j] for i in idx for j in idx), 0)
            if mask.bit_length() < nparams:
                dep = tuple(k for k in range(mask.bit_length()) if mask >> k & 1)
                minors.setdefault(mask.bit_length() - 1, []).append((idx, dep))
    if not all(minor_ok(*m) for m in minors.get(-1, ())):
        return []

    # Replay blocks (see the module docstring), taken greedily from the left,
    # each as long as it goes.
    reach = list(range(nparams))  # the earliest parameter a test at depth d reads
    for d in range(nparams):
        for _, _, terms, _, _ in bounds[d]:
            if terms:  # ascending, so terms[0] is the earliest
                reach[d] = min(reach[d], terms[0][0])
        for _, dep in minors.get(d, ()):
            reach[d] = min(reach[d], dep[0])
    blocks: dict[int, tuple[int, list]] = {}  # s -> (e, the fills of s..e-1)
    s = 1
    while s < nparams:
        e = s
        while e < nparams and reach[e] >= s:
            e += 1
        if e > s + 1:
            blocks[s] = (e, [f for d in range(s, e) for f in fills[d]])
            s = e
        else:
            s += 1
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
            matrix = tuple(map(tuple, cur))
            r = linalg.rank(matrix)
            if r <= target_rank:
                hits.append((tuple(values), r, matrix))
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
                    cur[i][j] = cur[j][i] = const + sum(c * values[k] for k, c in terms)
                descend(end)
            return
        if end is not None:
            recording[end] = (depth, [])
        lo, hi = template.domains[depth]
        for lead, const, terms, below, above in bounds[depth]:
            # rest + lead*x + (later terms, in [below, above]) <= 0, or == 0;
            # for the last term below = above = 0, and a lead that does not
            # divide -rest leaves the range empty.
            rest = const + sum(c * values[k] for k, c in terms)
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
        for value in range(lo, hi + 1):
            values[depth] = value
            for i, j, const, terms in fills[depth]:
                cur[i][j] = cur[j][i] = const + sum(c * values[k] for k, c in terms)
            if all(minor_ok(*m) for m in minors.get(depth, ())):
                descend(depth + 1)
        if end is not None:
            passed[depth] = recording.pop(end)[1]

    descend(0)
    return hits


def search_template(template: MatrixTemplate, target_rank: int) -> tuple[TemplateSolution, ...]:
    """Exhaustive search for assignments of rank <= target_rank: their solutions.

    Solutions come in lexicographic order of their parameter values.  A
    template with more than MAX_SCHEDULED_MINORS principal minors to test, or a
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


def read_template(path) -> tuple[MatrixTemplate, int, dict]:
    """Open and parse the template document at path: (template, target_rank, document).

    The one reader of template files, for --template, --custom and
    builtin_searches alike; a file that cannot be read or parsed is a UsageError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc
    return (*template_from_dict(doc), doc)


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
        template, target_rank, doc = read_template(builtin_template(name))
        expected = tuple(tuple(values) for values in doc["expected"])
        searches[name] = BuiltinSearch(template, target_rank, expected)
    return searches
