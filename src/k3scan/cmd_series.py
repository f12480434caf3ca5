"""`k3scan series`: the theta or xi series of the input, and its display forms."""

from __future__ import annotations

from math import gcd

from .errors import UsageError
from .inputs import sieve
from .series import theta_series, xi_series


def build(args) -> dict:
    if args.max_square < 2 or args.max_square % 2 != 0:
        raise UsageError("--max-square must be an even integer >= 2")
    cs, name = sieve(args)
    fn = theta_series if args.kind == "theta" else xi_series
    terms = [(d, c) for d, c in sorted(fn(cs, args.max_square).items()) if c]
    return {
        "command": "series",
        "input": name,
        "kind": args.kind,
        "max_square": args.max_square,
        "coefficients": {str(d): c for d, c in terms},
        "polynomial": _polynomial(terms),
        "factored": _factored(terms),
    }


def _polynomial(terms) -> str:
    """The sorted non-zero (square, count) terms as 'T^a + cT^b + ...'."""
    return " + ".join(f"T^{d}" if c == 1 else f"{c}T^{d}" for d, c in terms) or "0"


def _factored(terms) -> str | None:
    """The display form 'T^a + g(...)' when the tail has a common factor g > 1."""
    if len(terms) < 2 or terms[0][1] != 1:
        return None
    g = gcd(*(c for _, c in terms[1:]))
    if g <= 1:
        return None
    return f"T^{terms[0][0]} + {g}({_polynomial([(d, c // g) for d, c in terms[1:]])})"


def render(report: dict) -> list[str]:
    return [
        f"kind {report['kind']} up to square {report['max_square']}",
        report["factored"] or report["polynomial"],
    ]
