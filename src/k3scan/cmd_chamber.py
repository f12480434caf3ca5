"""`k3scan chamber`: the vertices of the sieve's chamber and its hyperbolic radius."""

from __future__ import annotations

from math import acosh, sqrt

from .inputs import sieve


def build(args) -> dict:
    cs, name = sieve(args)
    ch = cs.chamber
    return {
        "command": "chamber",
        "input": name,
        "rank": cs.lattice.rank,
        "vertices": [
            {"coords": list(v.coords), "square": v.square, "degree": v.degree}
            for v in ch.vertices
        ],
        "ell": str(ch.ell),
        "dmax": acosh(sqrt(ch.ell)),
    }


def render(report: dict) -> list[str]:
    lines = [f"{len(report['vertices'])} chamber vertices (square, degree, coords):"]
    for v in report["vertices"]:
        lines.append(f"  {v['square']:>4} {v['degree']:>4}  {v['coords']}")
    lines.append(f"ell = {report['ell']}, dmax = arccosh(sqrt(ell)) = {report['dmax']:.6f}")
    return lines
