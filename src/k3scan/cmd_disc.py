"""`k3scan disc`: the discriminant group, its isotropic elements and their overlattices."""

from __future__ import annotations

from . import linalg
from .discriminant import (
    discriminant_group,
    identify_type,
    isotropic_elements,
    overlattice_from_isotropic,
)
from .inputs import load_input


def build(args) -> dict:
    lat, _, name = load_input(args)
    dg = discriminant_group(lat)
    isotropic = []
    for coeffs in isotropic_elements(dg):
        over = overlattice_from_isotropic(dg, coeffs)
        isotropic.append(
            {
                "coeffs": list(coeffs),
                "lift": [str(x) for x in dg.lift(coeffs)],
                "order": dg.element_order(coeffs),
                "overlattice_gram": [list(r) for r in over.gram],
                "overlattice_identified": identify_type(over),
            }
        )
    return {
        "command": "disc",
        "input": name,
        "rank": lat.rank,
        "determinant": lat.det(),
        "invariant_factors": list(dg.invariant_factors),
        "generators": [
            {
                "lift": [str(x) for x in dg.lift(unit)],
                "q_value": str(dg.q_value(unit)),
                "order": dg.invariant_factors[i],
            }
            for i, unit in enumerate(linalg.identity(len(dg.invariant_factors)))
        ],
        "isotropic_elements": isotropic,
    }


def render(report: dict) -> list[str]:
    lines = [f"determinant {report['determinant']}"]
    lines.append(f"invariant factors: {report['invariant_factors']}")
    for g in report["generators"]:
        lines.append(f"  generator {g['lift']}  q = {g['q_value']}  order {g['order']}")
    if report["isotropic_elements"]:
        for e in report["isotropic_elements"]:
            lines.append(
                f"  isotropic {e['lift']} (order {e['order']}) -> overlattice "
                f"{e['overlattice_gram']} identified: {e['overlattice_identified']}"
            )
    else:
        lines.append("  no non-trivial isotropic elements")
    return lines
