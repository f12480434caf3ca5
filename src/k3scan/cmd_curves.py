"""`k3scan curves`: the sieve's (-2)-curves, their Gram, the minimal polarization."""

from __future__ import annotations

from .inputs import sieve
from .lattice import bilinear
from .linalg import canonical_key
from .series import big_nef_classes_by_square


def _minimal_polarization(cs):
    classes = big_nef_classes_by_square(cs, 12)
    if not classes:
        return None
    d = min(classes)
    lat, h = cs.lattice, cs.ample_seed
    ordered = sorted(classes[d], key=lambda c: (bilinear(lat, h, c), canonical_key(c)))
    return {"square": d, "classes": [list(c) for c in ordered]}


def _pair_relations(cs):
    """Pairs of curves whose sum is an integer multiple of the minimal polarization."""
    minimal = _minimal_polarization(cs)
    if minimal is None or len(minimal["classes"]) != 1:
        return minimal, []
    base = minimal["classes"][0]
    k = next(k for k, b in enumerate(base) if b)  # a class of positive square is non-zero
    relations = []
    n = len(cs.curves)
    for i in range(n):
        for j in range(i, n):
            total = [a + b for a, b in zip(cs.curves[i], cs.curves[j])]
            m, r = divmod(total[k], base[k])
            if not r and m >= 1 and total == [m * b for b in base]:
                relations.append({"i": i, "j": j, "multiple": m})
    return minimal, relations


def build(args) -> dict:
    cs, name = sieve(args)
    minimal, relations = _pair_relations(cs)
    lat = cs.lattice
    degrees = cs.degrees()
    return {
        "command": "curves",
        "input": name,
        "rank": lat.rank,
        "labels": list(lat.basis_labels),
        "gram": [list(r) for r in lat.gram],
        "ample_seed": list(cs.ample_seed),
        # DegreeCoset refused a seed of square <= 0; so the seed is ample iff no degree is <= 0.
        "ample_seed_is_ample": min(degrees) > 0,
        "curve_count": len(cs.curves),
        "curves": [list(c) for c in cs.curves],
        "degrees": list(degrees),
        "curve_gram": [list(r) for r in cs.gram_of_curves],
        "minimal_polarization": minimal,
        "relations": relations,
    }


def _format_matrix(rows):
    widths = [max(len(str(r[j])) for r in rows) for j in range(len(rows[0]))]
    return "\n".join(
        "  " + " ".join(str(x).rjust(w) for x, w in zip(row, widths)) for row in rows
    )


def render(report: dict) -> list[str]:
    lines = [f"rank {report['rank']}, basis {', '.join(report['labels'])}"]
    lines.append("gram:")
    lines.append(_format_matrix(report["gram"]))
    lines.append(f"ample seed: {report['ample_seed']}")
    lines.append(f"{report['curve_count']} (-2)-curves (degree: class):")
    for deg, c in zip(report["degrees"], report["curves"]):
        lines.append(f"  {deg}: {c}")
    lines.append("curve intersection matrix:")
    lines.append(_format_matrix(report["curve_gram"]))
    if report["minimal_polarization"]:
        mp = report["minimal_polarization"]
        lines.append(
            f"minimal polarization: square {mp['square']}, classes {mp['classes']}"
        )
    for rel in report["relations"]:
        lines.append(
            f"  curve[{rel['i']}] + curve[{rel['j']}] = {rel['multiple']} * minimal"
        )
    return lines
