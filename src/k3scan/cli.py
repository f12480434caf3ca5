"""Command-line front end.

Subcommands: curves, chamber, series, disc, classify.  Input is a preset name
or a lattice JSON file {"rank": n, "gram": [[..]], "labels": [..],
"ample": [..]}.  Output is deterministic: repeated runs produce
byte-identical bytes.  classify still accepts --jobs N (N >= 1), which has no
effect: the search runs in this process.

Exit codes: 0 success, 1 usage, 2 invalid lattice, 3 incomplete sieve,
4 non-compact chamber, 5 cost limit (an input whose work would explode is
refused before any of it is done, or stopped once a count passes a fixed
limit: a classify search's nodes or solutions, the classes a series counts).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import acosh, gcd, sqrt

from .errors import InvalidLatticeError, K3ScanError, UsageError

# Each command imports the modules it runs, so a cold process loads (and
# compiles) only those: disc never loads the search, the cone or the series.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _read_json(path, error):
    """The JSON document at path; a file that cannot be read or parsed raises error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot parse {path}: {exc}") from exc


def _load_input(args) -> tuple:
    """Returns (lattice, ample seed, display name)."""
    if args.preset and args.file:
        raise UsageError("give either --preset or --file, not both")
    if args.preset:
        from .presets import catalog

        p = catalog().get(args.preset)
        if p is None:
            names = ", ".join(sorted(catalog()))
            raise UsageError(f"unknown preset {args.preset!r}; choose from {names}")
        return p.lattice, p.ample, p.name
    if args.file:
        from . import linalg
        from .lattice import GramLattice, square

        doc = _read_json(args.file, InvalidLatticeError)
        if not isinstance(doc, dict):
            raise InvalidLatticeError("bad lattice document: the top level is not a JSON object")
        try:
            rank, gram = doc["rank"], doc["gram"]
            labels = doc.get("labels", [])
            ample = doc.get("ample")
            if ample is not None:
                if not isinstance(ample, list):
                    raise TypeError(f"ample must be a list of integers, got {ample!r}")
                ample = tuple(linalg.strict_int(x) for x in ample)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"missing required key {exc}" if isinstance(exc, KeyError) else exc
            raise InvalidLatticeError(f"bad lattice document: {why}") from exc
        lat = GramLattice(rank=rank, gram=gram, basis_labels=labels)
        if ample is not None:
            if len(ample) != rank:
                raise InvalidLatticeError(
                    f"ample class has length {len(ample)}, lattice has rank {rank}"
                )
            if square(lat, ample) <= 0:
                raise InvalidLatticeError(
                    f"ample class {list(ample)} must have positive square"
                )
        return lat, ample, args.file
    raise UsageError("an input is required: --preset NAME or --file PATH")


def _sieve(args):
    from .cone import vinberg_sieve

    lat, ample, name = _load_input(args)
    if ample is None:
        raise UsageError(f"input {name!r} carries no ample seed; this command needs one")
    if args.kmax < 1:
        raise UsageError("--kmax must be a positive integer")
    cs = vinberg_sieve(lat, ample, args.kmax)
    return cs, name


def _minimal_polarization(cs):
    from .lattice import bilinear
    from .linalg import canonical_key
    from .series import big_nef_classes_by_square

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


def cmd_curves(args) -> dict:
    cs, name = _sieve(args)
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


def cmd_chamber(args) -> dict:
    cs, name = _sieve(args)
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


def cmd_series(args) -> dict:
    from .series import theta_series, xi_series

    if args.max_square < 2 or args.max_square % 2 != 0:
        raise UsageError("--max-square must be an even integer >= 2")
    cs, name = _sieve(args)
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


def cmd_disc(args) -> dict:
    from . import linalg
    from .lattice import discriminant_group, isotropic_elements, overlattice_from_isotropic
    from .presets import identify_type

    lat, _, name = _load_input(args)
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


def cmd_classify(args) -> dict:
    from .classify import builtin_template, search_template, template_from_dict

    if args.jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    if bool(args.template) == bool(args.custom):
        raise UsageError("give exactly one of --template NAME or --custom PATH")
    if args.template:
        path, name = builtin_template(args.template), args.template
    else:
        path = name = args.custom
    template, target_rank = template_from_dict(_read_json(path, UsageError))
    solutions = search_template(template, target_rank)
    return {
        "command": "classify",
        "template": name,
        "target_rank": target_rank,
        "parameters": list(template.parameters),
        "solutions": [
            {
                "values": list(s.values),
                "assignment": dict(zip(template.parameters, s.values)),
                "rank": s.rank,
                "matrix": [list(r) for r in s.matrix],
                "basis_gram": [list(r) for r in s.basis_gram],
                "identified": s.identified,
            }
            for s in solutions
        ],
    }


def _format_matrix(rows):
    widths = [max(len(str(r[j])) for r in rows) for j in range(len(rows[0]))]
    return "\n".join(
        "  " + " ".join(str(x).rjust(w) for x, w in zip(row, widths)) for row in rows
    )


def _render_text(report: dict) -> str:
    cmd = report["command"]
    lines = [f"{cmd} report for {report.get('input', report.get('template'))}"]
    if cmd == "curves":
        lines.append(f"rank {report['rank']}, basis {', '.join(report['labels'])}")
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
    elif cmd == "chamber":
        lines.append(f"{len(report['vertices'])} chamber vertices (square, degree, coords):")
        for v in report["vertices"]:
            lines.append(f"  {v['square']:>4} {v['degree']:>4}  {v['coords']}")
        lines.append(f"ell = {report['ell']}, dmax = arccosh(sqrt(ell)) = {report['dmax']:.6f}")
    elif cmd == "series":
        lines.append(f"kind {report['kind']} up to square {report['max_square']}")
        lines.append(report["factored"] or report["polynomial"])
    elif cmd == "disc":
        lines.append(f"determinant {report['determinant']}")
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
    elif cmd == "classify":
        lines.append(
            f"target rank {report['target_rank']}, parameters {report['parameters']}"
        )
        lines.append(f"{len(report['solutions'])} solutions:")
        for s in report["solutions"]:
            lines.append(f"  {tuple(s['values'])} rank {s['rank']} identified: {s['identified']}")
    return "\n".join(lines) + "\n"


def build_parser() -> _Parser:
    parser = _Parser(prog="k3scan", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_seed=True):
        p.add_argument("--preset", help="name of a built-in lattice")
        p.add_argument("--file", help="path to a lattice JSON document")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if with_seed:
            p.add_argument("--kmax", type=int, default=10,
                           help="largest degree tried before giving up (default 10)")

    p = sub.add_parser("curves", help="(-2)-curve system from the sieve")
    add_common(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("chamber", help="chamber vertices and hyperbolic radius")
    add_common(p)
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("series", help="generating series of big-and-nef classes")
    add_common(p)
    p.add_argument("--kind", choices=("theta", "xi"), default="theta")
    p.add_argument("--max-square", dest="max_square", type=int, default=100)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("disc", help="discriminant group, isotropic elements, overlattices")
    add_common(p, with_seed=False)
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("classify", help="parametric intersection-matrix search")
    p.add_argument("--template", help="name of a built-in search")
    p.add_argument("--custom", help="path to a template JSON document")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and has no effect (N >= 1)")
    p.set_defaults(func=cmd_classify)

    return parser


def run(argv=None) -> tuple[int, str]:
    """Execute a command line; returns (exit_code, output_text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
    except K3ScanError as exc:
        return exc.exit_code, f"error: {exc}\n"
    if args.format == "json":
        return 0, json.dumps(report, indent=2, sort_keys=True) + "\n"
    return 0, _render_text(report)


def main(argv=None) -> int:
    code, text = run(argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
