"""`k3scan classify`: a built-in or user template's search and its solutions."""

from __future__ import annotations

from . import classify
from .errors import UsageError
from .inputs import read_json


def build(args) -> dict:
    if args.jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    if bool(args.template) == bool(args.custom):
        raise UsageError("give exactly one of --template NAME or --custom PATH")
    if args.template:
        path, name = classify.builtin_template(args.template), args.template
    else:
        path = name = args.custom
    template, target_rank = classify.template_from_dict(read_json(path, UsageError))
    solutions = classify.search_template(template, target_rank)
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


def render(report: dict) -> list[str]:
    lines = [f"target rank {report['target_rank']}, parameters {report['parameters']}"]
    lines.append(f"{len(report['solutions'])} solutions:")
    for s in report["solutions"]:
        lines.append(f"  {tuple(s['values'])} rank {s['rank']} identified: {s['identified']}")
    return lines
