"""The README's library quick start runs and gives the values its comments state."""

import ast
from fractions import Fraction
from pathlib import Path

from k3scan import identify_type

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def _run(source: str) -> dict:
    """Executes the block statement by statement; returns each bare expression's value."""
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_quick_start_runs_and_matches_its_comments():
    values = _run(_quick_start())
    assert values["len(cs.curves)"] == 6
    assert values["cs.chamber.ell"] == Fraction(9)
    theta = values["theta_series(cs, 36)"]
    assert list(theta.items())[:6] == [(2, 0), (4, 1), (6, 0), (8, 0), (10, 6), (12, 6)]
    assert list(theta) == list(range(2, 37, 2)) and theta[36] == 6
    assert identify_type(values["overlattice_from_isotropic(dg, element)"]) == "S5"
    assert values["tuple(s.values for s in search_template(bs.template, bs.target_rank))"] == (
        (1, 7, 7, 1, 1, 7, 7, 1, 7, 1, 1, 7),
    )
