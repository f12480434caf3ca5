import ast
import importlib
import re
import sys
from pathlib import Path
from types import FunctionType

import pytest

import k3scan
import k3scan.classify
import k3scan.discriminant
from k3scan.classify import builtin_searches, search_template
from k3scan.cone import vinberg_sieve
from k3scan.enumeration import EnumerationStats
from k3scan.errors import InvalidLatticeError, UsageError
from k3scan.discriminant import discriminant_group
from k3scan.lattice import GramLattice
from k3scan.presets import Preset


def test_every_public_name_is_its_modules_object():
    for name in k3scan.__all__:
        obj = getattr(k3scan, name)
        module = obj.__module__
        assert module.startswith("k3scan.") and module != "k3scan.cli", (name, module)
        assert getattr(importlib.import_module(module), name) is obj, name


def test_public_names_are_pinned():
    # A name deleted from the library must not come back as a re-export unnoticed.
    assert k3scan.__all__ == [
        "AffineExpr", "BuiltinSearch", "ChamberDescription", "ChamberVertex",
        "Constraint", "CostLimitError", "CurveSystem",
        "DiscriminantGroup", "EnumerationStats", "GramLattice", "IncompleteSieveError",
        "InvalidLatticeError", "K3ScanError", "MatrixTemplate", "NonCompactChamberError",
        "Preset", "TemplateSolution", "UsageError", "WallError",
        "bilinear", "builtin_searches", "catalog",
        "discriminant_group", "identify_type",
        "isotropic_elements", "overlattice_from_isotropic",
        "search_template", "signature", "span_gram", "square",
        "theta_series", "vinberg_sieve", "xi_series",
    ]


def test_every_export_is_used_or_documented():
    # A public name that no module calls and the README does not document is
    # kept only for the tests; such code belongs in tests/helpers.py.  So is a
    # public method or property of an exported class that nothing reads as
    # `.name`; what a class inherits from tuple or NamedTuple is not its own.
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "k3scan"
    lines = [
        line
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    readme = (root / "README.md").read_text()

    def used(word, definition) -> bool:
        return bool(word.search(readme)) or any(
            word.search(line) and not definition.match(line) for line in lines
        )

    unused = []
    for name in k3scan.__all__:
        if not used(re.compile(rf"\b{name}\b"), re.compile(rf"\s*(def|class) {name}\b")):
            unused.append(name)
        obj = getattr(k3scan, name)
        for cls in obj.__mro__ if isinstance(obj, type) else ():
            if cls.__module__ == "builtins":
                continue
            for attr, value in vars(cls).items():
                method = isinstance(value, (FunctionType, property, staticmethod, classmethod))
                if method and not attr.startswith("_"):
                    if not used(re.compile(rf"\.{attr}\b"), re.compile(rf"\s*def {attr}\b")):
                        unused.append(f"{name}.{attr}")
    assert unused == []


def test_every_top_level_definition_is_named_elsewhere_in_src():
    # The export test for every module-level def and class, private helpers
    # too: a helper whose one caller went must go with it.  The PEP 562 hooks
    # of __init__ are called by Python, not named.
    package = Path(__file__).resolve().parents[1] / "src" / "k3scan"
    sources = {path: path.read_text().splitlines() for path in sorted(package.glob("*.py"))}
    dead = []
    for path, lines in sources.items():
        for node in ast.parse("\n".join(lines), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if path.name == "__init__.py" and node.name in ("__getattr__", "__dir__"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for other, text in sources.items()
                for i, line in enumerate(text)
                if other != path or i not in own
            ):
                dead.append(f"{path.name}:{node.name}")
    assert dead == []


def test_dir_lists_public_names():
    assert set(k3scan.__all__) <= set(dir(k3scan))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        k3scan.no_such_name
    assert not hasattr(k3scan, "theta")


def test_identify_type_lives_in_discriminant():
    assert k3scan.classify.identify_type is k3scan.discriminant.identify_type
    assert k3scan.identify_type is k3scan.discriminant.identify_type
    assert k3scan.identify_type.__module__ == "k3scan.discriminant"


def _records():
    """One of each public record, built from scratch by the library."""
    lat = GramLattice(rank=3, gram=((12, 0, 0), (0, -2, 1), (0, 1, -2)))
    cs = vinberg_sieve(lat, (1, -2, -2), 4)
    bs = builtin_searches()["S3"]
    return {
        "GramLattice": lat,
        "DiscriminantGroup": discriminant_group(lat),
        "Preset": Preset(name="S3", lattice=lat, ample=(1, -2, -2)),
        "CurveSystem": cs,
        "ChamberDescription": cs.chamber,
        "ChamberVertex": cs.chamber.vertices[0],
        "BuiltinSearch": bs,
        "MatrixTemplate": bs.template,
        "AffineExpr": bs.template.entries[0][2],
        "Constraint": bs.template.constraints[0],
        "TemplateSolution": search_template(bs.template, bs.target_rank)[0],
    }


def test_records_are_immutable_values():
    first, second = _records(), _records()
    for name, a in first.items():
        b = second[name]
        assert type(a).__name__ == name
        assert a == b and a is not b, name
        assert hash(a) == hash(b), name
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], None)
        with pytest.raises(AttributeError):
            a.not_a_field = None
    assert first["ChamberVertex"] != first["CurveSystem"].chamber.vertices[1]
    # A preset holds only what the program reads; the sieve finds its own stop.
    assert first["Preset"]._fields == ("name", "lattice", "ample")
    lat = first["GramLattice"]
    assert lat != lat._replace(basis_labels=("L", "A1", "A2"))
    # _replace validates as the constructor does.
    with pytest.raises(InvalidLatticeError, match="even diagonal"):
        lat._replace(gram=((1, 0, 0), (0, -2, 1), (0, 1, -2)))
    with pytest.raises(UsageError, match="unknown parameters"):
        first["MatrixTemplate"]._replace(parameters=("b",), domains=((0, 2),))


def test_enumeration_stats_count_by_value():
    stats = EnumerationStats()
    assert stats.nodes == 0
    stats.nodes += 2
    assert stats == EnumerationStats(nodes=2) != EnumerationStats()
    with pytest.raises(AttributeError):
        stats.not_a_counter = 1


def test_every_package_json_file_is_package_data():
    # A data file no glob names is left out of a built wheel: an installed
    # `classify --template` would then find no template to read.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["k3scan"]
    package = root / "src" / "k3scan"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    files = set(package.rglob("*.json"))
    assert package / "templates" / "S2.json" in files
    assert sorted(map(str, files - shipped)) == []


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so every invariant check in the library must
    # raise.  The same walk keeps the library stdlib-only: numpy, hypothesis and
    # jsonschema are installed for the tests, so an import of one would pass here.
    package = Path(__file__).resolve().parents[1] / "src" / "k3scan"
    sources = sorted(package.glob("*.py"))
    assert package / "linalg.py" in sources
    found, imported = [], set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert found == []
    assert "json" in imported
    assert sorted(imported - sys.stdlib_module_names) == []
