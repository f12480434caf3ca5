import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

from conftest import load_package_json
from helpers import MANY_ISOTROPIC_GRAMS, sieve_presets

import k3scan
import k3scan.cli
import k3scan.cone
import k3scan.lattice
import k3scan.linalg
from k3scan.classify import builtin_searches, builtin_template
from k3scan.cli import run
from k3scan.cone import _chamber
from k3scan.enumeration import DegreeCoset
from k3scan.errors import CostLimitError

# Child interpreters import the same k3scan as this process.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(k3scan.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}


def invoke(*argv):
    return run(list(argv))


def report(*argv):
    code, text = invoke(*argv)
    assert code == 0, text
    return json.loads(text)


def schema_for(command):
    return load_package_json(f"schemas/{command}.schema.json")


def test_curves_s5_matches_published_gram():
    doc = report("curves", "--preset", "S5")
    jsonschema.validate(doc, schema_for("curves"))
    assert doc["curve_count"] == 4
    rows = sorted(tuple(sorted(r)) for r in doc["curve_gram"])
    assert rows == sorted(
        tuple(sorted(r))
        for r in [[-2, 1, 3, 0], [1, -2, 0, 3], [3, 0, -2, 1], [0, 3, 1, -2]]
    )
    assert doc["minimal_polarization"]["square"] == 2
    assert len(doc["relations"]) == 2


def test_curves_s2_cyclic_offdiagonals():
    doc = report("curves", "--preset", "S2")
    assert doc["curve_count"] == 6
    for i, row in enumerate(doc["curve_gram"]):
        off = sorted(x for j, x in enumerate(row) if j != i)
        assert off == [1, 1, 7, 7, 10]
    assert doc["minimal_polarization"] == {"square": 4, "classes": [[1, -4, -4]]}
    assert len(doc["relations"]) == 3 and all(r["multiple"] == 2 for r in doc["relations"])


def test_pair_relations_read_any_multiple(monkeypatch):
    # The multiple is read off the sum, so it is not capped: (3,1,0)+(4,-1,0) = 7*(1,0,0).
    minimal = {"square": 2, "classes": [[1, 0, 0]]}
    monkeypatch.setattr(k3scan.cli, "_minimal_polarization", lambda cs: minimal)
    cs = SimpleNamespace(curves=((3, 1, 0), (4, -1, 0)))
    assert k3scan.cli._pair_relations(cs) == (minimal, [{"i": 0, "j": 1, "multiple": 7}])


def test_chamber_reports(presets):
    s3 = report("chamber", "--preset", "S3")
    jsonschema.validate(s3, schema_for("chamber"))
    assert [(v["square"], v["degree"]) for v in s3["vertices"]] == [(12, 12)] * 4
    assert s3["ell"] == "3"

    s6 = report("chamber", "--preset", "S6")
    assert s6["ell"] == "22/3"
    assert sorted((v["square"], v["degree"]) for v in s6["vertices"]) == sorted(
        [(132, 44)] * 4 + [(44, 22)] * 2
    )

    l27 = report("chamber", "--preset", "L27")
    assert len(l27["vertices"]) == 12
    assert {tuple(v["coords"]) for v in l27["vertices"]} >= {(6, 3, 7, 2), (6, 3, 2, 7)}


def test_series_reports():
    doc = report("series", "--preset", "S2", "--kind", "xi", "--max-square", "36")
    jsonschema.validate(doc, schema_for("series"))
    assert doc["coefficients"] == {
        "4": 1, "10": 6, "12": 6, "16": 1, "18": 6, "22": 12,
        "28": 6, "30": 18, "34": 6, "36": 7,
    }
    theta = report("series", "--preset", "S1", "--kind", "theta", "--max-square", "6")
    assert theta["coefficients"] == {"2": 1, "4": 6, "6": 6}
    assert theta["factored"] == "T^2 + 6(T^4 + T^6)"


def test_disc_reports():
    s2 = report("disc", "--preset", "S2")
    jsonschema.validate(s2, schema_for("disc"))
    assert s2["invariant_factors"] == [3, 36]
    assert len(s2["isotropic_elements"]) == 1
    assert s2["isotropic_elements"][0]["overlattice_identified"] == "S5"

    s1 = report("disc", "--preset", "S1")
    assert s1["isotropic_elements"] == []

    l24 = report("disc", "--preset", "L24")
    assert l24["determinant"] == -28


def test_classify_reports():
    doc = report("classify", "--template", "S1")
    jsonschema.validate(doc, schema_for("classify"))
    assert doc["solutions"][0]["values"] == [0, 0, 4]
    assert doc["solutions"][0]["identified"] == "S1"

    l27 = report("classify", "--template", "L27")
    assert len(l27["solutions"]) == 10


def test_classify_jobs_do_not_change_bytes():
    _, a = invoke("classify", "--template", "S6", "--jobs", "1")
    _, b = invoke("classify", "--template", "S6", "--jobs", "2")
    assert a == b


def test_custom_lattice_file(tmp_path):
    doc = {
        "rank": 3,
        "gram": [[6, 0, 0], [0, -2, 0], [0, 0, -2]],
        "labels": ["L", "A1", "A2"],
        "ample": [1, -1, -1],
    }
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    got = report("curves", "--file", str(path), "--kmax", "4")
    assert got["curve_count"] == 6


def test_custom_template_file(tmp_path):
    doc = {
        "size": 4,
        "entries": [
            ["-2", "3", "t", "2-t"],
            ["3", "-2", "2-t", "t"],
            ["t", "2-t", "-2", "6"],
            ["2-t", "t", "6", "-2"],
        ],
        "domains": {"t": [0, 2]},
        "normalize": ["t<=1"],
        "target_rank": 3,
    }
    path = tmp_path / "template.json"
    path.write_text(json.dumps(doc))
    got = report("classify", "--custom", str(path))
    assert [s["values"] for s in got["solutions"]] == [[0], [1]]


def test_builtin_template_is_its_custom_document():
    templates = Path(k3scan.__file__).parent / "templates"
    for name in sieve_presets():
        path = str(templates / f"{name}.json")
        builtin = report("classify", "--template", name)
        custom = report("classify", "--custom", path)
        assert (builtin.pop("template"), custom.pop("template")) == (name, path)
        assert builtin == custom, name
        builtin = invoke("classify", "--template", name, "--format", "text")[1].split("\n", 1)
        custom = invoke("classify", "--custom", path, "--format", "text")[1].split("\n", 1)
        assert (builtin[0], custom[0]) == (f"classify report for {name}", f"classify report for {path}")
        assert builtin[1] == custom[1], name


def test_template_command_builds_one_template(monkeypatch):
    import k3scan.classify

    built = []
    real = k3scan.classify.template_from_dict
    monkeypatch.setattr(k3scan.classify, "template_from_dict", lambda doc: built.append(doc) or real(doc))
    assert report("classify", "--template", "S5")["template"] == "S5"
    assert [doc["size"] for doc in built] == [4]


# Documents that json.load refuses with something other than a JSONDecodeError:
# nesting past the recursion limit, and an integer of more than 4,300 digits.
UNPARSEABLE_JSON = ("[" * 100_000 + "]" * 100_000, '{"rank": ' + "9" * 5000 + "}")


def test_exit_code_usage_errors(tmp_path):
    assert invoke("series", "--preset", "S1", "--max-square", "0")[0] == 1
    assert invoke("curves")[0] == 1
    assert invoke("curves", "--preset", "S9") == (
        1, "error: unknown preset 'S9'; choose from L24, L25, L27, S1, S113, S114, S2, S3, S4, S5, S6\n"
    )
    assert invoke("classify")[0] == 1
    assert invoke("curves", "--preset", "L25")[0] == 1  # no seed on reference lattices
    assert invoke("series", "--preset", "S1", "--jobs", "2")[0] == 1  # classify only
    code, text = invoke("classify", "--template", "S5", "--jobs", "0")
    assert code == 1 and text.startswith("error: ") and text.count("\n") == 1, text
    for kmax in ("0", "-1"):
        code, text = invoke("curves", "--preset", "S1", "--kmax", kmax)
        assert code == 1 and "--kmax" in text
    for argv, why in (
        (("curves", "--preset", "S1", "--file", str(tmp_path / "S1.json")), "give either --preset or --file"),
        (("classify", "--custom", str(tmp_path / "missing.json")), "cannot read"),
    ):
        code, text = invoke(*argv)
        assert code == 1 and text.startswith("error: " + why) and text.count("\n") == 1, text

    # A template name is looked up among the shipped files, never joined into a path.
    for name in ("NOPE", "../errata", "S2.json"):
        code, text = invoke("classify", "--template", name)
        assert code == 1 and text.startswith("error: unknown template") and text.count("\n") == 1, text

    # Malformed --custom templates are refused at the boundary, not by a traceback.
    good = {
        "size": 2, "entries": [["-2", "a"], ["a", "-2"]],
        "domains": {"a": [0, 1]}, "target_rank": 1,
    }
    path = tmp_path / "template.json"
    for change, why in (
        ({"parameters": ["a", "a"]}, "duplicate parameter"),
        ({"domains": {"a": [0]}}, "[lo, hi]"),
        ({"domains": [[0, 1]]}, "[lo, hi]"),
        ({"size": 0, "entries": []}, "size must be at least 1"),
        ({"target_rank": -1}, "target_rank must be non-negative"),
        # A string used to be split into one-letter parameter names.
        ({"parameters": "ab", "domains": {"a": [0, 1], "b": [0, 1]}}, "list of names"),
        ({"parameters": [1, 2]}, "list of names"),
        # A string used to be read character by character, and [3] to raise a TypeError.
        ({"normalize": "a<=1"}, "normalize must be a list of constraint strings"),
        ({"normalize": [3]}, "normalize must be a list of constraint strings"),
        # A domain of no listed parameter used to be dropped without a word.
        ({"parameters": ["a"], "domains": {"a": [0, 1], "b": [0, 1]}}, "not listed: ['b']"),
        # A string row used to be read character by character, as the cells a and b.
        ({"entries": [["-2", "a"], "ab"]}, "entries must be a list of rows"),
        ({"entries": [["-2", "a"], ["a"]]}, "entries must form a square matrix"),
        ({"entries": [["-2", ""], ["", "-2"]]}, "empty expression"),
    ):
        path.write_text(json.dumps({**good, **change}))
        code, text = invoke("classify", "--custom", str(path))
        assert code == 1 and text.startswith("error:") and why in text, (change, text)
        assert text.count("\n") == 1, (change, text)
    # Python's own text used to leak through: "list indices must be integers or
    # slices, not str" for an array, and "'a'" for a listed parameter with no domain.
    for doc, line in (
        ([good], "error: bad template document: the top level is not a JSON object\n"),
        ("S2", "error: bad template document: the top level is not a JSON object\n"),
        ({k: v for k, v in good.items() if k != "target_rank"},
         "error: bad template document: missing required key 'target_rank'\n"),
        ({k: v for k, v in good.items() if k != "size"},
         "error: bad template document: missing required key 'size'\n"),
        ({**good, "parameters": ["a", "b"]}, "error: listed parameters have no domain: ['b']\n"),
    ):
        path.write_text(json.dumps(doc))
        assert invoke("classify", "--custom", str(path)) == (1, line), doc
    # An empty domain is no error: the search has nothing to visit.
    path.write_text(json.dumps({**good, "domains": {"a": [1, 0]}}))
    assert report("classify", "--custom", str(path))["solutions"] == []
    # A document that is not UTF-8 used to end in a UnicodeDecodeError traceback.
    path.write_bytes(b"\xff\xfe" + json.dumps(good).encode("utf-16-le"))
    code, text = invoke("classify", "--custom", str(path))
    assert code == 1 and text.startswith("error: cannot parse") and text.count("\n") == 1, text
    # A document nested too deep used to end in a RecursionError traceback, and
    # an integer literal past Python's 4,300-digit limit in a bare ValueError.
    for doc in UNPARSEABLE_JSON:
        path.write_text(doc)
        code, text = invoke("classify", "--custom", str(path))
        assert code == 1 and text.startswith("error: cannot parse") and text.count("\n") == 1, text


def test_exit_code_invalid_lattice(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code, text = invoke("curves", "--file", str(bad))
    assert code == 2 and "parse" in text
    # A document that is not UTF-8 used to end in a UnicodeDecodeError traceback.
    bad.write_bytes(b"\xff\xfe" + '{"rank": 1, "gram": [[2]]}'.encode("utf-16-le"))
    code, text = invoke("disc", "--file", str(bad))
    assert code == 2 and text.startswith("error: cannot parse") and text.count("\n") == 1, text
    for doc in UNPARSEABLE_JSON:
        bad.write_text(doc)
        code, text = invoke("disc", "--file", str(bad))
        assert code == 2 and text.startswith("error: cannot parse") and text.count("\n") == 1, text

    code, text = invoke("curves", "--file", str(tmp_path / "missing.json"))
    assert code == 2 and text.startswith("error: cannot read") and text.count("\n") == 1, text
    # Python's own text used to leak through for these: "list indices must be
    # integers or slices, not str" for an array, and "'rank'" for a missing key.
    not_object = "error: bad lattice document: the top level is not a JSON object\n"
    for doc, line in (
        ([{"rank": 1, "gram": [[2]]}], not_object),
        (7, not_object),
        ({"gram": [[2]]}, "error: bad lattice document: missing required key 'rank'\n"),
        ({"rank": 1}, "error: bad lattice document: missing required key 'gram'\n"),
    ):
        bad.write_text(json.dumps(doc))
        for command in ("curves", "disc"):
            assert invoke(command, "--file", str(bad)) == (2, line), doc
    bad.write_text(json.dumps({"rank": 3, "gram": [[2, 1], [1, -2]]}))
    code, text = invoke("disc", "--file", str(bad))
    assert code == 2 and text == "error: rank does not match the Gram matrix size\n", text

    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"rank": 2, "gram": [[1, 0], [0, -2]], "ample": [1, 0]}))
    assert invoke("curves", "--file", str(odd))[0] == 2

    doc = {"rank": 3, "gram": [[-2, 4, 0], [4, -2, 2], [0, 2, -2]]}
    for ample, why in (([1, 0], "length"), ([0, 0, 1], "positive square")):
        path = tmp_path / "ample.json"
        path.write_text(json.dumps({**doc, "ample": ample}))
        code, text = invoke("curves", "--file", str(path))
        assert code == 2 and why in text, text
    # An ample that is not a list used to print Python's "'int' object is not
    # iterable", and an object was read key by key ("expected an integer, got 'a'").
    for ample, shown in (
        (5, "5"), (1.5, "1.5"), (True, "True"), ("1 0 0", "'1 0 0'"), ({"a": 1}, "{'a': 1}"),
    ):
        path.write_text(json.dumps({**doc, "ample": ample}))
        line = f"error: bad lattice document: ample must be a list of integers, got {shown}\n"
        assert invoke("curves", "--file", str(path)) == (2, line), ample

    # JSON numbers must be ints: no truncation, no bools or strings, no overflow.
    s113 = '"gram": [[-2, 4, 0], [4, -2, 2], [0, 2, -2]]'
    for body in (
        '"rank": 2, "gram": [[2.5, 1], [1, -2]]',
        f'"rank": 3, {s113}, "ample": [1.9, -1, -1]',
        f'"rank": 3, {s113}, "ample": [true, -1, -1]',
        f'"rank": 3, {s113}, "ample": ["1", "-1", "-1"]',
        f'"rank": 1e400, {s113}',
    ):
        path = tmp_path / "number.json"
        path.write_text("{" + body + "}")
        code, text = invoke("curves", "--file", str(path))
        assert code == 2 and "expected an integer" in text, (body, text)

    # A gram that is not a list of rows used to print Python's "'int' object
    # is not iterable"; the message names the field, and a bad entry still
    # names the entry.
    for gram, line in (
        (5, "error: gram must be a list of rows of integers\n"),
        ([3, [1, 2]], "error: gram must be a list of rows of integers\n"),
        ([[2.5, 1], [1, -2]], "error: expected an integer, got 2.5\n"),
    ):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"rank": 3 if gram == 5 else 2, "gram": gram}))
        assert invoke("disc", "--file", str(path)) == (2, line)

    # Labels used to be read character by character ("LAB" printed as L, A, B)
    # and other entries coerced with str().
    for labels, why in (
        ("LAB", "labels must be a list of strings"),
        (["L", 1, "B"], "labels must be a list of strings"),
        (["a"], "wrong number of basis labels"),
    ):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({**doc, "labels": labels}))
        code, text = invoke("disc", "--file", str(path))
        assert code == 2 and text.startswith("error: ") and text.count("\n") == 1, text
        assert why in text, text

    template = (
        '{"size": 2, "entries": [["-2", "a"], ["a", "-2"]], '
        '"domains": {"a": [0, %s]}, "target_rank": 1}'
    )
    for hi in ("1e400", "2.7", "true"):
        path = tmp_path / "template.json"
        path.write_text(template % hi)
        code, text = invoke("classify", "--custom", str(path))
        assert code == 1 and "expected an integer" in text, (hi, text)
    # An entry cell of JSON true used to be read as the constant 1.
    path.write_text(
        '{"size": 2, "entries": [[-2, true], [true, -2]], '
        '"domains": {"a": [0, 1]}, "target_rank": 1}'
    )
    code, text = invoke("classify", "--custom", str(path))
    assert code == 1 and "expected an integer" in text, text


def test_exit_code_incomplete_sieve():
    code, text = invoke("curves", "--preset", "S6", "--kmax", "2")
    assert code == 3


def test_exit_code_noncompact(tmp_path):
    doc = {
        "rank": 3,
        "gram": [[-2, 4, 0], [4, -2, 2], [0, 2, -2]],
        "ample": [1, 1, 0],
    }
    path = tmp_path / "s114.json"
    path.write_text(json.dumps(doc))
    code, _ = invoke("curves", "--file", str(path), "--kmax", "6")
    assert code == 4

    # At rank 5 and more every indefinite form has an isotropic vector, so no
    # chamber is compact: each sieve command ends in one error line.
    for diag, seed in (([6, -2, -2, -2, -4], [3, 1, 1, 1, 1]),
                       ([6, -2, -2, -2, -4, -6], [3, 1, 1, 1, 1, 1])):
        n = len(diag)
        gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        path.write_text(json.dumps({"rank": n, "gram": gram, "ample": seed}))
        for command in ("curves", "chamber", "series"):
            code, text = invoke(command, "--file", str(path))
            assert code in (3, 4, 5), (n, command, code)
            assert text.startswith("error: ") and text.count("\n") == 1, (n, command, text)


def _boom(*args, **kwargs):
    raise AssertionError("the refused work was started")


def test_exit_code_cost_limit_chamber(presets, monkeypatch):
    # L27's 8 curves in rank 4 give C(8, 3) = 56 subsets: a limit of 56 admits them.
    l27 = presets["L27"]
    with monkeypatch.context() as patch:
        patch.setattr(k3scan.cone, "MAX_CURVE_SUBSETS", 56)
        assert len(k3scan.cone.vinberg_sieve(l27.lattice, l27.ample, 10).curves) == 8
        patch.setattr(k3scan.cone, "MAX_CURVE_SUBSETS", 55)
        with pytest.raises(CostLimitError, match="give 56 subsets .*, more than 55$"):
            k3scan.cone.vinberg_sieve(l27.lattice, l27.ample, 10)
    # 700 copies of one curve on rank 3: C(700, 2) = 244,650 subsets to try,
    # refused before `_lines` takes its first determinant.
    s1 = presets["S1"]
    curve = (0, 1, 0)
    monkeypatch.setattr(k3scan.linalg, "det", _boom)
    with pytest.raises(CostLimitError, match="244650 subsets .*, more than 200000$"):
        _chamber(s1.lattice, s1.ample, (curve,) * 700, 10)
    monkeypatch.setattr(
        k3scan.cone, "vinberg_sieve", lambda lat, h, kmax: _chamber(lat, h, (curve,) * 700, kmax)
    )
    code, text = invoke("chamber", "--preset", "S1")
    assert code == 5 and text.startswith("error: ") and text.count("\n") == 1, text


def test_one_chamber_per_command(monkeypatch):
    # The sieve returns the chamber that certifies its curves, and tests for
    # closure only once a degree leaves rho curves or more; no command
    # computes a chamber twice.
    calls = []

    def counting(*args):
        calls.append(args)
        return _chamber(*args)

    monkeypatch.setattr(k3scan.cone, "_chamber", counting)
    for name in sieve_presets():
        for argv in (
            ("curves", "--preset", name),
            ("chamber", "--preset", name),
            ("series", "--preset", name, "--max-square", "20"),
        ):
            calls.clear()
            code, text = invoke(*argv)
            assert code == 0, text
            assert len(calls) == 1, argv


def test_huge_kmax_stops_where_the_chamber_closes():
    # --kmax only caps inputs that never close; a cap far past the closure costs nothing.
    default = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "curves", "--preset", "S1"],
        capture_output=True, env=CHILD_ENV, timeout=30,
    )
    huge = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "curves", "--preset", "S1", "--kmax", "100000000"],
        capture_output=True, env=CHILD_ENV, timeout=30,
    )
    assert default.returncode == huge.returncode == 0, huge.stderr
    assert huge.stdout == default.stdout and huge.stderr == b""


def test_exit_code_cost_limit_series():
    # The passes to square 10^8 would count far more classes than any table
    # needs (L27 to square 800 counts 106,302); the series stops once the
    # classes it counts, every class of each orbit, pass MAX_SERIES_CLASSES =
    # 200,000, at degree 63, though the kernel builds about 1/|G| of them.
    out = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "series", "--preset", "L27", "--max-square", "100000000"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert out.returncode == 5 and out.stdout == ""
    assert out.stderr == "error: more than 200000 classes built by degree 63\n", out.stderr


def test_exit_code_cost_limit_disc(tmp_path, monkeypatch):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[2 * 10**8]]}))
    out = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "disc", "--file", str(path)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert out.returncode == 5 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert "200000000" in out.stderr and "Traceback" not in out.stderr
    assert "more than 2000000 elements" in out.stderr
    monkeypatch.setattr(k3scan.lattice.DiscriminantGroup, "elements", _boom)
    monkeypatch.setattr(k3scan.lattice.DiscriminantGroup, "_scaled_norm", _boom)
    assert invoke("disc", "--file", str(path))[0] == 5
    # |A| = 2 * 4000006 = 8,000,012 is refused before a single form evaluation.
    gram = [[2, 0], [0, -4000006]]
    path.write_text(json.dumps({"rank": 2, "gram": gram}))
    dg = k3scan.lattice.discriminant_group(k3scan.lattice.GramLattice(2, gram))
    with pytest.raises(CostLimitError, match="order 8000012, more than 2000000 "):
        k3scan.lattice.isotropic_elements(dg)
    code, text = invoke("disc", "--file", str(path))
    assert code == 5 and text.startswith("error: ") and text.count("\n") == 1, text


def test_exit_code_cost_limit_classify(tmp_path, monkeypatch):
    # Both searches used to run on without bound: all their assignments are solutions.
    # The 2x2 has 10^18 of them; S5 at target rank 3 over s in [-10^6, 10^6],
    # where its 4x4 determinant vanishes identically, has 2,000,001.
    s5 = json.loads(Path(builtin_template("S5")).read_text())
    for doc in (
        {"size": 2, "entries": [["-2", "a"], ["a", "b"]],
         "domains": {"a": [0, 10**9], "b": [0, 10**9]}, "target_rank": 2},
        {"size": 4, "entries": s5["entries"], "domains": {"s": [-10**6, 10**6]}, "target_rank": 3},
    ):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, text = invoke("classify", "--custom", str(path))
        assert code == 5 and text.count("\n") == 1, text
        assert text.startswith("error: the search found more than 1000 solutions"), text
    # The 40x40 zero template at target rank 10 has C(40, 11) + C(40, 12)
    # principal minors to test; listing them used to run for hours.
    path.write_text(json.dumps(
        {"size": 40, "entries": [[0] * 40] * 40, "domains": {"a": [0, 1]}, "target_rank": 10}
    ))
    monkeypatch.setattr(itertools, "combinations", _boom)
    assert invoke("classify", "--custom", str(path)) == (
        5, "error: the template has 7898654920 principal minors of order 11 and 12 "
        "to test, more than 20000\n"
    )


def test_wide_s5_search_is_answered(tmp_path):
    # S5's entries over s in [-10^6, 10^6] at target rank 2 used to stop at
    # the 100,000-node limit with exit 5; the search solves for s instead.
    s5 = json.loads(Path(builtin_template("S5")).read_text())
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"size": 4, "entries": s5["entries"], "domains": {"s": [-10**6, 10**6]}, "target_rank": 2}
    ))
    out = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "classify", "--custom", str(path)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    solutions = json.loads(out.stdout)["solutions"]
    assert [(s["values"], s["rank"]) for s in solutions] == [([-2], 2), ([3], 2)]


def test_exit_code_cost_limit_template_parameters(tmp_path):
    # 1,000 parameters used to end in a RecursionError traceback with exit 1.
    path = tmp_path / "many.json"
    domains = {f"p{i}": [0, 0] for i in range(1000)}
    path.write_text(json.dumps({"size": 1, "entries": [["-2"]], "domains": domains, "target_rank": 1}))
    out = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "classify", "--custom", str(path)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert (out.returncode, out.stdout) == (5, "")
    assert out.stderr == "error: the template has 1000 parameters, more than 500\n", out.stderr


# sha256 of `disc --file big.json --format F` for <2> + <-999998>, whose group
# 2^2 * 31 * 127^2 of order 1,999,996 has 63 isotropic elements up to sign.
# Recorded from the whole-group scan, just under its cost limit.
BIG_DISC_DIGESTS = {
    "json": "7e28021b392c0d664ef720a99145f6c1db1f760251ef324062096016e4859d03",
    "text": "03acfdd7b1fd411e42c49a197084529570722793986f66926b661e4dc9198556",
}


def test_disc_bytes_pinned_large_group(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names its input file
    Path("big.json").write_text('{"rank": 2, "gram": [[2, 0], [0, -999998]]}')
    for fmt, digest in BIG_DISC_DIGESTS.items():
        code, text = invoke("disc", "--file", "big.json", "--format", fmt)
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


def test_deterministic_bytes_across_runs():
    for argv in (
        ("curves", "--preset", "L24"),
        ("chamber", "--preset", "S4"),
        ("series", "--preset", "S5", "--max-square", "20"),
        ("disc", "--preset", "S113"),
    ):
        _, a = invoke(*argv)
        _, b = invoke(*argv)
        assert a == b


def test_bytes_do_not_depend_on_the_hash_seed():
    # str hashes, and so the order of a set of str, change with PYTHONHASHSEED;
    # one process cannot vary it, so each seed gets its own child.
    for argv in (
        ("classify", "--template", "L27"),
        ("classify", "--template", "S2"),
        ("series", "--preset", "L27", "--max-square", "100"),
        ("disc", "--preset", "L25"),
    ):
        outputs = set()
        for seed in ("0", "1", "12345"):
            out = subprocess.run(
                [sys.executable, "-m", "k3scan.cli", *argv],
                capture_output=True, env={**CHILD_ENV, "PYTHONHASHSEED": seed}, timeout=60,
            )
            assert out.returncode == 0 and out.stderr == b"", (argv, seed, out.stderr)
            outputs.add(out.stdout)
        assert len(outputs) == 1, argv


# sha256 of the stdout of `disc --preset P --format F` (`main` writes the text
# of `run` unchanged).  Recorded from the whole-group Fraction scan that read
# q from the rational lifts, so they pin every byte across the integer form.
DISC_DIGESTS = {
    ("S1", "json"): "49ccb47ca1e7932b7eb998db9b969ece15b6d987f520d85e04963e2f353f8b1b",
    ("S1", "text"): "b54fe61cad218092c08ce22a9e9a39d67ed1858bd75e94ee82a0fb485b9cd6b9",
    ("S2", "json"): "0cf63bd3f570dca166d271c292cffa3347f6556167b62a3fa9f0b1451ab65a3e",
    ("S2", "text"): "707a149f92a0be654e2807f59b07fc74675fb181b725ec75e5e4869fcf2c7cf3",
    ("S3", "json"): "d2748e55aff0875d6b915978ab554c82d845a5f796b15f3f861bbd910f61d7d2",
    ("S3", "text"): "67928230b0f6a984453bd91113c528bde077b69facb58df2dd052f10015febd6",
    ("S4", "json"): "bc27da6da5994a754b434b2923007663f215c189f8d8e80582e03322770a8aa2",
    ("S4", "text"): "57ca2b962df2aa3cbb88d577e25db91e1093fc1b38dda36ce711ab872f8450f8",
    ("S5", "json"): "715dcb1843b9e1e8811c405cd9e12d22f3f967476ba5f0aa2a36e486a5e089a8",
    ("S5", "text"): "fd42cd41c53ac150edaea7070f30bc7f5759c0f199408cbf854a69d01f8f53e5",
    ("S6", "json"): "bf1d3d48fc04a332d148813819f8e20d548f306d9d1e4a36a281f680898ba8af",
    ("S6", "text"): "d873bc1e2560a308a1abb2850ebfb352002abe46cf0bad5dba8c0ba4147efec2",
    ("L24", "json"): "84cf8bfa937b3cc31cf7e8ac9899e232379a6264083849013b66465d49ab3c0d",
    ("L24", "text"): "0beef35612ab879246886acde291a9025ec0916c57b7032423f47802f4b42120",
    ("L27", "json"): "560e928d8262b50f80531d8b8d6918b3a8f2bdd0b663127231effad82afbaff8",
    ("L27", "text"): "021d947050f48e6e304070de7b19d38d6959a0f13cf801ed2b212945aec38245",
    ("L25", "json"): "60b1ecbfa2bbd1a09eac30d6ae7ca8417c86422076fae04f621d23a7e133145f",
    ("L25", "text"): "15cadbacf1a0d49c7e7724f07fac422eec24b95e355b8ba3233794d8157b7cc2",
    ("S113", "json"): "97512bce748d3b563b587a7ccd580a932352a2d020989046c2476ba43a30af32",
    ("S113", "text"): "393e24e775e4360c4c02747f8a0e84d04f3121fa19cedcb9f28663c60b8dad82",
    ("S114", "json"): "43dbe4ed9dfcf221ca7ca417b11ffd5a79b0459781ab5139e1fa896b92a298a6",
    ("S114", "text"): "b57b1c48a5eeaf7d4fa4f07e58761008e4d49198f5fe2ab45b70c15a5bdc9419",
}


# sha256 of the json and text reports of `disc --file latN.json` for the
# lattices of MANY_ISOTROPIC_GRAMS, recorded while the overlattice was
# saturated by a general integer echelon routine.
FILE_DISC_DIGESTS = (
    (
        "5d39f4f1f43756f4bc631cd03184de3c79d5766742aadd1fd96979e8fc6d0da6",
        "6bd3dfd247b3c51322302301f5bcfbcb000f18f80dc7159a5586dfddc4284e50",
    ),
    (
        "f3da5351dc861e763f627b623ef264c9cfef260db81053702ba26b2f66d109e1",
        "6b0d0bdbcf04a885a38a5429d4eb890e95459624f6f85095d1ae26ef16eb8a04",
    ),
    (
        "1c83783366001b9cc6054ac0191832a73567be02eae49c4cfc3a25c45333de40",
        "abe5d1f1e6b3bddf935e7c24665d44c5d67348ec4cc4b367c4984a29fc604bef",
    ),
)


def test_disc_bytes_pinned(presets, tmp_path, monkeypatch):
    assert {name for name, _ in DISC_DIGESTS} == set(presets)
    for (name, fmt), digest in DISC_DIGESTS.items():
        code, text = invoke("disc", "--preset", name, "--format", fmt)
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, fmt)
    monkeypatch.chdir(tmp_path)  # the report names its input file
    for k, (gram, digests) in enumerate(zip(MANY_ISOTROPIC_GRAMS, FILE_DISC_DIGESTS)):
        name = f"lat{k}.json"
        Path(name).write_text(json.dumps({"rank": len(gram), "gram": gram}))
        for fmt, digest in zip(("json", "text"), digests):
            code, text = invoke("disc", "--file", name, "--format", fmt)
            assert code == 0, text
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, fmt)


# The argv of each pinned command, before `--preset P` (classify: `--template P`)
# and `--format F`.
PINNED_COMMANDS = {
    "curves": ("curves",),
    "chamber": ("chamber",),
    "theta": ("series", "--kind", "theta", "--max-square", "100"),
    "xi": ("series", "--kind", "xi", "--max-square", "100"),
    "classify": ("classify",),
}
# sha256 of their stdout on every sieve preset and built-in search, recorded
# while the package still imported every module eagerly and identify_type
# lived in classify, so they pin every byte across that move.
OUTPUT_DIGESTS = {
    ("curves", "S1", "json"): "0168a10e72d5623ca9a252e06b0b361e63666c01abbe2cc2566f874742ad4f63",
    ("curves", "S1", "text"): "64c748a95e967498f327014ddc7bbbcf89b149b3c4978f6769db986a9569e7df",
    ("curves", "S2", "json"): "78bbdff90819a6c4e6ea11882e21d792abb2a719cb11ab27737404e969f992bb",
    ("curves", "S2", "text"): "40961c8d9da67fb4aaab035e2baf8d64dc51d28f2690df02e61d2002899d96d5",
    ("curves", "S3", "json"): "e5775c481b500802276ed978357c76c921565a57194c1a1c3450490928274979",
    ("curves", "S3", "text"): "a8611f6bd99de91be775090e12a11972838e6290e5b8f40ea9dceb2667032bf6",
    ("curves", "S4", "json"): "565c6ccc93c7d472d45c7918242addf5ec5c457d3e9539492c4fefec7e81a37e",
    ("curves", "S4", "text"): "7e24283079cb721369fafc9bb2abbb82440d98d0786a55d8326b15c354163b1d",
    ("curves", "S5", "json"): "38ef31ef72627f031538de56f10cd3a8b29e67e4f9a09800fbfa2b7e0c4c8290",
    ("curves", "S5", "text"): "c983ea81e7bb396dd848ab8100188ce9fdd8551e8d9f11d315dd717c94810d7f",
    ("curves", "S6", "json"): "e5599bf8896515fbc6936e96f7520ef011ae593a3837369d2757264f2b5b3007",
    ("curves", "S6", "text"): "aea79e0ceef04839881672586f5c41e03d97543ad8b52e38c771b5fdcc248da3",
    ("curves", "L24", "json"): "22ed01dc549b8644d0a4f2ba16c550183b6ebf328991ec74ab5899435e0da145",
    ("curves", "L24", "text"): "3c66821b56bae580a02e9cb55aaa4fb7ffdc46031540e03b9da933f1c05d546a",
    ("curves", "L27", "json"): "d71a6295e9d56abfa5cea19d062b6e5384f8a3bc1544f5dc1e77de20e6456dca",
    ("curves", "L27", "text"): "281fe3ca202f7bee39e264be9ab0db27d9e0f3a395ff244f0128112f2f7903ee",
    ("chamber", "S1", "json"): "039c1a3476a541eca2a19f73f108236f2f06023481547163f6e93ac228748a00",
    ("chamber", "S1", "text"): "4dc27567657290d6b1449fa1f1dad9043cac2825b11bd85b83181137bef43e27",
    ("chamber", "S2", "json"): "b3edda85651cbc96b67136a125921938cd3999ca0edd49854ad85142e1c5e9cd",
    ("chamber", "S2", "text"): "e486b0abf3140b61a595ea0e3d7f38b8afd70f19e8ccb853f0d71aa386ccc1c8",
    ("chamber", "S3", "json"): "35502f4811f2eb23004833abe8e061acb5f09d7f5921e53d1dbaa4c34e659497",
    ("chamber", "S3", "text"): "0750214b5917cca80777d5db813cce74836a7e846b1c93ff47e4e2f1d6a21a44",
    ("chamber", "S4", "json"): "6f12098c236c1282a94e02a198afc4bc1986b77e1ad627f207b7347346c374f6",
    ("chamber", "S4", "text"): "49e5ed771e89885d6534d49c6b60d77afb652964ee33f0d3fbd2272dfe9abcf0",
    ("chamber", "S5", "json"): "9b1bc616eb23b0dcef203aed07af9b1aa6f710e12263baae2505933cfc949cae",
    ("chamber", "S5", "text"): "d96c5b8885739e7e7cd75a2316b373bb72847632ca09cc511b36543094b18e07",
    ("chamber", "S6", "json"): "481e7cad03d0ac6a5451703bd0371867618ea4b518c7033ad411f119958c6ff9",
    ("chamber", "S6", "text"): "efb54ad3c636e4814db155902e87fa5018534f0fd3733108386eb56ec8f025a6",
    ("chamber", "L24", "json"): "8b70ec9697c82310eb0582ce9a923a575a06fba94e5fc3c74bafb69336c81fb9",
    ("chamber", "L24", "text"): "a4b6d17ce325652e1e81182d7017107c3e343dc40e238cfb6d04a8cb5709e0a9",
    ("chamber", "L27", "json"): "ae754984fefd0a45dbd07195500723efa2b148e08025bac751c13cf4dd431b53",
    ("chamber", "L27", "text"): "c1f771add1951daabc8624bf3d7a4d0f2abb112264d62d45fe6bfe842fb08f29",
    ("theta", "S1", "json"): "5f9477383990359db0f17d9a33a5baa0669e8a4ed92cc09682e2843ecfe9a137",
    ("theta", "S1", "text"): "a083d552e9bf1be59b1016169d553698912dbaa3eaee136149e2d8cdc2bfa09b",
    ("theta", "S2", "json"): "850b0afd1296eccf4e362eddb5348edfc6f791d75ab63f3151f083bd802a22bf",
    ("theta", "S2", "text"): "db6cd986e0fbc5fedae1dedb42fba3c0ccf7639b8250e6ccb7acfb4808cc2d0d",
    ("theta", "S3", "json"): "aa87b9130ddbda3081102f56ff05d381e0263a15686d0443460ca09bdece3ac9",
    ("theta", "S3", "text"): "1a7f411f1f698c2fe0e4b4cbe5b514993e80566f2b195dc4ab51abac4cabda4f",
    ("theta", "S4", "json"): "7c14e69deb4cf44b3d30dd5ac7d21d87679b03bb6bd56c4a5f724a290c308cf5",
    ("theta", "S4", "text"): "b1d15a9ac1dda5eb375714e46210007ae735f64966fe729eb03b8625e1d4ac0f",
    ("theta", "S5", "json"): "c15b4968eb574aa2170c96a74e3991aaf33f25ddc6d1ce57148a7e13888b3b40",
    ("theta", "S5", "text"): "02e7d81b38f6009c4206c947c993ec6fbd49ae6bcd4aaed1b84ab2f702aa4488",
    ("theta", "S6", "json"): "9ea514b58aae976821e97c79c05b171d562160096093368b2e0fa8ddb8c54074",
    ("theta", "S6", "text"): "b4cabefb6b3c3f1b8a0a801b28747f8e69865e0ac3ffb53f210f834221bccd5f",
    ("theta", "L24", "json"): "709cb12ab3f970b1e9b42a36a25509bf1dffaedf0bdfc1925deeac8660825f1a",
    ("theta", "L24", "text"): "066eb872449e716fa2cbcf3a1c24c0d793400fce2374d23499bd803f91ea8231",
    ("theta", "L27", "json"): "4e11880005f84f90cab05c3935d686040b86be77dc9fceb74759c75e7f61d7c8",
    ("theta", "L27", "text"): "15e646a0ee16257c356d8110dddb111217cda3def4ca30cda69cb38ff0d5f892",
    ("xi", "S1", "json"): "a26f41d8109daa118dbd09305173582fe5a1287772f7c2e484ef3d32278c6a65",
    ("xi", "S1", "text"): "8fffea79f4e6f7b467680c054944635eea5b5099efa7b8eeea702c2fb11ec8e1",
    ("xi", "S2", "json"): "7f8a1d8896f70a9aab79c10c166fa24efb8fae4d82ed5e529cdeef8b38396ba2",
    ("xi", "S2", "text"): "1c69a7b01a9203c75729e8a0e92e5194063a0d0ca8e6e9c5ccbdab2b5730eb3b",
    ("xi", "S3", "json"): "c66dc70829923e3792eee34f3cb86de15292689b3411ed5f5de045082988d28c",
    ("xi", "S3", "text"): "c77f0ad31f590e8a7e1dbafa086efab0aabaf4760f4f98fbe64d9ae84f174d66",
    ("xi", "S4", "json"): "3f34d801ca9b766205d837df6d9b8c6410b8d82641d94f66a73888adef9ebbe9",
    ("xi", "S4", "text"): "3f4107adfd26f67414451b3256e8c6bf29d831b179ac764380694b8e6a820d0e",
    ("xi", "S5", "json"): "33e5b8f2c05c176364a659b7a7da6721081c49314757a21e90a78143b0aa5117",
    ("xi", "S5", "text"): "29d7d5ab9f52be05603a42b64f899e70294e3d71ecb857dccdc574fd17d20756",
    ("xi", "S6", "json"): "67a7797a80469d7735147cc9d4878f321ecb2a89551e92c1a0d3a0a64a4d9c7f",
    ("xi", "S6", "text"): "51ce879d71fc95df9eab80b7d7201fc792eb1dde7aec8bfd091f4304b2f4f0a7",
    ("xi", "L24", "json"): "0e7bcbf128579fd2911ef5dc3d2483067687732db24a2c2ed332da28aee711f6",
    ("xi", "L24", "text"): "c0280358a78d961ddc0e0caed42d83ca091ce03cc71f2a1d09138ff89102d56a",
    ("xi", "L27", "json"): "ae6a4cca0484605bd67031873bbeb9abf01f2e7a313fe5f681b8015f4abb03da",
    ("xi", "L27", "text"): "39e1dd8e703a0a44a3c82473543981d39b3d4bb0db7b4b1e1d467b972d5171f6",
    ("classify", "S1", "json"): "65a679145296c31f58f09b8f248674eebfe6c87a28d9ef4564b25dd51bac767a",
    ("classify", "S1", "text"): "a16cceec699cb223272e2787f86f77759599b206c3ff1437c597c91ce04f4b62",
    ("classify", "S2", "json"): "5274376932da44584ee43ebda7c055755ad3f2c5f93e620e3ecea727f246227f",
    ("classify", "S2", "text"): "de2405459dc8b74f042804408d959c23e430e8ba81312d63adf3b2b8cc474ce0",
    ("classify", "S3", "json"): "337a57071a3d2f81bc71ffa70f590675d5d7ac563a5497128c621fedc413f161",
    ("classify", "S3", "text"): "02e0a7a0230c2866bf3f8a48ec7d47151a8c8eba889a071fde3c13958627e2f4",
    ("classify", "S4", "json"): "b7785057bd13eea17c38b3d848340d8a89d110336fb0827a2437c91a7e651341",
    ("classify", "S4", "text"): "74149bb133c41406e7b1166c194f56edfaaa611d5c7c7ee9c7871b4f2ff68546",
    ("classify", "S5", "json"): "e114387c81837bb9cb46060d6dae10181bb92c6543c3ec8ecb4b677bd4472215",
    ("classify", "S5", "text"): "fa0302e964b5275a5c0c0973377256c6786a7c12b5b4be5b1fb576777034767c",
    ("classify", "S6", "json"): "9de31f4c5de7f7f8746b07abed000fd6ca41dd98f5abe9823ac9404d8be7f99c",
    ("classify", "S6", "text"): "367dde24af65c094b622b998d063fc9905eb30c63ec7fb1ac4ad6c90b1b4b85b",
    ("classify", "L24", "json"): "b67b7d4710b2122cda90e9b2bfa905f50c9ceb1c292fc1d7e1dda2186a84389b",
    ("classify", "L24", "text"): "2d97e5368a849a25c727f3d19d914837a20bac0659c4cca18f562fa604a46617",
    ("classify", "L27", "json"): "2723418279adba1c66cd0b223fc63afe852e5883d6b68c92c2b9bb89d9117f99",
    ("classify", "L27", "text"): "3c1da73106c1552cc59f4d17f9b0736c706ccecdbf6265ed6a619ba527153220",
}


def test_other_commands_bytes_pinned():
    assert {name for _, name, _ in OUTPUT_DIGESTS} == set(sieve_presets()) == set(builtin_searches())
    for (command, name, fmt), digest in OUTPUT_DIGESTS.items():
        source = "--template" if command == "classify" else "--preset"
        code, text = invoke(*PINNED_COMMANDS[command], source, name, "--format", fmt)
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (command, name, fmt)


# sha256 of `series --kind theta|xi --max-square 200` on every sieve preset,
# recorded before the kernel took the curve walls: the widest windows the
# clipped enumeration runs over in the suite.
SQUARE_200_DIGESTS = {
    ("theta", "S1", "json"): "aa2ce958149201eb0405565b39b96328fe39fd4b71830211fb190638290bbe96",
    ("theta", "S1", "text"): "0e458fb07caec121990bb16b21b51ce312e7892afb374c049934a96cbf99ff5a",
    ("theta", "S2", "json"): "f30503836151553cbc6d3a27fe01d483c350771f4f6f72ceb69dbe9e4ad69cf2",
    ("theta", "S2", "text"): "5e58881f74d979fd24d01c6d56d04dc8e3ca31e49a6be89f7789ea2c39e4d7c6",
    ("theta", "S3", "json"): "f928ce3ac66019feb6fae2d2d0d3fa10224e8931d6524644ac3883b0f2df6b98",
    ("theta", "S3", "text"): "96e8d502ffb4c4718709a36d4d6ba5b620df1471cd3c1a9d21112ca83b441a9b",
    ("theta", "S4", "json"): "0caa8b27b8b6875e16c92057ad01977588488969403aade054930caf20afc810",
    ("theta", "S4", "text"): "b0d80f3a74834f3442e784e1abba377bf982c3aa1f7af12a1220be7910f84f20",
    ("theta", "S5", "json"): "5b97ab9ffe976770043aff9a6453e019293f855713150c9a03505dd5c0960167",
    ("theta", "S5", "text"): "ee7cadf5eedc1b08481c848387de1a736f0680974cc918d344eed6e3cdbfa92a",
    ("theta", "S6", "json"): "add29e6aa643f703aee3ebebf17876d5afe14621d1edce5688298e4bbc2e878d",
    ("theta", "S6", "text"): "92a5fa12afc373e2a3ce1c0395d0f00f0acb74ed92d6d2316ce75c3cd21763bd",
    ("theta", "L24", "json"): "29d81d03c4762b1ee9398d2012cd7b76b853cb22a45381a7277356eb10627fcc",
    ("theta", "L24", "text"): "d8e1240aab11baaa181eb4c5e36935550ec0200eefc9e5fa20611d0bb8d34f5a",
    ("theta", "L27", "json"): "d556932715f3fe6285bb7bdb3dd677aaa41074be8864cf0186722738f79ad064",
    ("theta", "L27", "text"): "aaa5cf350a3cd45d13fd6365263883d5b17107ea76bc2ef0216d696ca57cd130",
    ("xi", "S1", "json"): "715936525d0c019ccf77792925e1bbd67703dc5201a2c9a1534eb0baa0c4dfaf",
    ("xi", "S1", "text"): "8509d281eb15f158fa97604b9cb858a7565cba2246cd0b6526f77a026aef62b1",
    ("xi", "S2", "json"): "9973fed30636afa6d807c9b656b1a699db413199e20e2e4e9238a8e44b3898b6",
    ("xi", "S2", "text"): "d4f4bee3cf8c9ee7c14e4957e7447484f14ad154b8fb9ce6b14111ffc606f5dd",
    ("xi", "S3", "json"): "1e82153436094c71e0f532aae37f4daf439de24326e425e84a980b5d85db6896",
    ("xi", "S3", "text"): "1a7fdb6eb2772a875e3049553af76b001bcbb2b03f85ff2e5425f330f7281082",
    ("xi", "S4", "json"): "01f4b0fd058157b930323ae79390a0014014330af6d0d4e43d6ab9ce738a2944",
    ("xi", "S4", "text"): "05429c23f9100dfe40834d7d8fd8171b88f4c313a5eef4e6fbf30d27d9ff4f27",
    ("xi", "S5", "json"): "ca936f835ec9d2bb9e321309d24e3de64a3bb9bc2b3886142acb4c2706e471a7",
    ("xi", "S5", "text"): "749218ca166ce345ce9f6fab431ffba23fcd185fdd0b7aa44eb7d22dd4eecaf1",
    ("xi", "S6", "json"): "238881cc7415b1aee4313b681d380d5c0ffe694d8b6101ed399713865faf25b8",
    ("xi", "S6", "text"): "81e446465d7812d405befb0716513dbbf070c35227d013a8f108c7ca8c5826c6",
    ("xi", "L24", "json"): "ff7e0cf49e341821d8bf2238c5065ed414c2de75967484b7c0dc88561354b10f",
    ("xi", "L24", "text"): "22f9df5868ad4b0974fe588b1b08607ce369cbed88aa7fae9cdbb5f8c672c9e4",
    ("xi", "L27", "json"): "aaf020ce8ff8971c35c515643be9533251d52a2d0849bc4e318d25ae0f04836b",
    ("xi", "L27", "text"): "95f542e8ec17414c92236327e1f76b89cc66619a8d693cdc8f29724a44e016b8",
}


def test_series_square_200_bytes_pinned():
    assert {name for _, name, _ in SQUARE_200_DIGESTS} == set(sieve_presets())
    for (kind, name, fmt), digest in SQUARE_200_DIGESTS.items():
        code, text = invoke(
            "series", "--kind", kind, "--max-square", "200", "--preset", name, "--format", fmt
        )
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (kind, name, fmt)


def test_bytes_do_not_depend_on_the_kernel_order(presets, tmp_path, monkeypatch):
    # The kernel returns each degree's classes unsorted; every reader whose
    # output shows an order sorts them, so reordering them changes no byte.
    wall = tmp_path / "wall.json"
    s1 = presets["S1"].lattice
    wall.write_text(json.dumps({"rank": 3, "gram": s1.gram, "ample": [1, 0, 0]}))
    argvs = [("curves", "--file", str(wall))]
    for name in sieve_presets():
        argvs += [("curves", "--preset", name), ("chamber", "--preset", name)]
        argvs += [("series", "--preset", name, "--kind", kind, "--max-square", "100")
                  for kind in ("theta", "xi")]
    want = [invoke(*argv) for argv in argvs]
    assert want[0] == (2, "error: seed is orthogonal to the (-2)-class (0, 0, 1)\n")
    classes = DegreeCoset.classes
    rng = random.Random(23)
    for reorder in (lambda out: out[::-1], lambda out: rng.sample(out, len(out))):
        monkeypatch.setattr(
            DegreeCoset, "classes", lambda *args, **kwargs: reorder(classes(*args, **kwargs))
        )
        assert [invoke(*argv) for argv in argvs] == want


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", "series", "--preset", "S3",
         "--max-square", "12", "--format", "text"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert out.returncode == 0
    assert "T^4 + 4(T^6 + T^10 + T^12)" in out.stdout


def test_invariant_checks_survive_optimize_flag():
    argv = ["-m", "k3scan.cli", "series", "--preset", "S4", "--max-square", "40"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=CHILD_ENV)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=CHILD_ENV)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert optimized.stdout == plain.stdout


# Runs in a fresh interpreter: imports k3scan, then k3scan.cli, then one command,
# and prints the k3scan modules loaded after each step.
MODULES_SCRIPT = """
import contextlib, io, json, sys
pool_before = "multiprocessing" in sys.modules
# dataclasses imports inspect, which imports ast, dis and tokenize: ~10 ms cold.
slow_before = {m for m in ("dataclasses", "inspect") if m in sys.modules}
def loaded():
    return sorted(m for m in sys.modules if m == "k3scan" or m.startswith("k3scan."))
import k3scan
package = loaded()
import k3scan.cli
cli = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = k3scan.cli.main(sys.argv[1:])
print(json.dumps({
    "package": package, "cli": cli, "command": loaded(), "code": code,
    "pool": "multiprocessing" in sys.modules and not pool_before,
    "slow": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules and m not in slow_before),
}))
"""
CLI_MODULES = {"k3scan", "k3scan.cli", "k3scan.errors"}
CORE_MODULES = CLI_MODULES | {"k3scan.linalg", "k3scan.lattice", "k3scan.presets"}
COMMAND_MODULES = {
    ("disc", "--preset", "S2"): CORE_MODULES,
    ("series", "--preset", "S1", "--max-square", "12"): CORE_MODULES
    | {"k3scan.enumeration", "k3scan.cone", "k3scan.series"},
    ("classify", "--template", "S5"): CORE_MODULES | {"k3scan.classify"},
    ("classify", "--template", "S2", "--jobs", "2"): CORE_MODULES | {"k3scan.classify"},
}


def test_each_command_loads_only_its_modules():
    for argv, expected in COMMAND_MODULES.items():
        out = subprocess.run(
            [sys.executable, "-c", MODULES_SCRIPT, *argv], capture_output=True, text=True, env=CHILD_ENV
        )
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert got["code"] == 0, argv
        assert got["package"] == ["k3scan"], got["package"]
        assert got["cli"] == sorted(CLI_MODULES), got["cli"]
        assert got["command"] == sorted(expected), (argv, got["command"])
        assert not got["pool"], argv
        assert got["slow"] == [], (argv, got["slow"])
        if argv[0] == "disc":  # the template search stays out of disc
            assert "k3scan.classify" not in got["command"]


def test_text_format_all_commands():
    for argv in (
        ("curves", "--preset", "S1", "--format", "text"),
        ("chamber", "--preset", "L27", "--format", "text"),
        ("disc", "--preset", "L25", "--format", "text"),
        ("classify", "--template", "S5", "--format", "text"),
    ):
        code, text = invoke(*argv)
        assert code == 0 and text.endswith("\n")
