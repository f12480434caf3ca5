import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema

from conftest import load_package_json

import k3scan
from k3scan.cli import run

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


def test_exit_code_usage_errors():
    assert invoke("series", "--preset", "S1", "--max-square", "0")[0] == 1
    assert invoke("curves")[0] == 1
    assert invoke("curves", "--preset", "NOPE")[0] == 1
    assert invoke("classify")[0] == 1
    assert invoke("curves", "--preset", "L25")[0] == 1  # no seed on reference lattices
    assert invoke("series", "--preset", "S1", "--jobs", "2")[0] == 1  # classify only
    for kmax in ("0", "-1"):
        code, text = invoke("curves", "--preset", "S1", "--kmax", kmax)
        assert code == 1 and "--kmax" in text


def test_exit_code_invalid_lattice(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code, text = invoke("curves", "--file", str(bad))
    assert code == 2 and "parse" in text

    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"rank": 2, "gram": [[1, 0], [0, -2]], "ample": [1, 0]}))
    assert invoke("curves", "--file", str(odd))[0] == 2

    doc = {"rank": 3, "gram": [[-2, 4, 0], [4, -2, 2], [0, 2, -2]]}
    for ample, why in (([1, 0], "length"), ([0, 0, 1], "positive square")):
        path = tmp_path / "ample.json"
        path.write_text(json.dumps({**doc, "ample": ample}))
        code, text = invoke("curves", "--file", str(path))
        assert code == 2 and why in text, text

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

    template = (
        '{"size": 2, "entries": [["-2", "a"], ["a", "-2"]], '
        '"domains": {"a": [0, %s]}, "target_rank": 1}'
    )
    for hi in ("1e400", "2.7", "true"):
        path = tmp_path / "template.json"
        path.write_text(template % hi)
        code, text = invoke("classify", "--custom", str(path))
        assert code == 1 and "expected an integer" in text, (hi, text)


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


def test_text_format_all_commands():
    for argv in (
        ("curves", "--preset", "S1", "--format", "text"),
        ("chamber", "--preset", "L27", "--format", "text"),
        ("disc", "--preset", "L25", "--format", "text"),
        ("classify", "--template", "S5", "--format", "text"),
    ):
        code, text = invoke(*argv)
        assert code == 0 and text.endswith("\n")
