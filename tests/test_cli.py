import hashlib
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


def test_disc_bytes_pinned(presets):
    assert {name for name, _ in DISC_DIGESTS} == set(presets)
    for (name, fmt), digest in DISC_DIGESTS.items():
        code, text = invoke("disc", "--preset", name, "--format", fmt)
        assert code == 0, text
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, fmt)


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
