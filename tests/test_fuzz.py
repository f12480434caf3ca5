"""A seeded fuzz battery: random and malformed documents through `cli.run`, in process.

Every input is a lattice document for `--file` or a template document for
`classify --custom`: random well-formed ones of small size, ones with one
field of the wrong shape, and raw bytes that are not UTF-8, carry a BOM or
are cut short.  Whatever the input, no exception escapes `run`, the exit
code is one the CLI documents (0-5), and a failed run writes exactly one
`error:` line.  The inputs are drawn from a fixed seed, so a failure
reproduces.
"""

import json
import random

from helpers import mat_mul

from k3scan import linalg
from k3scan.cli import run
from k3scan.presets import catalog

# Values of the wrong shape for a field, tried in place of a good one.
BAD_VALUES = (None, True, 2.5, -1, "3", "LAB", [], [3], [[1], 2], [["x"]], {}, {"a": 1})


def _check(argv):
    code, text = run(argv)
    assert 0 <= code <= 5, (argv, code, text)
    if code:
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
    return code


def _random_lattice(rng):
    """A small symmetric Gram, mostly of signature (1, rank-1), and an ample guess."""
    rank = rng.randint(1, 4)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = rng.choice((2, 4, 6) if i == 0 else (-2, -2, -4, -6))
        if rng.random() < 0.1:
            gram[i][i] = rng.randint(-5, 5)
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = rng.randint(-2, 2)
    doc = {"rank": rank, "gram": gram}
    if rng.random() < 0.3:
        doc["labels"] = [f"x{i}" for i in range(rank)]
    if rng.random() < 0.8:
        for _ in range(10):  # a class of positive square, if one turns up
            ample = [rng.randint(-2, 3) for _ in range(rank)]
            if sum(a * g * b for a, row in zip(ample, gram) for g, b in zip(row, ample)) > 0:
                break
        doc["ample"] = ample
    return doc


def _rebased_preset(rng):
    """A seeded preset in a random basis: G -> U^T G U, seed -> U^-1 seed."""
    preset = rng.choice([p for p in catalog().values() if p.ample is not None])
    n = preset.lattice.rank
    u, uinv = linalg.identity(n), linalg.identity(n)
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for row in u:
            row[i] += f * row[j]
        uinv[j] = [x - f * y for x, y in zip(uinv[j], uinv[i])]
    gram = mat_mul(linalg.transpose(u), mat_mul(preset.lattice.gram, u))
    return {"rank": n, "gram": gram, "ample": linalg.mat_vec(uinv, preset.ample)}


def _random_template(rng):
    size = rng.randint(1, 4)
    names = ["a", "b"][: rng.randint(0, 2)]

    def cell():
        if names and rng.random() < 0.4:
            return rng.choice(("{p}", "2-{p}", "{p}+1", "3*{p}-1")).format(p=rng.choice(names))
        return rng.randint(-2, 4)

    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = -2
        for j in range(i + 1, size):
            entries[i][j] = entries[j][i] = cell()
    doc = {
        "size": size,
        "entries": entries,
        "domains": {p: [lo, lo + rng.randint(0, 3)] for p in names for lo in [rng.randint(-1, 2)]},
        "target_rank": rng.randint(0, size),
    }
    if names and rng.random() < 0.5:
        doc["normalize"] = [f"{names[0]}<={rng.randint(0, 3)}"]
    return doc


def _lattice_argvs(rng, path):
    argvs = [["disc", "--file", path]]
    for command in ("curves", "chamber", "series"):
        argv = [command, "--file", path, "--kmax", str(rng.randint(1, 12))]
        if command == "series":
            argv += ["--kind", rng.choice(("theta", "xi")), "--max-square", "20"]
        argvs.append(argv + ["--format", rng.choice(("json", "text"))])
    return argvs


def _malformed(rng, doc, fields):
    field = rng.choice(fields)
    return {**doc, field: rng.choice(BAD_VALUES)}


def _raw(rng, text):
    return rng.choice((
        b"\xff\xfe" + text.encode("utf-16-le"),
        b"\xef\xbb\xbf" + text.encode(),
        text[: rng.randint(0, len(text) - 1)].encode(),
        text.encode()[:-1] + b"\xc3",
    ))


def test_fuzz_lattice_documents(tmp_path):
    rng = random.Random(20261019)
    path = str(tmp_path / "lattice.json")
    codes = set()
    for i in range(60):
        doc = _rebased_preset(rng) if i % 6 == 3 else _random_lattice(rng)
        if i % 3 == 1:
            doc = _malformed(rng, doc, ("rank", "gram", "labels", "ample"))
        text = json.dumps(doc)
        with open(path, "wb") as fh:
            fh.write(_raw(rng, text) if i % 3 == 2 else text.encode())
        for argv in _lattice_argvs(rng, path):
            codes.add(_check(argv))
    assert {0, 2, 3} <= codes, codes


def test_fuzz_template_documents(tmp_path):
    rng = random.Random(1019)
    path = str(tmp_path / "template.json")
    codes = set()
    for i in range(90):
        doc = _random_template(rng)
        if i % 3 == 1:
            doc = _malformed(
                rng, doc, ("size", "entries", "domains", "normalize", "target_rank", "parameters")
            )
        text = json.dumps(doc)
        with open(path, "wb") as fh:
            fh.write(_raw(rng, text) if i % 3 == 2 else text.encode())
        codes.add(_check(["classify", "--custom", path, "--format", rng.choice(("json", "text"))]))
    assert {0, 1} <= codes, codes
