"""Byte census of the k3scan command line: one sha256 per cold command line.

Usage: python tests/cli_census.py [SRC]

Runs each line of LINES as its own `python -m k3scan.cli` process, with
k3scan imported from SRC (default: the src/ next to this tests/ folder), in
a temporary directory that holds the lattice and template files the lines
name, at COLUMNS=80.  Prints, for each line, the sha256 of its exit code,
stdout and stderr, then one total over all of them: two checkouts with the
same total print the same bytes for every line.  Standard library only, so
it can take any checkout's SRC; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("L24", "L25", "L27", "S1", "S113", "S114", "S2", "S3", "S4", "S5", "S6")
TEMPLATES = ("L24", "L27", "S1", "S2", "S3", "S4", "S5", "S6")
FILES = {
    "lattice.json": {"rank": 3, "gram": [[6, 0, 0], [0, -2, 0], [0, 0, -2]],
                     "labels": ["L", "A1", "A2"], "ample": [1, -1, -1]},
    "template.json": {"size": 4,
                      "entries": [["-2", "4", "a", "2-a"], ["4", "-2", "2-a", "a"],
                                  ["a", "2-a", "-2", "4"], ["2-a", "a", "4", "-2"]],
                      "domains": {"a": [0, 2]}, "normalize": ["a<=1"], "target_rank": 3},
}
BAD_FILE = "bad.json"  # not JSON

LINES = [
    *(
        (command, "--preset", preset, "--format", fmt)
        for command in ("curves", "chamber", "disc")
        for preset in PRESETS
        for fmt in ("json", "text")
    ),
    *(("series", "--preset", preset, "--max-square", "40", "--format", fmt)
      for preset in PRESETS for fmt in ("json", "text")),
    *(("series", "--preset", preset, "--kind", "theta", "--max-square", "100") for preset in ("S2", "L24", "L27")),
    ("series", "--preset", "S2", "--kind", "xi", "--max-square", "100"),
    ("series", "--preset", "S1", "--kind", "xi", "--max-square", "40", "--format", "text"),
    *(("classify", "--template", name, "--format", fmt) for name in TEMPLATES for fmt in ("json", "text")),
    ("classify", "--template", "S2", "--jobs", "2"),
    *((command, "--file", "lattice.json") for command in ("curves", "chamber", "series", "disc")),
    ("classify", "--custom", "template.json", "--format", "text"),
    # argparse: --help, and every spelling that is not `--flag value`.
    ("--help",),
    ("-h",),
    *((command, "--help") for command in ("curves", "chamber", "series", "disc", "classify")),
    ("series", "-h"),
    ("series", "--preset", "L27", "--max", "100"),
    ("series", "--preset", "L27", "--max-square=100"),
    ("series", "--preset", "S1", "--max-square", "40", "--max-square", "12"),
    ("series", "--pre", "S1", "--kind=xi", "--max-square", "12"),
    ("classify", "--temp", "S5", "--jobs", "1_000"),
    ("series", "--preset", "S1", "--max-square", " 12"),
    ("curves", "--preset", "S1", "--kmax", "-3"),
    ("curves", "--preset", "S1", "--kmax", "0x10"),
    ("series", "--preset", "S1", "--kind", "XI"),
    ("disc", "--preset", "S2", "--format", "xml"),
    ("series", "--preset"),
    ("series", "--", "--preset", "S1"),
    ("series", "--bogus"),
    ("series", "--preset", "S1", "--jobs", "2"),
    ("frob",),
    (),
    # Usage and input errors the commands raise.
    ("curves",),
    ("classify",),
    ("curves", "--preset", ""),
    ("curves", "--preset", "S9"),
    ("curves", "--preset", "L25"),
    ("curves", "--preset", "S1", "--file", "lattice.json"),
    ("curves", "--preset", "S1", "--kmax", "0"),
    ("series", "--preset", "S1", "--max-square", "0"),
    ("series", "--preset", "S1", "--max-square", "13"),
    ("classify", "--template", "S5", "--jobs", "0"),
    ("classify", "--template", "NOPE"),
    ("classify", "--template", "../errata"),
    ("classify", "--custom", "missing.json"),
    ("classify", "--custom", BAD_FILE),
    ("curves", "--file", BAD_FILE),
    ("disc", "--file", "missing.json"),
]


def digest(code: int, out: bytes, err: bytes) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out, err):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src").resolve()
    if not (src / "k3scan" / "cli.py").is_file():
        sys.exit(f"no k3scan sources under {src}")
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for name, doc in FILES.items():
            Path(work, name).write_text(json.dumps(doc))
        Path(work, BAD_FILE).write_text("{ this is not json")
        for line in LINES:
            out = subprocess.run(
                [sys.executable, "-m", "k3scan.cli", *line], cwd=work, env=env, capture_output=True
            )
            d = digest(out.returncode, out.stdout, out.stderr)
            total.update(d.encode())
            print(f"{d}  {out.returncode}  {' '.join(map(repr, line))}")
    print(f"total {total.hexdigest()} over {len(LINES)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
