"""Record the stdout digests of the benchmark's fixed commands.

Usage (from the repository root):  python3 perfbench/record_expected.py

Runs every fixed command of every workload as a cold `python -m k3scan.cli`
on src/ and validates each answer against reference data before trusting
it:
  series    coefficients equal the golden table through its printed_through
  classify  the solution set equals the built-in search's `expected`, and
            the --jobs 2 bytes equal the --jobs 1 bytes
  disc      every claim passes the independent checks of workloads.py
Then it writes perfbench/expected.json, which run.py compares against on
every command.  Re-run it only for a change meant to alter the output.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads
from run import SRC, child_env


def _cli(argv, env) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "k3scan.cli", *argv], env=env, capture_output=True, check=True
    )
    return proc.stdout


def _check_series(argv, report) -> None:
    preset, kind, max_square = argv[2], argv[4], int(argv[6])
    golden = json.loads((SRC / "k3scan" / "golden" / f"{preset}_{kind}.json").read_text())
    through = min(golden["printed_through"], max_square)
    for d in range(2, through + 1, 2):
        got = report["coefficients"].get(str(d), 0)
        want = golden["coefficients"].get(str(d), 0)
        if got != want:
            raise ValueError(f"{' '.join(argv)}: T^{d} has {got}, golden table has {want}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    from k3scan.classify import builtin_searches
    from k3scan.presets import catalog

    env = child_env()
    searches = builtin_searches()
    presets = catalog()
    stdout: dict[tuple[str, ...], bytes] = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.fixed_commands(workload):
            out = stdout[argv] = _cli(argv, env)
            report = json.loads(out)
            if argv[0] == "series":
                _check_series(argv, report)
            elif argv[0] == "classify":
                found = {tuple(s["values"]) for s in report["solutions"]}
                if found != set(searches[argv[2]].expected):
                    raise ValueError(f"{' '.join(argv)}: solutions {sorted(found)}")
            else:
                workloads.check_disc_report(report, presets[argv[2]].lattice.gram)
    for argv, twin in workloads.JOBS_TWINS.items():
        if stdout[argv] != stdout[twin]:
            raise ValueError(f"{' '.join(argv)} prints other bytes than {' '.join(twin)}")
    doc = {"stdout_sha256": {" ".join(a): workloads.sha256(out) for a, out in stdout.items()}}
    workloads.EXPECTED_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(stdout)} digests to {workloads.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
