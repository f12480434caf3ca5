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
import importlib
import json
import sys

from .errors import K3ScanError, UsageError

# Each subcommand's code is the module cmd_<name>, which run imports by name,
# so a cold process compiles only that command and the modules it runs.  No
# module imports this one: under `python -m` it runs as __main__, and an
# import would compile and run a second copy.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


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

    p = sub.add_parser("chamber", help="chamber vertices and hyperbolic radius")
    add_common(p)

    p = sub.add_parser("series", help="generating series of big-and-nef classes")
    add_common(p)
    p.add_argument("--kind", choices=("theta", "xi"), default="theta")
    p.add_argument("--max-square", dest="max_square", type=int, default=100)

    p = sub.add_parser("disc", help="discriminant group, isotropic elements, overlattices")
    add_common(p, with_seed=False)

    p = sub.add_parser("classify", help="parametric intersection-matrix search")
    p.add_argument("--template", help="name of a built-in search")
    p.add_argument("--custom", help="path to a template JSON document")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and has no effect (N >= 1)")

    return parser


def run(argv=None) -> tuple[int, str]:
    """Execute a command line; returns (exit_code, output_text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = importlib.import_module(f".cmd_{args.subcommand}", __package__)
        report = command.build(args)
    except K3ScanError as exc:
        return exc.exit_code, f"error: {exc}\n"
    if args.format == "json":
        return 0, json.dumps(report, indent=2, sort_keys=True) + "\n"
    head = f"{report['command']} report for {report.get('input', report.get('template'))}"
    return 0, "\n".join([head, *command.render(report)]) + "\n"


def main(argv=None) -> int:
    code, text = run(argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
