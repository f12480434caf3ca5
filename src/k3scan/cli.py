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

import importlib
import json
import sys
from types import SimpleNamespace

from .errors import K3ScanError, UsageError

# Each subcommand's code is the module cmd_<name>, which run imports by name,
# so a cold process compiles only that command and the modules it runs.  No
# module imports this one: under `python -m` it runs as __main__, and an
# import would compile and run a second copy.

# The subcommands in --help order: name -> (help, options), each option
# (flag, dest, type, choices, default, help).  build_parser and parse_plain
# both read this table, so --help and the canonical lines cannot disagree.
_FORMAT = ("--format", "format", str, ("json", "text"), "json", None)
_INPUT = (
    ("--preset", "preset", str, None, None, "name of a built-in lattice"),
    ("--file", "file", str, None, None, "path to a lattice JSON document"),
    _FORMAT,
)
_KMAX = ("--kmax", "kmax", int, None, 10, "largest degree tried before giving up (default 10)")
COMMANDS = {
    "curves": ("(-2)-curve system from the sieve", (*_INPUT, _KMAX)),
    "chamber": ("chamber vertices and hyperbolic radius", (*_INPUT, _KMAX)),
    "series": ("generating series of big-and-nef classes", (
        *_INPUT,
        _KMAX,
        ("--kind", "kind", str, ("theta", "xi"), "theta", None),
        ("--max-square", "max_square", int, None, 100, None),
    )),
    "disc": ("discriminant group, isotropic elements, overlattices", _INPUT),
    "classify": ("parametric intersection-matrix search", (
        ("--template", "template", str, None, None, "name of a built-in search"),
        ("--custom", "custom", str, None, None, "path to a template JSON document"),
        _FORMAT,
        ("--jobs", "jobs", int, None, 1, "accepted for compatibility and has no effect (N >= 1)"),
    )),
}


def parse_plain(argv) -> SimpleNamespace | None:
    """The arguments of a canonical line `<subcommand> (--flag value)*`, or None.

    Each flag is one of the subcommand's own, spelled in full and given at
    most once; no value starts with "-", an int option's value is read by
    int(), and a value with choices is one of them.  The result holds every
    dest of the subcommand, as argparse's does.  Every other line is None
    and goes to argparse, the only reader of --help, of usage errors and of
    the other spellings (abbreviations, --flag=value, a repeated flag).
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = COMMANDS[argv[0]][1]
    args = {"subcommand": argv[0], **{dest: default for _, dest, _, _, default, _ in options}}
    unread = {flag: (dest, type, choices) for flag, dest, type, choices, _, _ in options}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in unread or value.startswith("-"):
            return None
        dest, type, choices = unread.pop(flag)
        try:
            value = type(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of the same table; argparse is imported only here."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2; we reserve that
            raise UsageError(message)

    parser = _Parser(prog="k3scan", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, dest, type, choices, default, help in options:
            p.add_argument(flag, dest=dest, type=type, choices=choices, default=default, help=help)
    return parser


def run(argv=None) -> tuple[int, str]:
    """Execute a command line; returns (exit_code, output_text)."""
    try:
        args = parse_plain(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
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
