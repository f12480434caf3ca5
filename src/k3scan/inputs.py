"""The command line's inputs: a user's JSON document, a lattice named by preset or file, its sieve."""

from __future__ import annotations

import json

from .errors import InvalidLatticeError, UsageError


def read_json(path, error):
    """The JSON document at path; a file that cannot be read or parsed raises error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot parse {path}: {exc}") from exc


def load_input(args) -> tuple:
    """Returns (lattice, ample seed, display name)."""
    if args.preset and args.file:
        raise UsageError("give either --preset or --file, not both")
    if args.preset:
        from .presets import catalog

        p = catalog().get(args.preset)
        if p is None:
            names = ", ".join(sorted(catalog()))
            raise UsageError(f"unknown preset {args.preset!r}; choose from {names}")
        return p.lattice, p.ample, p.name
    if args.file:
        from . import linalg
        from .lattice import GramLattice, square

        doc = read_json(args.file, InvalidLatticeError)
        if not isinstance(doc, dict):
            raise InvalidLatticeError("bad lattice document: the top level is not a JSON object")
        try:
            rank, gram = doc["rank"], doc["gram"]
            labels = doc.get("labels", [])
            ample = doc.get("ample")
            if ample is not None:
                if not isinstance(ample, list):
                    raise TypeError(f"ample must be a list of integers, got {ample!r}")
                ample = tuple(linalg.strict_int(x) for x in ample)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"missing required key {exc}" if isinstance(exc, KeyError) else exc
            raise InvalidLatticeError(f"bad lattice document: {why}") from exc
        lat = GramLattice(rank=rank, gram=gram, basis_labels=labels)
        if ample is not None:
            if len(ample) != rank:
                raise InvalidLatticeError(
                    f"ample class has length {len(ample)}, lattice has rank {rank}"
                )
            if square(lat, ample) <= 0:
                raise InvalidLatticeError(
                    f"ample class {list(ample)} must have positive square"
                )
        return lat, ample, args.file
    raise UsageError("an input is required: --preset NAME or --file PATH")


def sieve(args):
    """(curve system, display name) of the input's seed, sieved up to --kmax."""
    from .cone import vinberg_sieve

    lat, ample, name = load_input(args)
    if ample is None:
        raise UsageError(f"input {name!r} carries no ample seed; this command needs one")
    if args.kmax < 1:
        raise UsageError("--kmax must be a positive integer")
    cs = vinberg_sieve(lat, ample, args.kmax)
    return cs, name
