"""Workloads of the k3scan benchmark: command lists, seeded inputs, output checks.

Nothing here imports k3scan.  The lattice arithmetic that validates the
generated inputs and checks the program's answers is written out below, so
the program is never used as its own oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

WORKLOADS = ("series", "classify", "disc")

SERIES = (
    ("series", "--preset", "S2", "--kind", "theta", "--max-square", "100"),
    ("series", "--preset", "L24", "--kind", "theta", "--max-square", "100"),
    ("series", "--preset", "L27", "--kind", "theta", "--max-square", "100"),
    ("series", "--preset", "S2", "--kind", "xi", "--max-square", "100"),
)
SEARCHES = ("S1", "S2", "S3", "S4", "S5", "S6", "L24", "L27")
CLASSIFY = tuple(("classify", "--template", t, "--jobs", "1") for t in SEARCHES) + (
    ("classify", "--template", "S2", "--jobs", "2"),
)
DISC_PRESETS = tuple(("disc", "--preset", p) for p in ("L25", "S113", "S114", "S2"))
# The --jobs 2 search must print exactly the bytes of its --jobs 1 twin.
JOBS_TWINS = {
    ("classify", "--template", "S2", "--jobs", "2"): ("classify", "--template", "S2", "--jobs", "1"),
}

EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...] | None = None  # set for generated disc inputs

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def fixed_commands(workload: str) -> tuple[tuple[str, ...], ...]:
    return {"series": SERIES, "classify": CLASSIFY, "disc": DISC_PRESETS}[workload]


def build(workload: str, seed: int, workdir: Path, root: Path) -> list[Command]:
    """The workload's command list for one seed; the seed fixes order and inputs."""
    rng = random.Random(seed)
    cmds = [Command(argv) for argv in fixed_commands(workload)]
    if workload == "disc":
        for i, gram in enumerate(disc_lattices(rng)):
            path = workdir / f"disc-{seed}-{i}.json"
            path.write_text(json.dumps({"rank": len(gram), "gram": gram}) + "\n")
            rel = path.relative_to(root).as_posix()
            cmds.append(Command(("disc", "--file", rel), gram=tuple(map(tuple, gram))))
    rng.shuffle(cmds)
    return cmds


# --- seeded lattices for `disc` ---------------------------------------------

A1 = ((-2,),)
A2 = ((-2, 1), (1, -2))
# (prime window, negative definite blocks) of <2p> + blocks.  p = 1 mod 4 and
# a narrow window fix the discriminant form's 2- and 3-parts and keep the
# group order within ~4%, so the cost of a whole-group scan, and the number
# of isotropic elements, hardly depend on the seed.
DISC_SHAPES = (
    ((590, 630), (A2,)),  # order 6p, ~3.6k
    ((140, 160), (A2, ((-10,),))),  # order 60p, ~9k
    ((1090, 1140), (A1, A1, A1)),  # order 16p, ~18k
)


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % f for f in range(2, int(n**0.5) + 1))]


def _block_diag(*blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def disc_lattices(rng: random.Random) -> list[list[list[int]]]:
    """One lattice per DISC_SHAPES entry, basis order shuffled by the seed."""
    out = []
    for (lo, hi), blocks in DISC_SHAPES:
        p = rng.choice([n for n in _primes(lo, hi) if n % 4 == 1])
        base = _block_diag(((2 * p,),), *blocks)
        perm = rng.sample(range(len(base)), len(base))
        gram = [[base[i][j] for j in perm] for i in perm]
        want_det = 2 * p
        for b in blocks:
            want_det *= det(b)
        validate_lattice(gram, want_det)
        out.append(gram)
    return out


def validate_lattice(gram, want_det: int) -> None:
    """Symmetric, even, of signature (1, rho-1) and of the intended determinant."""
    n = len(gram)
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise ValueError("generated Gram matrix is not symmetric")
    if any(gram[i][i] % 2 for i in range(n)):
        raise ValueError("generated Gram matrix is not even")
    if det(gram) != want_det:
        raise ValueError(f"generated lattice has det {det(gram)}, want {want_det}")
    if signature(gram) != (1, n - 1):
        raise ValueError(f"generated lattice has signature {signature(gram)}")


# --- independent lattice arithmetic and output checks -----------------------


def det(m) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def signature(gram) -> tuple[int, int]:
    """(positive, negative) pivot counts of a symmetric LDL^T without pivoting.

    Enough for the generated lattices, whose pivots are never zero; a zero
    pivot raises instead of guessing.
    """
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pos = 0
    for k in range(n):
        if a[k][k] == 0:
            raise ValueError("zero pivot in signature computation")
        pos += a[k][k] > 0
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return pos, n - pos


def _order(x) -> int:
    return lcm(*(v.denominator for v in x))


def _check_dual_class(gram, x, order, what) -> Fraction:
    """x is in the dual lattice with the given order in NS*/NS; returns x.x."""
    n = len(gram)
    if any(sum(gram[i][j] * x[j] for j in range(n)).denominator != 1 for i in range(n)):
        raise ValueError(f"{what}: lift {x} is not in the dual lattice")
    if _order(x) != order:
        raise ValueError(f"{what}: reported order {order}, lift has order {_order(x)}")
    return sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))


def check_disc_report(report: dict, gram) -> None:
    """Re-derive every claim of a `disc` report from the Gram matrix alone."""
    d = det(gram)
    if report["rank"] != len(gram) or report["determinant"] != d:
        raise ValueError("disc: rank or determinant differs from the input")
    size = prod(report["invariant_factors"])
    if size != abs(d):
        raise ValueError(f"disc: group order {size} != |det| {abs(d)}")
    for g in report["generators"]:
        x = [Fraction(v) for v in g["lift"]]
        q = _check_dual_class(gram, x, g["order"], "generator")
        if q % 2 != Fraction(g["q_value"]):
            raise ValueError(f"disc: generator q_value {g['q_value']} != {q % 2}")
    for e in report["isotropic_elements"]:
        x = [Fraction(v) for v in e["lift"]]
        if _check_dual_class(gram, x, e["order"], "isotropic element") % 2 != 0:
            raise ValueError(f"disc: element {e['coeffs']} is not isotropic")
        over = e["overlattice_gram"]
        n = len(over)
        if n != len(gram) or any(over[i][j] != over[j][i] for i in range(n) for j in range(n)):
            raise ValueError("disc: overlattice Gram is not symmetric of full rank")
        if any(over[i][i] % 2 for i in range(n)):
            raise ValueError("disc: overlattice is not even")
        if det(over) * e["order"] ** 2 != d:
            raise ValueError(f"disc: det(overlattice)*order^2 != det for {e['coeffs']}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(EXPECTED_FILE.read_text())["stdout_sha256"]


def check_output(cmd: Command, stdout: bytes, digests: dict[str, str]) -> None:
    """Raises ValueError when a command's stdout is not the known-good answer."""
    if cmd.gram is not None:
        check_disc_report(json.loads(stdout), cmd.gram)
    elif sha256(stdout) != digests.get(cmd.key):
        raise ValueError(f"stdout digest of {cmd.key!r} differs from expected.json")
