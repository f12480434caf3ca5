"""Catalog of the built-in lattices.

Eight lattices come with an interior ample seed: S1..S6 of rank 3 and L24,
L27 of rank 4.  Three more reference lattices (L25, S113, S114) ship without
seeds; they exist to be recognized by identify_type and probed by the
discriminant machinery.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import GramLattice
from .linalg import Vector


class Preset(NamedTuple):
    name: str
    lattice: GramLattice
    ample: Vector | None = None


def _lat(gram, labels):
    return GramLattice(rank=len(gram), gram=tuple(map(tuple, gram)), basis_labels=labels)


_PRESETS = (
    Preset(
        name="S1",
        lattice=_lat([[6, 0, 0], [0, -2, 0], [0, 0, -2]], ("L", "A1", "A2")),
        ample=(1, -1, -1),
    ),
    Preset(
        name="S2",
        lattice=_lat([[36, 0, 0], [0, -2, 1], [0, 1, -2]], ("L", "A1", "A2")),
        ample=(1, -4, -4),
    ),
    Preset(
        name="S3",
        lattice=_lat([[12, 0, 0], [0, -2, 1], [0, 1, -2]], ("L", "A1", "A2")),
        ample=(1, -2, -2),
    ),
    Preset(
        name="S4",
        lattice=_lat([[-2, 1, 3], [1, -2, 1], [3, 1, -2]], ("A1", "A2", "A3")),
        ample=(1, 0, 1),
    ),
    Preset(
        name="S5",
        lattice=_lat([[4, 0, 0], [0, -2, 1], [0, 1, -2]], ("L", "A1", "A2")),
        ample=(1, -1, -1),
    ),
    Preset(
        name="S6",
        lattice=_lat([[-2, 1, 5], [1, -2, 0], [5, 0, -2]], ("A1", "A3", "A5")),
        ample=(1, -1, 1),
    ),
    Preset(
        name="L24",
        lattice=_lat(
            [[2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]],
            ("L", "A1", "A2", "A3"),
        ),
        ample=(1, 0, 0, 0),
    ),
    Preset(
        name="L27",
        lattice=_lat(
            [[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 4], [1, 0, 4, -2]],
            ("A2", "A4", "A5", "A7"),
        ),
        ample=(0, -1, 1, 1),
    ),
    # Reference lattices without seeds: recognized by identify_type and usable
    # with the discriminant commands only.
    Preset(
        name="L25",
        lattice=_lat(
            [[-2, 3, 0, 0], [3, -2, 1, 1], [0, 1, -2, 1], [0, 1, 1, -2]],
            ("B1", "B2", "B3", "B5"),
        ),
    ),
    Preset(
        name="S113",
        lattice=_lat([[-2, 3, 0], [3, -2, 2], [0, 2, -2]], ("B1", "B2", "B3")),
    ),
    Preset(
        name="S114",
        lattice=_lat([[-2, 4, 0], [4, -2, 2], [0, 2, -2]], ("B1", "B2", "B3")),
    ),
)


def catalog() -> dict[str, Preset]:
    return {p.name: p for p in _PRESETS}


def get(name: str) -> Preset:
    try:
        return catalog()[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(catalog()))}"
        ) from None


def sieve_presets() -> tuple[str, ...]:
    """Names of the presets that carry an ample seed."""
    return tuple(p.name for p in _PRESETS if p.ample is not None)
