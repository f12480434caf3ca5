"""Exceptions shared across the toolkit, mapped to CLI exit codes."""


class K3ScanError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class UsageError(K3ScanError):
    """Bad command-line usage or malformed request."""

    exit_code = 1


class InvalidLatticeError(K3ScanError):
    """Input matrix is not an even hyperbolic lattice of signature (1, rho-1)."""

    exit_code = 2


class WallError(InvalidLatticeError):
    """The seed class lies on a reflection wall: it pairs to 0 with a (-2)-class."""

    def __init__(self, wall_class):
        self.wall_class = tuple(wall_class)
        super().__init__(f"seed is orthogonal to the (-2)-class {self.wall_class}")


class IncompleteSieveError(K3ScanError):
    """Degree cutoff was reached before the curve system closed up a compact chamber."""

    exit_code = 3


class NonCompactChamberError(K3ScanError):
    """A nef chamber ray has non-positive square, so the chamber is not compact."""

    exit_code = 4


class CostLimitError(K3ScanError):
    """The input would cost more than a fixed work limit.

    It is refused before any work, except a template search or a series,
    stopped once its count of nodes, solutions or classes counted passes its limit.
    """

    exit_code = 5
