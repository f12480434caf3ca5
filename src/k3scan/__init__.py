"""Exact-arithmetic toolkit for hyperbolic K3-type lattices.

Given an even lattice of signature (1, rho-1) with an interior ample seed,
the package computes the finite system of (-2)-curves (Vinberg sieve over a
square-and-degree enumeration), the nef chamber with its exact hyperbolic
radius, generating series of big-and-nef classes, discriminant groups with
their overlattices, and the parametric intersection-matrix searches that
classify curve configurations.

The package loads lazily (PEP 562): `import k3scan` imports no submodule, and
a public name imports its defining module on first access.
"""

import importlib

_EXPORTS = {
    "classify": (
        "AffineExpr", "BuiltinSearch", "Constraint", "MatrixTemplate",
        "TemplateSolution", "builtin_searches", "search_template", "span_gram",
    ),
    "cone": (
        "ChamberDescription", "ChamberVertex", "CurveSystem", "vinberg_sieve",
    ),
    "enumeration": ("EnumerationStats",),
    "errors": (
        "CostLimitError", "IncompleteSieveError", "InvalidLatticeError",
        "K3ScanError", "NonCompactChamberError", "UsageError", "WallError",
    ),
    "lattice": (
        "DiscriminantGroup", "GramLattice", "bilinear", "discriminant_group",
        "isotropic_elements", "overlattice_from_isotropic",
        "signature", "square",
    ),
    "presets": ("Preset", "catalog", "identify_type"),
    "series": ("theta_series", "xi_series"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
