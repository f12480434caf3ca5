"""Exact-arithmetic toolkit for hyperbolic K3-type lattices.

Given an even lattice of signature (1, rho-1) with an interior ample seed,
the package computes the finite system of (-2)-curves (Vinberg sieve over a
square-and-degree enumeration), the nef chamber with its exact hyperbolic
radius, generating series of big-and-nef classes, discriminant groups with
their overlattices, and the parametric intersection-matrix searches that
classify curve configurations.
"""

from .classify import (
    AffineExpr,
    BuiltinSearch,
    ClassificationResult,
    Constraint,
    MatrixTemplate,
    TemplateSolution,
    builtin_searches,
    identify_type,
    search_template,
    span_gram,
)
from .cone import (
    ChamberDescription,
    ChamberVertex,
    CurveSystem,
    chamber_vertices,
    hyperbolic_ell,
    is_ample,
    is_nef,
    vinberg_sieve,
)
from .enumeration import (
    EnumerationStats,
    classes_with_square_and_degree,
    vectors_of_norm,
)
from .errors import (
    IncompleteSieveError,
    InvalidLatticeError,
    K3ScanError,
    NonCompactChamberError,
    UsageError,
    WallError,
)
from .lattice import (
    DiscriminantGroup,
    GramLattice,
    bilinear,
    discriminant_group,
    is_primitive,
    isotropic_elements,
    overlattice_from_isotropic,
    signature,
    square,
)
from .isometry import isometry_small
from .presets import Preset, catalog, sieve_presets
from .series import (
    SeriesTable,
    big_nef_classes_of_square,
    degree_bound,
    theta_series,
    xi_series,
)

__all__ = [
    "AffineExpr",
    "BuiltinSearch",
    "ChamberDescription",
    "ChamberVertex",
    "ClassificationResult",
    "Constraint",
    "CurveSystem",
    "DiscriminantGroup",
    "EnumerationStats",
    "GramLattice",
    "IncompleteSieveError",
    "InvalidLatticeError",
    "K3ScanError",
    "MatrixTemplate",
    "NonCompactChamberError",
    "Preset",
    "SeriesTable",
    "TemplateSolution",
    "UsageError",
    "WallError",
    "big_nef_classes_of_square",
    "bilinear",
    "builtin_searches",
    "catalog",
    "chamber_vertices",
    "classes_with_square_and_degree",
    "degree_bound",
    "discriminant_group",
    "hyperbolic_ell",
    "identify_type",
    "is_ample",
    "is_nef",
    "is_primitive",
    "isometry_small",
    "isotropic_elements",
    "overlattice_from_isotropic",
    "search_template",
    "sieve_presets",
    "signature",
    "span_gram",
    "square",
    "theta_series",
    "vectors_of_norm",
    "vinberg_sieve",
    "xi_series",
]

__version__ = "0.1.0"
