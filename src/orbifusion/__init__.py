"""Exact representation data of the Z3-orbifold affine sl2 VOA at level k.

The package materializes, in exact arithmetic, the full module catalog of
the orbifold algebra: labels, conformal weights, quantum dimensions, fusion
products and contragredients — together with verification suites that check
every identity the data is supposed to satisfy.
"""

from .labels import (
    FusionVector,
    IrrLabel,
    LabelSyntaxError,
    Sector,
    check_index,
    check_label,
    check_level,
    enumerate_irreducibles,
    make_label,
    parse_label,
    vacuum,
)
from .weights import base_twist_weight, conformal_weight, generator_desc
from .chebyshev import ChebPoly, cheb_u, cyclotomic, min_poly_two_cos
from .qdim import (
    QDimElement,
    global_dimension,
    has_unit_qdim,
    qdim_exact,
    qdim_index,
    qdim_numeric,
    reduction_modulus,
)
from .fusion import contragredient, fuse_irreducible, fusion_coefficient
from .verify import Failure, VerificationReport, run_suites

__version__ = "0.1.0"

__all__ = [
    "FusionVector",
    "IrrLabel",
    "LabelSyntaxError",
    "Sector",
    "check_index",
    "check_label",
    "check_level",
    "enumerate_irreducibles",
    "make_label",
    "parse_label",
    "vacuum",
    "base_twist_weight",
    "conformal_weight",
    "generator_desc",
    "ChebPoly",
    "cheb_u",
    "cyclotomic",
    "min_poly_two_cos",
    "QDimElement",
    "global_dimension",
    "has_unit_qdim",
    "qdim_exact",
    "qdim_index",
    "qdim_numeric",
    "reduction_modulus",
    "contragredient",
    "fuse_irreducible",
    "fusion_coefficient",
    "Failure",
    "VerificationReport",
    "run_suites",
    "__version__",
]
