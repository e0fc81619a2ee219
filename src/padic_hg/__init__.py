"""Exact evaluation of p-adic hypergeometric G-functions over GR(p^N, r),
with elliptic-curve point counting and character-sum oracles for verifying
the trace-of-Frobenius formulas they satisfy.
"""

from .errors import PadicHGError
from .ffield import (
    CurveSpec,
    FqElem,
    FqField,
    build_field,
    count_points,
    quad_char,
    trace_of_frobenius,
)
from .gfunc import (
    GParams,
    GValue,
    check_reduction_identity,
    check_splitting_identity,
    choose_precision,
    evaluate_G,
    reconstruct_integer,
)
from .padic import PadicCtx, PadicInt, frac, gamma_p, teichmuller

__version__ = "0.1.0"

__all__ = [
    "CurveSpec",
    "FqElem",
    "FqField",
    "GParams",
    "GValue",
    "PadicCtx",
    "PadicHGError",
    "PadicInt",
    "build_field",
    "check_reduction_identity",
    "check_splitting_identity",
    "choose_precision",
    "count_points",
    "evaluate_G",
    "frac",
    "gamma_p",
    "quad_char",
    "reconstruct_integer",
    "teichmuller",
    "trace_of_frobenius",
]
