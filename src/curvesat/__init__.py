"""Exact invariants of plane curves over the rationals.

Computes Jacobian syzygies, the saturated Jacobian ideal, graded
minimal resolutions, and the free / nearly free classification, all in
exact integer arithmetic.  See the README for the input grammar and
the command line interface.
"""

# backend is read as curvesat.backend.BACKEND by the benchmark harness
from . import backend  # noqa: F401
from .analysis import CurveReport, analyze, analyze_catalog, emit_json
from .classify import (
    Classification,
    Verdict,
    classify,
    predicted_resolution_nearly_free,
    verify_identities,
)
from .jacobian import (
    CurveData,
    ar_min_generators,
    ct,
    mdr,
    milnor_dims,
    smooth_reference_dims,
    tjurina,
)
from .parsing import Arrangement, combinatorics, parse_arrangement, parse_poly
from .poly import HomogeneousPoly
from .resolution import (
    BettiTable,
    betti_jacobian,
    betti_saturated,
    min_generators,
    regularity,
    syzygies,
)
from .saturation import (
    LefschetzData,
    SaturationData,
    lefschetz_check,
    n_min_generators,
    n_table,
    saturate,
    saturate_three_forms,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BettiTable",
    "Classification",
    "CurveData",
    "CurveReport",
    "HomogeneousPoly",
    "LefschetzData",
    "SaturationData",
    "Verdict",
    "analyze",
    "analyze_catalog",
    "ar_min_generators",
    "betti_jacobian",
    "betti_saturated",
    "classify",
    "combinatorics",
    "ct",
    "emit_json",
    "lefschetz_check",
    "mdr",
    "milnor_dims",
    "min_generators",
    "n_min_generators",
    "n_table",
    "parse_arrangement",
    "parse_poly",
    "predicted_resolution_nearly_free",
    "regularity",
    "run_suite",
    "saturate",
    "saturate_three_forms",
    "smooth_reference_dims",
    "syzygies",
    "tjurina",
    "verify_identities",
]
