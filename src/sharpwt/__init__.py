"""Numerical laboratory for sharp weighted-norm inequalities on 1-D grids."""

from sharpwt.dyadic import DyadicCube, RealCube, companion, dilate, family_index
from sharpwt.gridfn import GridFunction, local_osc, local_sharp_max_dyadic, median, rearrangement_value
from sharpwt.weights import (
    PowerWeightSpec,
    Weight,
    ainfty_fujii,
    ap_characteristic,
    power_weight,
    weighted_lp_norm,
)
from sharpwt.decomp import Decomposition, StopCube, a_gamma, decompose, verify_decomposition
from sharpwt.intrinsic import ConeQuadrature, g_alpha, g_tilde, intrinsic_engine, intrinsic_engines
from sharpwt.operators import (
    PsiKernel,
    dyadic_square,
    g_psi,
    hilbert,
    hilbert_max,
    hilbert_truncated,
    maximal,
    s_psi,
)
from sharpwt.harness import ExperimentSpec, FitResult, exponent_experiment, ratio_scan

__all__ = [
    "DyadicCube", "RealCube", "companion", "dilate", "family_index",
    "GridFunction", "rearrangement_value", "median",
    "local_osc", "local_sharp_max_dyadic",
    "Weight", "PowerWeightSpec", "ap_characteristic",
    "ainfty_fujii", "weighted_lp_norm", "power_weight",
    "Decomposition", "StopCube", "decompose", "verify_decomposition", "a_gamma",
    "ConeQuadrature", "g_alpha", "g_tilde", "intrinsic_engine", "intrinsic_engines",
    "PsiKernel", "maximal", "dyadic_square",
    "s_psi", "g_psi", "hilbert", "hilbert_truncated", "hilbert_max",
    "ExperimentSpec", "FitResult", "exponent_experiment", "ratio_scan",
]
