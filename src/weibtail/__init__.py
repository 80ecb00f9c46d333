"""Penultimate extreme-value approximation for Weibull-type tails.

Models with 1 - F = exp(-H) or -log F = exp(-H), H regularly varying of
index 1/theta, plus classical distributions with known tails.  The package
computes norming constants, the n-dependent penultimate shape index
gamma_n = -k'(b_n)/k^2(b_n), sup-norm error curves of the normalized
maxima against the ultimate (Gumbel) and penultimate GEV approximations,
and sweeps of the von Mises-type limit conditions.
"""

__version__ = "0.1.0"

from .catalog import (
    CATALOG,
    build_model,
    exponential,
    extended_weibull,
    gamma_model,
    gumbel_fixture,
    logistic,
    normal,
    pure_weibull,
    weibull_type,
)
from .model import (
    Family,
    WeibullTypeModel,
    cdf,
    cumulative_hazard,
    cumulative_hazard_inverse,
    density,
    gumbel_coordinate,
    gumbel_coordinate_inverse,
    k_derivative,
    k_function,
    log_cdf,
    rv_ratios,
)
from .norming import NormingConstants, norming
from .penultimate import (
    Classification,
    ErrorComparison,
    PenultimateIndex,
    error_comparison,
    gamma_of_t,
    penultimate_index,
    remainder_profile,
)
from .slowly_varying import (
    SlowlyVaryingSpec,
    builtin_catalog,
    check_sv_conditions,
    constant,
    log_power,
    log_shift,
    sv_ratio,
)
from .vonmises import ConditionReport, Verdict, condition_sweep, gomes84_closed_form, phi

__all__ = [
    "__version__",
    "CATALOG",
    "Classification",
    "ConditionReport",
    "ErrorComparison",
    "Family",
    "NormingConstants",
    "PenultimateIndex",
    "SlowlyVaryingSpec",
    "Verdict",
    "WeibullTypeModel",
    "build_model",
    "builtin_catalog",
    "cdf",
    "check_sv_conditions",
    "condition_sweep",
    "constant",
    "cumulative_hazard",
    "cumulative_hazard_inverse",
    "density",
    "error_comparison",
    "exponential",
    "extended_weibull",
    "gamma_model",
    "gamma_of_t",
    "gomes84_closed_form",
    "gumbel_coordinate",
    "gumbel_coordinate_inverse",
    "gumbel_fixture",
    "k_derivative",
    "k_function",
    "log_cdf",
    "log_power",
    "log_shift",
    "logistic",
    "norming",
    "normal",
    "penultimate_index",
    "phi",
    "pure_weibull",
    "remainder_profile",
    "rv_ratios",
    "sv_ratio",
    "weibull_type",
]
