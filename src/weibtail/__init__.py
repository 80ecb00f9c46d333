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
    cumulative_hazard,
    cumulative_hazard_inverse,
    gumbel_coordinate,
    gumbel_coordinate_inverse,
    k_derivative,
    k_function,
)
from .norming import NormingConstants, norming
from .slowly_varying import (
    SlowlyVaryingSpec,
    constant,
    log_power,
    log_shift,
)

# the names from penultimate and vonmises, which a models or norming run
# does not need: __getattr__ (PEP 562) imports the module on first use of
# one of them.  norming stays eager: the package's attribute of that name is
# the function, which a later first import of the submodule of the same
# name would rebind to the module.
_LAZY = {
    **dict.fromkeys(("Classification", "ErrorComparison", "PenultimateIndex",
                     "error_comparison", "gamma_of_t", "penultimate_index",
                     "remainder_profile"), "penultimate"),
    **dict.fromkeys(("ConditionReport", "Verdict", "condition_sweep",
                     "gomes84_closed_form"), "vonmises"),
}


def __getattr__(name: str):
    import importlib

    if name in ("penultimate", "vonmises"):  # the submodule, not yet imported
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # later reads, such as a warm loop's, skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


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
    "condition_sweep",
    "constant",
    "cumulative_hazard",
    "cumulative_hazard_inverse",
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
    "log_power",
    "log_shift",
    "logistic",
    "norming",
    "normal",
    "penultimate_index",
    "pure_weibull",
    "remainder_profile",
    "weibull_type",
]
