"""The package's public names: ``weibtail.__all__`` against the module."""

import dataclasses
import enum

import weibtail as wt

PUBLIC = {
    "__version__",
    # catalog
    "CATALOG", "build_model", "exponential", "extended_weibull", "gamma_model",
    "gumbel_fixture", "logistic", "normal", "pure_weibull", "weibull_type",
    # models and the k-function
    "Family", "WeibullTypeModel", "cumulative_hazard", "cumulative_hazard_inverse",
    "gumbel_coordinate", "gumbel_coordinate_inverse", "k_derivative", "k_function",
    # slowly varying functions
    "SlowlyVaryingSpec", "constant", "log_power", "log_shift",
    # the four quantities
    "NormingConstants", "norming",
    "Classification", "PenultimateIndex", "penultimate_index", "gamma_of_t",
    "ErrorComparison", "error_comparison", "remainder_profile",
    "ConditionReport", "Verdict", "condition_sweep", "gomes84_closed_form",
}


def test_all_names_resolve_once():
    assert len(wt.__all__) == len(set(wt.__all__))
    assert [name for name in wt.__all__ if not hasattr(wt, name)] == []


def test_all_is_pinned():
    assert set(wt.__all__) == PUBLIC


def test_star_import():
    namespace = {}
    exec("from weibtail import *", namespace)
    assert set(wt.__all__) <= set(namespace)


def _own_docstring(obj) -> bool:
    """Whether obj carries a docstring written for it: not inherited, not
    the signature dataclasses generate, not the stock enum text."""
    if not isinstance(obj, type):
        return bool(obj.__doc__)
    doc = obj.__dict__.get("__doc__")
    if not doc:
        return False
    if dataclasses.is_dataclass(obj) and doc.startswith(obj.__name__ + "("):
        return False
    return not (issubclass(obj, enum.Enum) and doc == "An enumeration.")


def test_public_callables_have_docstrings():
    names = [name for name in wt.__all__ if callable(getattr(wt, name))]
    assert names
    assert [name for name in names if not _own_docstring(getattr(wt, name))] == []


def test_docstring_check_sees_generated_ones():
    @dataclasses.dataclass(frozen=True)
    class Bare:
        x: int

    class BareEnum(enum.Enum):
        A = 1

    def bare():
        pass

    assert not any(_own_docstring(obj) for obj in (Bare, BareEnum, bare))
    assert _own_docstring(wt.Verdict) and _own_docstring(wt.Family)
