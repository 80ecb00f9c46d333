"""The package's public names: ``weibtail.__all__`` against the module, and
the error codes against README's list."""

import dataclasses
import enum
import importlib
import pkgutil
from pathlib import Path
from typing import NamedTuple

import pytest

import weibtail as wt
from weibtail.errors import WeibtailError
from weibtail.model import k_jet

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
    the signature dataclasses or NamedTuple generate, not the stock enum
    text."""
    if not isinstance(obj, type):
        return bool(obj.__doc__)
    doc = obj.__dict__.get("__doc__")
    if not doc:
        return False
    generated = dataclasses.is_dataclass(obj) or issubclass(obj, tuple)
    if generated and doc.startswith(obj.__name__ + "("):
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

    class BareTuple(NamedTuple):
        x: int

    class BareEnum(enum.Enum):
        A = 1

    def bare():
        pass

    assert not any(_own_docstring(obj) for obj in (Bare, BareTuple, BareEnum, bare))
    assert _own_docstring(wt.Verdict) and _own_docstring(wt.Family)


def test_records_are_named_tuples():
    # results are plain immutable records; only the two configurable types,
    # whose API is dataclasses.replace, stay dataclasses
    dataclass_names = {
        name
        for info in pkgutil.iter_modules(wt.__path__)
        for name, obj in vars(importlib.import_module(f"weibtail.{info.name}")).items()
        if isinstance(obj, type) and obj.__module__ == f"weibtail.{info.name}"
        and dataclasses.is_dataclass(obj)
    }
    assert dataclass_names == {"WeibullTypeModel", "SlowlyVaryingSpec"}

    m = wt.pure_weibull(theta=2.0)
    report = wt.condition_sweep(m, [1e2, 1e4, 1e6, 1e8, 1e10])
    records = [
        wt.norming(m, 10.0), wt.penultimate_index(m, 10.0), wt.error_comparison(m, 10.0),
        report, report.verdicts["gomes84"], k_jet(m, 100.0),
    ]
    assert [type(r).__name__ for r in records] == [
        "NormingConstants", "PenultimateIndex", "ErrorComparison",
        "ConditionReport", "Verdict", "KJet",
    ]
    for record in records:
        assert isinstance(record, tuple)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_error_codes_unique_and_in_readme():
    # each code the CLI may print names one cause, and README lists it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    codes = [cls.code for cls in _subclasses(WeibtailError)]
    assert len(codes) == len(set(codes)), sorted(codes)
    assert [code for code in codes if f"`{code}`" not in readme] == []
