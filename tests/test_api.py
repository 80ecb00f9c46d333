"""The package's public names: ``weibtail.__all__`` against the module, and
the error codes against README's list."""

import ast
import dataclasses
import enum
import importlib
import os
import pkgutil
import subprocess
import sys
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
    del namespace["__builtins__"]
    assert set(namespace) == set(wt.__all__)


# the package exports penultimate's and vonmises' names lazily: in a fresh
# interpreter, what the import left out, what dir() lists before either
# module loads, the penultimate module reached as an attribute (perfbench's
# worker reads DEFAULT_GRID so), norming after both modules loaded, and
# what a star import binds beyond or short of __all__
_LAZY_PROBE = """
import sys
import weibtail as wt

lazy = ("weibtail.penultimate", "weibtail.vonmises")
seen = [[name for name in lazy if name in sys.modules], sorted(set(wt.__all__) - set(dir(wt)))]
seen.append(wt.penultimate.DEFAULT_GRID)
import weibtail.penultimate, weibtail.vonmises
seen.append(wt.norming is sys.modules["weibtail.norming"].norming)
namespace = {}
exec("from weibtail import *", namespace)
del namespace["__builtins__"]
seen.append(sorted(set(namespace) ^ set(wt.__all__)))
print(repr(seen))
"""


def test_lazy_exports_in_a_fresh_interpreter():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [[], [], (-3.0, 6.0, 1000), True, []]


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


# the module functions the interpreter calls by name (PEP 562), not code
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _unreferenced_functions(src: Path):
    """The top-level functions of the modules in ``src`` that library code
    does not reference outside their own body, by name, attribute or the
    name string an array form is looked up by."""
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own:
                defined.add(own)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.value if isinstance(node, ast.Constant) else None)
                if isinstance(name, str) and name != own:
                    referenced.add(name)
    return defined - referenced - set(wt.__all__) - MODULE_HOOKS


def test_every_function_has_a_library_caller():
    # code that only tests call is code to delete: every top-level function
    # is referenced from library code or public in weibtail.__all__
    assert _unreferenced_functions(Path(wt.__file__).parent) == set()
