"""Slowly varying functions with their first four derivatives.

A spec bundles l(x) with l', l'', l''', l'''' where each derivative is
either a closed form or ``None``, in which case it is synthesized from
l itself by Richardson differentiation.  The tail families of
:mod:`weibtail.model` build H = x^(1/theta) l(x) and its derivatives from
these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import numerics
from .errors import DomainError

ScalarFn = Callable[[float], float]
# a float array to a float array of the same shape
ArrayFn = Callable[["numpy.ndarray"], "numpy.ndarray"]


def array_form(name: str, *params: float) -> ArrayFn:
    """x -> ``weibtail.arrays.<name>(x, *params)``, the array form of a
    stock spec or catalog model; numpy loads at its first call."""

    def form(x):
        from . import arrays

        return getattr(arrays, name)(x, *params)

    return form


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """l(x) > 0 on [domain_lower, inf) with derivative callables.

    ``d1``..``d4`` may be None to request numeric synthesis from ``value``.
    ``is_constant`` marks l == c, unlocking the closed-form hazard inverse.
    ``value_array``, when given, is ``value`` over a float array of points
    in the domain; it lets error curves evaluate a whole grid at once
    (without it they call ``value`` point by point).  The library never
    writes into the array it returns, so a read-only array or a view
    such as ``np.broadcast_to(c, x.shape)`` will do.
    """

    value: ScalarFn
    d1: Optional[ScalarFn] = None
    d2: Optional[ScalarFn] = None
    d3: Optional[ScalarFn] = None
    d4: Optional[ScalarFn] = None
    domain_lower: float = 1.5
    label: str = "l"
    is_constant: bool = False
    value_array: Optional[ArrayFn] = None

    def value_checked(self, x: float) -> float:
        if x < self.domain_lower:
            raise DomainError(f"{self.label}: x={x!r} below domain lower {self.domain_lower!r}")
        v = self.value(x)
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{self.label}: value at {x!r} is {v!r}, expected finite positive")
        return v

    def deriv(self, j: int, x: float) -> float:
        """j-th derivative at x, analytic when supplied, numeric otherwise."""
        if not 1 <= j <= 4:
            raise ValueError("derivative order must be in [1, 4]")
        fn = (self.d1, self.d2, self.d3, self.d4)[j - 1]
        if fn is not None:
            return fn(x)
        return numerics.derivative(self.value, x, j).value


# ----------------------------------------------------------------------
# Stock functions: constant, (log x)^beta and c + d / log x.  Closed-form
# derivatives throughout (sympy-verified).
# ----------------------------------------------------------------------


def constant(c: float = 1.0) -> SlowlyVaryingSpec:
    """l == c; marked ``is_constant`` for the closed-form hazard inverse."""
    if not c > 0.0:
        raise ValueError("constant l must be positive")
    zero = lambda x: 0.0

    return SlowlyVaryingSpec(
        value=lambda x, c=c: c,
        d1=zero, d2=zero, d3=zero, d4=zero,
        domain_lower=0.0,
        label=f"const[{c:g}]",
        is_constant=True,
        value_array=array_form("_constant_value_array", c),
    )


def _log_power_derivs(beta: float):
    def d1(x: float) -> float:
        L = math.log(x)
        return beta * L ** (beta - 1.0) / x

    def d2(x: float) -> float:
        L = math.log(x)
        return beta * L ** (beta - 2.0) * (beta - 1.0 - L) / x**2

    def d3(x: float) -> float:
        L = math.log(x)
        poly = 2.0 * L * L - 3.0 * (beta - 1.0) * L + (beta - 1.0) * (beta - 2.0)
        return beta * L ** (beta - 3.0) * poly / x**3

    def d4(x: float) -> float:
        L = math.log(x)
        poly = (
            -6.0 * L**3
            + 11.0 * (beta - 1.0) * L * L
            - 6.0 * (beta - 1.0) * (beta - 2.0) * L
            + (beta - 1.0) * (beta - 2.0) * (beta - 3.0)
        )
        return beta * L ** (beta - 4.0) * poly / x**4

    return d1, d2, d3, d4


def log_power(beta: float = 1.0) -> SlowlyVaryingSpec:
    """(log x)^beta."""
    if beta == 0.0:
        return constant(1.0)
    d1, d2, d3, d4 = _log_power_derivs(beta)

    return SlowlyVaryingSpec(
        value=lambda x, b=beta: math.log(x) ** b,
        d1=d1, d2=d2, d3=d3, d4=d4,
        domain_lower=1.5,
        label=f"logpow[{beta:g}]",
        value_array=array_form("_log_power_value_array", beta),
    )


def log_shift(c: float = 1.0, d: float = 1.0) -> SlowlyVaryingSpec:
    """c + d / log x."""
    if not c > 0.0:
        raise ValueError("c must be positive")
    m1, m2, m3, m4 = _log_power_derivs(-1.0)
    lower = 1.5
    if d < 0.0:
        # keep away from the zero of c + d/L at L = -d/c
        lower = max(lower, 2.0 * math.exp(-d / c))

    return SlowlyVaryingSpec(
        value=lambda x, c=c, d=d: c + d / math.log(x),
        d1=lambda x, d=d: d * m1(x),
        d2=lambda x, d=d: d * m2(x),
        d3=lambda x, d=d: d * m3(x),
        d4=lambda x, d=d: d * m4(x),
        domain_lower=lower,
        label=f"logshift[{c:g},{d:g}]",
        value_array=array_form("_log_shift_value_array", c, d),
    )

