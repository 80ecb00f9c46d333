"""Slowly varying functions with their first four derivatives.

A spec bundles l(x) with l', l'', l''', l'''' where each derivative is
either a closed form or ``None``, in which case it is synthesized from
l itself by Richardson differentiation.  The check routine verifies the
derivative-decay ratios x^j l^(j)(x) / l(x) -> 0 that the tail asymptotics
rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from . import numerics
from .errors import DomainError, InsufficientGridError

if TYPE_CHECKING:
    import numpy as np

ScalarFn = Callable[[float], float]
ArrayFn = Callable[["np.ndarray"], "np.ndarray"]

# Verdict thresholds: a ratio sequence counts as decaying when the last
# magnitude is under 0.1 absolute and at most half the first magnitude
# (<= so identically-zero sequences pass, e.g. constant l).
DECAY_ABS = 0.1
DECAY_SHRINK = 0.5


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

    def provenance(self, j: int) -> str:
        fn = (self.d1, self.d2, self.d3, self.d4)[j - 1]
        return "analytic" if fn is not None else "numeric"


@dataclass(frozen=True)
class SlowVariationReport:
    t_grid: Tuple[float, ...]
    ratios: Dict[int, Tuple[float, ...]] = field(default_factory=dict)
    verdicts: Dict[int, str] = field(default_factory=dict)


def sv_ratio(spec: SlowlyVaryingSpec, j: int, x: float) -> float:
    """x^j * l^(j)(x) / l(x)."""
    v = spec.value_checked(x)
    return x**j * spec.deriv(j, x) / v


def check_sv_conditions(spec: SlowlyVaryingSpec, t_grid: Sequence[float]) -> SlowVariationReport:
    """Evaluate the four decay ratios along t_grid and judge each.

    The grid must be ascending with at least 4 points spanning at least
    3 decades, all within the spec's domain.
    """
    grid = tuple(float(t) for t in t_grid)
    if len(grid) < 4:
        raise InsufficientGridError("need at least 4 grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InsufficientGridError("grid must be strictly ascending")
    if grid[0] < spec.domain_lower:
        raise InsufficientGridError(f"grid starts below domain lower {spec.domain_lower!r}")
    if grid[-1] < 1e3 * grid[0]:
        raise InsufficientGridError("grid must span at least 3 decades")
    ratios: Dict[int, Tuple[float, ...]] = {}
    verdicts: Dict[int, str] = {}
    for j in range(1, 5):
        seq = tuple(sv_ratio(spec, j, t) for t in grid)
        first, last = abs(seq[0]), abs(seq[-1])
        ok = last < DECAY_ABS and last <= DECAY_SHRINK * first
        ratios[j] = seq
        verdicts[j] = "decaying" if ok else "not_confirmed"
    return SlowVariationReport(t_grid=grid, ratios=ratios, verdicts=verdicts)


# ----------------------------------------------------------------------
# Built-in catalog: constant, (log x)^beta for beta in {-1, 1, 2}, and
# c + d / log x.  Closed-form derivatives throughout (sympy-verified).
# ----------------------------------------------------------------------


def constant(c: float = 1.0) -> SlowlyVaryingSpec:
    if not c > 0.0:
        raise ValueError("constant l must be positive")
    zero = lambda x: 0.0

    def value_array(x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.full_like(x, c)

    return SlowlyVaryingSpec(
        value=lambda x, c=c: c,
        d1=zero, d2=zero, d3=zero, d4=zero,
        domain_lower=0.0,
        label=f"const[{c:g}]",
        is_constant=True,
        value_array=value_array,
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

    def value_array(x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.log(x) ** beta

    return SlowlyVaryingSpec(
        value=lambda x, b=beta: math.log(x) ** b,
        d1=d1, d2=d2, d3=d3, d4=d4,
        domain_lower=1.5,
        label=f"logpow[{beta:g}]",
        value_array=value_array,
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

    def value_array(x: np.ndarray) -> np.ndarray:
        import numpy as np

        return c + d / np.log(x)

    return SlowlyVaryingSpec(
        value=lambda x, c=c, d=d: c + d / math.log(x),
        d1=lambda x, d=d: d * m1(x),
        d2=lambda x, d=d: d * m2(x),
        d3=lambda x, d=d: d * m3(x),
        d4=lambda x, d=d: d * m4(x),
        domain_lower=lower,
        label=f"logshift[{c:g},{d:g}]",
        value_array=value_array,
    )


def builtin_catalog() -> Dict[str, SlowlyVaryingSpec]:
    """The stock slowly varying functions used by built-in models/tests."""
    return {
        "const": constant(1.0),
        "log": log_power(1.0),
        "log-inv": log_power(-1.0),
        "log-sq": log_power(2.0),
        "log-shift": log_shift(1.0, 1.0),
    }
