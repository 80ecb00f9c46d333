"""Norming constants for the maxima normalization F^n(a_n x + b_n).

The location is computed twice on purpose: ``b_exact`` solves the defining
level F(b) = exp(-1/n) (equivalently -log(-log F(b)) = log n), while
``b_asymptotic`` is H^{-1}(log n).  The two differ at order e^-log n / log n,
which is measurable at desk scales, and all error-curve work downstream
uses the exact one.  :func:`locate` is the one place ``b_exact`` is solved
and the k-jet there is taken; the scale is a_n = 1/k(b_exact) from that
jet, never 1/H'(b).

Convention note: the defining level is F(b_n) = exp(-1/n), not
1 - F(b_n) = 1/n (they differ at order 1/n); output metadata records this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import InvalidBlockSizeError
from .model import (
    KJet,
    WeibullTypeModel,
    cumulative_hazard_inverse,
    gumbel_coordinate_inverse,
    k_jet,
)

NORMING_CONVENTION = "F(b_n) = exp(-1/n)"


@dataclass(frozen=True)
class NormingConstants:
    log_n: float
    b_exact: float
    b_asymptotic: float
    a_scale: float


def _require_block_size(log_n: float) -> None:
    if not log_n > 0.0:
        raise InvalidBlockSizeError(f"log n must be positive, got {log_n!r}")


def locate(model: WeibullTypeModel, log_n: float) -> Tuple[float, KJet]:
    """(b_n, (k, k') at b_n) for block size n = e^log_n: the one root
    solve for b_exact and the one k-jet every quantity starts from."""
    _require_block_size(log_n)
    b = gumbel_coordinate_inverse(model, log_n)
    return b, k_jet(model, b, 1)


def norming(model: WeibullTypeModel, log_n: float) -> NormingConstants:
    # b_asymptotic before b_exact: a log n below an extended-Weibull
    # support floor is refused at the H level y = log n
    _require_block_size(log_n)
    b_asymptotic = cumulative_hazard_inverse(model, log_n)
    b_exact, jet = locate(model, log_n)
    return NormingConstants(
        log_n=log_n,
        b_exact=b_exact,
        b_asymptotic=b_asymptotic,
        a_scale=1.0 / jet.values[0],
    )
