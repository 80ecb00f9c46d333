"""Norming constants for the maxima normalization F^n(a_n x + b_n).

The location is computed twice on purpose: ``b_exact`` solves the defining
level F(b) = exp(-1/n) (equivalently -log(-log F(b)) = log n), while
``b_asymptotic`` is H^{-1}(log n).  The two differ at order e^-log n / log n,
which is measurable at desk scales, and all error-curve work downstream
uses the exact one.  :func:`locate` is the one place ``b_exact`` is solved
and the k-jet there is taken; it returns a :class:`Location`, the point
every quantity at that block size works from.  The scale is
a_n = 1/k(b_exact) from that jet, never 1/H'(b).  A caller that needs
several quantities at one log n (the CLI's ``report``) keeps the Location
that :func:`norming_located` returns and solves b_exact once.

Convention note: the defining level is F(b_n) = exp(-1/n), not
1 - F(b_n) = 1/n (they differ at order 1/n); output metadata records this.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .errors import InvalidBlockSizeError
from .model import (
    KJet,
    WeibullTypeModel,
    cumulative_hazard_inverse,
    gumbel_coordinate_inverse,
    k_jet,
)

NORMING_CONVENTION = "F(b_n) = exp(-1/n)"


class NormingConstants(NamedTuple):
    """a_n and b_n, exact and asymptotic, of F^n(a_n x + b_n), n = e^log_n."""

    log_n: float
    b_exact: float
    b_asymptotic: float
    a_scale: float


class Location(NamedTuple):
    """b_n = b_exact at block size n = e^log_n and the k-jet (k, k') there."""

    log_n: float
    b: float
    jet: KJet


def _require_block_size(log_n: float) -> None:
    if not log_n > 0.0:
        raise InvalidBlockSizeError(f"log n must be positive, got {log_n!r}")


def locate(model: WeibullTypeModel, log_n: float) -> Location:
    """The one root solve for b_exact and the one k-jet every quantity
    starts from, at block size n = e^log_n."""
    _require_block_size(log_n)
    b = gumbel_coordinate_inverse(model, log_n)
    return Location(log_n, b, k_jet(model, b, 1))


def norming_located(model: WeibullTypeModel, log_n: float) -> Tuple[NormingConstants, Location]:
    """:func:`norming` and the Location of its b_exact."""
    # b_asymptotic before b_exact: a log n below an extended-Weibull
    # support floor is refused at the H level y = log n
    _require_block_size(log_n)
    b_asymptotic = cumulative_hazard_inverse(model, log_n)
    loc = locate(model, log_n)
    constants = NormingConstants(
        log_n=log_n,
        b_exact=loc.b,
        b_asymptotic=b_asymptotic,
        a_scale=1.0 / loc.jet.values[0],
    )
    return constants, loc


def norming(model: WeibullTypeModel, log_n: float) -> NormingConstants:
    """The norming constants of ``model`` at block size n = e^log_n."""
    return norming_located(model, log_n)[0]
