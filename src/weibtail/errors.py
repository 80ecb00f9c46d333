"""Exception hierarchy with machine-readable codes.

Every failure mode that can cross the CLI boundary carries a stable
``code`` string; the CLI serializes it as a JSON error object and exits
with status 3.
"""

from __future__ import annotations


class WeibtailError(Exception):
    """Base class for all numeric/domain failures raised by this package."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


class StencilFailureError(WeibtailError):
    """A finite-difference stencil hit a non-finite function value."""

    code = "stencil_failure"


class BracketMissError(WeibtailError):
    """Root target above f at the capped right end of the bracket."""

    code = "bracket_miss"


class NoConvergenceError(WeibtailError):
    """A root solve used up its iteration budget short of the tolerance."""

    code = "no_convergence"


class EvalFailureError(WeibtailError):
    """A function evaluation returned a non-finite value."""

    code = "eval_failure"


class OutsideTailRegionError(WeibtailError):
    """Cumulative hazard argument outside (0, inf)."""

    code = "outside_tail_region"


class DomainError(WeibtailError):
    """Slowly varying function evaluated outside its domain or non-positive."""

    code = "domain_error"


class InsufficientGridError(WeibtailError):
    """Evaluation grid too short or spanning too few decades."""

    code = "insufficient_grid"


class BelowSupportError(WeibtailError):
    """Argument below the model's lower support endpoint."""

    code = "below_support"


class BelowRangeError(WeibtailError):
    """Root target below f at the lower end of the range it is solved over."""

    code = "below_range"


class TailUnderflowError(WeibtailError):
    """F(x) is 0 or 1 at double precision; k-functionals undefined."""

    code = "tail_underflow"


class InvalidBlockSizeError(WeibtailError):
    """log n must be a positive real."""

    code = "invalid_block_size"


class GridSupportEmptyError(WeibtailError):
    """Every grid point was clipped by the GEV support constraint."""

    code = "grid_support_empty"


class DegenerateProfileError(WeibtailError):
    """Remainder denominator vanishes on the whole grid (exact-Gumbel case)."""

    code = "degenerate_profile"


class ThetaOneExcludedError(WeibtailError):
    """Asymptotics in (theta - 1) are undefined at theta = 1."""

    code = "theta_one_excluded"
