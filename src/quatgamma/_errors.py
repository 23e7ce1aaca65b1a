"""Exception types, and the one guard every estimate-against-tolerance check goes
through.  No numpy: the CLI loads this module before numpy."""

from __future__ import annotations

import math

__all__ = ["QuadratureError", "NonConvergenceError", "AliasingError", "DecayError"]


class QuadratureError(RuntimeError):
    """A quadrature failed its internal error estimate."""


class NonConvergenceError(RuntimeError):
    """An extrapolation or iteration did not converge to tolerance."""


class AliasingError(ValueError):
    """Grid steps too coarse for the requested window (sampling bound violated)."""


class DecayError(ValueError):
    """A sampled profile has not decayed at the ends of its grid."""


def check(error: type, stage: str, estimate: float, tolerance: float) -> None:
    """Raise error unless estimate <= tolerance, so a NaN on either side
    fails; the message names the stage, the estimate and the tolerance."""
    if not estimate <= tolerance:
        raise error(f"{stage}: estimate {estimate:.3e} not within tolerance {tolerance:.3e}")


def check_tolerance(name: str, tol: float) -> None:
    """Refuse a tolerance parameter that is not finite and at least 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and at least 0, got {tol}")
