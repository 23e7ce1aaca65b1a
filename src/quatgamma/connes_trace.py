"""Truncated trace of the scaling action twisted by the Gamma operator,
evaluated by two independent routes.

For an isotypic f with value f(1) at the identity, the trace over the
module ball |Y| <= Lambda^2 expands as

    Tr(Lambda) = 2 log(Lambda) f(1) - H(f)(1) + R(Lambda),

with H the log-weight operator and R(Lambda) -> 0 superpolynomially for
profiles with fast spectral decay.

Direct route: the trace is the weighted additive integral

    sqrt(2 pi^2) int_{|Y| <= Lambda^2} (2 log Lambda - log|Y|) lambda(Y)
                 (Gamma f)_a(Y) dY,

which the radial-angular reduction collapses to a one-dimensional
oscillatory integral against the class-measure Bessel factor (see
trace_direct).  Spectral route: the cutoff operator is conjugated through
Gamma,

    (2 log Lambda - B)_+ = Gamma (2 log Lambda + A)_+ Gamma^{-1},

so the weight becomes plain multiplication by max(2 log Lambda + v, 0) on
the log side (see trace_spectral).  The weight vanishes below its kink at
v0 = -2 log Lambda, and the weighted profile enters the trace only through
its gamma_N-weighted sum over the finite tau-grid, so sum and integral
swap: the trace is one integral over [v0, V] of the weighted K against
G(v) = sum_k gamma_N(tau_k) e^{i tau_k v}.  G is band-limited to the
tau-window, so fixed Gauss-Legendre panels resolve the product to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._errors import QuadratureError
from ._quadrature import gauss_panels, legendre_rule
from .gamma_op import (
    IsotypicFunction,
    gamma_inverse,
    gamma_transform,
    inversion,
    op_H,
    value_at_identity,
)
from .specfun import gamma_multiplier
from .spectral_line import Profile, profile_value
from .su2_angular import angular_bessel

__all__ = [
    "TraceConfig",
    "TraceResult",
    "trace_direct",
    "trace_spectral",
    "residual_sweep",
    "fit_trace_expansion",
]

DEFAULT_LAMBDAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _check_cutoff(lam: float) -> None:
    """Refuse a cutoff that is not a finite number above 1."""
    if not 1.0 < lam < math.inf:
        raise ValueError(f"cutoff must be finite and exceed 1, got {lam}")


@dataclass(frozen=True)
class TraceConfig:
    """Sweep configuration: the profile, the cutoff list (finite, strictly
    increasing, all above 1), quadrature resolutions, and the refinement
    tolerance.  radial_nodes (Gauss nodes per radial panel) parameterizes
    the direct route; the spectral route does not use it."""

    f: IsotypicFunction
    lambdas: Tuple[float, ...] = DEFAULT_LAMBDAS
    radial_nodes: int = 16
    tolerance: float = 1e-8
    fit_min_lambda: float = 8.0

    def __post_init__(self) -> None:
        lams = tuple(float(l) for l in self.lambdas)
        if len(lams) == 0:
            raise ValueError("lambdas must be non-empty")
        for lam in lams:
            _check_cutoff(lam)
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambdas must be strictly increasing")
        if self.radial_nodes < 2:
            raise ValueError("radial_nodes must be at least 2")
        object.__setattr__(self, "lambdas", lams)


@dataclass(frozen=True)
class TraceResult:
    """One cutoff's trace and its expansion bookkeeping: leading term
    2 log(Lambda) f(1), the constant -H(f)(1), and what is left over."""

    lam: float
    trace: complex
    leading: complex
    h_term: complex
    residual: complex


# ------------------------------------------------------------ direct route


def _direct_panel_edges(v_min: float, v_top: float) -> np.ndarray:
    """Panel edges in v = log|Y|, width shrinking like 2/r near the top so
    the Bessel oscillation (phase slope pi * r per unit v) stays within a
    16-node panel's resolving power."""
    edges = [v_min]
    while edges[-1] < v_top:
        width = min(1.0, 2.0 / math.exp(edges[-1] / 4.0))
        edges.append(min(edges[-1] + width, v_top))
    return np.array(edges)


def _direct_quadrature(
    gamma_f: IsotypicFunction,
    lam: float,
    nodes_per_panel: int,
    v_min: float,
) -> complex:
    two_log = 2.0 * math.log(lam)
    edges = _direct_panel_edges(v_min, two_log)
    v, wt = gauss_panels(edges, nodes_per_panel)
    kernel = profile_value(gamma_f.spectral_profile, v)
    bess = angular_bessel(gamma_f.N, np.exp(v / 4.0))
    integrand = (two_log - v) * kernel * bess * np.exp(v / 2.0)
    return complex(2.0 * np.pi**2 * np.sum(wt * integrand))


def trace_direct(
    f: IsotypicFunction,
    lam: float,
    tol: float = 1e-8,
    v_min: float = -40.0,
    nodes_per_panel: int = 16,
) -> complex:
    """Trace by the additive integral, radially reduced to

        2 pi^2 int_{v_min}^{2 log Lambda} (2 log Lambda - v) K_Gamma(v)
               angular_bessel(N, e^{v/4}) e^{v/2} dv

    where K_Gamma is the log-profile of Gamma(f).  Two refinements (node
    count raised by half) must agree within tol, else the quadrature
    reports failure.
    """
    _check_cutoff(lam)
    gamma_f = gamma_transform(f)
    coarse = _direct_quadrature(gamma_f, lam, nodes_per_panel, v_min)
    fine = _direct_quadrature(gamma_f, lam, nodes_per_panel + nodes_per_panel // 2, v_min)
    if abs(coarse - fine) > tol * max(1.0, abs(fine)):
        raise QuadratureError(
            f"trace_direct: refinements at {nodes_per_panel} and "
            f"{nodes_per_panel + nodes_per_panel // 2} nodes per panel disagree by "
            f"{abs(coarse - fine):.3e} (tol {tol:g}) at cutoff {lam}"
        )
    return fine


# ---------------------------------------------------------- spectral route


def _above_kink_sum(
    psi: Profile, gamma_vals: np.ndarray, two_log: float, hi: float, panel_width: float
) -> complex:
    """sum_k gamma_vals[k] psi_+(tau_k), psi_+ the transform of
    g = (2 log Lambda + v) K over [-2 log Lambda, hi], as the single
    integral of g(v) G(v) with G(v) = sum_k gamma_vals[k] e^{i tau_k v}.
    Both factors are trigonometric sums on psi's tau-window, so their
    product is band-limited and 32-node Gauss-Legendre on equal panels of
    width at most panel_width resolves it to rounding."""
    n_panels = int(math.ceil((hi + two_log) / panel_width))
    edges = np.linspace(-two_log, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    x, w = legendre_rule(32)
    v = (mids[:, None] + half * x[None, :]).ravel()
    g = (two_log + v) * profile_value(psi, v)
    gamma_prof = Profile(psi.spacing, psi.half_width, gamma_vals)
    G = (2.0 * np.pi / psi.spacing) * profile_value(gamma_prof, -v)
    return complex(half * np.sum(np.tile(w, n_panels) * g * G))


def trace_spectral(f: IsotypicFunction, lam: float, tol: float = 1e-8) -> complex:
    """Trace through Gamma max(2 log Lambda + A, 0) Gamma^{-1} applied to
    the inverted profile and read off at the identity.

    The weight is exact on the log side and vanishes below its kink at
    v0 = -2 log Lambda, so the trace is the gamma_N-weighted tau-sum of
    the transform of (2 log Lambda + v) K over [v0, V] alone, integrated
    in swapped order (_above_kink_sum).  Two panel widths must agree
    within tol.  A cutoff of e^{V/2} or more puts the kink outside the
    log window and is refused.
    """
    _check_cutoff(lam)
    two_log = 2.0 * math.log(lam)
    v_half = f.v_half_width
    if two_log >= v_half:
        raise ValueError(
            f"cutoff {lam} puts the kink -2 log(Lambda) = {-two_log:.4g} outside the log "
            f"window [-{v_half:g}, {v_half:g}]; cutoffs must stay below e^{v_half / 2:g}"
        )
    psi = gamma_inverse(inversion(f)).spectral_profile
    gamma_vals = gamma_multiplier(f.N, psi.grid)
    coarse = _above_kink_sum(psi, gamma_vals, two_log, v_half, panel_width=1.0)
    fine = _above_kink_sum(psi, gamma_vals, two_log, v_half, panel_width=0.5)
    weight = (f.N + 1) * psi.spacing / (2.0 * np.pi)
    trace, gap = weight * fine, weight * abs(fine - coarse)
    if gap > tol * max(1.0, abs(trace)):
        raise QuadratureError(
            f"trace_spectral: above-kink panel widths 1.0 and 0.5 disagree by "
            f"{gap:.3e} (tol {tol:g}) at cutoff {lam}"
        )
    return complex(trace)


# ------------------------------------------------------------------ sweeps


def residual_sweep(config: TraceConfig) -> List[TraceResult]:
    """Spectral-route traces over the cutoff list, with the expansion
    bookkeeping attached.  The spectral route is used because its cost and
    accuracy are uniform in Lambda; trace_direct remains the independent
    cross-check."""
    f = config.f
    f_at_1 = value_at_identity(f)
    h_at_1 = value_at_identity(op_H(f))
    results = []
    for lam in config.lambdas:
        tr = trace_spectral(f, lam, tol=config.tolerance)
        leading = 2.0 * math.log(lam) * f_at_1
        results.append(
            TraceResult(
                lam=lam,
                trace=tr,
                leading=leading,
                h_term=h_at_1,
                residual=tr - leading + h_at_1,
            )
        )
    return results


def fit_trace_expansion(
    results: Sequence[TraceResult], min_lambda: float = 8.0
) -> Tuple[float, float]:
    """Least-squares line trace ~ slope * 2 log(Lambda) + intercept over
    the cutoffs at or above min_lambda.  For a well-resolved profile the
    slope recovers f(1) and the intercept recovers -H(f)(1)."""
    kept = [r for r in results if r.lam >= min_lambda]
    if len(kept) < 2:
        raise ValueError("need at least two cutoffs at or above min_lambda")
    x = np.array([2.0 * math.log(r.lam) for r in kept])
    y = np.array([r.trace.real for r in kept])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)
