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

so the weight becomes max(L + v, 0), L = 2 log Lambda, on the log side.
It vanishes below its kink at -L, and the weighted profile enters the
trace only through its gamma_N-weighted sum over the finite tau-grid, so
sum and integral swap: with P = K G, G(v) = sum_k gamma_N(tau_k)
e^{i tau_k v}, C0(a) = int_a^V P, C1(a) = int_a^V v P and
w = (N + 1) dtau / 2 pi,

    Tr(Lambda) = w int_{-L}^{V} (L + v) P(v) dv = w (L C0(-L) + C1(-L)).

K and G are trigonometric sums on one tau-lattice, so w P(v) = sum_d c_d
e^{-i d dtau v}, d = -(n - 1) .. n - 1, and C0 and C1 are finite sums of
closed forms (_spectral_sweep).  Each cutoff's row is the trace, its exact
slope w C0 -> f(1) and exact intercept w C1 -> -H(f)(1), the same bits in
any cutoff list: those of the truncated problem, whose unchecked tau-window
tail (like tau^-2 from the kink) is the gap to the direct route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from ._errors import QuadratureError, check, check_tolerance
from ._quadrature import gauss_panels, refinement_gap
from .gamma_op import IsotypicFunction, gamma_transform, op_H, value_at_identity
from .specfun import gamma_multiplier
from .spectral_line import profile_value
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

# tolerance: TraceConfig's and trace_direct's default, trace_spectral's value
_TOLERANCE = 1e-8
# nodes per panel of trace_direct's coarse pass; its fine pass has half as many again
_DIRECT_PANEL_NODES = 16
# fit_trace_expansion fits the cutoffs from this one up
_FIT_MIN_LAMBDA = 8.0


def _check_cutoff(lam: float) -> None:
    """Refuse a cutoff that is not a finite number above 1."""
    if not 1.0 < lam < math.inf:
        raise ValueError(f"cutoff must be finite and exceed 1, got {lam}")


@dataclass(frozen=True)
class TraceConfig:
    """Sweep configuration: the profile, the cutoff list (finite, strictly
    increasing, all above 1), and the tolerance of the spectral sum's
    rounding estimate (finite, at least 0)."""

    f: IsotypicFunction
    lambdas: Tuple[float, ...] = DEFAULT_LAMBDAS
    tolerance: float = _TOLERANCE

    def __post_init__(self) -> None:
        lams = tuple(float(l) for l in self.lambdas)
        if len(lams) == 0:
            raise ValueError("lambdas must be non-empty")
        for lam in lams:
            _check_cutoff(lam)
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambdas must be strictly increasing")
        check_tolerance("tolerance", self.tolerance)
        object.__setattr__(self, "lambdas", lams)


@dataclass(frozen=True)
class TraceResult:
    """One cutoff's trace, its exact slope (-> f(1)) and intercept
    (-> -H(f)(1)), and the expansion bookkeeping: leading term
    2 log(Lambda) f(1), the constant -H(f)(1), and what is left over."""

    lam: float
    trace: complex
    slope: complex
    intercept: complex
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


def _direct_sum(N: int, two_log: float, v: np.ndarray, wt: np.ndarray, kernel: np.ndarray) -> complex:
    """One refinement's radial integral; its temporaries go on return."""
    bess = angular_bessel(N, np.exp(v / 4.0))
    integrand = (two_log - v) * kernel * bess * np.exp(v / 2.0)
    integrand *= wt
    return complex(2.0 * np.pi**2 * np.sum(integrand))


def _direct_quadratures(
    gamma_f: IsotypicFunction, two_log: float, v_min: float, nodes: Sequence[int]
) -> List[complex]:
    """The radial integral at each node count per panel, from one
    profile_value call; each rule is dropped once summed."""
    edges = _direct_panel_edges(v_min, two_log)
    rules = [gauss_panels(edges, n) for n in nodes]
    kernels = profile_value(gamma_f.spectral_profile, np.concatenate([v for v, _ in rules]))
    values = []
    while rules:
        v, wt = rules.pop(0)
        values.append(_direct_sum(gamma_f.N, two_log, v, wt, kernels[: len(v)]))
        kernels = kernels[len(v) :]
    return values


def trace_direct(
    f: IsotypicFunction, lam: float, tol: float = _TOLERANCE, v_min: float = -40.0
) -> complex:
    """Trace by the additive integral, radially reduced to

        2 pi^2 int_{v_min}^{2 log Lambda} (2 log Lambda - v) K_Gamma(v)
               angular_bessel(N, e^{v/4}) e^{v/2} dv

    where K_Gamma is the log-profile of Gamma(f).  Two refinements (16
    and 24 nodes per panel) must agree within tol, else the quadrature
    reports failure.  A v_min outside [-f.v_half_width, 2 log Lambda)
    raises ValueError (an empty interval would pass that check with 0),
    and so does a tol that is not finite and at least 0.
    """
    _check_cutoff(lam)
    check_tolerance("tol", tol)
    two_log = 2.0 * math.log(lam)
    if not -f.v_half_width <= v_min < two_log:
        raise ValueError(
            f"v_min must lie in [-{f.v_half_width:g}, 2 log(cutoff) = {two_log:.4g}), got {v_min}"
        )
    n = _DIRECT_PANEL_NODES
    coarse, fine = _direct_quadratures(gamma_transform(f), two_log, v_min, (n, n + n // 2))
    stage = f"trace_direct at cutoff {lam}: refinements at {n} and {n + n // 2} nodes per panel"
    check(QuadratureError, stage, refinement_gap(fine, coarse), tol)
    return fine


# ---------------------------------------------------------- spectral route


def _spectral_sweep(f: IsotypicFunction, lambdas: Sequence[float], tol: float) -> np.ndarray:
    """Rows (Tr, w C0, w C1) at the cutoffs in lambdas' order; the weight
    vanishes at the kink, so dTr/dL = w C0(-L) and Tr - L dTr/dL = w C1(-L)
    exactly.  One FFT serves every cutoff, and each row is one complex
    exponential and four products summed, the same bits in any list.  A trace's
    rounding estimate, 2^-53 times the sum of its terms' magnitudes over
    max(1, |Tr|), must be within tol, else the first failing cutoff is named."""
    v_half = f.v_half_width
    two_logs = []
    for lam in lambdas:
        _check_cutoff(lam)
        two_log = 2.0 * math.log(lam)
        if two_log >= v_half:
            raise ValueError(
                f"cutoff {lam} puts the kink -2 log(Lambda) = {-two_log:.4g} outside the log "
                f"window [-{v_half:g}, {v_half:g}]; cutoffs must stay below e^{v_half / 2:g}"
            )
        two_logs.append(two_log)
    psi = f.spectral_profile
    n = len(psi.samples)
    gamma = gamma_multiplier(f.N, psi.grid)
    # c_d = (N + 1) (dtau / 2 pi)^2 sum_j psi1[j + d] gamma_N[j], psi1 = Gamma^{-1} I f, by FFT
    c = fft(np.conjugate(gamma) * psi.samples[::-1], next_fast_len(2 * n - 1))
    c *= fft(gamma[::-1], len(c))
    c = ifft(c, overwrite_x=True)[: 2 * n - 1] * ((f.N + 1) * (psi.spacing / (2.0 * np.pi)) ** 2)
    # d > 0 paired with -d over omega_d = -omega_{-d}, conjugated at d < 0
    omega = psi.spacing * np.arange(1, n)
    c_zero, c_pos, c_neg = c[n - 1], c[n:] / omega, np.conjugate(c[n - 2 :: -1]) / omega

    def sums(e: np.ndarray) -> Tuple[complex, complex]:
        # sum_{d != 0} c_d e_d / omega_d and / omega_d^2, e_{-d} = conj e_d; np.sum adds pairwise
        e_over = e / omega
        p1, p2, q1, q2 = (np.sum(a * b) for a in (c_pos, c_neg) for b in (e, e_over))
        return p1 - np.conjugate(q1), p2 + np.conjugate(q2)

    top1, top2 = sums(np.exp(-1j * v_half * omega))  # the upper limit's terms
    mags = np.abs(c_pos) + np.abs(c_neg)  # of the sums' terms, as |e_d| = 1
    mag1, mag2 = np.sum(mags), np.sum(mags / omega)
    rows = []
    for lam, L in zip(lambdas, two_logs):
        # antiderivatives i e^{-i omega v} / omega and e^{-i omega v} (i v / omega + 1 / omega^2)
        low1, low2 = sums(np.exp(1j * L * omega))
        span = v_half + L
        c0 = c_zero * span + 1j * (top1 - low1)
        c1 = c_zero * span * (v_half - L) / 2.0 + 1j * (v_half * top1 + L * low1) + top2 - low2
        tr = c_zero * span * span / 2.0 + 1j * span * top1 + top2 - low2
        terms = abs(c_zero) * span * span / 2.0 + span * mag1 + 2.0 * mag2
        stage = f"trace_spectral at cutoff {lam}: rounding of the closed-form sum"
        check(QuadratureError, stage, 2.0**-53 * terms / max(1.0, abs(tr)), tol)
        rows.append((tr, c0, c1))
    return np.array(rows)


def trace_spectral(f: IsotypicFunction, lam: float) -> complex:
    """Trace through Gamma max(2 log Lambda + A, 0) Gamma^{-1} applied to
    the inverted profile, read off at the identity: the one-cutoff case
    of _spectral_sweep, equal bit for bit to that cutoff's trace in any
    sweep.  Its rounding estimate must be within 1e-8 (residual_sweep
    takes its tolerance from TraceConfig); a cutoff of e^{V/2} or more
    puts the kink outside the log window and is refused."""
    return complex(_spectral_sweep(f, (lam,), _TOLERANCE)[0, 0])


# ------------------------------------------------------------------ sweeps


def residual_sweep(config: TraceConfig) -> List[TraceResult]:
    """Spectral-route traces over the cutoff list from one sweep kernel,
    with the exact slope and intercept and the expansion bookkeeping
    attached.  The spectral route is used because its cost and accuracy
    are uniform in Lambda; trace_direct remains the independent
    cross-check."""
    f = config.f
    f_at_1 = value_at_identity(f)
    h_at_1 = value_at_identity(op_H(f))
    rows = _spectral_sweep(f, config.lambdas, config.tolerance).tolist()
    results = []
    for lam, (tr, slope, intercept) in zip(config.lambdas, rows):
        leading = 2.0 * math.log(lam) * f_at_1
        residual = tr - leading + h_at_1
        results.append(TraceResult(lam, tr, slope, intercept, leading, h_at_1, residual))
    return results


def fit_trace_expansion(results: Sequence[TraceResult]) -> Tuple[float, float]:
    """Least-squares line trace ~ slope * 2 log(Lambda) + intercept over
    the cutoffs at or above _FIT_MIN_LAMBDA = 8.  For a well-resolved
    profile the slope recovers f(1) and the intercept recovers -H(f)(1)."""
    kept = [r for r in results if r.lam >= _FIT_MIN_LAMBDA]
    if len(kept) < 2:
        raise ValueError(f"need at least two cutoffs at or above {_FIT_MIN_LAMBDA:g}")
    x = np.array([2.0 * math.log(r.lam) for r in kept])
    y = np.array([r.trace.real for r in kept])
    # the normal equations in closed form: np.polyfit's LAPACK call pages in ~1 MB of code
    slope = float(np.sum((x - np.mean(x)) * y) / np.sum((x - np.mean(x)) ** 2))
    return slope, float(np.mean(y) - slope * np.mean(x))
