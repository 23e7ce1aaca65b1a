"""Truncated-trace routes and the asymptotic expansion.

The load-bearing checks are route equality (the oscillatory radial
integral against the multiplier-side evaluation) and the expansion
bookkeeping: residuals shrinking superpolynomially, and the exact slope
and intercept, and the fitted line, recovering f(1) and -H(f)(1).  The
two routes share one kernel, gamma_multiplier (and log_gamma under it),
pinned on its own by test_specfun.py::test_line_multipliers_vs_mpmath;
profile_value serves the direct route alone.
Tolerances sit a few orders above error floors measured on this grid
stack.
"""

import math
import re
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_legendre, spherical_jn

from quatgamma import _quadrature, connes_trace, spectral_line
from quatgamma._errors import QuadratureError
from quatgamma.additive_oracle import op_b_via_distribution
from quatgamma.connes_trace import (
    DEFAULT_LAMBDAS,
    TraceConfig,
    TraceResult,
    _spectral_sweep,
    fit_trace_expansion,
    residual_sweep,
    trace_direct,
    trace_spectral,
)
from quatgamma.gamma_op import (
    IsotypicFunction,
    gaussian_isotypic,
    inversion,
    op_H,
    value_at_identity,
)
from quatgamma.specfun import gamma_multiplier, h_multiplier
from quatgamma.spectral_line import profile_value


@pytest.fixture(scope="module")
def standard():
    return gaussian_isotypic(0)


@pytest.fixture(scope="module")
def sweep(standard):
    return residual_sweep(TraceConfig(f=standard))


def gamma_inverse(f):
    """psi -> conj(gamma_N) * psi, applied on its own: the reference for
    the sweep's Gamma^{-1} I, which it forms inline from one read of gamma_N."""
    psi = f.spectral_profile
    m = np.conjugate(gamma_multiplier(f.N, psi.grid))
    return replace(f, spectral_profile=replace(psi, samples=m * psi.samples))


def _filon_fourier(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    taus: np.ndarray,
    panel_width: float = 1.0,
    degree: int = 16,
) -> np.ndarray:
    """int_lo^hi g(v) e^{i tau v} dv for every tau at once: the Filon-type
    panel transform (Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383),
    the oracle for trace_spectral's swapped-order integral above the kink.

    Per panel the smooth factor g is projected onto Legendre polynomials
    and the oscillatory moments int P_m(x) e^{i alpha x} dx = 2 i^m
    j_m(alpha) are exact, so accuracy is uniform in tau instead of
    collapsing once the phase outruns a fixed Gauss rule.

    The tau-only factors are evaluated once per distinct a = |tau|, which
    halves the work on a symmetric grid: the moments 2 i^m j_m(a h) in one
    broadcast spherical_jn call and the panel phases E = e^{i a mid}.  The
    contraction runs over panels first, as one matrix product
    E @ [c | conj c] with c the panel coefficients, then over orders, as a
    row-wise dot of each block with the moments, and gathers by tau last.
    The first block serves tau >= 0.  For tau < 0, e^{-i a mid} is
    conj(e^{i a mid}) and j_m(-x) = (-1)^m j_m(x) turns i^m into conj(i^m),
    so the value is the conjugate of the second block's dot.
    """
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])

    n_proj = degree + 4
    x, w = leggauss(n_proj)
    orders = np.arange(degree + 1)
    legendre = eval_legendre(orders[:, None], x[None, :])
    projector = legendre * w[None, :] * ((2.0 * orders + 1.0) / 2.0)[:, None]

    nodes = (mids[:, None] + half * x[None, :]).ravel()
    g_nodes = np.asarray(g(nodes), dtype=complex).reshape(n_panels, n_proj)
    coeffs = g_nodes @ projector.T  # (panels, degree+1)

    taus = np.asarray(taus, dtype=float)
    a, idx = np.unique(np.abs(taus), return_inverse=True)
    moments = 2.0 * 1j**orders * spherical_jn(orders[None, :], (a * half)[:, None])
    phases = np.exp(1j * np.outer(a, mids))  # (|tau| values, panels)
    sums = phases @ np.concatenate([coeffs, coeffs.conj()], axis=1)
    dots = np.sum(sums.reshape(len(a), 2, degree + 1) * moments[:, None, :], axis=2)
    return half * np.where(taus < 0.0, dots[idx, 1].conj(), dots[idx, 0])


def _filon_fourier_direct(g, lo, hi, taus, panel_width=1.0, degree=16):
    """Reference for _filon_fourier: the same panels, projection and
    moments, with the moments and phases evaluated at every tau and one
    three-operand contraction."""
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])

    n_proj = degree + 4
    x, w = leggauss(n_proj)
    orders = np.arange(degree + 1)
    legendre = eval_legendre(orders[:, None], x[None, :])
    projector = legendre * w[None, :] * ((2.0 * orders + 1.0) / 2.0)[:, None]

    nodes = (mids[:, None] + half * x[None, :]).ravel()
    g_nodes = np.asarray(g(nodes), dtype=complex).reshape(n_panels, n_proj)
    coeffs = g_nodes @ projector.T

    alpha = taus * half
    sign = np.where(alpha < 0.0, -1.0, 1.0)
    j = np.stack([spherical_jn(m, np.abs(alpha)) for m in orders])
    j *= sign[None, :] ** orders[:, None]  # j_m(-a) = (-1)^m j_m(a)

    phases = np.exp(1j * np.outer(taus, mids))
    moments = 2.0 * (1j**orders)[:, None] * j
    return half * np.einsum("tp,pm,mt->t", phases, coeffs, moments)


def shifted_odd(v):
    return v * np.exp(-((v - 1.0) ** 2))


def shifted_odd_transform(taus):
    # int v e^{-(v-1)^2} e^{i tau v} dv
    return (
        math.sqrt(math.pi)
        * np.exp(1j * taus)
        * np.exp(-0.25 * taus**2)
        * (1.0 + 0.5j * taus)
    )


# ------------------------------------------------------------ Filon transform


def test_filon_gaussian_closed_form():
    # int e^{-v^2/2} e^{i tau v} dv = sqrt(2 pi) e^{-tau^2/2}; the large-tau
    # entries exercise the cancellation regime where a fixed Gauss rule
    # would have lost every digit.  Measured floor 1.1e-15.
    taus = np.array([0.0, 0.5, 2.0, 7.25, 20.0, 45.0])
    got = _filon_fourier(lambda v: np.exp(-0.5 * v**2), -12.0, 12.0, taus)
    exact = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * taus**2)
    assert np.max(np.abs(got - exact)) < 1e-12


def test_filon_shifted_odd_closed_form():
    # int v e^{-(v-1)^2} e^{i tau v} dv = sqrt(pi) e^{i tau} e^{-tau^2/4}
    # (1 + i tau / 2): complex-valued target off the panel symmetry axis.
    taus = np.array([0.0, 1.5, 6.0, 18.0, -11.0])
    got = _filon_fourier(shifted_odd, -7.0, 9.0, taus)
    assert np.max(np.abs(got - shifted_odd_transform(taus))) < 1e-12
    # on a symmetric grid through 0 each tau < 0 shares its |tau| with a
    # tau > 0; the target is neither even nor real, so a missing
    # conjugation on the negative half shows here
    sym = np.linspace(-20.0, 20.0, 161)
    got = _filon_fourier(shifted_odd, -7.0, 9.0, sym)
    assert np.max(np.abs(got - shifted_odd_transform(sym))) < 1e-12


@pytest.mark.parametrize(
    "taus",
    [
        np.array([3.25, -0.5, 3.25, 0.0, -17.0, 0.5, -0.5, 9.0, 3.25]),
        np.array([-0.75, -12.0, -0.75, -4.5]),
        np.array([]),
    ],
    ids=["unsorted-repeated", "negative-only", "empty"],
)
def test_filon_any_tau_array(taus):
    # output follows the input order, repeats and all; measured 5.0e-16 x
    # peak against the reference and 4.6e-15 against the closed form
    got = _filon_fourier(shifted_odd, -7.0, 9.0, taus, panel_width=0.5)
    ref = _filon_fourier_direct(shifted_odd, -7.0, 9.0, taus, panel_width=0.5)
    assert got.shape == taus.shape and got.dtype == complex
    if taus.size:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(got - shifted_odd_transform(taus))) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 3])
def test_filon_matches_direct_on_trace_integrand(n):
    # the trace integrand above the kink on its own tau grid, at panel
    # widths 1.0 and 0.5; measured <= 2.2e-15 x peak
    f1 = gamma_inverse(inversion(gaussian_isotypic(n)))
    psi = f1.spectral_profile
    for lam in (2.0, 16.0):
        two_log = 2.0 * math.log(lam)

        def above_kink(v):
            return (two_log + v) * profile_value(psi, v)

        for width in (1.0, 0.5):
            args = (above_kink, -two_log, f1.v_half_width, psi.grid, width)
            got = _filon_fourier(*args)
            ref = _filon_fourier_direct(*args)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_above_kink_matches_filon(n):
    # the sweep kernel's closed-form integral int (L + v) K G over [-L, V],
    # L = 2 log Lambda, against the per-tau Filon transforms summed with
    # the gamma_N weights, the oracle at panel width 0.25.  Measured
    # <= 2.6e-15 relative (N = 3, Lambda = 2) on traces of magnitude 7 - 37
    f = gaussian_isotypic(n)
    f1 = gamma_inverse(inversion(f))
    psi = f1.spectral_profile
    gamma_vals = gamma_multiplier(n, psi.grid)
    weight = (n + 1) * psi.spacing / (2.0 * math.pi)
    lams = (2.0, 16.0)
    rows = _spectral_sweep(f, lams, 1e-8)
    for lam, row in zip(lams, rows):
        two_log = 2.0 * math.log(lam)

        def above_kink(v):
            return (two_log + v) * profile_value(psi, v)

        psi_plus = _filon_fourier(
            above_kink, -two_log, f1.v_half_width, psi.grid, panel_width=0.25
        )
        ref = weight * np.sum(gamma_vals * psi_plus)
        assert abs(row[0] - ref) <= 1e-13 * abs(ref)


PIN_LAMBDAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 1024.0, 1e6, 1e12)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_sweep_matches_single_cutoff_traces(n):
    # each row is computed on its own from the cutoff-free coefficients,
    # so a sweep's traces are the single-cutoff traces bit for bit
    f = gaussian_isotypic(n)
    sweep = residual_sweep(TraceConfig(f=f, lambdas=PIN_LAMBDAS))
    for r in sweep:
        assert r.trace == trace_spectral(f, r.lam)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_exact_slope_and_intercept(n):
    # at Lambda = 1024 the tail is far below rounding: measured <= 2.4e-16
    # (slope) and 1.8e-15 (intercept) relative.  H(f)(1) runs through
    # h_N (digamma), the trace through gamma_N (log-gamma), so the
    # intercept is a real check of W(f) = -H(f)(1).
    f = gaussian_isotypic(n)
    f_at_1 = value_at_identity(f)
    h_at_1 = value_at_identity(op_H(f))
    r = residual_sweep(TraceConfig(f=f, lambdas=PIN_LAMBDAS))[PIN_LAMBDAS.index(1024.0)]
    assert abs(r.slope - f_at_1) <= 1e-13 * abs(f_at_1)
    assert abs(r.intercept + h_at_1) <= 1e-13 * abs(h_at_1)
    # the two coefficients rebuild the trace
    assert abs(2.0 * math.log(r.lam) * r.slope + r.intercept - r.trace) <= 1e-13 * abs(r.trace)


def test_sweep_cost_does_not_grow_with_cutoffs(standard, monkeypatch):
    # one pass over the cutoff-independent work per sweep, not per cutoff
    counts = {"profile_value": 0, "gamma_multiplier": 0}

    def counting(name):
        inner = getattr(connes_trace, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(connes_trace, name, counting(name))
    seen = []
    for lams in (PIN_LAMBDAS[:2], PIN_LAMBDAS):
        residual_sweep(TraceConfig(f=standard, lambdas=lams))
        seen.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    assert seen[0] == seen[1] == {"profile_value": 0, "gamma_multiplier": 1}
    # one gridding FFT per profile: both refinements of trace_direct in one
    # call; the spectral route reads no profile off the grid
    for route, calls in ((trace_direct, 1), (trace_spectral, 0)):
        route(standard, 16.0)
        assert counts["profile_value"] == calls
        counts.update(dict.fromkeys(counts, 0))


# ------------------------------------------------------------ route equality


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("lam", [2.0, 4.0, 8.0])
def test_routes_agree(n, lam):
    # measured worst 6.0e-9 (N=0, Lambda=2): the spectral route truncates
    # the tau window at |tau| = 64, and the kink at -2 log Lambda leaves a
    # tau^-2 tail there that is largest where K at the kink is, at small
    # cutoffs
    f = gaussian_isotypic(n)
    d = trace_direct(f, lam)
    s = trace_spectral(f, lam)
    assert abs(d - s) <= 1e-7 * max(1.0, abs(s))


def window_tail(f, lams, top=4096.0):
    """The spectral route's tau-window tail at each cutoff: the two-term
    endpoint expansion w sum_{T < |tau_k| <= top} gamma_N(tau_k)
    e^{-i tau_k L} (-K(-L) / tau_k^2 - 2 K'(-L) / (i tau_k)^3), with K the
    log profile of Gamma^{-1} I f, w = (N + 1) dtau / 2 pi, L = 2 log Lambda
    and T the window's half-width.  g = (L + v) K has g(-L) = 0, g'(-L) =
    K(-L) and g''(-L) = 2 K'(-L), so these are the first two terms that
    each dropped tau_k would have added."""
    psi = gamma_inverse(inversion(f)).spectral_profile
    dtau, taus = psi.spacing, psi.grid
    out = dtau * np.arange(len(taus) // 2 + 1, round(top / dtau) + 1)
    out = np.concatenate([-out[::-1], out])
    gamma = (f.N + 1) * dtau / (2.0 * math.pi) * gamma_multiplier(f.N, out)
    tails = []
    for lam in lams:
        two_log = 2.0 * math.log(lam)
        weights = dtau / (2.0 * math.pi) * psi.samples * np.exp(1j * taus * two_log)
        k, dk = np.sum(weights), np.sum(-1j * taus * weights)
        terms = -k / out**2 - 2.0 * dk / (1j * out) ** 3
        tails.append(np.sum(gamma * np.exp(-1j * out * two_log) * terms))
    return tails


@pytest.mark.parametrize("n", [0, 1])
def test_route_gap_is_the_window_tail(n):
    # criterion 10's six cases: the tail accounts for the route gap, and
    # what is left is 0.5 - 8.8% of it (worst N = 1, Lambda = 4: 5.5e-11
    # relative before, 4.9e-12 after)
    f = gaussian_isotypic(n)
    lams = (2.0, 4.0, 8.0)
    for lam, tail in zip(lams, window_tail(f, lams)):
        gap = trace_direct(f, lam) - trace_spectral(f, lam)
        assert abs(gap - tail) <= 0.2 * abs(gap)


@pytest.mark.parametrize("tau_half_width", [96.0, 128.0])
def test_spectral_route_runs_on_wide_windows(tau_half_width):
    # the closed form has no frequency ceiling; 32-node panels refused
    # these windows (QuadratureError).  Measured 3.0e-12 and 1.9e-12
    f = IsotypicFunction.from_log_function(0, lambda v: np.exp(-0.5 * v * v), tau_half_width=tau_half_width)
    s = trace_spectral(f, 8.0)
    assert abs(trace_direct(f, 8.0) - s) <= 1e-10 * abs(s)


def test_zero_function_traces_vanish(standard):
    z = IsotypicFunction.from_log_function(0, lambda v: np.zeros_like(v))
    assert abs(trace_direct(z, 4.0)) <= 1e-15
    assert abs(trace_spectral(z, 4.0)) <= 1e-15


def test_traces_are_real(sweep):
    # real profile, real weight: measured imaginary part 3.1e-15
    for r in sweep:
        assert abs(r.trace.imag) <= 1e-12


# ------------------------------------------------------------------ expansion


def test_standard_profile_value_at_identity(standard):
    # f(1) = (N+1) K(0) = 1 for the centered unit Gaussian
    assert abs(value_at_identity(standard) - 1.0) <= 1e-12


def test_residual_bookkeeping_is_exact(sweep, standard):
    f_at_1 = value_at_identity(standard)
    h_at_1 = value_at_identity(op_H(standard))
    for r in sweep:
        assert r.residual == r.trace - r.leading + r.h_term
        assert r.leading == 2.0 * math.log(r.lam) * f_at_1
        assert r.h_term == h_at_1


def test_residuals_strictly_decreasing(sweep):
    mags = [abs(r.residual) for r in sweep]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_residual_decay_is_superpolynomial(sweep):
    # |R(2 Lambda)| / |R(Lambda)| should itself shrink.  The last ratio
    # of the default sweep is excluded: |R(64)| ~ 7e-15 is the arithmetic
    # floor, not the analytic tail, so its ratio is noise.
    mags = [abs(r.residual) for r in sweep]
    ratios = [b / a for a, b in zip(mags, mags[1:])]
    meaningful = ratios[:-1]
    assert all(q < 0.1 for q in meaningful)
    assert all(b < a for a, b in zip(meaningful, meaningful[1:]))


def test_residual_smallness_at_16(sweep, standard):
    h_at_1 = value_at_identity(op_H(standard))
    r16 = next(r for r in sweep if r.lam == 16.0)
    # measured |R(16)| = 8.4e-10 against |H(f)(1)| = 5.95
    assert abs(r16.residual) <= 1e-3 * abs(h_at_1)


def test_corrected_leading_ratio(sweep, standard):
    # Tr(Lambda) + H(f)(1) ~ 2 log(Lambda) f(1): ratio within 2% at the
    # top of the sweep (measured 5e-17; the uncorrected ratio plateaus
    # at 1 + |H|/2logLambda and is useless at any feasible cutoff)
    h_at_1 = value_at_identity(op_H(standard))
    top = sweep[-1]
    ratio = (top.trace + h_at_1) / (2.0 * math.log(top.lam) * value_at_identity(standard))
    assert abs(ratio - 1.0) <= 0.02


def test_fit_recovers_f1_and_h(sweep, standard):
    # measured relative errors 4.1e-8 (slope) and 5.1e-8 (intercept)
    slope, intercept = fit_trace_expansion(sweep)
    f_at_1 = value_at_identity(standard).real
    h_at_1 = value_at_identity(op_H(standard)).real
    assert abs(slope - f_at_1) <= 1e-6 * abs(f_at_1)
    assert abs(intercept - (-h_at_1)) <= 1e-6 * abs(h_at_1)


def test_intercept_matches_h_routes(sweep, standard):
    # three independent computations of H(f)(1): the multiplier route,
    # the raw spectral sum, and the additive convolution B(I(f))(1)
    # (A kills the identity point and H commutes with inversion)
    h_op = value_at_identity(op_H(standard))
    psi = standard.spectral_profile
    h_sum = (
        (standard.N + 1)
        * psi.spacing
        / (2.0 * math.pi)
        * np.sum(h_multiplier(standard.N, psi.grid) * psi.samples)
    )
    assert abs(h_op - h_sum) <= 1e-10
    b_conv = op_b_via_distribution(inversion(standard))
    assert abs(b_conv - h_op) <= 1e-8
    _, intercept = fit_trace_expansion(sweep)
    assert abs(intercept - (-h_op.real)) <= 1e-6 * abs(h_op)


# ------------------------------------------------------------------ validation


def test_config_validation(standard):
    with pytest.raises(ValueError):
        TraceConfig(f=standard, lambdas=())
    with pytest.raises(ValueError):
        TraceConfig(f=standard, lambdas=(0.5, 2.0))
    with pytest.raises(ValueError):
        TraceConfig(f=standard, lambdas=(2.0, 2.0))
    cfg = TraceConfig(f=standard, lambdas=[2, 4])
    assert cfg.lambdas == (2.0, 4.0)


def test_cutoff_must_exceed_one(standard):
    with pytest.raises(ValueError):
        trace_direct(standard, 1.0)
    with pytest.raises(ValueError):
        trace_spectral(standard, 0.5)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_cutoff_is_refused(standard, lam):
    # a nan cutoff would skip the direct route's panel loop and return 0,
    # an infinite one would never leave it
    match = f"cutoff must be finite and exceed 1, got {lam}"
    with pytest.raises(ValueError, match=match):
        trace_direct(standard, lam)
    with pytest.raises(ValueError, match=match):
        trace_spectral(standard, lam)
    with pytest.raises(ValueError, match=match):
        TraceConfig(f=standard, lambdas=(2.0, lam))


def test_spectral_route_runs_no_transform(standard, monkeypatch):
    # to_spectral and from_spectral both run through _unit_chirp_sum; the
    # spectral route reads neither K nor G off the grid by profile_value,
    # the direct route's kernel, and integrates on no Gauss-Legendre rule
    calls = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(spectral_line, "_unit_chirp_sum")
    counting(spectral_line, "profile_value")
    counting(connes_trace, "profile_value")
    counting(_quadrature, "legendre_rule")
    trace_spectral(standard, 4.0)
    assert calls == []
    trace_direct(standard, 4.0)
    assert "profile_value" in calls and "legendre_rule" in calls


def test_routes_reuse_cached_legendre_rules(standard, monkeypatch):
    trace_direct(standard, 4.0)
    trace_spectral(standard, 4.0)

    def rebuild(n):
        raise AssertionError(f"Gauss-Legendre rule with {n} nodes rebuilt")

    monkeypatch.setattr(_quadrature, "leggauss", rebuild)
    trace_direct(standard, 4.0)
    trace_spectral(standard, 4.0)


def test_direct_refinement_failure_is_reported(standard, monkeypatch):
    # two nodes per panel cannot resolve a full oscillation period; the
    # coarse/fine disagreement is 5e-3 at this cutoff
    monkeypatch.setattr(connes_trace, "_DIRECT_PANEL_NODES", 2)
    match = (r"^trace_direct at cutoff 8\.0: refinements at 2 and 3 nodes per panel: "
             r"estimate \S+ not within tolerance 1\.000e-08$")
    with pytest.raises(QuadratureError, match=match):
        trace_direct(standard, 8.0)


@pytest.mark.parametrize("v_min", [math.nan, math.inf, -math.inf, 5.0, 2.0 * math.log(2.0), -64.5])
def test_direct_refuses_an_empty_or_unbounded_interval(standard, v_min):
    # at cutoff 2, v_min = 5 or nan gave 0j: both refinements were empty
    # sums, so they agreed
    with pytest.raises(ValueError, match=r"^v_min must lie in \[-64, 2 log\(cutoff\) = 1\.386\)"):
        trace_direct(standard, 2.0, v_min=v_min)


def test_direct_accepts_the_window_edge(standard):
    # the same integrand on [-64, -40] adds below 1e-8 of the trace
    edge = trace_direct(standard, 2.0, v_min=-64.0)
    assert abs(edge - trace_direct(standard, 2.0)) <= 1e-8 * abs(edge)


def test_spectral_refinement_check_is_live(standard, monkeypatch):
    # the closed-form sum's rounding estimate is 2.0e-15 at cutoff 4 and
    # 2.4e-15 at cutoff 2 (its terms' magnitudes add to 18 and 21 times
    # |Tr|), so a zero tolerance must trip the guard, which names the
    # cutoff, the first of a sweep's list that fails
    monkeypatch.setattr(connes_trace, "_TOLERANCE", 0.0)
    with pytest.raises(QuadratureError, match=r"^trace_spectral at cutoff 4\.0: .* tolerance 0\.000e\+00$"):
        trace_spectral(standard, 4.0)
    with pytest.raises(QuadratureError, match=r"^trace_spectral at cutoff 2\.0: "):
        residual_sweep(TraceConfig(f=standard, lambdas=(2.0, 4.0), tolerance=0.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_direct_refuses_a_tolerance_that_checks_nothing(standard, tol):
    # gap > nan is always False: a NaN or infinite tol returned 7.3355 unchecked
    with pytest.raises(ValueError, match="^tol must be finite and at least 0"):
        trace_direct(standard, 2.0, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_sweep_refuses_a_tolerance_that_checks_nothing(standard, tol):
    with pytest.raises(ValueError, match="^tolerance must be finite and at least 0"):
        residual_sweep(TraceConfig(f=standard, lambdas=(2.0,), tolerance=tol))


@pytest.mark.parametrize("log_lam", [32.0, 32.5, 40.0])
def test_spectral_refuses_kink_outside_window(standard, log_lam):
    # the kink -2 log Lambda must lie inside the log window [-64, 64];
    # beyond it the weight max(2 log Lambda + v, 0) is positive on the
    # whole window and the interval [v0, 64] would reach past its edge.
    # At Lambda = e^32 the kink is exactly -64.0, the window's edge
    lam = math.exp(log_lam)
    with pytest.raises(ValueError, match="outside the log window"):
        trace_spectral(standard, lam)
    # in a sweep the refusal names the cutoff whose kink is outside
    with pytest.raises(ValueError, match=f"^cutoff {re.escape(str(lam))} puts the kink"):
        residual_sweep(TraceConfig(f=standard, lambdas=(2.0, lam)))


def test_fit_needs_two_points(sweep):
    # the fit keeps the cutoffs from 8 up: none of 2 and 4, one of 4 and 8
    for few in ([r for r in sweep if r.lam < 8.0], [r for r in sweep if r.lam in (4.0, 8.0)]):
        with pytest.raises(ValueError, match="at least two cutoffs at or above 8"):
            fit_trace_expansion(few)


def test_fit_keeps_min_lambda_and_fits_two_points():
    # traces exactly on 1.5 * 2 log(Lambda) - 0.25: of 4, 8 and 16 the
    # cutoff 8 is the fit's least and is kept, and two cutoffs are a fit
    def on_line(lam):
        trace = complex(1.5 * 2.0 * math.log(lam) - 0.25)
        return TraceResult(lam, trace, 0j, 0j, 0j, 0j, 0j)

    slope, intercept = fit_trace_expansion([on_line(lam) for lam in (4.0, 8.0, 16.0)])
    assert abs(slope - 1.5) <= 1e-13 and abs(intercept + 0.25) <= 1e-13


def test_default_lambda_sweep_shape(sweep):
    assert tuple(r.lam for r in sweep) == DEFAULT_LAMBDAS
    assert all(isinstance(r, TraceResult) for r in sweep)
