"""Complex special functions and the closed-form spectral objects.

The Gamma factor family on the critical strip 0 < Re(s) < 1 is

    gamma_factor(N, s) = i^N * (2*pi)^(2-4s) * G(2s + N/2) / G(2(1-s) + N/2)

with G Euler's Gamma function, always evaluated through log-gamma
differences (the two arguments grow like 4*|Im s|, so a quotient of Gamma
values would overflow long before the ratio stops being O(1)).

On the critical line s = 1/2 + i*tau the factor is the unimodular
multiplier gamma_multiplier(N, tau); its logarithmic derivative gives the
real multipliers

    h_multiplier(N, tau) = -4*log(2*pi) + 4*Re psi(1 + N/2 + 2i*tau)
    k_multiplier(N, tau) = 8*Im psi'(1 + N/2 + 2i*tau)

(h even, k odd; k = -dh/dtau).  All functions accept scalars or numpy
arrays in their continuous argument.
"""

from __future__ import annotations

import math
from typing import List, Union

import numpy as np
from scipy.special import loggamma, psi

from ._errors import NonConvergenceError

__all__ = [
    "LOG_2PI",
    "G_CONSTANT",
    "log_gamma",
    "digamma",
    "trigamma",
    "gamma_factor",
    "gamma_multiplier",
    "gamma_log_derivative",
    "h_multiplier",
    "k_multiplier",
    "gamma0_expansion",
]

LOG_2PI = math.log(2.0 * math.pi)

# point-mass weight of the regularized log kernel; c2 of gamma0_expansion
G_CONSTANT = 4.0 * LOG_2PI + 4.0 * np.euler_gamma - 2.0

ArrayLike = Union[float, complex, np.ndarray]

# i^N for N mod 4
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _check_right_half(z: np.ndarray, name: str) -> None:
    if np.any(z.real <= 0.0):
        raise ValueError(f"{name} requires Re(z) > 0")


def _maybe_scalar(value: np.ndarray, scalar: bool):
    return value[0] if scalar else value


# ---------------------------------------------------- log-gamma and digamma


def log_gamma(z: ArrayLike) -> ArrayLike:
    """Principal branch of log Gamma for Re(z) > 0 (scipy.special.loggamma).

    Everything in scope keeps its Gamma arguments in the right half plane
    (they have the form 2s + N/2 or 1 + N/2 + 2i*tau).  The wrapper exists
    for that guard: an argument with Re(z) <= 0 is a caller's error here,
    so it raises instead of being continued by reflection.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr)
    _check_right_half(w, "log_gamma")
    return _maybe_scalar(loggamma(w), scalar)


def digamma(z: ArrayLike) -> ArrayLike:
    """psi(z) for Re(z) > 0 (scipy.special.psi), behind the same
    right-half-plane guard as log_gamma."""
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr)
    _check_right_half(w, "digamma")
    return _maybe_scalar(psi(w), scalar)


# ---------------------------------------------------------------- trigamma

# B_{2n} for the trigamma asymptotic, n = 1..7
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_ASYMPTOTIC_ABS = 16.0  # first dropped term is ~1e-20 at |z| = 16


def trigamma(z: ArrayLike) -> ArrayLike:
    """psi'(z) for Re(z) > 0: recurrence shift to |z| >= 16, then the
    Bernoulli asymptotic series (scipy's polygamma is real-only)."""
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).copy()
    _check_right_half(w, "trigamma")
    acc = np.zeros_like(w)
    while True:
        mask = np.abs(w) < _ASYMPTOTIC_ABS
        if not mask.any():
            break
        acc[mask] += 1.0 / w[mask] ** 2
        w[mask] += 1.0
    x = 1.0 / (w * w)
    tail = np.zeros_like(w)
    for c in reversed(_TRIGAMMA_TAIL):
        tail = x * (c + tail)
    out = acc + 1.0 / w + 0.5 * x + tail / w
    return _maybe_scalar(out, scalar)


# ------------------------------------------------------------- Gamma factors


def _check_strip(s: np.ndarray) -> None:
    if np.any((s.real <= 0.0) | (s.real >= 1.0)):
        raise ValueError("s must lie in the open strip 0 < Re(s) < 1")


def gamma_factor(N: int, s: ArrayLike) -> ArrayLike:
    """Gamma factor of angular mode N at strip point s (see module docstring)."""
    if N < 0:
        raise ValueError("angular mode N must be >= 0")
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _check_strip(arr)
    half_n = 0.5 * N
    exponent = (
        (2.0 - 4.0 * arr) * LOG_2PI
        + log_gamma(2.0 * arr + half_n)
        - log_gamma(2.0 * (1.0 - arr) + half_n)
    )
    out = _I_POW[N % 4] * np.exp(exponent)
    return _maybe_scalar(out, scalar)


def gamma_multiplier(N: int, tau: ArrayLike) -> ArrayLike:
    """The unimodular multiplier gamma_N(tau) = gamma_factor(N, 1/2 + i*tau).

    On the line the Gamma-ratio is Gamma(a + 2i*tau)/Gamma(a - 2i*tau) with
    a = 1 + N/2 real, a pure phase 2*Im log Gamma(a + 2i*tau); the whole
    factor is exp of a purely imaginary number times i^N, so |result| = 1
    holds to rounding by construction.
    """
    if N < 0:
        raise ValueError("angular mode N must be >= 0")
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    phase = 2.0 * np.imag(log_gamma(1.0 + 0.5 * N + 2.0j * arr)) - 4.0 * arr * LOG_2PI
    out = _I_POW[N % 4] * np.exp(1j * phase)
    return _maybe_scalar(out, scalar)


def gamma_log_derivative(N: int, s: ArrayLike) -> ArrayLike:
    """d/ds log gamma_factor(N, s) =
    -4*log(2*pi) + 2*psi(2s + N/2) + 2*psi(2(1-s) + N/2).

    Symmetric under s -> 1-s; real on the critical line.
    """
    if N < 0:
        raise ValueError("angular mode N must be >= 0")
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _check_strip(arr)
    half_n = 0.5 * N
    out = (
        -4.0 * LOG_2PI
        + 2.0 * digamma(2.0 * arr + half_n)
        + 2.0 * digamma(2.0 * (1.0 - arr) + half_n)
    )
    return _maybe_scalar(out, scalar)


def h_multiplier(N: int, tau: ArrayLike) -> ArrayLike:
    """gamma_log_derivative on the critical line, in its real form."""
    if N < 0:
        raise ValueError("angular mode N must be >= 0")
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    val = -4.0 * LOG_2PI + 4.0 * np.real(digamma(1.0 + 0.5 * N + 2.0j * arr))
    return _maybe_scalar(val, scalar)


def k_multiplier(N: int, tau: ArrayLike) -> ArrayLike:
    """Negative tau-derivative of h_multiplier: 8*Im psi'(1 + N/2 + 2i*tau)."""
    if N < 0:
        raise ValueError("angular mode N must be >= 0")
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    val = 8.0 * np.imag(trigamma(1.0 + 0.5 * N + 2.0j * arr))
    return _maybe_scalar(val, scalar)


# ------------------------------------------------------------- series constant


def gamma0_expansion(order: int, tol: float = 1e-7) -> List[float]:
    """[c1, ..., c_order], order 2 or 3, of 2*pi^2 * gamma_factor(0, 1 - eps)
    = c1*eps + c2*eps^2 + ...: the Taylor coefficients of its quotient by eps,

        g(eps) = exp(4 eps log(2 pi) + log G(2 - 2 eps) - log G(1 + 2 eps)),

    analytic in the unit disc.  The trapezoid rule for Cauchy's integral on
    |eps| = 0.1 reads them off one FFT, with geometric convergence (Lyness
    and Moler 1967; Bornemann 2011).  The 32-point rule is returned, and
    NonConvergenceError raised where the 64-point rule (on twice its nodes)
    differs by more than tol * max(1, |c|).  Only log_gamma is read.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    r = 0.1
    eps = r * np.exp(2j * np.pi * np.arange(64) / 64)
    g = np.exp(4.0 * eps * LOG_2PI + log_gamma(2.0 - 2.0 * eps) - log_gamma(1.0 + 2.0 * eps))
    scale = r ** np.arange(order)
    coarse, fine = (np.fft.fft(w)[:order].real / (len(w) * scale) for w in (g[::2], g))
    for k, (c, gap) in enumerate(zip(coarse, np.abs(coarse - fine)), start=1):
        if gap > tol * max(1.0, abs(c)):
            raise NonConvergenceError(
                f"gamma0_expansion: coefficient c{k} gap {gap:.3e} between the 32- and "
                f"64-point circle rules > tolerance {tol * max(1.0, abs(c)):.3e}"
            )
    return [float(c) for c in coarse]
