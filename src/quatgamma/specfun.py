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

(h even, k odd; k = -dh/dtau).

The line multipliers evaluate their special function through _on_line.
On a tau-grid symmetric about 0 (tau[::-1] == -tau, as every Profile grid
is) it evaluates the upper half and mirrors the conjugates below: z(-tau)
is conj z(tau) exactly, and loggamma, psi and trigamma commute with
conjugation bitwise (pinned for N <= 40 on the default grid).  Any other
grid, such as a CLI table's, is evaluated in full.

Every pointwise kernel of the package, here and in su2_angular and
additive_oracle, takes its point argument through _pointwise: a Python
scalar (or 0-d array) gives a Python complex or float, any other array
or sequence an array of its shape, and a mode N < 0, a point that is not
finite or a point outside the kernel's domain raises ValueError.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
from scipy.special import loggamma, psi

from ._errors import NonConvergenceError, check, check_tolerance
from ._quadrature import refinement_gap

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


# kernel domains: (test for the points outside, message)
_RIGHT_HALF_PLANE = (lambda z: z.real <= 0.0, "{name} requires Re(z) > 0")
_STRIP = (lambda s: (s.real <= 0.0) | (s.real >= 1.0), "s must lie in the open strip 0 < Re(s) < 1")


def _pointwise(dtype: type, domain: Optional[Tuple[Callable, str]] = None):
    """The argument convention of the kernels fn(x) and fn(N, x), called
    positionally: N < 0 raises, x is read as a finite dtype array and
    checked against domain, and fn runs on it at least 1-D.  A scalar or
    0-d x gives a Python scalar, any other x an array of its own shape."""

    def decorate(fn):
        @functools.wraps(fn)
        def kernel(*args):
            *mode, x = args
            if mode and mode[0] < 0:
                raise ValueError("angular mode N must be >= 0")
            arr = np.asarray(x, dtype=dtype)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{fn.__name__} needs finite points")
            if domain is not None and np.any(domain[0](arr)):
                raise ValueError(domain[1].format(name=fn.__name__))
            out = np.reshape(fn(*mode, np.atleast_1d(arr)), arr.shape)
            return out.item() if out.ndim == 0 else out

        return kernel

    return decorate


# ---------------------------------------------------- log-gamma and digamma


@_pointwise(complex, _RIGHT_HALF_PLANE)
def log_gamma(z: ArrayLike) -> ArrayLike:
    """Principal branch of log Gamma for Re(z) > 0 (scipy.special.loggamma).

    Everything in scope keeps its Gamma arguments in the right half plane
    (they have the form 2s + N/2 or 1 + N/2 + 2i*tau).  The wrapper exists
    for that guard: an argument with Re(z) <= 0 is a caller's error here,
    so it raises instead of being continued by reflection.
    """
    return loggamma(z)


@_pointwise(complex, _RIGHT_HALF_PLANE)
def digamma(z: ArrayLike) -> ArrayLike:
    """psi(z) for Re(z) > 0 (scipy.special.psi), behind the same
    right-half-plane guard as log_gamma."""
    return psi(z)


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


@_pointwise(complex, _RIGHT_HALF_PLANE)
def trigamma(z: ArrayLike) -> ArrayLike:
    """psi'(z) for Re(z) > 0: recurrence shift to |z| >= 16, then the
    Bernoulli asymptotic series (scipy's polygamma is real-only)."""
    w = z.copy()
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
    return acc + 1.0 / w + 0.5 * x + tail / w


# ------------------------------------------------------------- Gamma factors


@_pointwise(complex, _STRIP)
def gamma_factor(N: int, s: ArrayLike) -> ArrayLike:
    """Gamma factor of angular mode N at strip point s (see module docstring)."""
    half_n = 0.5 * N
    exponent = (
        (2.0 - 4.0 * s) * LOG_2PI
        + log_gamma(2.0 * s + half_n)
        - log_gamma(2.0 * (1.0 - s) + half_n)
    )
    return _I_POW[N % 4] * np.exp(exponent)


def _on_line(kernel: Callable[[np.ndarray], np.ndarray], N: int, tau: np.ndarray) -> np.ndarray:
    """kernel(1 + N/2 + 2i*tau) for log_gamma, digamma or trigamma; on a
    symmetric grid from its upper half (see the module docstring)."""
    z = 1.0 + 0.5 * N + 2.0j * tau
    if tau.ndim != 1 or not np.array_equal(tau[::-1], -tau):
        return kernel(z)
    half = len(tau) // 2
    upper = kernel(z[half:])
    return np.concatenate([np.conjugate(upper[::-1][:half]), upper])


@_pointwise(float)
def gamma_multiplier(N: int, tau: ArrayLike) -> ArrayLike:
    """The unimodular multiplier gamma_N(tau) = gamma_factor(N, 1/2 + i*tau).

    On the line the Gamma-ratio is Gamma(a + 2i*tau)/Gamma(a - 2i*tau) with
    a = 1 + N/2 real, a pure phase 2*Im log Gamma(a + 2i*tau); the whole
    factor is exp of a purely imaginary number times i^N, so |result| = 1
    holds to rounding by construction.
    """
    phase = 2.0 * np.imag(_on_line(log_gamma, N, tau)) - 4.0 * tau * LOG_2PI
    return _I_POW[N % 4] * np.exp(1j * phase)


@_pointwise(complex, _STRIP)
def gamma_log_derivative(N: int, s: ArrayLike) -> ArrayLike:
    """d/ds log gamma_factor(N, s) =
    -4*log(2*pi) + 2*psi(2s + N/2) + 2*psi(2(1-s) + N/2).

    Symmetric under s -> 1-s; real on the critical line.
    """
    half_n = 0.5 * N
    return (
        -4.0 * LOG_2PI
        + 2.0 * digamma(2.0 * s + half_n)
        + 2.0 * digamma(2.0 * (1.0 - s) + half_n)
    )


@_pointwise(float)
def h_multiplier(N: int, tau: ArrayLike) -> ArrayLike:
    """gamma_log_derivative on the critical line, in its real form."""
    return -4.0 * LOG_2PI + 4.0 * np.real(_on_line(digamma, N, tau))


@_pointwise(float)
def k_multiplier(N: int, tau: ArrayLike) -> ArrayLike:
    """Negative tau-derivative of h_multiplier: 8*Im psi'(1 + N/2 + 2i*tau)."""
    return 8.0 * np.imag(_on_line(trigamma, N, tau))


# ------------------------------------------------------------- series constant


def gamma0_expansion(order: int, tol: float = 1e-7) -> List[float]:
    """[c1, ..., c_order], order 2 or 3, of 2*pi^2 * gamma_factor(0, 1 - eps)
    = c1*eps + c2*eps^2 + ...: the Taylor coefficients of its quotient by eps,

        g(eps) = exp(4 eps log(2 pi) + log G(2 - 2 eps) - log G(1 + 2 eps)),

    analytic in the unit disc.  The trapezoid rule for Cauchy's integral on
    |eps| = 0.1 reads them off one FFT, with geometric convergence (Lyness
    and Moler 1967; Bornemann 2011).  The 32-point rule is returned, and
    NonConvergenceError raised where its refinement estimate against the
    64-point rule (on twice its nodes) is not within tol; a tol that is
    not finite and at least 0 raises ValueError.  Only log_gamma is read.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    check_tolerance("tol", tol)
    r = 0.1
    eps = r * np.exp(2j * np.pi * np.arange(64) / 64)
    g = np.exp(4.0 * eps * LOG_2PI + log_gamma(2.0 - 2.0 * eps) - log_gamma(1.0 + 2.0 * eps))
    scale = r ** np.arange(order)
    coarse, fine = (np.fft.fft(w)[:order].real / (len(w) * scale) for w in (g[::2], g))
    for k, (c, other) in enumerate(zip(coarse, fine), start=1):
        stage = f"gamma0_expansion: coefficient c{k}, 32- against 64-point circle rule"
        check(NonConvergenceError, stage, refinement_gap(c, other), tol)
    return [float(c) for c in coarse]
