"""Operators on isotypic functions f(g) = chi_N(g0) * K(log|g|).

Every operator here is diagonal in the angular mode N and acts on the
spectral profile psi by a scalar multiplier (or, for A, by the derivative
realized exactly as multiplication by v on the K-side):

    inversion I        K(v) -> K(-v),  psi(tau) -> psi(-tau)
    Gamma operator     psi -> gamma_N(tau) * psi     (unitary)
    Fourier transform  Gamma o I
    A                  K -> v*K
    H                  psi -> h_N * psi
    K-operator         psi -> k_N * psi
    B                  psi -> h_N*psi - to_spectral(v*K)   (= H - A)

An IsotypicFunction carries one picture, the spectral profile psi.  The log
side K is derived on each read and never stored; only A (and B via A) reads it.

Grid policy, owned here: functions are built by default with spacing 1/64
on the windows |v| <= 64 and |tau| <= 64 (the four DEFAULT_* constants;
the CLI's memory limit on trace-sweep cutoffs refuses every kink outside
|v| <= 64, and a test pins that).  Outputs of H, B, and the Gamma operator have
e^{-|v|/2} tails (the multiplier's analytic continuation has a pole half a
unit off the line), which fall below 1e-13 at |v| = 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .quat_core import _Points, _as_points
from .specfun import gamma_multiplier, h_multiplier, k_multiplier
from .spectral_line import Profile, check_spectral, from_spectral, profile_value, to_spectral
from .su2_angular import _chebyshev_u

__all__ = [
    "IsotypicFunction",
    "AdditiveFunction",
    "gaussian_isotypic",
    "value_at_identity",
    "inversion",
    "gamma_transform",
    "fourier_transform",
    "op_A",
    "op_B",
    "op_H",
    "op_K",
    "to_additive",
]

SQRT_2PI2 = math.sqrt(2.0 * math.pi**2)

DEFAULT_V_SPACING = 1.0 / 64.0
DEFAULT_V_HALF_WIDTH = 64.0
DEFAULT_TAU_SPACING = 1.0 / 64.0
DEFAULT_TAU_HALF_WIDTH = 64.0


@dataclass(frozen=True, eq=False)
class IsotypicFunction:
    """Angular mode N, spectral profile psi, and the v-grid K is read on."""

    N: int
    spectral_profile: Profile
    v_spacing: float
    v_half_width: float

    def __post_init__(self) -> None:
        check_spectral(self.spectral_profile, self.v_spacing, self.v_half_width)

    @classmethod
    def from_log_function(
        cls,
        N: int,
        fn: Callable[[np.ndarray], np.ndarray],
        v_spacing: float = DEFAULT_V_SPACING,
        tau_spacing: float = DEFAULT_TAU_SPACING,
        tau_half_width: float = DEFAULT_TAU_HALF_WIDTH,
    ) -> "IsotypicFunction":
        profile = Profile.from_function(fn, v_spacing, DEFAULT_V_HALF_WIDTH)
        return cls(N, to_spectral(profile, tau_spacing, tau_half_width), v_spacing, DEFAULT_V_HALF_WIDTH)

    @property
    def log_profile(self) -> Profile:
        """K on the v-grid, transformed from psi on each read."""
        return from_spectral(self.spectral_profile, self.v_spacing, self.v_half_width)


def gaussian_isotypic(N: int) -> IsotypicFunction:
    """The standard test function: K(v) = e^{-v^2/2}."""
    return IsotypicFunction.from_log_function(N, lambda v: np.exp(-0.5 * v**2))


def value_at_identity(f: IsotypicFunction) -> complex:
    """f(1) = chi_N(0) * K(0) = (N+1) * K(0), with K(0) = (1/2pi) int psi dtau."""
    psi = f.spectral_profile
    return (f.N + 1) * complex(psi.spacing / (2.0 * np.pi) * np.sum(psi.samples))


# ------------------------------------------------------------------ operators


def _with_spectrum(f: IsotypicFunction, samples: np.ndarray) -> IsotypicFunction:
    """The function on f's grids whose spectral samples are these."""
    return replace(f, spectral_profile=replace(f.spectral_profile, samples=samples))


def inversion(f: IsotypicFunction) -> IsotypicFunction:
    """f(g) -> f(g^{-1}): reflection of the profile (chi_N is invariant
    under g0 -> g0^{-1})."""
    return _with_spectrum(f, f.spectral_profile.samples[::-1])


def _multiply(
    f: IsotypicFunction, multiplier: Callable[[int, np.ndarray], np.ndarray]
) -> IsotypicFunction:
    """psi -> multiplier(N, tau) * psi, the one path every multiplier
    operator takes."""
    m = multiplier(f.N, f.spectral_profile.grid)
    return _with_spectrum(f, m * f.spectral_profile.samples)


def gamma_transform(f: IsotypicFunction) -> IsotypicFunction:
    """psi -> gamma_N * psi (unitary: the multiplier is unimodular)."""
    return _multiply(f, gamma_multiplier)


def fourier_transform(f: IsotypicFunction) -> IsotypicFunction:
    """The additive Fourier transform in the multiplicative picture:
    the composite Gamma o I."""
    return gamma_transform(inversion(f))


def op_A(f: IsotypicFunction) -> IsotypicFunction:
    """A: multiplication of the log-profile by v (spectrally, -i d/dtau),
    the operator that reads the log side."""
    k, psi = f.log_profile, f.spectral_profile
    vk = to_spectral(replace(k, samples=k.grid * k.samples), psi.spacing, psi.half_width)
    return _with_spectrum(f, vk.samples)


def op_H(f: IsotypicFunction) -> IsotypicFunction:
    """The conductor operator: psi -> h_N * psi."""
    return _multiply(f, h_multiplier)


def op_K(f: IsotypicFunction) -> IsotypicFunction:
    """The commutator operator i[B, A]: psi -> k_N * psi."""
    return _multiply(f, k_multiplier)


def op_B(f: IsotypicFunction) -> IsotypicFunction:
    """B = H - A: psi -> h_N*psi - to_spectral(v*K), the A-part exact on the
    K-side, never a numerical derivative of psi."""
    return _with_spectrum(f, op_H(f).spectral_profile.samples - op_A(f).spectral_profile.samples)


# ------------------------------------------------------------ additive picture


@dataclass(frozen=True, eq=False)
class AdditiveFunction:
    """phi(x) = f(x) / sqrt(2 pi^2 |x|), evaluated on nonzero quaternions."""

    source: IsotypicFunction

    def evaluate_points(self, points: _Points) -> np.ndarray:
        """Evaluate at n points (read as by quat_core._as_points)."""
        pts = _as_points(points)
        n = np.sum(pts * pts, axis=1)
        if np.any(n == 0.0):
            raise ValueError("additive evaluation at 0 is undefined")
        v = 2.0 * np.log(n)  # log|x| with |x| = n(x)^2
        k_vals = np.zeros(len(v), dtype=complex)
        inside = np.abs(v) <= self.source.v_half_width
        if inside.any():
            k_vals[inside] = profile_value(self.source.spectral_profile, v[inside])
        # outside the window the profile is below the decay guard: treat as 0
        return _chebyshev_u(self.source.N, pts[:, 0] / np.sqrt(n)) * k_vals / (SQRT_2PI2 * n)


def to_additive(f: IsotypicFunction) -> AdditiveFunction:
    return AdditiveFunction(f)
