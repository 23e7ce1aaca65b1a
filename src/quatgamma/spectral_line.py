"""The 1D spectral line: uniformly sampled profiles and their transforms.

A radial test function is carried as K(v) on a uniform grid in v = log u
(u the module); its spectral profile psi(tau) is sampled the same way, so
one Profile type holds either side.  The pair is

    psi(tau) = int K(v) e^{i tau v} dv,      K(v) = (1/2pi) int psi(tau) e^{-i tau v} dtau.

Operators act on psi by pointwise multipliers; evaluation of the function
at the identity (u = 1, v = 0) is (1/2pi) int psi d tau.

Grids must satisfy the sampling bounds  spacing_v * half_width_tau <= pi
and  spacing_tau * half_width_v <= pi  (the discrete sum is periodic with
period 2 pi / spacing, so beyond these the windows alias; <= pi/4 leaves a
comfortable margin and is what the defaults provide on the narrow window).
Profiles are expected to have decayed at their grid ends; transforms check
this against a fixed guard: an edge sample above 1e-8 of max(1, peak)
raises DecayError.  The guard is 1e-8 rather than the 1e-12 the canonical
test profiles satisfy: exact operator outputs carry e^{-|v|/2} tails (the
Gamma-factor pole sits half a unit off the line), and legitimate wide-grid
intermediates bottom out near 1e-12 without ever crossing below it.

Both transforms run through one resampler, _resample, and differ only in
the sign of i and the scale (spacing_v, or spacing_tau / 2 pi).  Its sum
is the chirp-z fast path (_unit_chirp_sum: Bluestein at the circular
length next_fast_len(p + n_out - 1), the kernel the mirrored conjugate
chirp, the phases formed directly); the quadrature value (here the plain
Riemann sum) is the contract, and tests check it against direct sums.

Off the grid, K(v) = (spacing_tau / 2 pi) sum_k psi_k e^{-i tau_k v} is a
type-2 nonuniform FFT in x = spacing_tau * v (mod 2 pi).  profile_value
evaluates it by Gaussian gridding (Greengard & Lee, SIAM Rev. 46 (2004)
443): psi is divided by the Gaussian's Fourier coefficients, one FFT puts
the result on a periodic grid with _NUFFT_OVERSAMPLING times as many
points as there are modes, and each target sums the Gaussian-weighted
values of the 2 * _NUFFT_HALF_WIDTH grid points around it.  The cost is
O(M log M + P w) for M modes and P targets instead of the dense O(P M).
The error is about 1e-15 of the peak |K| for the package's profiles and
about 1e-14 of sum_k |psi_k| spacing_tau / 2 pi for any psi; tests pin it
to 1e-12 of the peak against the dense sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from ._errors import AliasingError, DecayError

__all__ = [
    "Profile",
    "to_spectral",
    "from_spectral",
    "check_spectral",
    "evaluate_at_one",
    "profile_value",
    "DEFAULT_LOG_SPACING",
    "DEFAULT_LOG_HALF_WIDTH",
    "DEFAULT_SPECTRAL_SPACING",
    "DEFAULT_SPECTRAL_HALF_WIDTH",
    "WIDE_LOG_HALF_WIDTH",
]

DEFAULT_LOG_SPACING = 1.0 / 64.0
DEFAULT_LOG_HALF_WIDTH = 16.0
DEFAULT_SPECTRAL_SPACING = 1.0 / 64.0
DEFAULT_SPECTRAL_HALF_WIDTH = 64.0
# wide v-window for operator outputs with e^{-|v|/2} tails
WIDE_LOG_HALF_WIDTH = 64.0

# an edge sample above this fraction of max(1, peak) is a DecayError
_DECAY_GUARD = 1e-8

# Gaussian gridding for profile_value: at oversampling 2 the truncation and
# aliasing errors balance at about e^{-2 pi w / 3} for half-width w; w = 16
# puts both below rounding (w = 12 leaves ~1e-13 of the peak).
_NUFFT_OVERSAMPLING = 2
_NUFFT_HALF_WIDTH = 16


def _uniform_grid(spacing: float, half_width: float) -> np.ndarray:
    m = int(round(half_width / spacing))
    return spacing * np.arange(-m, m + 1)


@dataclass(frozen=True, eq=False)
class Profile:
    """Samples of K(v) or psi(tau) on the uniform grid spacing * (-m .. m)."""

    spacing: float
    half_width: float
    samples: np.ndarray

    def __post_init__(self):
        n = int(round(2.0 * self.half_width / self.spacing)) + 1
        if len(self.samples) != n:
            raise ValueError(
                f"expected {n} samples for spacing {self.spacing}, "
                f"half-width {self.half_width}; got {len(self.samples)}"
            )

    @property
    def grid(self) -> np.ndarray:
        return _uniform_grid(self.spacing, self.half_width)

    @classmethod
    def from_function(
        cls, fn: Callable[[np.ndarray], np.ndarray], spacing: float, half_width: float
    ) -> "Profile":
        """Sample fn on the grid; a scalar result is broadcast, and the
        samples keep fn's dtype."""
        x = _uniform_grid(spacing, half_width)
        vals = np.asarray(fn(x))
        return cls(spacing, half_width, vals + np.zeros_like(x, dtype=vals.dtype))


# ----------------------------------------------------------------- guards


def _check_decay(samples: np.ndarray, what: str) -> None:
    peak = float(np.max(np.abs(samples))) if len(samples) else 0.0
    edge = float(max(abs(samples[0]), abs(samples[-1])))
    if edge > _DECAY_GUARD * max(1.0, peak):
        raise DecayError(
            f"{what} has not decayed at its grid ends "
            f"(edge {edge:.3e}, peak {peak:.3e}); widen the window"
        )


def _check_reciprocity(dv: float, v_half: float, dtau: float, tau_half: float) -> None:
    if dv * tau_half > np.pi * (1.0 + 1e-12):
        raise AliasingError(
            f"v-spacing {dv} too coarse for tau half-width {tau_half} "
            f"(need spacing*half_width <= pi)"
        )
    if dtau * v_half > np.pi * (1.0 + 1e-12):
        raise AliasingError(
            f"tau-spacing {dtau} too coarse for v half-width {v_half} "
            f"(need spacing*half_width <= pi)"
        )


# -------------------------------------------------------------- transforms


def _unit_chirp_sum(x: np.ndarray, n_out: int, angle: float) -> np.ndarray:
    """out[k] = sum_n x[n] * e^{i*angle*k*n} for k = 0..n_out-1 (Bluestein).

    With chirp[j] = e^{i*angle*j^2/2} (phases formed directly, once: exact
    floats for power-of-two spacings), out = chirp * the circular convolution
    of x*chirp with conj(chirp[d]) at d < n_out, mirrored to L - d for 0 < d < p,
    at L = next_fast_len(p + n_out - 1): no wrapped term reaches an output.
    """
    p = len(x)
    length = next_fast_len(p + n_out - 1)
    chirp = np.exp(0.5j * angle * np.arange(max(p, n_out), dtype=float) ** 2)
    gap = np.zeros(length - p - n_out + 1)
    kernel = np.concatenate([chirp[:n_out], gap, chirp[p - 1 : 0 : -1]]).conj()
    conv = ifft(fft(x * chirp[:p], length) * fft(kernel, overwrite_x=True))
    return chirp[:n_out] * conv[:n_out]


def _resample(src: Profile, spacing: float, half_width: float, sign: complex, scale: float) -> Profile:
    """scale * sum_m src(x_m) e^{sign t_k x_m} at t_k = -half_width +
    spacing k, sign = +-1j.  With x_m = -x_half + dx m the exponent splits
    into a phase in m, the unit chirp sum in k m and a phase in k."""
    dx, x_half = src.spacing, src.half_width
    n_out = int(round(2.0 * half_width / spacing)) + 1
    x = src.samples * np.exp(-sign * half_width * dx * np.arange(len(src.samples)))
    vals = _unit_chirp_sum(x, n_out, sign.imag * spacing * dx)
    phase = np.exp(sign * half_width * x_half) * np.exp(
        -sign * spacing * np.arange(n_out) * x_half
    )
    return Profile(spacing, half_width, scale * phase * vals)


def to_spectral(
    profile: Profile,
    spacing: float = DEFAULT_SPECTRAL_SPACING,
    half_width: float = DEFAULT_SPECTRAL_HALF_WIDTH,
) -> Profile:
    """psi(tau_k) = spacing_v * sum_m K(v_m) e^{i tau_k v_m} on the
    requested tau-grid (chirp-z evaluation, exact to rounding)."""
    _check_decay(profile.samples, "log profile")
    _check_reciprocity(profile.spacing, profile.half_width, spacing, half_width)
    return _resample(profile, spacing, half_width, 1j, profile.spacing)


def check_spectral(psi: Profile, spacing: float, half_width: float) -> None:
    """Raise unless psi has decayed and can be read on this v-grid."""
    _check_decay(psi.samples, "spectral profile")
    _check_reciprocity(spacing, half_width, psi.spacing, psi.half_width)


def from_spectral(
    psi: Profile,
    spacing: float = DEFAULT_LOG_SPACING,
    half_width: float = DEFAULT_LOG_HALF_WIDTH,
) -> Profile:
    """K(v_m) = (spacing_tau / 2 pi) * sum_k psi(tau_k) e^{-i tau_k v_m}."""
    check_spectral(psi, spacing, half_width)
    return _resample(psi, spacing, half_width, -1j, psi.spacing / (2.0 * np.pi))


# -------------------------------------------------------------- evaluation


def evaluate_at_one(psi: Profile) -> complex:
    """Value of the underlying function at the identity:
    K(0) = (1/2pi) int psi(tau) dtau."""
    return complex(psi.spacing / (2.0 * np.pi) * np.sum(psi.samples))


def profile_value(
    psi: Profile, v: Union[float, np.ndarray]
) -> Union[complex, np.ndarray]:
    """K(v) = (spacing / 2 pi) sum_k psi_k e^{-i tau_k v} at arbitrary v
    (trigonometric interpolation off the grid; periodic in v with period
    2 pi / spacing).

    Evaluated as a type-2 NUFFT by Gaussian gridding with the fixed
    oversampling _NUFFT_OVERSAMPLING and spread half-width
    _NUFFT_HALF_WIDTH (see the module docstring for the error it meets).
    A scalar v gives a complex, an array v an array of its shape; a
    non-finite v raises ValueError.
    """
    v_arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v_arr)):
        raise ValueError("profile_value needs finite v")
    m = len(psi.samples) // 2
    n = next_fast_len(_NUFFT_OVERSAMPLING * len(psi.samples))
    w = _NUFFT_HALF_WIDTH
    # kernel e^{-x^2 / (4 var)} in x; in units of the fine grid's step
    # 2 pi / n it is e^{-(3 pi / 4 w) s^2}
    var = 4.0 * np.pi * w / (3.0 * n * n)
    k = np.arange(-m, m + 1)
    fine = np.zeros(n, dtype=complex)
    fine[k % n] = psi.samples * np.exp(var * k * k)
    fine *= psi.spacing / (n * np.sqrt(4.0 * np.pi * var))
    gridded = fft(fine, overwrite_x=True)

    t = v_arr.ravel() * (psi.spacing * n / (2.0 * np.pi))
    base = np.floor(t)
    frac = t - base
    # one reduction into [0, n): take(mode="wrap") then only wraps by w
    base = np.mod(base, n).astype(np.int64)
    out = np.zeros(t.shape, dtype=complex)
    for offset in range(1 - w, w + 1):
        weight = np.exp(-(0.75 * np.pi / w) * (frac - offset) ** 2)
        out += weight * gridded.take(base + offset, mode="wrap")
    if v_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(v_arr.shape)
