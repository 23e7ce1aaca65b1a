"""The 1D spectral line: uniformly sampled profiles and their transforms.

A radial test function is carried as K(v) on a uniform grid in v = log u
(u the module); its spectral profile psi(tau) is sampled the same way, so
one Profile type holds either side.  The pair is

    psi(tau) = int K(v) e^{i tau v} dv,      K(v) = (1/2pi) int psi(tau) e^{-i tau v} dtau.

Operators act on psi by pointwise multipliers; evaluation of the function
at the identity (u = 1, v = 0) is (1/2pi) int psi d tau.

Every transform takes its target grid; this module sets no grid policy
(gamma_op owns it).  Grids must satisfy the sampling bounds
spacing_v * half_width_tau <= pi  and  spacing_tau * half_width_v <= pi
(the discrete sum is periodic with period 2 pi / spacing, so beyond these
the windows alias).  Profiles are expected to have decayed at their grid
ends; transforms check this against a fixed guard: an edge sample (or
any NaN sample) above 1e-8 of max(1, peak) raises DecayError.  It is
1e-8, not the 1e-12 the canonical test profiles meet, because exact
operator outputs carry e^{-|v|/2} tails (the Gamma-factor pole sits half
a unit off the line) that bottom out near 1e-12 on wide grids.

Both transforms run through one resampler, _resample, and differ only in
the sign of i and the scale (spacing_v, or spacing_tau / 2 pi).  Its sum
is the chirp-z fast path (_unit_chirp_sum: Bluestein at the circular
length next_fast_len(p + n_out - 1), the kernel the mirrored conjugate
chirp, the phases formed directly); the quadrature value (here the plain
Riemann sum) is the contract, and tests check it against direct sums.
The grid-only arrays (chirp, circular length, kernel FFT, input and output
phases) form one read-only plan per geometry, built on first use (_plan
keeps the 8 latest); cached or not, a transform's bits are the same.

Off the grid, K(v) = (spacing_tau / 2 pi) sum_k psi_k e^{-i tau_k v} is a
type-2 nonuniform FFT in x = spacing_tau * v (mod 2 pi).  profile_value
evaluates it by Gaussian gridding (Greengard & Lee, SIAM Rev. 46 (2004)
443): psi is divided by the Gaussian's Fourier coefficients, one FFT puts
the result on a periodic grid with _NUFFT_OVERSAMPLING times as many
points as there are modes, and each target sums the Gaussian-weighted
values of the 2 * _NUFFT_HALF_WIDTH grid points around it.  The cost is
O(M log M + P w) for M modes and P targets instead of the dense O(P M).
Targets are spread in blocks of _SPREAD_BLOCK, each on its own, so a
caller passes all targets of one profile in one call, pays one gridding
FFT and gets the bits of separate calls.
The error is about 1e-15 of the peak |K| for the package's profiles and
about 1e-14 of sum_k |psi_k| spacing_tau / 2 pi for any psi; tests pin it
to 1e-12 of the peak against the dense sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from ._errors import AliasingError, DecayError, check

__all__ = [
    "Profile",
    "to_spectral",
    "from_spectral",
    "check_spectral",
    "evaluate_at_one",
    "profile_value",
]

# an edge sample above this fraction of max(1, peak) is a DecayError
_DECAY_GUARD = 1e-8

# Gaussian gridding for profile_value: at oversampling 2 the truncation and
# aliasing errors balance at about e^{-2 pi w / 3} for half-width w; w = 16
# puts both below rounding (w = 12 leaves ~1e-13 of the peak).
_NUFFT_OVERSAMPLING = 2
_NUFFT_HALF_WIDTH = 16
# targets profile_value spreads at a time: about 60 bytes of temporaries a
# target (tracemalloc), so beyond its result a call's peak is bounded
_SPREAD_BLOCK = 4096


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
    # np.max and np.maximum keep a NaN sample's NaN in the tolerance
    tol = _DECAY_GUARD * np.maximum(1.0, np.max(np.abs(samples)))
    edge = max(abs(samples[0]), abs(samples[-1]))
    check(DecayError, f"{what} decay at its grid ends (widen the window)", edge, tol)


def _check_reciprocity(dv: float, v_half: float, dtau: float, tau_half: float) -> None:
    bound = np.pi * (1.0 + 1e-12)
    check(AliasingError, f"v-spacing {dv} times tau half-width {tau_half} (at most pi)", dv * tau_half, bound)
    check(AliasingError, f"tau-spacing {dtau} times v half-width {v_half} (at most pi)", dtau * v_half, bound)


# -------------------------------------------------------------- transforms


@functools.lru_cache(maxsize=8)
def _plan(n_in: int, n_out: int, dx: float, x_half: float, spacing: float, half_width: float, sign: complex) -> tuple:
    """What _resample needs of a grid geometry alone, built on first use
    and shared read-only: the chirp, circular length and kernel FFT of
    _bluestein, and the input and output phases."""
    chirp, length, kernel = _bluestein(n_in, n_out, sign.imag * spacing * dx)
    x_phase = np.exp(-sign * half_width * dx * np.arange(n_in))
    phase = np.exp(sign * half_width * x_half) * np.exp(-sign * spacing * np.arange(n_out) * x_half)
    for a in (chirp, kernel, x_phase, phase):
        a.setflags(write=False)
    return chirp, length, kernel, x_phase, phase


def _bluestein(p: int, n_out: int, angle: float) -> Tuple[np.ndarray, int, np.ndarray]:
    """The grid-only part of _unit_chirp_sum: chirp[j] = e^{i*angle*j^2/2}
    (formed directly: exact floats for power-of-two spacings), the length
    L = next_fast_len(p + n_out - 1), and the FFT of the kernel conj(chirp[d])
    at d < n_out, mirrored to L - d for 0 < d < p: no wrapped term reaches an output."""
    length = next_fast_len(p + n_out - 1)
    chirp = np.exp(0.5j * angle * np.arange(max(p, n_out), dtype=float) ** 2)
    gap = np.zeros(length - p - n_out + 1)
    kernel = np.concatenate([chirp[:n_out], gap, chirp[p - 1 : 0 : -1]]).conj()
    return chirp, length, fft(kernel, overwrite_x=True)


def _unit_chirp_sum(x: np.ndarray, n_out: int, chirp: np.ndarray, length: int, kernel: np.ndarray) -> np.ndarray:
    """out[k] = sum_n x[n] * e^{i*angle*k*n} for k = 0..n_out-1 (Bluestein),
    given _bluestein(len(x), n_out, angle): chirp times the circular
    convolution of x*chirp with the kernel."""
    conv = ifft(fft(x * chirp[: len(x)], length) * kernel)
    return chirp[:n_out] * conv[:n_out]


def _resample(src: Profile, spacing: float, half_width: float, sign: complex, scale: float) -> Profile:
    """scale * sum_m src(x_m) e^{sign t_k x_m} at t_k = -half_width +
    spacing k, sign = +-1j.  With x_m = -x_half + dx m the exponent splits
    into a phase in m, the unit chirp sum in k m and a phase in k."""
    n_out = int(round(2.0 * half_width / spacing)) + 1
    geometry = (len(src.samples), n_out, src.spacing, src.half_width, spacing, half_width, sign)
    chirp, length, kernel, x_phase, phase = _plan(*geometry)
    vals = _unit_chirp_sum(src.samples * x_phase, n_out, chirp, length, kernel)
    return Profile(spacing, half_width, scale * phase * vals)


def to_spectral(profile: Profile, spacing: float, half_width: float) -> Profile:
    """psi(tau_k) = spacing_v * sum_m K(v_m) e^{i tau_k v_m} on the
    requested tau-grid (chirp-z evaluation, exact to rounding)."""
    _check_decay(profile.samples, "log profile")
    _check_reciprocity(profile.spacing, profile.half_width, spacing, half_width)
    return _resample(profile, spacing, half_width, 1j, profile.spacing)


def check_spectral(psi: Profile, spacing: float, half_width: float) -> None:
    """Raise unless psi has decayed and can be read on this v-grid."""
    _check_decay(psi.samples, "spectral profile")
    _check_reciprocity(spacing, half_width, psi.spacing, psi.half_width)


def from_spectral(psi: Profile, spacing: float, half_width: float) -> Profile:
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
    deconvolved = psi.samples * np.exp(var * k * k)
    # mode k sits at k mod n: 0..m at the start, -m..-1 at the end
    fine = np.zeros(n, dtype=complex)
    fine[: m + 1] = deconvolved[m:]
    fine[n - m :] = deconvolved[:m]
    fine *= psi.spacing / (n * np.sqrt(4.0 * np.pi * var))
    gridded = fft(fine, overwrite_x=True)

    flat = v_arr.ravel()
    out = np.zeros(flat.shape, dtype=complex)
    for start in range(0, len(flat), _SPREAD_BLOCK):
        t = flat[start : start + _SPREAD_BLOCK] * (psi.spacing * n / (2.0 * np.pi))
        base = np.floor(t)
        frac = t - base
        # one reduction into [0, n): take(mode="wrap") then only wraps by w
        base = np.mod(base, n).astype(np.int64)
        block = out[start : start + _SPREAD_BLOCK]
        for offset in range(1 - w, w + 1):
            weight = np.exp(-(0.75 * np.pi / w) * (frac - offset) ** 2)
            block += weight * gridded.take(base + offset, mode="wrap")
    if v_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(v_arr.shape)
