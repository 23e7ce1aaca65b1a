"""Angular layer on the unit quaternions (class functions on SU(2)).

A unit quaternion g0 has class angle theta in [0, pi] with c = cos(theta)
equal to its scalar part.  Class functions are integrated against the
density (2/pi)*sin(theta)^2 dtheta on [0, pi], that is
(2/pi)*sqrt(1 - c^2) dc on [-1, 1], which has total mass 1 and makes the
characters chi_N orthonormal.  The character is the Chebyshev polynomial
of the second kind in the cosine, chi_N = sin((N+1)*theta)/sin(theta)
= U_N(c), so callers that hold cos(theta) never form the angle.

``angular_quadrature(n)`` is that measure's Gauss rule, Gauss-Chebyshev of
the second kind in closed form (DLMF 3.5(v)): theta_k = k*pi/(n+1) and
w_k = 2*sin(theta_k)^2/(n+1) for k = 1..n, exact for every polynomial in
c of degree <= 2n - 1, hence for chi_N*chi_M with N + M <= 2n - 1.

``angular_bessel(N, rho)`` is the oscillatory class integral

    (2/pi) * int_0^pi exp(-4*pi*i*rho*cos(theta)) chi_N(theta) sin^2(theta) dtheta,

the angular factor produced when a 4D Fourier integral against
exp(-4*pi*i*Re(x*y)) is reduced to polar coordinates.  It has the closed
form 2*(-i)^N*(N+1)*J_{N+1}(4*pi*rho)/(4*pi*rho), the Bochner (Funk-Hecke)
formula for Fourier transforms of radial times harmonic functions on R^4
(Stein & Weiss, Fourier Analysis on Euclidean Spaces, 1971, ch. IV, sec. 3).

``character`` and ``angular_bessel`` follow specfun's convention: a scalar
angle or radius gives a Python float or complex, an array or sequence an
array of its shape, and N < 0 or a point that is not finite raises
ValueError.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
from scipy.special import eval_chebyu, jv

from .specfun import _pointwise

__all__ = [
    "character",
    "angular_quadrature",
    "angular_bessel",
]

ArrayLike = Union[float, np.ndarray]


@_pointwise(float)
def _chebyshev_u(N: int, c: ArrayLike) -> ArrayLike:
    """chi_N as a function of c = cos(theta): U_N(c) by scipy's
    eval_chebyu, whose integer-order path is the three-term recurrence,
    stable on [-1, 1] and exact at the endpoints, where it gives
    (+-1)^N * (N+1)."""
    return eval_chebyu(N, c)


@_pointwise(float)
def character(N: int, theta: ArrayLike) -> ArrayLike:
    """Character of the (N+1)-dimensional irreducible representation at
    class angle theta, chi_N(theta) = U_N(cos(theta))."""
    return _chebyshev_u(N, np.cos(theta))


# ------------------------------------------------------------ class quadrature


def angular_quadrature(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Angles and weights of the n-node Gauss rule of the class measure
    (2/pi)*sin(theta)^2 dtheta: theta_k = k*pi/(n+1), w_k = 2*sin(theta_k)^2/(n+1)."""
    theta = np.arange(1, n + 1) * (np.pi / (n + 1))
    return theta, (2.0 / (n + 1)) * np.sin(theta) ** 2


# -------------------------------------------------------- oscillatory integral


@_pointwise(float, (lambda rho: rho < 0, "{name} requires rho >= 0"))
def angular_bessel(N: int, rho: ArrayLike) -> ArrayLike:
    """Oscillatory class integral of exp(-4*pi*i*rho*cos(theta)) against chi_N,
    in closed form 2*(-i)^N*(N+1)*J_{N+1}(4*pi*rho)/(4*pi*rho).

    Real for even N, purely imaginary for odd N; bounded by N+1.  At
    rho = 0 the quotient is replaced by its limit <chi_N, chi_0> = [N == 0].
    """
    x = 4.0 * np.pi * rho
    zero = x == 0.0
    # J_{N+1}(x)/x -> [N == 0]/2 as x -> 0
    ratio = np.where(zero, 0.5 * (N == 0), jv(N + 1, x) / np.where(zero, 1.0, x))
    return (2.0 * (N + 1) * (-1j) ** N) * ratio
