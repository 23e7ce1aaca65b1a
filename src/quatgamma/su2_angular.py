"""Angular layer on the unit quaternions (class functions on SU(2)).

A unit quaternion g0 has class angle theta in [0, pi] with cos(theta) equal
to its scalar part.  Class functions are integrated against the density
(2/pi)*sin(theta)^2 on [0, pi], which has total mass 1 and makes the
characters chi_N orthonormal; both facts are enforced by tests rather than
assumed.

``angular_bessel(N, rho)`` is the oscillatory class integral

    (2/pi) * int_0^pi exp(-4*pi*i*rho*cos(theta)) chi_N(theta) sin^2(theta) dtheta,

the angular factor produced when a 4D Fourier integral against
exp(-4*pi*i*Re(x*y)) is reduced to polar coordinates.  It has the closed
form 2*(-i)^N*(N+1)*J_{N+1}(4*pi*rho)/(4*pi*rho), the Bochner (Funk-Hecke)
formula for Fourier transforms of radial times harmonic functions on R^4
(Stein & Weiss, Fourier Analysis on Euclidean Spaces, 1971, ch. IV, sec. 3).

``character`` and ``angular_bessel`` follow specfun's convention: a scalar
angle or radius gives a Python float or complex, an array or sequence an
array of its shape, and N < 0 raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import jv

from ._quadrature import legendre_rule
from .specfun import _pointwise

__all__ = [
    "character",
    "AngularQuadrature",
    "angular_quadrature",
    "angular_bessel",
]

ArrayLike = Union[float, np.ndarray]


@_pointwise(float)
def character(N: int, theta: ArrayLike) -> ArrayLike:
    """Character of the (N+1)-dimensional irreducible representation.

    chi_N(theta) = sin((N+1)*theta)/sin(theta), evaluated through the
    Chebyshev-U recurrence in cos(theta), which is stable and needs no
    special-casing at theta = 0 or pi (limits +-(N+1) come out exactly).
    """
    c = np.cos(theta)
    u_prev = np.ones_like(c)
    if N == 0:
        return u_prev
    u = 2.0 * c
    for _ in range(N - 1):
        u_prev, u = u, 2.0 * c * u - u_prev
    return u


# ------------------------------------------------------------ class quadrature


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss-Legendre nodes in (0, pi) with the class-measure density
    (2/pi)*sin^2(theta) folded into the weights.

    integrate(values) approximates the integral of a class function
    against d*g0; weights sum to 1 (total mass) up to quadrature error.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> complex:
        return np.tensordot(values, self.weights, axes=(values.ndim - 1, 0))


def angular_quadrature(n_nodes: int = 64) -> AngularQuadrature:
    x, w = legendre_rule(n_nodes)
    theta = 0.5 * np.pi * (x + 1.0)
    w = 0.5 * np.pi * w * (2.0 / np.pi) * np.sin(theta) ** 2
    return AngularQuadrature(nodes=theta, weights=w)


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
