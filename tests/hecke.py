"""Hecke's eigenfunctions of the 4D Fourier transform, in closed form.

Phi_N(x) = P_N(x) e^{-2 pi n(x)}, with P_N = n^{N/2} U_N(x0 / sqrt(n))
the zonal harmonic of degree N, is an eigenfunction of the package's
transform with eigenvalue i^N (Hecke's identity; Stein & Weiss,
"Introduction to Fourier Analysis on Euclidean Spaces", ch. IV, sec. 3).
In the multiplicative picture Phi_N lies in sector N with
K(v) = sqrt(2 pi^2) e^{(N+2)v/4} exp(-2 pi e^{v/2}).

Every sample here is the closed form: no spline, no chirp-z transform
and no multiplier, so a pin on it checks both the multiplier route and
the 4D sum.  What it does not check: |psi| falls like e^{-pi |tau|}
times a power of |tau|, so it tests gamma_N only on |tau| up to about
10-20; the Gaussian cases keep the wide band.
"""

import numpy as np

from quatgamma.additive_oracle import GridFunction, _central_orbits
from quatgamma.gamma_op import SQRT_2PI2, IsotypicFunction


def zonal(N, x0, n):
    """P_N from P_{k+1} = 2 x0 P_k - n P_{k-1}, P_0 = 1, P_{-1} = 0: the
    Chebyshev recurrence scaled by r = sqrt(n), a polynomial in x0 and n."""
    prev, cur = np.zeros_like(x0), np.ones_like(x0)
    for _ in range(N):
        prev, cur = cur, 2.0 * x0 * cur - n * prev
    return cur


def values(N, points):
    """Phi_N at the rows of an (n, 4) array."""
    n = np.sum(points * points, axis=1)
    return zonal(N, points[:, 0], n) * np.exp(-2.0 * np.pi * n)


def grid_function(N, grid):
    """Phi_N on the grid's (x0, s) orbit table."""
    x0, n, orbit = _central_orbits(grid)
    return GridFunction(grid, (zonal(N, x0, n) * np.exp(-2.0 * np.pi * n)).astype(complex), orbit)


def isotypic(N):
    """Phi_N as an isotypic function on the default grids."""
    return IsotypicFunction.from_log_function(
        N, lambda v: SQRT_2PI2 * np.exp((N + 2) * v / 4.0) * np.exp(-2.0 * np.pi * np.exp(v / 2.0))
    )
