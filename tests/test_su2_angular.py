"""Characters, class quadrature, and the oscillatory angular integral.

angular_bessel is the closed Bessel form; its reference here is the class
integral itself, computed by the class measure's Gauss rule with node
doubling (_angular_bessel_quadrature), plus a dense trapezoid rule at one
point."""

from __future__ import annotations

import numpy as np
import pytest

from quatgamma.su2_angular import _chebyshev_u, angular_bessel, angular_quadrature, character


# ----------------------------------------------------------------- characters


def test_character_small_n():
    th = np.linspace(0.0, np.pi, 101)
    assert np.all(character(0, th) == 1.0)
    assert np.max(np.abs(character(1, th) - 2.0 * np.cos(th))) <= 1e-15


def test_character_matches_sine_ratio():
    # interior angles only; the ratio form is singular at the endpoints
    th = np.linspace(0.05, np.pi - 0.05, 400)
    for n in range(13):
        ratio = np.sin((n + 1) * th) / np.sin(th)
        assert np.max(np.abs(character(n, th) - ratio)) <= 1e-12


def test_character_endpoint_limits():
    for n in range(13):
        assert character(n, 0.0) == n + 1
        assert abs(character(n, np.pi) - (-1.0) ** n * (n + 1)) <= 1e-12


def _chebyshev_u_recurrence(n, c):
    """U_n(c) by the three-term recurrence U_{k+1} = 2c U_k - U_{k-1}."""
    u_prev, u = np.ones_like(c), 2.0 * c
    if n == 0:
        return u_prev
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * c * u - u_prev
    return u


def test_chebyshev_u_is_the_recurrence_bit_for_bit():
    # the library kernel runs the same recurrence: every bit agrees, signed
    # zeros included, on a seeded sample of [-1, 1] and the points -1, 0, 1
    c = np.concatenate([np.random.default_rng(3).uniform(-1.0, 1.0, 2000), [-1.0, -0.0, 0.0, 1.0]])
    for n in range(161):
        want = _chebyshev_u_recurrence(n, c)
        assert np.array_equal(_chebyshev_u(n, c).view(np.int64), want.view(np.int64)), n
    assert _chebyshev_u(160, 1.0) == 161.0 and _chebyshev_u(159, -1.0) == -160.0
    with pytest.raises(ValueError, match="N must be >= 0"):
        _chebyshev_u(-1, c)


# ----------------------------------------------------------------- quadrature


def test_quadrature_total_mass():
    theta, weights = angular_quadrature(64)
    assert abs(np.sum(weights) - 1.0) <= 1e-12
    assert np.all(weights > 0)
    assert np.all((theta > 0) & (theta < np.pi))


def test_character_orthonormality():
    # the n-node rule is exact for chi_N chi_M with N + M <= 2n - 1, so the
    # Gram matrix of chi_0 .. chi_{n-1} is the identity up to rounding
    for n_nodes, n_max in ((64, 64), (16, 16)):
        theta, weights = angular_quadrature(n_nodes)
        vals = np.array([character(n, theta) for n in range(n_max)])
        gram = vals @ (vals * weights).T
        assert np.max(np.abs(gram - np.eye(n_max))) <= 1e-13


# --------------------------------------------------------- oscillatory integral


def _bessel_at(N: int, rho: np.ndarray, n_nodes: int) -> np.ndarray:
    theta, weights = angular_quadrature(n_nodes)
    chi = character(N, theta)
    phases = np.exp(-4j * np.pi * np.multiply.outer(rho, np.cos(theta)))
    return phases @ (weights * chi)


def _angular_bessel_quadrature(N: int, rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Reference: the class integral by the class measure's Gauss rule, node count
    doubled until two successive resolutions agree within tol (absolute);
    the starting count scales with rho so the ~4 rho oscillations resolve."""
    rho = np.asarray(rho, dtype=float)
    n = 64
    while n < 16.0 * (float(rho.max()) + 1.0):
        n *= 2
    prev = _bessel_at(N, rho, n)
    for _ in range(8):
        n *= 2
        cur = _bessel_at(N, rho, n)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
    raise AssertionError(f"reference quadrature (N={N}) did not stabilize at {n} nodes")


def dense_trapezoid_oracle(n: int, rho: float, nodes: int = 100_000) -> complex:
    th = np.linspace(0.0, np.pi, nodes)
    f = (2.0 / np.pi) * np.exp(-4j * np.pi * rho * np.cos(th)) * character(
        n, th
    ) * np.sin(th) ** 2
    # the trapezoid rule written out (np.trapezoid needs numpy >= 2.0)
    return complex(np.sum(np.diff(th) * (f[1:] + f[:-1])) / 2.0)


def test_angular_bessel_at_zero():
    assert abs(angular_bessel(0, 0.0) - 1.0) <= 1e-12
    for n in range(1, 7):
        assert abs(angular_bessel(n, 0.0)) <= 1e-12


def test_angular_bessel_vs_dense_trapezoid():
    val = angular_bessel(0, 0.5)
    assert abs(val - dense_trapezoid_oracle(0, 0.5)) <= 1e-10


def test_angular_bessel_closed_form():
    # the closed Bessel form against the class integral it stands for,
    # N <= 40 and rho in [0, 30]
    rho = np.concatenate([[0.0, 1e-9, 1e-3], np.linspace(0.01, 30.0, 400)])
    for n in (0, 1, 2, 3, 5, 8, 17, 29, 40):
        ref = _angular_bessel_quadrature(n, rho)
        assert np.max(np.abs(angular_bessel(n, rho) - ref)) <= 1e-13


def test_angular_bessel_parity_and_bound():
    for n in range(6):
        v = angular_bessel(n, 0.8)
        if n % 2 == 0:
            assert abs(v.imag) <= 1e-12
        else:
            assert abs(v.real) <= 1e-12
        assert abs(v) <= n + 1


def test_angular_bessel_decay():
    for n in range(5):
        assert abs(angular_bessel(n, 50.0)) < abs(angular_bessel(n, 1.0))


def test_angular_bessel_array_input():
    rho = np.array([0.0, 0.25, 1.0, 2.5])
    out = angular_bessel(2, rho)
    assert out.shape == rho.shape
    for r, v in zip(rho, out):
        assert abs(v - angular_bessel(2, float(r))) <= 1e-11
    with pytest.raises(ValueError):
        angular_bessel(1, -0.5)
