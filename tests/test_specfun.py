"""Special functions and spectral multipliers.

The library path wraps scipy's loggamma and psi; the oracles here are an
independent Stirling-with-recurrence implementation and mpmath, so no test
compares scipy with scipy.  All frozen constants were derived by hand from
the classical values psi(1) = -euler_gamma, psi'(1) = pi^2/6.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest

from quatgamma import NonConvergenceError, specfun
from quatgamma.gamma_op import DEFAULT_TAU_HALF_WIDTH, DEFAULT_TAU_SPACING
from quatgamma.specfun import (
    LOG_2PI,
    digamma,
    gamma0_expansion,
    gamma_factor,
    gamma_log_derivative,
    gamma_multiplier,
    h_multiplier,
    k_multiplier,
    log_gamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015328606
H0_AT_ZERO = -4.0 * LOG_2PI - 4.0 * EULER_GAMMA  # = -9.660370925243513
EPS2_COEFF = 4.0 * LOG_2PI + 4.0 * EULER_GAMMA - 2.0  # = 7.660370925243513

# Stirling series coefficients B_{2n} / (2n (2n-1)), n = 1..10
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)


def stirling_log_gamma(z: complex) -> complex:
    """Independent oracle: recurrence shift to Re >= 32, then the Stirling
    series (first dropped term below 1e-25 there)."""
    z = complex(z)
    shift = 0.0 + 0.0j
    while z.real < 32.0:
        shift += cmath.log(z)
        z += 1.0
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zpow = z
    for c in _STIRLING:
        out += c / zpow
        zpow *= z * z
    return out - shift


# ------------------------------------------------------------------ log-gamma


def test_log_gamma_classical_values():
    assert abs(log_gamma(1.0)) <= 1e-14
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14
    assert abs(cmath.exp(log_gamma(5.0)) - 24.0) <= 1e-12


def test_log_gamma_vs_stirling_oracle():
    assert abs(log_gamma(1.0 + 1.0j) - stirling_log_gamma(1.0 + 1.0j)) <= 1e-12
    rng = np.random.default_rng(41)
    for _ in range(300):
        z = complex(rng.uniform(0.05, 12.0), rng.uniform(-120.0, 120.0))
        assert abs(log_gamma(z) - stirling_log_gamma(z)) <= 1e-12


def test_log_gamma_vs_stirling_dense():
    rng = np.random.default_rng(43)
    z = rng.uniform(0.02, 12.0, 20000) + 1j * rng.uniform(-250.0, 250.0, 20000)
    ref = np.array([stirling_log_gamma(zi) for zi in z])
    assert np.max(np.abs(log_gamma(z) - ref)) <= 1e-11


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(-1.0 + 2.0j)
    with pytest.raises(ValueError):
        log_gamma(0.0)


# ------------------------------------------------------- digamma / trigamma


def test_digamma_classical_and_recurrence():
    assert abs(digamma(1.0) - (-EULER_GAMMA)) <= 1e-14
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-14
    rng = np.random.default_rng(47)
    for _ in range(200):
        z = complex(rng.uniform(0.1, 10.0), rng.uniform(-40.0, 40.0))
        assert abs(digamma(z + 1.0) - (digamma(z) + 1.0 / z)) <= 1e-13


def test_digamma_vs_mpmath():
    rng = np.random.default_rng(53)
    z = rng.uniform(0.05, 15.0, 5000) + 1j * rng.uniform(-200.0, 200.0, 5000)
    ref = np.array([complex(mpmath.digamma(complex(zi))) for zi in z])
    assert np.max(np.abs(digamma(z) - ref)) <= 1e-13


def test_trigamma_values_and_recurrence():
    assert abs(trigamma(1.0) - math.pi**2 / 6.0) <= 1e-14
    rng = np.random.default_rng(59)
    for _ in range(200):
        z = complex(rng.uniform(0.1, 10.0), rng.uniform(-40.0, 40.0))
        assert abs(trigamma(z) - (trigamma(z + 1.0) + 1.0 / z**2)) <= 1e-13


@pytest.mark.parametrize("radius", [15.9, 16.1, 100.0])
@pytest.mark.parametrize("re_z", [1.0, 1.5, 11.0])
def test_trigamma_vs_mpmath_across_asymptotic_radius(re_z, radius):
    # just inside |z| = 16 the recurrence shifts z, just outside it does not
    z = complex(re_z, math.sqrt(radius**2 - re_z**2))
    for w in (z, z.conjugate()):
        ref = complex(mpmath.psi(1, w))
        assert abs(trigamma(w) - ref) <= 1e-14 * abs(ref)


def test_trigamma_vs_digamma_differences():
    rng = np.random.default_rng(61)
    step = 1e-5
    for _ in range(100):
        z = complex(rng.uniform(0.2, 8.0), rng.uniform(-30.0, 30.0))
        fd = (digamma(z + step) - digamma(z - step)) / (2.0 * step)
        assert abs(trigamma(z) - fd) <= 1e-9


def test_digamma_domain():
    with pytest.raises(ValueError):
        digamma(-0.5)
    with pytest.raises(ValueError):
        trigamma(0.0 + 1.0j)


# -------------------------------------------------------------- Gamma factor


def test_gamma_factor_center_values():
    assert abs(gamma_factor(0, 0.5) - 1.0) <= 1e-14
    assert abs(gamma_factor(1, 0.5) - 1.0j) <= 1e-14
    assert abs(abs(gamma_factor(3, 0.5 + 2.0j)) - 1.0) <= 1e-12


def test_gamma_factor_strip_validation():
    for bad in (0.0, 1.0, -0.3, 1.2 + 1.0j):
        with pytest.raises(ValueError):
            gamma_factor(0, bad)


def test_gamma_multiplier_is_line_restriction():
    tau = np.linspace(-50.0, 50.0, 2001)
    for n in (0, 1, 2, 5, 10):
        gm = gamma_multiplier(n, tau)
        gf = gamma_factor(n, 0.5 + 1j * tau)
        assert np.max(np.abs(gm - gf)) <= 1e-13
        assert np.max(np.abs(np.abs(gm) - 1.0)) <= 1e-14


def test_line_multipliers_vs_mpmath():
    # the multipliers both trace routes share, against their closed forms
    # with a = 1 + N/2:
    #   gamma_N = i^N (2 pi)^(-4 i tau) Gamma(a + 2 i tau) / Gamma(a - 2 i tau)
    #   h_N = -4 log(2 pi) + 4 Re psi(a + 2 i tau),  k_N = 8 Im psi'(a + 2 i tau)
    tau = np.concatenate([np.linspace(-100.0, 100.0, 201), [-1e-3, 1e-3, 0.37, 71.3]])
    for n in (0, 1, 5, 40):
        gm, hm, km = [], [], []
        with mpmath.workdps(30):
            for t in tau:
                z = 1 + mpmath.mpf(n) / 2 + 2j * mpmath.mpf(t)
                phase = 1j**n * mpmath.exp(-4j * mpmath.mpf(t) * mpmath.log(2 * mpmath.pi))
                gm.append(complex(phase * mpmath.gamma(z) / mpmath.gamma(mpmath.conj(z))))
                hm.append(float(-4 * mpmath.log(2 * mpmath.pi) + 4 * mpmath.re(mpmath.digamma(z))))
                km.append(float(8 * mpmath.im(mpmath.psi(1, z))))
        assert np.max(np.abs(gamma_multiplier(n, tau) - np.array(gm))) <= 1e-11
        assert np.max(np.abs(h_multiplier(n, tau) - np.array(hm))) <= 1e-13
        assert np.max(np.abs(k_multiplier(n, tau) - np.array(km))) <= 1e-13


def test_gamma_multiplier_reflection_sign():
    # gamma_N(tau) * gamma_N(-tau) = (-1)^N
    tau = np.arange(-50.0, 50.0 + 1e-9, 0.01)
    for n in range(11):
        prod = gamma_multiplier(n, tau) * gamma_multiplier(n, -tau)
        assert np.max(np.abs(prod - (-1.0) ** n)) <= 1e-10


# ------------------------------------------------------ logarithmic derivative


def test_log_derivative_center_value():
    v = gamma_log_derivative(0, 0.5)
    assert abs(v - H0_AT_ZERO) <= 1e-12
    assert abs(v.imag) <= 1e-14
    # N = 2 at the center is real too (conjugate digamma arguments)
    assert abs(gamma_log_derivative(2, 0.5).imag) <= 1e-14


def test_log_derivative_vs_finite_difference():
    # oracle: central difference of log gamma_factor, branch-safe form
    def log_gf(n, s):
        return (
            (2.0 - 4.0 * s) * LOG_2PI
            + log_gamma(2.0 * s + 0.5 * n)
            - log_gamma(2.0 * (1.0 - s) + 0.5 * n)
        )

    rng = np.random.default_rng(67)
    step = 1e-5
    for _ in range(60):
        n = int(rng.integers(0, 7))
        s = complex(rng.uniform(0.15, 0.85), rng.uniform(-3.0, 3.0))
        fd = (log_gf(n, s + step) - log_gf(n, s - step)) / (2.0 * step)
        assert abs(gamma_log_derivative(n, s) - fd) <= 1e-8


def test_log_derivative_mirror_symmetry():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-5.0, 5.0))
        assert abs(
            gamma_log_derivative(n, s) - gamma_log_derivative(n, 1.0 - s)
        ) <= 1e-12


# ----------------------------------------------------------- h, k multipliers


def test_h_center_value_and_evenness():
    assert abs(h_multiplier(0, 0.0) - H0_AT_ZERO) <= 1e-12
    tau = np.linspace(0.0, 30.0, 500)
    for n in range(7):
        assert np.max(np.abs(h_multiplier(n, tau) - h_multiplier(n, -tau))) <= 1e-12


def test_h_log_growth():
    # h_0(tau) ~ 4 log|tau| + (4 log 2 - 4 log 2 pi) for large tau
    assert abs(h_multiplier(0, 100.0) - 4.0 * math.log(100.0)) <= 5.0


def test_h_matches_phase_derivative():
    # h_N = -i (d/dtau) log gamma_N; finite difference via the phase of the
    # ratio gamma(tau+d)*conj(gamma(tau-d)), which avoids phase unwrapping
    delta = 1e-4
    tau = np.linspace(-10.0, 10.0, 81)
    for n in range(7):
        ratio = gamma_multiplier(n, tau + delta) * np.conj(
            gamma_multiplier(n, tau - delta)
        )
        fd = np.angle(ratio) / (2.0 * delta)
        assert np.max(np.abs(h_multiplier(n, tau) - fd)) <= 1e-6


def test_k_zero_odd_and_derivative():
    for n in range(7):
        assert abs(k_multiplier(n, 0.0)) <= 1e-14
    tau = np.linspace(0.0, 20.0, 300)
    for n in range(7):
        assert np.max(np.abs(k_multiplier(n, tau) + k_multiplier(n, -tau))) <= 1e-12
    # k_0(1) against the finite difference of h_0
    delta = 1e-4
    fd = -(h_multiplier(0, 1.0 + delta) - h_multiplier(0, 1.0 - delta)) / (2 * delta)
    assert abs(k_multiplier(0, 1.0) - fd) <= 1e-6


def test_h_left_bounded_scan():
    taus = np.arange(-100.0, 100.0 + 1e-9, 0.5)
    overall_min = min(float(h_multiplier(n, taus).min()) for n in range(21))
    assert abs(overall_min - H0_AT_ZERO) <= 1e-9


def test_k_bounded_and_monotone_in_n():
    taus = np.arange(-100.0, 100.0 + 1e-9, 0.25)
    k0_sup = float(np.abs(k_multiplier(0, np.arange(0.0, 50.0, 0.001))).max())
    for n in range(21):
        assert np.abs(k_multiplier(n, taus)).max() <= k0_sup + 1e-12
    for t in (0.5, 1.0, 2.0):
        vals = [abs(k_multiplier(n, t)) for n in range(21)]
        assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(20))


def test_sector_recurrence_on_the_default_grid():
    # Gamma(z + 1) = z Gamma(z) at z = 1 + N/2 + 2 i tau steps every
    # multiplier from sector N to N + 2 with no special function; one step
    # from the kernel at N meets the kernel at N + 2 within 6.5e-13 (gamma),
    # 1.2e-14 (h, absolute) and 1.0e-15 (k, normwise) for N + 2 <= 40
    m = int(round(DEFAULT_TAU_HALF_WIDTH / DEFAULT_TAU_SPACING))
    tau = DEFAULT_TAU_SPACING * np.arange(-m, m + 1)
    sectors = [(gamma_multiplier(n, tau), h_multiplier(n, tau), k_multiplier(n, tau)) for n in range(41)]
    for n in range(39):
        z = 1.0 + n / 2.0 + 2j * tau
        (g, h, k), (g2, h2, k2) = sectors[n], sectors[n + 2]
        assert np.max(np.abs(g2 + g * z / np.conj(z))) <= 1e-11
        assert np.max(np.abs(h2 - h - 4.0 * (1.0 / z).real)) <= 1e-13
        assert np.max(np.abs(k2 - k + 8.0 * (1.0 / z**2).imag)) <= 1e-14 * np.max(np.abs(k2))



@pytest.mark.parametrize(
    "multiplier, kernel",
    [(gamma_multiplier, "log_gamma"), (h_multiplier, "digamma"), (k_multiplier, "trigamma")],
)
def test_line_multipliers_on_half_of_a_symmetric_grid(multiplier, kernel, monkeypatch):
    # on the default grid the kernel runs on the upper half and the lower
    # half is its mirrored conjugate; one appended tau breaks the symmetry
    # and takes the full evaluation, which must give the same bits
    m = int(round(DEFAULT_TAU_HALF_WIDTH / DEFAULT_TAU_SPACING))
    tau = DEFAULT_TAU_SPACING * np.arange(-m, m + 1)
    seen = []
    inner = getattr(specfun, kernel)

    def recording(z):
        seen.append(len(z))
        return inner(z)

    monkeypatch.setattr(specfun, kernel, recording)
    for n in range(41):
        half = multiplier(n, tau)
        full = multiplier(n, np.append(tau, 0.3))[:-1]
        assert half.tobytes() == full.tobytes()
    assert seen == [m + 1, 2 * m + 2] * 41


# --------------------------------------------------------------- eps expansion


def test_gamma0_expansion_coefficients():
    c1, c2 = gamma0_expansion(2)
    assert abs(c1 - 1.0) <= 1e-14
    # the circle rule sits at rounding: about 2e-15 on c2
    assert abs(c2 - EPS2_COEFF) <= 1e-13
    assert abs(c2 - (-h_multiplier(0, 0.0) - 2.0)) <= 1e-13


def test_gamma0_expansion_third_order():
    c1, c2, c3 = gamma0_expansion(3)
    # hand-derived: (log G)''(0) = 4 psi'(2) - 4 psi'(1) = -4, so
    # c3 = c2^2/2 - 2
    assert abs(c3 - (c2**2 / 2.0 - 2.0)) <= 1e-12
    assert abs(c3 - (EPS2_COEFF**2 / 2.0 - 2.0)) <= 1e-12


def test_gamma0_expansion_guards():
    with pytest.raises(ValueError):
        gamma0_expansion(4)
    # the 32- and 64-point rules differ by 2e-16 (c1) to 1e-14 (c3)
    match = (r"^gamma0_expansion: coefficient c\d, 32- against 64-point circle rule: "
             r"estimate \S+ not within tolerance 1\.000e-17$")
    with pytest.raises(NonConvergenceError, match=match):
        gamma0_expansion(3, tol=1e-17)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-7])
def test_gamma0_expansion_refuses_a_tolerance_that_checks_nothing(tol):
    # gap > nan is always False: a NaN tol returned the coefficients unchecked
    with pytest.raises(ValueError, match="^tol must be finite and at least 0"):
        gamma0_expansion(2, tol=tol)


def test_gamma0_expansion_reads_no_polygamma(monkeypatch):
    # c2 checks the closed form -h_0(0) - 2, so the route must not share
    # the digamma path behind h_multiplier (nor trigamma, nor gamma_factor)
    want = gamma0_expansion(3)

    def refuse(*args, **kwargs):
        raise AssertionError("gamma0_expansion read a polygamma route")

    for name in ("digamma", "trigamma", "psi", "gamma_factor", "h_multiplier"):
        monkeypatch.setattr(specfun, name, refuse)
    assert gamma0_expansion(3) == want


# ------------------------------------------------------ multiplier symmetries


def test_spectral_table_invariants():
    # the three line multipliers on one symmetric tau-grid: gamma_N
    # unimodular, h_N even, k_N odd, each keeping the grid's shape
    tau = 0.05 * np.arange(-200, 201)
    gamma, h, k = (fn(3, tau) for fn in (gamma_multiplier, h_multiplier, k_multiplier))
    assert tau.shape == gamma.shape == h.shape == k.shape
    assert np.max(np.abs(np.abs(gamma) - 1.0)) <= 1e-10
    assert np.max(np.abs(h - h[::-1])) <= 1e-10  # even
    assert np.max(np.abs(k + k[::-1])) <= 1e-10  # odd
