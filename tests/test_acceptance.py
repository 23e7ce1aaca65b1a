"""Acceptance gate: ten quantitative criteria, one verdict line each.

Every criterion prints a PASS/FAIL line with its measured figure (and
elapsed time where a runtime budget applies) straight to the terminal,
then asserts.  Tolerances are the package's external contract; the
module test suites pin the same quantities far tighter.
"""

import math
import time

import numpy as np
import pytest

from quatgamma.additive_oracle import (
    Grid4D,
    brute_fourier,
    functional_equation_residual,
    gaussian_moment,
    gaussian_moment_quadrature,
    homogeneity_check,
    isotypic_grid_function,
    omega_grid_function,
    op_b_via_distribution,
)
from quatgamma.connes_trace import (
    TraceConfig,
    fit_trace_expansion,
    residual_sweep,
    trace_direct,
    trace_spectral,
)
from quatgamma.gamma_op import (
    IsotypicFunction,
    gaussian_isotypic,
    gamma_transform,
    inversion,
    op_A,
    op_B,
    op_H,
    op_K,
    to_additive,
    value_at_identity,
)
from quatgamma.specfun import (
    LOG_2PI,
    gamma0_expansion,
    gamma_multiplier,
    h_multiplier,
    k_multiplier,
)


def verdict(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def narrow_profile(n):
    # additive tail clears the 4D grid boundary guard, unlike width 1
    return IsotypicFunction.from_log_function(
        n, lambda v: np.exp(-v**2 / (2.0 * 0.45**2))
    )


def _seeded_probes(count, seed, lo, hi):
    """count points in random directions at radii uniform on [lo, hi]."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (lo + (hi - lo) * rng.random(count))[:, None]
    return pts


def test_criterion_01_unitarity(capsys):
    start = time.perf_counter()
    taus = -50.0 + 0.01 * np.arange(10001)
    dev = 0.0
    for n in range(11):
        dev = max(dev, float(np.max(np.abs(np.abs(gamma_multiplier(n, taus)) - 1.0))))
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-10 and elapsed <= 5.0
    verdict(capsys, 1, "unitarity", ok, f"max ||gamma|-1| = {dev:.3e}; {elapsed:.2f}s of 5s")
    assert dev <= 1e-10
    assert elapsed <= 5.0


def test_criterion_02_functional_equation(capsys):
    start = time.perf_counter()
    sigmas = np.arange(1, 21) / 21.0
    s = sigmas[:, None] + 1j * np.linspace(-2.0, 2.0, 20)[None, :]
    worst_fe = 0.0
    worst_quad = 0.0
    for n in range(7):
        worst_fe = max(worst_fe, float(np.max(functional_equation_residual(n, s))))
        closed = gaussian_moment(n, s)
        quad = gaussian_moment_quadrature(n, s)
        worst_quad = max(worst_quad, float(np.max(np.abs(quad - closed) / np.abs(closed))))
    elapsed = time.perf_counter() - start
    ok = worst_fe <= 1e-10 and worst_quad <= 1e-12 and elapsed <= 10.0
    verdict(
        capsys, 2, "functional equation", ok,
        f"moment residual {worst_fe:.3e}, quadrature {worst_quad:.3e}; {elapsed:.2f}s of 10s",
    )
    assert worst_fe <= 1e-10
    assert worst_quad <= 1e-12
    assert elapsed <= 10.0


def test_criterion_03_self_dual_gaussian(capsys):
    start = time.perf_counter()
    box = Grid4D(2.0, 33)
    probes = _seeded_probes(10, 101, 0.2, 1.0)
    got = brute_fourier(omega_grid_function(box), probes)
    want = np.exp(-2.0 * np.pi * np.sum(probes * probes, axis=1))
    err = float(np.max(np.abs(got - want) / want))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-3 and elapsed <= 120.0
    verdict(capsys, 3, "self-dual Gaussian", ok, f"max rel {err:.3e}; {elapsed:.1f}s of 120s")
    assert err <= 1e-3
    assert elapsed <= 120.0


def test_criterion_04_multiplier_vs_oracle(capsys):
    start = time.perf_counter()
    box = Grid4D(2.0, 33)
    probes = _seeded_probes(5, 900, 0.4, 0.9)
    worst = 0.0
    for n in (0, 1, 2):
        f = narrow_profile(n)
        got = brute_fourier(isotypic_grid_function(box, inversion(f)), probes)
        want = to_additive(gamma_transform(f)).evaluate_points(probes)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and elapsed <= 300.0
    verdict(capsys, 4, "multiplier vs oracle", ok, f"max rel {worst:.3e}; {elapsed:.1f}s of 300s")
    assert worst <= 1e-2
    assert elapsed <= 300.0


def test_criterion_05_spectral_derivatives(capsys):
    delta = 1e-4
    taus = np.linspace(-20.0, 20.0, 321)
    worst_h = 0.0
    worst_k = 0.0
    for n in range(6):
        up = gamma_multiplier(n, taus + delta)
        dn = gamma_multiplier(n, taus - delta)
        fd_arg = np.angle(up / dn) / (2.0 * delta)
        worst_h = max(worst_h, float(np.max(np.abs(fd_arg - h_multiplier(n, taus)))))
        fd_h = (h_multiplier(n, taus + delta) - h_multiplier(n, taus - delta)) / (2.0 * delta)
        worst_k = max(worst_k, float(np.max(np.abs(-fd_h - k_multiplier(n, taus)))))
    ok = worst_h <= 1e-6 and worst_k <= 1e-6
    verdict(capsys, 5, "spectral derivatives", ok, f"h {worst_h:.3e}, k {worst_k:.3e}")
    assert worst_h <= 1e-6
    assert worst_k <= 1e-6


def test_criterion_06_expansion_constant(capsys):
    _, c2 = gamma0_expansion(order=2)
    closed = 4.0 * LOG_2PI + 4.0 * np.euler_gamma - 2.0
    diff = abs(c2 - closed)
    ok = diff <= 1e-12 and abs(closed - 7.6603709252) <= 1e-9
    verdict(capsys, 6, "expansion constant", ok, f"|c2 - closed| = {diff:.3e}")
    assert abs(closed - 7.6603709252) <= 1e-9
    assert diff <= 1e-12


def test_criterion_07_operator_identities(capsys):
    def gap(a, b):
        return float(np.max(np.abs(a.spectral_profile.samples - b.spectral_profile.samples)))

    worst = 0.0
    for n in (0, 1, 2):
        f = gaussian_isotypic(n)
        af, bf = op_A(f), op_B(f)
        split = float(
            np.max(
                np.abs(
                    op_H(f).spectral_profile.samples
                    - af.spectral_profile.samples
                    - bf.spectral_profile.samples
                )
            )
        )
        comm = float(
            np.max(
                np.abs(
                    1j
                    * (
                        op_B(af).spectral_profile.samples
                        - op_A(bf).spectral_profile.samples
                    )
                    - op_K(f).spectral_profile.samples
                )
            )
        )
        h_inv = gap(op_H(inversion(f)), inversion(op_H(f)))
        k_f = op_K(f)
        k_inv = float(
            np.max(
                np.abs(
                    op_K(inversion(f)).spectral_profile.samples
                    + inversion(k_f).spectral_profile.samples
                )
            )
        )
        worst = max(worst, split, comm, h_inv, k_inv)
    ok = worst <= 1e-6
    verdict(capsys, 7, "operator identities", ok, f"max spectral discrepancy {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_08_homogeneity(capsys):
    worst = 0.0
    for n in (0, 1):
        f = gaussian_isotypic(n)
        for t in (0.0, 0.5, 1.0, 2.0):
            worst = max(worst, homogeneity_check(n, complex(0.5, t), f))
    ok = worst <= 1e-4
    verdict(capsys, 8, "homogeneity", ok, f"max residual {worst:.3e}")
    assert worst <= 1e-4


def test_criterion_09_dual_route_b(capsys):
    worst = 0.0
    for n in (0, 1):
        f = gaussian_isotypic(n)
        spectral = value_at_identity(op_B(f))
        convolved = op_b_via_distribution(f)
        worst = max(worst, abs(convolved - spectral) / abs(spectral))
    ok = worst <= 1e-14
    verdict(capsys, 9, "dual-route B", ok, f"max rel {worst:.3e}")
    assert worst <= 1e-14


def test_criterion_10_connes_trace(capsys):
    start = time.perf_counter()
    standard = gaussian_isotypic(0)

    route_gap = 0.0
    for n in (0, 1):
        f = gaussian_isotypic(n)
        for lam in (2.0, 4.0, 8.0):
            d = trace_direct(f, lam)
            s = trace_spectral(f, lam)
            route_gap = max(route_gap, abs(d - s) / abs(s))

    results = residual_sweep(TraceConfig(f=standard))
    h_at_1 = value_at_identity(op_H(standard))
    mags = {r.lam: abs(r.residual) for r in results}
    checked = [mags[l] for l in (2.0, 4.0, 8.0, 16.0)]
    decreasing = all(b < a for a, b in zip(checked, checked[1:]))
    tail_ok = mags[16.0] <= 1e-3 * abs(h_at_1)

    slope, intercept = fit_trace_expansion(results)
    f_at_1 = value_at_identity(standard).real
    slope_err = abs(slope - f_at_1) / abs(f_at_1)
    intercept_err = abs(intercept - (-h_at_1.real)) / abs(h_at_1)

    elapsed = time.perf_counter() - start
    ok = (
        route_gap <= 1e-4
        and decreasing
        and tail_ok
        and slope_err <= 5e-3
        and intercept_err <= 1e-2
        and elapsed <= 180.0
    )
    verdict(
        capsys, 10, "Connes trace", ok,
        f"routes {route_gap:.3e}, |R(16)|/|H| {mags[16.0] / abs(h_at_1):.3e}, "
        f"slope err {slope_err:.3e}, intercept err {intercept_err:.3e}; "
        f"{elapsed:.1f}s of 180s",
    )
    assert route_gap <= 1e-4
    assert decreasing
    assert tail_ok
    assert slope_err <= 5e-3
    assert intercept_err <= 1e-2
    assert elapsed <= 180.0
