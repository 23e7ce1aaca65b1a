"""Operator algebra on isotypic functions.

The interesting assertions are the exact operator identities: the Fourier
square law F^2 = (-1)^N, the splitting H = A + B, the commutation relations
with inversion, the commutator i[B, A] = K, and the conjugation
B = -Gamma A Gamma^{-1}.  All are checked on concrete profiles against
tolerances a few orders above the measured error floors.
"""

from dataclasses import replace

import numpy as np
import pytest

from quatgamma import AliasingError, DecayError, gamma_op
from quatgamma.gamma_op import (
    SQRT_2PI2,
    IsotypicFunction,
    fourier_transform,
    gamma_transform,
    gaussian_isotypic,
    inversion,
    op_A,
    op_B,
    op_H,
    op_K,
    to_additive,
    value_at_identity,
)
from quatgamma.quat_core import Quaternion
from quatgamma.specfun import gamma_multiplier
from quatgamma.su2_angular import character


def psi_of(f):
    return f.spectral_profile.samples


def k_of(f):
    return f.log_profile.samples


def gamma_inverse(f):
    """psi -> conj(gamma_N) * psi, the inverse of gamma_transform."""
    psi = f.spectral_profile
    m = np.conjugate(gamma_multiplier(f.N, psi.grid))
    return replace(f, spectral_profile=replace(psi, samples=m * psi.samples))


def omega_isotypic():
    """The self-dual Gaussian e^{-2 pi n(x)} in multiplicative form:
    N = 0, K(v) = sqrt(2 pi^2) e^{v/2} e^{-2 pi e^{v/2}} (u = |x|, so the
    additive n(x) is u^{1/2} = e^{v/2})."""
    return IsotypicFunction.from_log_function(
        0, lambda v: SQRT_2PI2 * np.exp(0.5 * v) * np.exp(-2.0 * np.pi * np.exp(0.5 * v))
    )


def test_gaussian_isotypic_value_at_identity():
    for n in (0, 1, 4):
        f = gaussian_isotypic(n)
        # K(0) = 1 for the centered unit Gaussian
        assert abs(value_at_identity(f) - (n + 1)) < 1e-10


def test_from_spectral_profile_roundtrip():
    f = gaussian_isotypic(2, center=0.3)
    g = IsotypicFunction(2, f.spectral_profile)
    samples = np.exp(-0.5 * (g.log_profile.grid - 0.3) ** 2)
    assert np.max(np.abs(k_of(g) - samples)) < 1e-12


def test_from_log_function_refuses_undecayed_spectrum():
    # a box in v transforms to 2 sin(tau)/tau, still ~1e-2 at |tau| = 64
    with pytest.raises(DecayError):
        IsotypicFunction.from_log_function(0, lambda v: (np.abs(v) < 1.0).astype(float))


def test_construction_refuses_aliasing_v_grid():
    psi = gaussian_isotypic(0).spectral_profile
    # v-spacing 1 against tau half-width 64: 64 > pi
    with pytest.raises(AliasingError):
        IsotypicFunction(0, psi, v_spacing=1.0)


def test_log_profile_is_derived_only_when_read(monkeypatch):
    built = []
    transform = gamma_op.from_spectral

    def counting(*args):
        built.append(args)
        return transform(*args)

    monkeypatch.setattr(gamma_op, "from_spectral", counting)
    g = op_H(gamma_transform(gaussian_isotypic(1)))
    assert built == []  # the multipliers never transform back
    g.log_profile
    assert len(built) == 1
    # nothing is stored: each read transforms again
    g.log_profile
    assert len(built) == 2


# ------------------------------------------------------------------ inversion


def test_inversion_is_involution():
    f = gaussian_isotypic(1, center=0.8, width=1.2)
    g = inversion(inversion(f))
    assert np.array_equal(psi_of(g), psi_of(f))
    assert np.array_equal(k_of(g), k_of(f))


def test_inversion_reflects_center():
    f = gaussian_isotypic(0, center=1.0)
    g = inversion(f)
    grid = f.log_profile.grid
    expected = np.exp(-0.5 * (grid + 1.0) ** 2)
    assert np.max(np.abs(k_of(g) - expected)) < 1e-12


def test_even_profile_is_inversion_fixed_point():
    f = gaussian_isotypic(3)
    g = inversion(f)
    assert np.max(np.abs(psi_of(g) - psi_of(f))) < 1e-14


# -------------------------------------------------------- the Gamma operator


def test_gamma_transform_is_unitary_pointwise():
    f = gaussian_isotypic(2)
    g = gamma_transform(f)
    assert np.max(np.abs(np.abs(psi_of(g)) - np.abs(psi_of(f)))) < 1e-13


def test_gamma_inverse_recovers():
    f = gaussian_isotypic(2, center=-0.4)
    g = gamma_inverse(gamma_transform(f))
    assert np.max(np.abs(psi_of(g) - psi_of(f))) < 1e-13


def test_gamma_transform_is_linear():
    a = gaussian_isotypic(1, center=0.5)
    b = gaussian_isotypic(1, center=-0.7, width=1.3)
    psi = a.spectral_profile
    combo = IsotypicFunction(
        1, type(psi)(psi.spacing, psi.half_width, 2.0 * psi_of(a) + 3.0 * psi_of(b))
    )
    lhs = psi_of(gamma_transform(combo))
    rhs = 2.0 * psi_of(gamma_transform(a)) + 3.0 * psi_of(gamma_transform(b))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_omega_is_fourier_fixed_point():
    w = omega_isotypic()
    fw = fourier_transform(w)
    assert np.max(np.abs(psi_of(fw) - psi_of(w))) < 1e-11
    assert np.max(np.abs(k_of(fw) - k_of(w))) < 1e-11


def test_fourier_square_is_parity_sign():
    for n in (0, 1, 2, 3):
        f = gaussian_isotypic(n, center=0.7, width=0.9)
        ff = fourier_transform(fourier_transform(f))
        sign = (-1.0) ** n
        assert np.max(np.abs(psi_of(ff) - sign * psi_of(f))) < 1e-13


# -------------------------------------------------------------- H, A, B, K


def test_op_a_vanishes_at_identity():
    f = gaussian_isotypic(2, width=0.8)
    # (v*K)(0) = 0 regardless of the profile
    assert abs(value_at_identity(op_A(f))) < 1e-12


def test_h_splits_as_a_plus_b():
    for n in (0, 1, 3):
        f = gaussian_isotypic(n, center=0.5)
        a, b, h = op_A(f), op_B(f), op_H(f)
        assert np.max(np.abs(psi_of(h) - psi_of(a) - psi_of(b))) < 1e-14
        assert np.max(np.abs(k_of(h) - k_of(a) - k_of(b))) < 1e-12


def test_h_value_at_identity_is_resolution_stable():
    coarse = value_at_identity(op_H(gaussian_isotypic(0)))
    fine = value_at_identity(
        op_H(
            IsotypicFunction.from_log_function(
                0, lambda v: np.exp(-0.5 * v * v), tau_spacing=1.0 / 128.0
            )
        )
    )
    assert abs(coarse - fine) < 1e-12
    # the value itself is real and negative for the centered Gaussian
    assert abs(coarse.imag) < 1e-12
    assert coarse.real < 0.0


def test_h_commutes_with_inversion():
    f = gaussian_isotypic(1, center=0.4, width=1.1)
    lhs = psi_of(op_H(inversion(f)))
    rhs = psi_of(inversion(op_H(f)))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_k_anticommutes_with_inversion():
    f = gaussian_isotypic(1, center=0.4, width=1.1)
    lhs = psi_of(op_K(inversion(f)))
    rhs = psi_of(inversion(op_K(f)))
    assert np.max(np.abs(lhs + rhs)) < 1e-12


def test_commutator_of_b_and_a_is_k():
    for n in (0, 1, 2):
        f = gaussian_isotypic(n, center=0.3, width=0.9)
        lhs = 1j * (psi_of(op_B(op_A(f))) - psi_of(op_A(op_B(f))))
        rhs = psi_of(op_K(f))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_b_is_gamma_conjugate_of_minus_a():
    for n in (0, 2):
        f = gaussian_isotypic(n, center=-0.6)
        lhs = psi_of(op_B(f))
        rhs = -psi_of(gamma_transform(op_A(gamma_inverse(f))))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# --------------------------------------------------------- additive picture


def test_additive_value_at_identity():
    phi = to_additive(gaussian_isotypic(0))
    assert abs(phi(Quaternion(1.0)) - 1.0 / SQRT_2PI2) < 1e-12


def test_additive_matches_polar_factorization():
    f = gaussian_isotypic(2, center=0.2)
    phi = to_additive(f)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(8, 4))
    vals = phi.evaluate_points(pts)
    n = np.sum(pts * pts, axis=1)
    theta = np.arccos(np.clip(pts[:, 0] / np.sqrt(n), -1.0, 1.0))
    expected = (
        character(2, theta) * np.exp(-0.5 * (2.0 * np.log(n) - 0.2) ** 2)
        / (SQRT_2PI2 * n)
    )
    assert np.max(np.abs(vals - expected)) < 1e-10


def test_additive_omega_is_gaussian():
    phi = to_additive(omega_isotypic())
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 4))
    vals = phi.evaluate_points(pts)
    n = np.sum(pts * pts, axis=1)
    assert np.max(np.abs(vals - np.exp(-2.0 * np.pi * n))) < 1e-12


def test_additive_masks_outside_window():
    phi = to_additive(omega_isotypic())
    tiny = np.array([[np.exp(-21.0), 0.0, 0.0, 0.0]])  # v = -84, off the grid
    assert phi.evaluate_points(tiny)[0] == 0.0


def test_additive_rejects_zero():
    phi = to_additive(gaussian_isotypic(0))
    with pytest.raises(ValueError):
        phi(Quaternion(0.0))


def test_additive_call_matches_vectorized():
    phi = to_additive(gaussian_isotypic(1, center=-0.3))
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 4))
    vec = phi.evaluate_points(pts)
    one_by_one = np.array([phi(p) for p in pts])
    assert np.max(np.abs(vec - one_by_one)) < 1e-15
