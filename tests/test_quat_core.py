"""Arithmetic, norm, polar and matrix-representation checks for quat_core.

The 2x2 complex matrix representations (_matrix_reps) are an independent
model of the quaternion product, used here as its oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from quatgamma.additive_oracle import Grid4D, GridFunction, brute_fourier
from quatgamma.quat_core import Quaternion, class_angle, conj, module, mul, reduced_norm


def rand_quat(rng, scale: float = 2.0) -> Quaternion:
    return Quaternion(*(scale * rng.standard_normal(4)))


def dist(p: Quaternion, q: Quaternion) -> float:
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


def _matrix_reps(q: Quaternion) -> tuple:
    """(L_q, R_q) for q = a + b*j, a = x0 + x1*i, b = x2 + x3*i:
    L_q = [[a, b], [-conj(b), conj(a)]] should satisfy L_{pq} = L_p @ L_q,
    R_q = [[a, -conj(b)], [b, conj(a)]] should satisfy R_{pq} = R_q @ R_p,
    and both should have det = n(q)."""
    a, b = complex(q.x0, q.x1), complex(q.x2, q.x3)
    left = np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)
    right = np.array([[a, -b.conjugate()], [b, a.conjugate()]], dtype=complex)
    return left, right


# ---------------------------------------------------------------- basic table


def test_basis_products():
    one = Quaternion(1.0)
    i = Quaternion(0.0, 1.0)
    j = Quaternion(0.0, 0.0, 1.0)
    k = Quaternion(0.0, 0.0, 0.0, 1.0)
    assert mul(i, j) == k
    assert mul(j, i) == -k
    assert mul(j, k) == i
    assert mul(k, i) == j
    assert mul(i, i) == -one
    assert mul(j, j) == -one
    assert mul(k, k) == -one


def test_hand_product():
    # (1+i)(1+j) = 1 + i + j + ij = 1 + i + j + k, computed by hand
    p = Quaternion(1.0, 1.0, 0.0, 0.0)
    q = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert mul(p, q) == Quaternion(1.0, 1.0, 1.0, 1.0)
    # reversed order flips the sign of the k part
    assert mul(q, p) == Quaternion(1.0, 1.0, 1.0, -1.0)


def test_associativity_random():
    rng = np.random.default_rng(20260817)
    for _ in range(1000):
        p, q, r = (rand_quat(rng) for _ in range(3))
        assert dist(mul(mul(p, q), r), mul(p, mul(q, r))) <= 1e-13


def test_conj_antihomomorphism():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q = rand_quat(rng), rand_quat(rng)
        assert dist(conj(mul(p, q)), mul(conj(q), conj(p))) <= 1e-13


# ------------------------------------------------------------- norm / module


def test_norm_and_module_values():
    q = Quaternion(0.0, 2.0, 0.0, 0.0)  # 2i
    assert reduced_norm(q) == 4.0
    assert module(q) == 16.0
    assert reduced_norm(Quaternion(1.0, 1.0, 1.0, 1.0)) == 4.0


def test_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p, q = rand_quat(rng), rand_quat(rng)
        lhs = reduced_norm(mul(p, q))
        rhs = reduced_norm(p) * reduced_norm(q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert abs(module(mul(p, q)) - module(p) * module(q)) <= 1e-11 * max(
            1.0, module(p) * module(q)
        )


def test_norm_is_q_times_conj():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rand_quat(rng)
        prod = mul(q, conj(q))
        assert abs(prod.x0 - reduced_norm(q)) <= 1e-13 * max(1.0, prod.x0)
        assert max(abs(prod.x1), abs(prod.x2), abs(prod.x3)) <= 1e-13


# ---------------------------------------------------------------- polar form


def test_polar_roundtrip_and_module_power():
    # q = r * g0 with r = n(q)^{1/2}: the unit part has norm 1, the class
    # angle is that of g0, and the module is |q| = r^4
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = rand_quat(rng)
        if reduced_norm(q) < 1e-12:
            continue
        r = math.sqrt(reduced_norm(q))
        unit = q.scale(1.0 / r)
        assert abs(reduced_norm(unit) - 1.0) <= 1e-12
        assert dist(unit.scale(r), q) <= 1e-12 * max(1.0, r)
        assert abs(class_angle(unit) - class_angle(q)) <= 1e-12
        assert abs(module(q) - r**4) <= 1e-11 * max(1.0, r**4)


def test_polar_zero_raises():
    # the zero quaternion has no polar form, hence no class angle
    with pytest.raises(ValueError):
        class_angle(Quaternion(0.0))


def test_class_angle_values_and_invariance():
    assert class_angle(Quaternion(3.0)) == 0.0
    assert abs(class_angle(Quaternion(0.0, 2.0, 0.0, 0.0)) - math.pi / 2) <= 1e-15
    assert abs(class_angle(Quaternion(-5.0)) - math.pi) <= 1e-15
    # invariance under conjugation q -> g q g^{-1}
    rng = np.random.default_rng(19)
    for _ in range(100):
        q, g = rand_quat(rng), rand_quat(rng)
        ng = reduced_norm(g)
        if ng < 1e-12 or reduced_norm(q) < 1e-12:
            continue
        ginv = conj(g).scale(1.0 / ng)
        q2 = mul(mul(g, q), ginv)
        assert abs(class_angle(q2) - class_angle(q)) <= 1e-10


# ----------------------------------------------------------------- character


def _character(q: Quaternion) -> complex:
    """lambda(q) = e^{-4 pi i q0}, the additive character."""
    return complex(np.exp(-4j * np.pi * q.x0))


def test_character_values():
    # brute_fourier's kernel is conj lambda(x y): a unit mass at the grid
    # node x transforms to 4 h^4 e^{4 pi i Re(x y)} at every probe y
    box = Grid4D(1.5, 7)  # spacing 1/2, nodes at -3/2 .. 3/2
    node = (4, 2, 5, 3)  # x = (1/2, -1/2, 1, 0), off the boundary
    x = Quaternion(*(box.axis()[i] for i in node))
    values = np.zeros((7, 7, 7, 7), dtype=complex)
    values[node] = 1.0
    rng = np.random.default_rng(23)
    probes = [Quaternion(*rng.uniform(-1.0, 1.0, 4)) for _ in range(5)]
    probes.append(Quaternion(0.5))  # Re(x y) = 1/4: the kernel is -1
    got = brute_fourier(GridFunction(box, values.reshape(7, -1), np.arange(7**3).reshape(7, 7, 7)), probes)
    want = [4.0 * box.spacing**4 * _character(mul(x, y)).conjugate() for y in probes]
    assert np.max(np.abs(got - want)) <= 1e-14
    assert abs(got[-1] + 4.0 * box.spacing**4) <= 1e-15


def test_character_trace_property():
    # lambda(xy) = lambda(yx): scalar parts of xy and yx agree
    rng = np.random.default_rng(23)
    for _ in range(100):
        p, q = rand_quat(rng, scale=0.5), rand_quat(rng, scale=0.5)
        assert abs(mul(p, q).x0 - mul(q, p).x0) <= 1e-15
        assert abs(_character(mul(p, q)) - _character(mul(q, p))) <= 1e-13


# ------------------------------------------------------ matrix representations


def test_matrix_reps_identity_and_det():
    rng = np.random.default_rng(29)
    for _ in range(100):
        q = rand_quat(rng)
        left, right = _matrix_reps(q)
        n = reduced_norm(q)
        assert abs(np.linalg.det(left) - n) <= 1e-12 * max(1.0, n)
        assert abs(np.linalg.det(right) - n) <= 1e-12 * max(1.0, n)
        # trace of both reps is 2*x0
        assert abs(np.trace(left) - 2.0 * q.x0) <= 1e-13 * max(1.0, abs(q.x0))
        assert abs(np.trace(right) - 2.0 * q.x0) <= 1e-13 * max(1.0, abs(q.x0))


def test_left_rep_homomorphism_right_rep_antihomomorphism():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p, q = rand_quat(rng), rand_quat(rng)
        lp, rp = _matrix_reps(p)
        lq, rq = _matrix_reps(q)
        lpq, rpq = _matrix_reps(mul(p, q))
        assert np.max(np.abs(lpq - lp @ lq)) <= 1e-12
        assert np.max(np.abs(rpq - rq @ rp)) <= 1e-12
