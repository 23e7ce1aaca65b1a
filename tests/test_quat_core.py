"""The quaternion product, the additive character and the 4D Fourier kernel.

The package needs no scalar quaternion type or arithmetic (it reads
points as rows of four coordinates), so the type and the product live
here as the reference that pins brute_fourier's kernel; the 2x2 complex
matrix representations (_matrix_reps) are an independent model of the
product, used here as its oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quatgamma.additive_oracle import Grid4D, GridFunction, brute_fourier


@dataclass(frozen=True)
class Quaternion:
    """x0 + x1*i + x2*j + x3*k with real coordinates."""

    x0: float
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    @property
    def coords(self) -> tuple:
        return (self.x0, self.x1, self.x2, self.x3)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product (noncommutative; i*j = k = -j*i)."""
    return Quaternion(
        p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2 - p.x3 * q.x3,
        p.x0 * q.x1 + p.x1 * q.x0 + p.x2 * q.x3 - p.x3 * q.x2,
        p.x0 * q.x2 - p.x1 * q.x3 + p.x2 * q.x0 + p.x3 * q.x1,
        p.x0 * q.x3 + p.x1 * q.x2 - p.x2 * q.x1 + p.x3 * q.x0,
    )


def conj(q: Quaternion) -> Quaternion:
    return Quaternion(q.x0, -q.x1, -q.x2, -q.x3)


def norm(q: Quaternion) -> float:
    """n(q) = x0^2 + x1^2 + x2^2 + x3^2."""
    return sum(c * c for c in q.coords)


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
    i = Quaternion(0.0, 1.0)
    j = Quaternion(0.0, 0.0, 1.0)
    k = Quaternion(0.0, 0.0, 0.0, 1.0)
    assert mul(i, j) == k
    assert mul(j, i) == Quaternion(0.0, 0.0, 0.0, -1.0)
    assert mul(j, k) == i
    assert mul(k, i) == j
    minus_one = Quaternion(-1.0)
    assert mul(i, i) == minus_one
    assert mul(j, j) == minus_one
    assert mul(k, k) == minus_one


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


# ------------------------------------------------------------------ norm


def test_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p, q = rand_quat(rng), rand_quat(rng)
        lhs = norm(mul(p, q))
        rhs = norm(p) * norm(q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_norm_is_q_times_conj():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rand_quat(rng)
        prod = mul(q, conj(q))
        assert abs(prod.x0 - norm(q)) <= 1e-13 * max(1.0, prod.x0)
        assert max(abs(prod.x1), abs(prod.x2), abs(prod.x3)) <= 1e-13


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
    rows = [y.coords for y in probes]
    got = brute_fourier(GridFunction(box, values.reshape(7, -1), np.arange(7**3).reshape(7, 7, 7)), rows)
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
        n = norm(q)
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
