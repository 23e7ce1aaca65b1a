"""Tests for the additive-picture oracles.

Closed-form anchors used here:
  - e^{-2 pi n(x)} is its own transform under the self-dual measure, with
    total mass 1, and scaling sends e^{-2 pi t n} to t^{-2} e^{-2 pi n/t}.
  - G(n e^{-2 pi n}) = 1/pi: the integrand vanishes at 0, so G reduces to
    the plain weighted integral int 4 r e^{-2 pi r^2} dr = 1/pi.
  - G(e^{-2 pi n}) = 2 log(2 pi) + 2 gamma_e - 2 = G_CONSTANT/2 - 1, from
    int_0^inf r^3 log(r) e^{-a r^2} dr = ((1 - gamma_e) - log a)/(4 a^2)
    at a = 2 pi, applied to -int log|x| e^{-2 pi n} dx/(2 pi^2 |x|^0)
    split at r = 1.
  - Delta_s(e^{-2 pi n}) equals the Gaussian moment at N = 0.
"""

import math
import tracemalloc

import numpy as np
import pytest

from quatgamma import _quadrature, additive_oracle
from quatgamma._quadrature import gauss_panels, legendre_rule
from quatgamma.additive_oracle import (
    G_CONSTANT,
    Grid4D,
    GridFunction,
    brute_fourier,
    delta_s,
    distribution_G,
    functional_equation_residual,
    gaussian_moment,
    gaussian_moment_quadrature,
    homogeneity_check,
    isotypic_grid_function,
    omega_grid_function,
    op_b_via_distribution,
    radial_fourier,
)
from quatgamma.gamma_op import (
    SQRT_2PI2,
    IsotypicFunction,
    gamma_transform,
    gaussian_isotypic,
    inversion,
    op_B,
    op_H,
    to_additive,
    value_at_identity,
)
from quatgamma.quat_core import Quaternion
from quatgamma.specfun import gamma_factor, gamma_log_derivative
from quatgamma.spectral_line import profile_value
from quatgamma.su2_angular import character


def omega_exact(pts):
    return np.exp(-2.0 * np.pi * np.sum(np.atleast_2d(pts) ** 2, axis=1))


def seeded_probes(k, lo, hi, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(k, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (lo + (hi - lo) * rng.random(k))[:, None]
    return [Quaternion(*p) for p in pts]


def _isotypic_grid_function_direct(grid, f):
    """Reference for isotypic_grid_function: the spline, cutoff and
    character evaluated at every one of the M^4 nodes."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(f.log_profile.grid, f.log_profile.samples)
    ax = grid.axis()
    pts = np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)
    n = np.sum(pts * pts, axis=1)
    out = np.zeros(len(n), dtype=complex)
    nz = n > 0.0
    v = np.empty_like(n)
    v[nz] = 2.0 * np.log(n[nz])
    inside = nz & (np.abs(np.where(nz, v, 0.0)) <= f.log_profile.half_width)
    theta = np.arccos(np.clip(pts[inside, 0] / np.sqrt(n[inside]), -1.0, 1.0))
    out[inside] = character(f.N, theta) * spline(v[inside]) / (SQRT_2PI2 * n[inside])
    m = grid.points_per_axis
    return out.reshape(m, m, m, m)


def _from_samples(grid, values):
    """A generic GridFunction holding an M^4 sample array: one table
    column per offset of the last three axes."""
    m = grid.points_per_axis
    return GridFunction(grid, values.reshape(m, m**3), np.arange(m**3).reshape(m, m, m))


def _expand(phi):
    """The M^4 samples of a GridFunction."""
    return phi.table[:, phi.orbit]


def _brute_fourier_direct(phi, probes):
    """Reference for brute_fourier: one tensordot chain per probe over
    the expanded M^4 samples."""
    ax = phi.grid.axis()
    h = phi.grid.spacing
    signs = (1.0, -1.0, -1.0, -1.0)
    values = _expand(phi)
    out = np.empty(len(probes), dtype=complex)
    for i, probe in enumerate(probes):
        y = np.asarray(probe.coords if isinstance(probe, Quaternion) else probe, dtype=float)
        acc = values
        for sign, yc in zip(signs, y):
            phase = np.exp(4j * np.pi * sign * yc * ax)
            acc = np.tensordot(acc, phase, axes=([0], [0]))
        out[i] = 4.0 * h**4 * acc
    return out


@pytest.fixture(scope="module")
def box():
    return Grid4D(2.0, 33)


@pytest.fixture(scope="module")
def omega_sampled(box):
    return omega_grid_function(box)


# ------------------------------------------------------------------- grids


def test_grid_spacing_exact():
    g = Grid4D(2.0, 33)
    assert g.spacing * (g.points_per_axis - 1) / 2.0 == g.half_extent
    ax = g.axis()
    assert ax[0] == -2.0 and ax[-1] == 2.0 and ax[16] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid4D(2.0, 32)
    with pytest.raises(ValueError):
        Grid4D(2.0, 1)
    with pytest.raises(ValueError):
        Grid4D(0.0, 33)


def test_grid_function_enforces_decay(box):
    m = box.points_per_axis
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="decay surrogate"):
        _from_samples(box, rng.normal(size=(m, m, m, m)).astype(complex))
    # a central sample: e^{-2 pi L^2} is 1.3e-8 at L = 1.7, over the bound
    with pytest.raises(ValueError, match="decay surrogate"):
        omega_grid_function(Grid4D(1.7, 17))
    orbit = np.zeros((m, m, m), dtype=int)
    with pytest.raises(ValueError, match="table"):
        GridFunction(box, np.zeros((m - 1, 4), dtype=complex), orbit)
    with pytest.raises(ValueError, match="orbit"):
        GridFunction(box, np.zeros((m, 4), dtype=complex), orbit[0])
    for bad in (-1, 4):
        orbit[1, 2, 3] = bad
        with pytest.raises(ValueError, match="orbit"):
            GridFunction(box, np.zeros((m, 4), dtype=complex), orbit)


def test_boundary_magnitude_is_the_face_maximum(box):
    # rows x0 = +-L and the face offsets' orbits are exactly the M^4
    # faces; a central table has columns no offset reaches (s = 7), which
    # must not count
    phis = [omega_grid_function(box), isotypic_grid_function(box, _pin_profile(1))]
    # generic samples with the face maximum off, then on, the x0 = +-L rows
    noise = _damped_random_samples(box, seed=13)
    for rows in (np.s_[[0, -1]], np.s_[1:-1]):
        table = noise.table.copy()
        table[rows] *= 0.5
        phis.append(GridFunction(box, table, noise.orbit))
    for phi in phis:
        v = _expand(phi)
        faces = max(np.abs(np.take(v, e, axis=a)).max() for a in range(4) for e in (0, -1))
        assert phi.boundary_magnitude() == faces
    omega = phis[0]
    table = omega.table.copy()
    table[:, 7] = 1.0
    assert GridFunction(box, table, omega.orbit).boundary_magnitude() == omega.boundary_magnitude()


def test_from_function_coordinate_order():
    # an asymmetric function pins which coordinate column is which axis
    grid = Grid4D(1.7, 9)

    def fn(pts):
        tilt = pts[:, 0] - 2.0 * pts[:, 1] + 3.0 * pts[:, 2] + 0.5 * pts[:, 3]
        return tilt * np.exp(-4.0 * np.pi * np.sum(pts**2, axis=1))

    seen = []

    def recording(pts):
        seen.append((pts.shape, all(pts[:, k].flags.c_contiguous for k in range(4))))
        return fn(pts)

    got = _expand(GridFunction.from_function(grid, recording))
    ax = grid.axis()
    pts = np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)
    assert np.array_equal(got, fn(pts).reshape(got.shape).astype(complex))
    # one x0 slab of M^3 points per call, each column contiguous
    assert seen == [((9**3, 4), True)] * 9


def test_grid_sampling_memory():
    # no M^4 array: from_function holds the (M, M^3) table (19 MB at
    # M = 33) and one slab; the transform of a central table at M = 65
    # holds M^3 phases, where the M^4 samples alone would be 285 MB
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid = Grid4D(2.0, 33)
    assert peak(lambda: GridFunction.from_function(grid, omega_exact)) < 30e6
    probes = seeded_probes(6, 0.2, 1.0, seed=3)
    assert peak(lambda: brute_fourier(omega_grid_function(Grid4D(2.0, 65)), probes)) < 20e6


def test_omega_grid_values(box, omega_sampled):
    m = box.points_per_axis
    values = _expand(omega_sampled)
    assert values[m // 2, m // 2, m // 2, m // 2] == 1.0
    ax = box.axis()
    want = math.exp(-2.0 * math.pi * (ax[3] ** 2 + ax[20] ** 2 + ax[8] ** 2 + ax[30] ** 2))
    assert abs(values[3, 20, 8, 30] - want) < 1e-15


# ---------------------------------------------------------- brute transform


def test_brute_omega_self_dual(omega_sampled):
    probes = seeded_probes(10, 0.2, 1.0, seed=101)
    got = brute_fourier(omega_sampled, probes)
    want = omega_exact(np.array([p.coords for p in probes]))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-3


def test_brute_omega_total_mass(omega_sampled):
    got = brute_fourier(omega_sampled, [Quaternion(0.0)])[0]
    assert abs(got - 1.0) < 1e-4


def test_brute_zero_function(box):
    m = box.points_per_axis
    zero = _from_samples(box, np.zeros((m, m, m, m), dtype=complex))
    got = brute_fourier(zero, seeded_probes(4, 0.2, 1.0, seed=5))
    assert np.all(got == 0.0)


def test_brute_scaling_oracle(box):
    t = 1.3
    probes = seeded_probes(5, 0.2, 1.0, seed=23)
    scaled = GridFunction.from_function(
        box, lambda pts: np.exp(-2.0 * np.pi * t * np.sum(pts * pts, axis=1))
    )
    got = brute_fourier(scaled, probes)
    n = np.sum(np.array([p.coords for p in probes]) ** 2, axis=1)
    want = np.exp(-2.0 * np.pi * n / t) / t**2
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def _damped_random_samples(box, seed):
    # random complex samples under the Gaussian envelope, so the decay
    # surrogate holds and the transform has no special structure
    rng = np.random.default_rng(seed)
    m = box.points_per_axis
    env = _expand(omega_grid_function(box)).real
    noise = rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)
    return _from_samples(box, noise * env)


@pytest.mark.parametrize("sample", ["omega", "random"] + [f"pin{n}-{L}" for n in (0, 1, 2, 5) for L in (2.0, 1.7)])
def test_brute_matches_tensordot_chain(box, sample):
    # the orbit sums reorder the Riemann sum, so agreement is to rounding
    if sample == "omega":
        phi = omega_grid_function(box)
    elif sample == "random":
        phi = _damped_random_samples(box, seed=47)
    else:
        n, L = sample[3:].split("-")
        phi = isotypic_grid_function(Grid4D(float(L), 33), _pin_profile(int(n)))
    probes = seeded_probes(6, 0.1, 1.2, seed=53)
    got = brute_fourier(phi, probes)
    want = _brute_fourier_direct(phi, probes)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_brute_stacked_probes_match_per_probe_loop(box):
    phi = _damped_random_samples(box, seed=41)
    quats = seeded_probes(6, 0.1, 1.2, seed=43)
    seqs = [list(p.coords) for p in quats]
    cases = [quats, seqs, np.array(seqs), quats[:1], seqs[2:3]]
    for probes in cases:
        got = brute_fourier(phi, probes)
        want = np.array([brute_fourier(phi, [p])[0] for p in probes])
        assert got.shape == (len(probes),)
        # one contraction per probe: equal, not merely close
        assert np.array_equal(got, want)
    empty = brute_fourier(phi, [])
    assert empty.shape == (0,) and empty.dtype == complex
    assert _brute_fourier_direct(phi, []).shape == (0,)


def test_brute_linearity_and_conjugate_symmetry(box):
    rng = np.random.default_rng(31)
    m = box.points_per_axis
    # random samples damped by the Gaussian envelope so the decay
    # surrogate holds
    env = _expand(omega_grid_function(box)).real
    a = _from_samples(box, (rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)) * env)
    b = _from_samples(box, (rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)) * env)
    combo = GridFunction(box, 0.7 * a.table + (2.0 - 0.5j) * b.table, a.orbit)
    probes = seeded_probes(4, 0.3, 1.0, seed=37)

    fa, fb, fc = (brute_fourier(g, probes) for g in (a, b, combo))
    assert np.max(np.abs(fc - 0.7 * fa - (2.0 - 0.5j) * fb)) < 1e-12

    mirrored = [Quaternion(*(-np.asarray(p.coords))) for p in probes]
    f_conj = brute_fourier(GridFunction(box, np.conj(a.table), a.orbit), probes)
    assert np.max(np.abs(f_conj - np.conj(brute_fourier(a, mirrored)))) < 1e-12


# --------------------------------------------------------- radial transform


def test_radial_gaussian_self_dual():
    probes = seeded_probes(8, 0.0, 1.0, seed=61) + [Quaternion(0.0)]
    got = radial_fourier(0, lambda r: np.exp(-2.0 * np.pi * r**2), probes)
    want = omega_exact(np.array([p.coords for p in probes]))
    assert np.max(np.abs(got - want)) < 1e-6


def test_radial_zero_function():
    got = radial_fourier(1, lambda r: np.zeros_like(r), seeded_probes(3, 0.2, 0.8, seed=2))
    assert np.max(np.abs(got)) == 0.0


@pytest.mark.parametrize("N", [1, 2])
def test_radial_matches_brute(box, N):
    def q(r):
        return r**N * np.exp(-2.0 * np.pi * r**2)

    def phi(pts):
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros(len(r), dtype=complex)
        nz = r > 0
        theta = np.arccos(np.clip(pts[nz, 0] / r[nz], -1.0, 1.0))
        out[nz] = character(N, theta) * q(r[nz])
        return out

    probes = seeded_probes(5, 0.3, 0.9, seed=400 + N)
    got = brute_fourier(GridFunction.from_function(box, phi), probes)
    want = radial_fourier(N, q, probes)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-2


# ------------------------------------------------------- the distribution G


def test_g_of_vanishing_function():
    phi = lambda pts: np.sum(np.atleast_2d(pts) ** 2, axis=1) * omega_exact(pts)
    assert abs(distribution_G(phi) - 1.0 / math.pi) < 1e-12


def test_g_of_gaussian_closed_form():
    want = 2.0 * math.log(2.0 * math.pi) + 2.0 * np.euler_gamma - 2.0
    assert want == pytest.approx(G_CONSTANT / 2.0 - 1.0, abs=1e-15)
    assert abs(distribution_G(omega_exact) - want) < 1e-12


def test_g_two_resolutions_agree():
    lo = distribution_G(omega_exact)
    hi = distribution_G(omega_exact, nodes_per_panel=24, angular_nodes=96)
    assert abs(lo - hi) < 1e-8


# -------------------------------------------------- homogeneous distributions


@pytest.mark.parametrize("s", [0.5 + 0.0j, 0.3 + 0.6j, 0.9 + 0.0j])
def test_delta_s_of_gaussian_is_moment(s):
    got = delta_s(s, omega_exact)
    want = gaussian_moment(0, s)
    assert abs(got - want) / abs(want) < 1e-12


@pytest.mark.parametrize("s", [0.5 + 0.0j, 0.25 + 1.0j, 0.8 - 0.5j])
def test_delta_s_regularized_matches_direct(s):
    """For Re(s) > 0 the subtracted and pole terms cancel exactly, so the
    regularized value must agree with the unregularized integral."""
    from quatgamma.additive_oracle import _class_average

    edges = np.linspace(-96.0, 4.0 * math.log(64.0), 81)
    u, w = gauss_panels(edges, 16)
    avg = _class_average(omega_exact, np.exp(u / 4.0), 64)
    direct = 2.0 * np.pi**2 * np.sum(w * np.exp(s * u) * avg)
    assert abs(delta_s(s, omega_exact) - direct) / abs(direct) < 1e-8


def test_delta_s_domain_validation():
    for bad in (0.0, -0.3, -0.25 + 1.0j):
        with pytest.raises(ValueError):
            delta_s(bad, omega_exact)


def test_delta_s_analytic_in_s():
    """Central difference along the real direction matches the Cauchy
    circle derivative, so the map s -> Delta_s(phi) is genuinely analytic,
    not just separately smooth."""
    s0 = 0.6 + 0.3j
    radius = 0.05
    theta = 2.0 * np.pi * np.arange(16) / 16
    ring = np.array([delta_s(s0 + radius * np.exp(1j * t), omega_exact) for t in theta])
    cauchy = np.mean(ring * np.exp(-1j * theta)) / radius
    step = 1e-4
    fd = (delta_s(s0 + step, omega_exact) - delta_s(s0 - step, omega_exact)) / (2 * step)
    assert abs(fd - cauchy) < 1e-6 * max(1.0, abs(cauchy))


@pytest.mark.parametrize("s", [0.5 + 0.5j, 0.35 + 0.0j])
@pytest.mark.parametrize("t", [0.8, 1.4])
def test_delta_s_weak_functional_equation(s, t):
    """<F Delta_s, phi> = Gamma_0(s) <Delta_{1-s}, phi> on scaled
    Gaussians, whose transforms are known in closed form."""
    phi = lambda pts: np.exp(-2.0 * np.pi * t * np.sum(np.atleast_2d(pts) ** 2, axis=1))
    phi_hat = lambda pts: np.exp(-2.0 * np.pi * np.sum(np.atleast_2d(pts) ** 2, axis=1) / t) / t**2
    lhs = delta_s(s, phi_hat)
    rhs = gamma_factor(0, s) * delta_s(1.0 - s, phi)
    assert abs(lhs - rhs) / abs(rhs) < 1e-6


# -------------------------------------------------------- Gaussian moments


def test_moment_at_half_is_two_pi():
    assert abs(gaussian_moment(0, 0.5) - 2.0 * math.pi) < 1e-12


@pytest.mark.parametrize("N", [0, 3, 6])
def test_moment_closed_vs_quadrature(N):
    for s in (0.05 + 0.0j, 0.5 + 2.0j, 1.0 / 21.0 - 2.0j, 0.95 + 1.3j):
        closed = gaussian_moment(N, s)
        quad = gaussian_moment_quadrature(N, s)
        assert abs(closed - quad) / abs(closed) < 1e-9


@pytest.mark.parametrize("N", [0, 2, 5])
def test_functional_equation_residual(N):
    for s in (0.5 + 0.0j, 0.3 + 1.7j, 0.9 - 2.0j, 0.05 + 0.4j):
        assert functional_equation_residual(N, s) < 1e-10


def test_moment_strip_validation():
    for bad in (0.0, 1.0, -0.2, 1.3 + 1.0j):
        with pytest.raises(ValueError):
            gaussian_moment(0, bad)


MOMENT_FUNCTIONS = (gaussian_moment, gaussian_moment_quadrature, functional_equation_residual)


@pytest.mark.parametrize("N", [0, 3, 6])
def test_moment_functions_array_matches_scalar_loop(N):
    # 5 x 7 = 35 strip points in one quadrature block, against 35 scalar calls
    s = np.array([1.0 / 21.0, 0.3, 0.5, 0.77, 20.0 / 21.0])[:, None] + 1j * np.linspace(-2.0, 2.0, 7)
    for fn in MOMENT_FUNCTIONS:
        got = fn(N, s)
        assert got.shape == s.shape
        want = np.array([fn(N, complex(z)) for z in s.ravel()]).reshape(s.shape)
        # the residual is itself relative, so it is compared on the scale 1
        scale = np.maximum(np.abs(want), 1.0) if fn is functional_equation_residual else np.abs(want)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


# criterion 02's strip grid: 20 abscissae k/21, 20 ordinates on [-2, 2]
STRIP_GRID = (np.arange(1, 21) / 21.0)[:, None] + 1j * np.linspace(-2.0, 2.0, 20)[None, :]


def _moment_quadrature_reference(N, s, nodes_per_panel=16):
    """The un-factored radial sum: one complex exponential per node and
    strip point, on the panels of gaussian_moment_quadrature."""
    edges = np.linspace(-160.0, math.log(5.0), 163)
    u, w = gauss_panels(edges, nodes_per_panel)
    base = N * u - 2.0 * np.pi * np.exp(2.0 * u)
    terms = np.exp(np.multiply.outer(4.0 * s, u) + base) * w
    return 8.0 * np.pi**2 * np.sum(terms, axis=-1)


@pytest.mark.parametrize("N", range(7))
def test_moment_quadrature_matches_unfactored_sum(N):
    # the reference stops at u = -160 and sums the flat panels node by node;
    # the two routes sit within 1.6e-11 of the closed form and differ by at
    # most 2.0e-11 relative (N = 0), 7.8e-13 for N >= 1
    got = gaussian_moment_quadrature(N, STRIP_GRID)
    want = _moment_quadrature_reference(N, STRIP_GRID)
    assert np.max(np.abs(got - want) / np.abs(want)) < 5e-11


def test_moment_quadrature_tail_panels_are_flat():
    """Every node below the cut has e^{-2 pi e^{2u}} == 1.0, so the flat
    tail's geometric sum is the panel sum itself; the first panel kept
    has a node where it is not, and the kept panels are the linspace's."""
    edges = np.linspace(-160.0, math.log(5.0), 163)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x, _ = legendre_rule(16)
    u = mid[None, :] + 0.5 * (edges[1] - edges[0]) * x[:, None]
    factor = np.exp(-2.0 * np.pi * np.exp(2.0 * u))
    head = additive_oracle._moment_panels(0)[0]
    cut = mid.size - head.size
    assert np.array_equal(head, mid[cut:])
    assert np.all(factor[:, :cut] == 1.0)
    assert np.any(factor[:, cut] != 1.0)


def test_moment_quadrature_near_re_s_zero():
    # the flat tail is summed down to u -> -inf, so the N = 0 moment, whose
    # integrand decays like e^{4 Re(s) u}, stays resolved as Re(s) -> 0
    s = np.array([0.001, 0.01, 0.03])[:, None] + 1j * np.array([-2.0, 0.0, 2.0])[None, :]
    closed = gaussian_moment(0, s)
    err = np.abs(gaussian_moment_quadrature(0, s) - closed) / np.abs(closed)
    assert np.max(err) < 1e-10


@pytest.mark.parametrize("N", [0, 3, 6])
def test_moment_quadrature_block_size_invariant(N, monkeypatch):
    results = []
    for block in (1, 7, 32, 400):
        monkeypatch.setattr(additive_oracle, "_MOMENT_BLOCK", block)
        results.append(gaussian_moment_quadrature(N, STRIP_GRID))
    assert all(np.array_equal(r, results[0]) for r in results[1:])


def test_moment_quadrature_refuses_unresolved_sectors():
    limit = additive_oracle._MOMENT_QUADRATURE_MAX_N
    closed = gaussian_moment(limit, STRIP_GRID)
    err = np.abs(gaussian_moment_quadrature(limit, STRIP_GRID) - closed) / np.abs(closed)
    assert np.max(err) < 1e-10
    for N in (limit + 1, 30):
        with pytest.raises(ValueError, match=f"N <= {limit}"):
            gaussian_moment_quadrature(N, 0.5)


def test_moment_functions_scalar_and_empty():
    for fn, kind in zip(MOMENT_FUNCTIONS, (complex, complex, float)):
        assert type(fn(2, 0.3 + 0.7j)) is kind
        assert type(fn(2, np.asarray(0.3 + 0.7j))) is kind
        for shape in ((0,), (0, 3)):
            assert fn(2, np.empty(shape, dtype=complex)).shape == shape


def test_moment_functions_reject_negative_modes():
    for fn in MOMENT_FUNCTIONS:
        for N in (-1, -3):
            with pytest.raises(ValueError, match="angular mode N must be >= 0"):
                fn(N, 0.1)
            with pytest.raises(ValueError, match="angular mode N must be >= 0"):
                fn(N, np.full(3, 0.9 + 0.5j))


def test_moment_functions_reject_any_point_off_strip():
    good = np.full(40, 0.5 + 1.0j)
    for bad in (0.0, 1.0, -0.2 + 0.5j, 1.3 + 1.0j):
        s = good.copy()
        s[37] = bad
        for fn in MOMENT_FUNCTIONS:
            with pytest.raises(ValueError):
                fn(1, s)


# ------------------------------------------------------------- dual routes


@pytest.mark.parametrize("N", [0, 1])
def test_homogeneity_identity(N):
    f = gaussian_isotypic(N=N)
    for tau in (0.0, 0.5, 1.0, 2.0):
        assert homogeneity_check(N, 0.5 + 1j * tau, f) < 1e-8


@pytest.mark.parametrize("u_half_width", [48.0, 8.0])
def test_homogeneity_is_the_radial_residual(u_half_width, monkeypatch):
    # both pairings carry the same angular factor and sqrt(2 pi^2), which
    # cancel in the relative residual: no angular quadrature runs
    def refuse(n):
        raise AssertionError("homogeneity_check ran an angular quadrature")

    monkeypatch.setattr(additive_oracle, "angular_quadrature", refuse)
    f = gaussian_isotypic(N=1)
    s = 0.5 + 0.75j
    m = int(round(u_half_width * 32))
    u = np.arange(-m, m + 1) / 32.0
    weight = np.exp((0.5 - s) * u) / 32.0
    lhs = np.sum(profile_value(op_H(f).spectral_profile, u) * weight)
    rhs = gamma_log_derivative(1, s) * np.sum(profile_value(f.spectral_profile, u) * weight)
    want = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    got = homogeneity_check(1, s, f, u_half_width=u_half_width)
    assert abs(got - want) <= 1e-12 * want


def test_homogeneity_validation():
    f = gaussian_isotypic(N=1)
    with pytest.raises(ValueError):
        homogeneity_check(0, 0.5, f)
    with pytest.raises(ValueError):
        homogeneity_check(1, 1.5, f)


@pytest.mark.parametrize("N", [0, 1])
def test_b_dual_route_at_identity(N):
    f = gaussian_isotypic(N=N)
    spectral = value_at_identity(op_B(f))
    convolution = op_b_via_distribution(f)
    assert abs(spectral - convolution) / abs(spectral) < 1e-10


def test_dual_routes_reuse_cached_legendre_rules(monkeypatch):
    # the class averages read su2_angular.angular_quadrature, whose
    # Gauss-Legendre rule comes from the shared cache after a warm-up call
    # (homogeneity_check reads no rule at all);
    # numpy's leggauss is patched too, so a direct call would also trip
    f = gaussian_isotypic(N=1)
    homogeneity_check(1, 0.5 + 1j, f)
    op_b_via_distribution(f)

    def rebuild(n):
        raise AssertionError(f"Gauss-Legendre rule with {n} nodes rebuilt")

    monkeypatch.setattr(_quadrature, "leggauss", rebuild)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuild)
    assert homogeneity_check(1, 0.5 + 1j, f) < 1e-8
    spectral = value_at_identity(op_B(f))
    assert abs(spectral - op_b_via_distribution(f)) / abs(spectral) < 1e-10


# ------------------------------------------------------ isotypic sampling


def test_isotypic_grid_sampling_matches_exact(box):
    # narrow log-profile: wide ones decay too slowly for the box surrogate
    f = IsotypicFunction.from_log_function(1, lambda v: np.exp(-v**2 / (2.0 * 0.45**2)))
    sampled = isotypic_grid_function(box, f)
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(40, 4)) * 0.6
    exact = to_additive(f).evaluate_points(pts)

    from scipy.interpolate import CubicSpline

    spline = CubicSpline(f.log_profile.grid, f.log_profile.samples)
    n = np.sum(pts**2, axis=1)
    theta = np.arccos(np.clip(pts[:, 0] / np.sqrt(n), -1.0, 1.0))
    via_spline = character(1, theta) * spline(2.0 * np.log(n)) / (math.sqrt(2.0 * math.pi**2) * n)
    assert np.max(np.abs(via_spline - exact)) < 1e-7

    m = box.points_per_axis
    assert _expand(sampled)[m // 2, m // 2, m // 2, m // 2] == 0.0


def test_multiplier_route_matches_brute_transform(box):
    """Transform of the inverted function through the operator multiplier
    versus the brute-force grid sum, at interior probes."""
    N = 1
    f = IsotypicFunction.from_log_function(N, lambda v: np.exp(-v**2 / (2.0 * 0.45**2)))
    sampled = isotypic_grid_function(box, inversion(f))
    probes = seeded_probes(5, 0.4, 0.9, seed=900)
    got = brute_fourier(sampled, probes)
    want = to_additive(gamma_transform(f)).evaluate_points(
        np.array([p.coords for p in probes], dtype=float)
    )
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-2


def _pin_profile(N, centre=-0.3, width=0.3, v_half_width=16.0):
    # narrow and off-centre, complex: the additive tail clears the decay
    # guard on the L = 1.7 box, and the character and spline both matter
    return IsotypicFunction.from_log_function(
        N,
        lambda v: np.exp(-((v - centre) ** 2) / (2.0 * width**2)) * (1.0 + 0.5j * v),
        v_half_width=v_half_width,
    )


@pytest.mark.parametrize("L", [2.0, 1.7])
@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_isotypic_orbit_table_matches_per_node(N, L):
    # L = 2 gives dyadic spacing, where n(x) is exact and the samples are
    # bitwise the per-node ones; L = 1.7 does not
    f = _pin_profile(N)
    for m in (3, 5, 17, 33):
        grid = Grid4D(L, m)
        got = _expand(isotypic_grid_function(grid, f))
        want = _isotypic_grid_function_direct(grid, f)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        if L == 2.0:
            assert np.array_equal(got, want)
        assert got[m // 2, m // 2, m // 2, m // 2] == 0.0


@pytest.mark.parametrize("L", [2.0, 1.7])
def test_isotypic_orbit_table_cutoff(L):
    # half_width 1.5: every node with |2 log n(x)| > 1.5 must be cut to 0,
    # where the spline would extrapolate to non-zero values
    f = _pin_profile(1, centre=0.0, width=0.2, v_half_width=1.5)
    grid = Grid4D(L, 17)
    got = _expand(isotypic_grid_function(grid, f))
    want = _isotypic_grid_function_direct(grid, f)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    ax = grid.axis()
    n = sum(np.meshgrid(ax**2, ax**2, ax**2, ax**2, indexing="ij"))
    cut = (n == 0.0) | (np.abs(2.0 * np.log(np.where(n > 0.0, n, 1.0))) > 1.5)
    assert cut.any() and (~cut).any()
    assert np.all(got[cut] == 0.0)
