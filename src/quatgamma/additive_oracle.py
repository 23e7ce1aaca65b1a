"""Additive-picture oracles: brute-force 4D Fourier transform on a box
grid, its radial-angular reduction for single-sector functions, the
regularized log-weight distribution G, the homogeneous distributions
Delta_s, and the Gaussian moment identities.

Conventions, fixed once and used everywhere:

  - additive character lambda(x) = e^{-4 pi i x0}; the transform kernel at
    a probe y is e^{+4 pi i Re(xy)} with
    Re(xy) = x0 y0 - x1 y1 - x2 y2 - x3 y3.
  - the self-dual Haar measure is 4 dx0 dx1 dx2 dx3 (the factor 4 makes
    e^{-2 pi n(x)} its own transform, with total mass exactly 1).
  - radial rule: for F depending only on the Euclidean radius r,
    int F dx = 8 pi^2 int_0^inf F(r) r^3 dr.
  - |x| is the module n(x)^2 = r^4, so log|x| = 4 log r.  Radial integrals
    with the singular weight dx/(2 pi^2 |x|) are flattened by u = 4 log r,
    under which that weight becomes plain du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ._errors import DecayError, QuadratureError, check
from ._quadrature import gauss_panels, legendre_rule, refinement_gap
from .gamma_op import SQRT_2PI2, IsotypicFunction, op_H, to_additive
from .quat_core import _Points, _as_points
from .specfun import (
    _STRIP,
    G_CONSTANT,
    LOG_2PI,
    ArrayLike,
    _pointwise,
    gamma_factor,
    gamma_log_derivative,
    log_gamma,
)
from .spectral_line import profile_value
from .su2_angular import _chebyshev_u, angular_bessel, angular_quadrature

__all__ = [
    "G_CONSTANT",
    "Grid4D",
    "GridFunction",
    "brute_fourier",
    "radial_fourier",
    "omega_grid_function",
    "isotypic_grid_function",
    "distribution_G",
    "delta_s",
    "gaussian_moment",
    "gaussian_moment_quadrature",
    "functional_equation_residual",
    "homogeneity_check",
    "op_b_via_distribution",
]

DECAY_SURROGATE_BOUND = 1e-8

# s-values per block in gaussian_moment_quadrature: a block's series
# terms are 128 x 24 complex (49 KB), its panel exponentials 128 x 13
# and its per-node sums 128 x 16
_MOMENT_BLOCK = 128

# largest N gaussian_moment_quadrature resolves (see its docstring)
_MOMENT_QUADRATURE_MAX_N = 337

# Gauss-Legendre nodes per panel of the moment quadrature and of the
# regularized radial layout
_PANEL_NODES = 16

# the regularized radial layout: inner panels on [_LOG_FLOOR, 0] in
# u = 4 log r, outer panels up to r = _RADIAL_R_MAX, _ANGULAR_NODES class
# nodes per radius
_LOG_FLOOR = -96.0
_RADIAL_R_MAX = 64.0
_ANGULAR_NODES = 64

# radial_fourier's refinement tolerance, between 8 and 16 equal panels
_RADIAL_TOL = 1e-10

# homogeneity_check's u-spacing: from 0, a subset of the native 1/64 v-nodes
_HOMOGENEITY_U_SPACING = 1.0 / 32.0


# ------------------------------------------------------------------ 4D grids


@dataclass(frozen=True)
class Grid4D:
    """Cubical box [-L, L]^4 with an odd number of points per axis, so the
    origin is a node and the spacing h = 2L/(M-1) is exact."""

    half_extent: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.half_extent <= 0:
            raise ValueError("half_extent must be positive")
        m = self.points_per_axis
        if m < 3 or m % 2 == 0:
            raise ValueError("points_per_axis must be odd and at least 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / (self.points_per_axis - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_extent, self.half_extent, self.points_per_axis)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a Grid4D as a table over x0 and an orbit of the
    last three axes: node (i, j, k, l) holds table[i, orbit[j, k, l]].  A
    central function needs a column per value of j^2 + k^2 + l^2, any
    other orbit = arange(M^3).  Construction enforces the decay
    surrogate: every boundary sample below 1e-8 in modulus, so the box
    truncation error of the transform stays below the grid budget."""

    grid: Grid4D
    table: np.ndarray
    orbit: np.ndarray

    def __post_init__(self) -> None:
        m = self.grid.points_per_axis
        if self.table.ndim != 2 or self.table.shape[0] != m:
            raise ValueError("table must have shape (M, K)")
        if self.orbit.shape != (m, m, m):
            raise ValueError("orbit must have shape (M, M, M)")
        if not 0 <= self.orbit.min() <= self.orbit.max() < self.table.shape[1]:
            raise ValueError("orbit entries must index the table's columns")
        check(DecayError, "4D decay surrogate", self.boundary_magnitude(), DECAY_SURROGATE_BOUND)

    def boundary_magnitude(self) -> float:
        """Largest modulus on the faces of the M^4 box: rows x0 = +-L at
        every orbit some offset reaches, and every row at the orbits of
        the offsets on the faces of the M^3 cube."""
        k = self.table.shape[1]
        used, face = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
        used[self.orbit.ravel()] = True
        face[np.stack([np.take(self.orbit, e, axis=a) for a in range(3) for e in (0, -1)])] = True
        rows = np.abs(self.table[[0, -1]][:, used]).max()
        return float(np.maximum(rows, np.abs(self.table[:, face]).max()))

    @classmethod
    def from_function(
        cls, grid: Grid4D, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "GridFunction":
        """Sample fn, which maps an (n, 4) array with contiguous columns to
        n values point by point.  fn is called on one x0 slab of M^3
        points at a time, each written into a row of an (M, M^3) table
        with orbit = arange(M^3); no M^4 coordinate array is built."""
        ax = grid.axis()
        m = grid.points_per_axis
        coords = np.empty((4, m, m, m))
        for k in range(1, 4):
            coords[k] = ax.reshape((m,) + (1,) * (3 - k))
        pts = coords.reshape(4, -1).T
        table = np.empty((m, m**3), dtype=complex)
        for i, x0 in enumerate(ax):
            pts[:, 0] = x0
            table[i] = np.reshape(fn(pts), m**3)
        return cls(grid, table, np.arange(m**3).reshape(m, m, m))


def _central_orbits(grid: Grid4D):
    """x0 and n(x) = x0^2 + h^2 s on the M x (3c^2 + 1) table of a central
    function, c = M//2, and the orbit s = j^2 + k^2 + l^2 of each offset
    (j, k, l): a central sample depends only on x0 and s."""
    m = grid.points_per_axis
    c = m // 2
    sq = np.arange(-c, c + 1) ** 2
    x0 = np.broadcast_to(grid.axis()[:, None], (m, 3 * c * c + 1))
    n = x0 * x0 + (grid.spacing * grid.spacing) * np.arange(3 * c * c + 1)
    return x0, n, sq[:, None, None] + sq[None, :, None] + sq[None, None, :]


def omega_grid_function(grid: Grid4D) -> GridFunction:
    """The self-dual Gaussian e^{-2 pi n(x)}, one exponential per entry of
    the (x0, s) table."""
    _, n, orbit = _central_orbits(grid)
    return GridFunction(grid, np.exp(-2.0 * np.pi * n).astype(complex), orbit)


def isotypic_grid_function(grid: Grid4D, f: IsotypicFunction) -> GridFunction:
    """Sample the additive form of an isotypic function on the grid.

    The log-profile is interpolated by a cubic spline from its native grid
    (error ~ h^4, far below the 4D box's own discretization budget) rather
    than evaluated by profile_value, so that the 4D oracle stays
    independent of the spectral line's off-grid evaluation it checks.

    A sample depends only on x0 and n(x), so the spline, the
    |v| <= half_width cutoff and the character are evaluated once per
    entry of the M x (3c^2 + 1) (x0, s) table, which is the result's
    table.  At dyadic spacing the samples are bitwise those of a per-node
    evaluation; otherwise they differ in the last bits of n.
    """
    from scipy.interpolate import CubicSpline

    k = f.log_profile
    spline = CubicSpline(k.grid, k.samples)
    x0, n, orbit = _central_orbits(grid)
    table = np.zeros(n.shape, dtype=complex)
    nz = n > 0.0
    v = np.empty_like(n)
    v[nz] = 2.0 * np.log(n[nz])
    inside = nz & (np.abs(np.where(nz, v, 0.0)) <= k.half_width)
    cos_theta = x0[inside] / np.sqrt(n[inside])
    table[inside] = _chebyshev_u(f.N, cos_theta) * spline(v[inside]) / (SQRT_2PI2 * n[inside])
    return GridFunction(grid, table, orbit)


def brute_fourier(phi: GridFunction, probes: _Points) -> np.ndarray:
    """Riemann-sum transform sum phi(x_m) e^{4 pi i Re(x_m y)} 4h^4 at each
    probe, never an M^4 x M^4 map and never an M^4 array.

    The phase is separable across the four axes.  For each probe the
    phase of the last three axes is formed on the M^3 offsets and summed
    over each orbit by one bincount, T_y = bincount(orbit, phase), so the
    transform is 4h^4 p0^T table T_y, with p0 the x0 phase.  The phases
    of every probe and axis come from one exponential; the contraction
    stays one per probe, so a stacked call is bitwise a separate call per
    probe.
    """
    ax = phi.grid.axis()
    h = phi.grid.spacing
    y = _as_points(probes)
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    # phases[p, k] = e^{4 pi i sign_k y_pk x} along the axis x
    phases = np.exp(4j * np.pi * (signs * y)[:, :, None] * ax)
    orbit = phi.orbit.ravel()
    k = phi.table.shape[1]
    out = np.empty(len(y), dtype=complex)
    for i, (p0, p1, p2, p3) in enumerate(phases):
        offsets = np.multiply.outer(np.multiply.outer(p1, p2), p3).ravel()
        t_y = np.bincount(orbit, offsets.real, k) + 1j * np.bincount(orbit, offsets.imag, k)
        out[i] = 4.0 * h**4 * (p0 @ (phi.table @ t_y))
    return out


def radial_fourier(
    N: int,
    radial: Callable[[np.ndarray], np.ndarray],
    probes: _Points,
    r_max: float = 6.0,
) -> np.ndarray:
    """Transform of chi_N(theta) * radial(r) by the radial-angular
    reduction: the angular integral collapses to the class-measure Bessel
    factor, leaving

        chi_N(theta_y) * (8 pi^2/(N+1)) * int_0^r_max radial(r)
                          conj(angular_bessel(N, r rho_y)) r^3 dr

    with rho_y the Euclidean radius of the probe.  The conjugate appears
    because the probe kernel e^{+4 pi i Re(xy)} carries the opposite phase
    sign from the class-measure Bessel integral.  It runs on 8 and on 16
    equal panels of the cached 16-node Gauss-Legendre rule (128 and 256
    nodes) and returns the 16-panel values; a refinement estimate between
    the two above 1e-10, or NaN, raises QuadratureError.  An r_max that is
    not finite and positive raises ValueError.
    """
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and positive, got {r_max}")
    y = _as_points(probes)
    rho = np.sqrt(np.sum(y * y, axis=1))
    # cos(theta_y), taken as 1 at the origin, where chi_N is N + 1
    cos_theta = np.divide(y[:, 0], rho, out=np.ones_like(rho), where=rho > 0.0)
    # chi_N first: its guard refuses N < 0 before N + 1 divides
    prefactor = _chebyshev_u(N, cos_theta) * (8.0 * np.pi**2 / (N + 1))

    def on_panels(panels: int) -> np.ndarray:
        r, wr = gauss_panels(np.linspace(0.0, r_max, panels + 1), _PANEL_NODES)
        q = np.asarray(radial(r), dtype=complex)
        bess = np.conjugate(angular_bessel(N, np.outer(r, rho).ravel())).reshape(len(r), len(rho))
        return prefactor * ((wr * q * r**3) @ bess)

    coarse, fine = on_panels(8), on_panels(16)
    stage = f"radial_fourier: refinements at {8 * _PANEL_NODES} and {16 * _PANEL_NODES} nodes"
    check(QuadratureError, stage, refinement_gap(fine, coarse), _RADIAL_TOL)
    return fine


# ----------------------------------------------- regularized distributions


def _class_average(
    phi: Callable[[np.ndarray], np.ndarray], radii: np.ndarray, angular_nodes: int
) -> Tuple[complex, np.ndarray]:
    """phi(0), and the average of a central function over the sphere of
    each radius against the normalized class measure (2/pi) sin^2(theta)
    dtheta, from one call of phi (the origin is its last point)."""
    theta, weights = angular_quadrature(angular_nodes)
    pts = np.zeros((len(radii) * angular_nodes + 1, 4))
    spheres = pts[:-1].reshape(len(radii), angular_nodes, 4)
    spheres[..., 0] = radii[:, None] * np.cos(theta)[None, :]
    spheres[..., 1] = radii[:, None] * np.sin(theta)[None, :]
    vals = np.asarray(phi(pts), dtype=complex)
    return complex(vals[-1]), vals[:-1].reshape(len(radii), angular_nodes) @ weights


def _regularized_pairing(
    phi: Callable[[np.ndarray], np.ndarray],
    s: complex,
    log_floor: float,
    nodes_per_panel: int,
    angular_nodes: int,
):
    """(value, phi(0)) with, in the flattened variable u = 4 log r,

        value = int_{u<0} e^{su} (avg - phi(0)) du + int_{u>0} e^{su} avg du,

    avg the class average of phi over the sphere of radius r = e^{u/4},
    on distribution_G's layout."""
    if not (math.isfinite(log_floor) and log_floor < 0.0):
        raise ValueError(f"log_floor must be finite and negative, got {log_floor}")
    for name, count in (("nodes_per_panel", nodes_per_panel), ("angular_nodes", angular_nodes)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    u_top = 4.0 * math.log(_RADIAL_R_MAX)
    inner_edges = np.linspace(log_floor, 0.0, max(2, int(math.ceil(-log_floor / 2.0))) + 1)
    outer_edges = np.linspace(0.0, u_top, max(2, int(math.ceil(u_top / 2.0))) + 1)
    u_in, w_in = gauss_panels(inner_edges, nodes_per_panel)
    u_out, w_out = gauss_panels(outer_edges, nodes_per_panel)
    phi_zero, avg = _class_average(phi, np.exp(np.concatenate([u_in, u_out]) / 4.0), angular_nodes)
    k = len(u_in)
    inner = np.sum(w_in * np.exp(s * u_in) * (avg[:k] - phi_zero))
    return inner + np.sum(w_out * np.exp(s * u_out) * avg[k:]), phi_zero


def distribution_G(
    phi: Callable[[np.ndarray], np.ndarray],
    log_floor: float = _LOG_FLOOR,
    nodes_per_panel: int = _PANEL_NODES,
    angular_nodes: int = _ANGULAR_NODES,
) -> complex:
    """The regularized log-weight distribution

        G(phi) = int_{|x|<=1} (phi - phi(0)) dx/(2 pi^2 |x|)
               + int_{|x|>1} phi dx/(2 pi^2 |x|)
               + G_CONSTANT * phi(0).

    phi must be central (a class function in the angular variable) and
    defined at the origin; the weight dx/(2 pi^2 |x|) flattens to du under
    u = 4 log r.  The layout: nodes_per_panel Gauss-Legendre nodes on
    panels at most 2 wide in u, from log_floor up to 0 (the subtracted
    unit ball) and from 0 up to the fixed r = 64, with angular_nodes
    class-measure nodes per radius.  A log_floor that is not finite and
    negative, or a node count below 1, raises ValueError.
    """
    value, phi0 = _regularized_pairing(phi, 0.0, log_floor, nodes_per_panel, angular_nodes)
    return complex(value + G_CONSTANT * phi0)


def delta_s(s: complex, phi: Callable[[np.ndarray], np.ndarray]) -> complex:
    """The homogeneous distribution

        Delta_s(phi) = int_{|x|<=1} (phi - phi(0)) |x|^{s-1} dx
                     + int_{|x|>1} phi |x|^{s-1} dx + (2 pi^2/s) phi(0),

    defined for Re(s) > -1/4, s != 0.  In the flattened variable the
    weight is 2 pi^2 e^{su} du on distribution_G's default layout;
    quadrature accuracy is validated for s in the open strip
    0 < Re(s) < 1, where all tests evaluate.
    """
    s = complex(s)
    if s == 0 or s.real <= -0.25:
        raise ValueError("s must satisfy Re(s) > -1/4 and s != 0")
    value, phi0 = _regularized_pairing(phi, s, _LOG_FLOOR, _PANEL_NODES, _ANGULAR_NODES)
    return complex(2.0 * np.pi**2 * value + 2.0 * np.pi**2 / s * phi0)


# ------------------------------------------------------- Gaussian moments


@_pointwise(complex, _STRIP)
def gaussian_moment(N: int, s: ArrayLike) -> ArrayLike:
    """Closed form of the Gaussian moment with weight |y|^{s-1-N/4}:

        int n(y)^N e^{-2 pi n(y)} |y|^{s-1-N/4} dy
            = 4 pi^2 (2 pi)^{-(2s+N/2)} Gamma(2s + N/2),

    by the radial rule (the integrand is central, so the angular average
    is 1 and the power of r collapses to 4s+N-1), for s in the open strip
    0 < Re(s) < 1.
    """
    a = 2.0 * s + 0.5 * N
    return 4.0 * np.pi**2 * np.exp(-a * LOG_2PI + log_gamma(a))


@_pointwise(complex, _STRIP)
def gaussian_moment_quadrature(N: int, s: ArrayLike) -> ArrayLike:
    """The same moment without Gamma, in u = log r:

        8 pi^2 int e^{bu - 2 pi e^{2u}} du,   b = 4s + N,

    split exactly at u = -1.  Below the split, e^{-2 pi e^{2u}} expanded
    and integrated term by term gives the lower incomplete-Gamma series
    (DLMF 8.7.1)

        e^{-b} sum_{k < 24} (-2 pi e^{-2})^k / (k! (b + 2k)),

    whose dropped terms are below 4e-26 of the first; that first term,
    e^{-b}/b, carries the N = 0 moment's pole at s = 0 exactly.  Above
    the split the cached 16-node Gauss-Legendre rule runs on 13 equal
    panels up to log 8, where the integrand is below e^{-85} of its peak
    for every N accepted.  With panel midpoints m_p, half-width h and
    nodes x_j, e^{4s(m_p + h x_j)} = e^{4s m_p} e^{4s h x_j}, so each
    value of s needs 13 + 16 exponentials there, against real weights
    h w_j e^{N u - 2 pi e^{2u}} built once per call.

    The integrand peaks near e^{2u} = N/4 pi with a width like N^{-1/2};
    the panels keep within 1e-12 of the 40-digit moment on criterion
    02's grid and as Re(s) -> 0 up to N = _MOMENT_QUADRATURE_MAX_N = 337,
    and a larger N raises ValueError.  Each value's sum is, for each
    node, the 13 panels added in order, then an np.sum over the nodes,
    plus one over the series: a fixed order without BLAS, taken for at
    most _MOMENT_BLOCK values of s at a time, so results do not depend on
    the block size or the thread count.
    """
    if N > _MOMENT_QUADRATURE_MAX_N:
        raise ValueError(f"gaussian_moment_quadrature resolves N <= {_MOMENT_QUADRATURE_MAX_N}, got N = {N}")
    x, w = legendre_rule(_PANEL_NODES)
    h = (math.log(8.0) + 1.0) / 26.0
    mid = h * (2 * np.arange(13) + 1) - 1.0
    u = mid + h * x[:, None]
    weights = (h * w)[:, None] * np.exp(N * u - 2.0 * np.pi * np.exp(2.0 * u))
    k = np.arange(24)
    ratio = -2.0 * np.pi * math.exp(-2.0)
    series = np.array([ratio**j / math.factorial(j) for j in k])
    flat = s.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i in range(0, flat.size, _MOMENT_BLOCK):
        s4 = 4.0 * flat[i : i + _MOMENT_BLOCK, None]
        b = s4 + N
        lower = np.exp(-b[:, 0]) * np.sum(series / (b + 2.0 * k), axis=1)
        panel = np.exp(s4 * mid)
        per_node = sum(col[:, None] * row for col, row in zip(panel.T, weights.T))
        out[i : i + _MOMENT_BLOCK] = lower + np.sum(per_node * np.exp(s4 * (h * x)), axis=1)
    return 8.0 * np.pi**2 * out.reshape(s.shape)


@_pointwise(complex, _STRIP)
def functional_equation_residual(N: int, s: ArrayLike) -> ArrayLike:
    """Relative residual of i^N moment(N, s) = Gamma_N(s) moment(N, 1-s),
    elementwise in s."""
    lhs = 1j**N * gaussian_moment(N, s)
    rhs = gamma_factor(N, s) * gaussian_moment(N, 1.0 - s)
    return np.abs(lhs - rhs) / np.abs(rhs)


# ------------------------------------------------------------- dual routes


def homogeneity_check(N: int, s: complex, f: IsotypicFunction, u_half_width: float = 48.0) -> float:
    """Relative residual of the homogeneous pairing identity

        int H(phi) chi_N |x|^{-s} dx = H_N(s) int phi chi_N |x|^{-s} dx

    for the additive form phi of f.  H(phi) comes from the spectral route.
    Both pairings factor into the same angular integral, the class-measure
    mean of chi_N^2, times sqrt(2 pi^2) times a radial integral; the common
    factor cancels in the relative residual, so only the radial integrals
    are computed.  They run on the uniform grid of spacing 1/32 in
    u = log|x| over |u| <= u_half_width, through profile_value: from 0
    these u-nodes are a subset of the profile's native 1/64 v-nodes.  A
    u_half_width that is not finite, below 1/32 or beyond f's v-window
    raises ValueError.  Off the critical line the residual also holds the
    window's truncation, as H(phi) decays only like e^{-|u|/2}: at the
    default window and N = 0 it is 2.2e-1 at s = 0.01 + i, 3.1e-3 at
    0.1 + i and 1.2e-11 at 0.5 + i.
    """
    if N != f.N:
        raise ValueError("N must match the sector of f")
    if not _HOMOGENEITY_U_SPACING <= u_half_width <= f.v_half_width:
        raise ValueError(f"u_half_width must lie in [0.03125, {f.v_half_width:g}], got {u_half_width}")
    s = complex(s)
    if not 0.0 < s.real < 1.0:
        raise ValueError("s must lie in the open strip 0 < Re(s) < 1")
    m = int(round(u_half_width / _HOMOGENEITY_U_SPACING))
    u = _HOMOGENEITY_U_SPACING * np.arange(-m, m + 1)
    # phi's radial part is K(u) e^{-u/2}/sqrt(2 pi^2); the weight
    # e^{(1-s)u} du then leaves K(u) e^{(1/2-s)u}
    weight = np.exp((0.5 - s) * u) * _HOMOGENEITY_U_SPACING
    lhs = np.sum(profile_value(op_H(f).spectral_profile, u) * weight)
    rhs = gamma_log_derivative(N, s) * np.sum(profile_value(f.spectral_profile, u) * weight)
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return float(abs(lhs - rhs) / scale)


def op_b_via_distribution(
    f: IsotypicFunction,
    log_floor: float = _LOG_FLOOR,
    nodes_per_panel: int = _PANEL_NODES,
    angular_nodes: int = _ANGULAR_NODES,
) -> complex:
    """B(f) at the identity through the additive convolution route:
    B(phi) = -(phi * G), so the value sought is

        -sqrt(2 pi^2) * G(z -> phi(1 - z))

    scaled back to the multiplicative picture, directly comparable to
    value_at_identity(op_B(f)).  The shifted function is again central
    (conjugation fixes 1), so the class-average quadrature applies.
    """
    phi = to_additive(f)
    one = np.array([1.0, 0.0, 0.0, 0.0])

    def shifted(pts: np.ndarray) -> np.ndarray:
        return phi.evaluate_points(one - pts)

    g = distribution_G(shifted, log_floor, nodes_per_panel, angular_nodes)
    return complex(-SQRT_2PI2 * g)
