"""The argument conventions shared by every module.

Pointwise kernels, fn(x) or fn(N, x): a scalar or 0-d x gives a Python
complex or float, a list or array gives an array of x's shape (empty
shapes included), N < 0 raises one message, a point that is not finite
raises one message naming the kernel, and an array call is elementwise
the scalar calls, bit for bit.

4D points: evaluate_points, brute_fourier and radial_fourier take a
Quaternion, one row of four, a list of rows or of Quaternions, an (n, 4)
array or [], and raise ValueError on rows of any other length and on a
coordinate that is not finite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatgamma.additive_oracle import (
    Grid4D,
    brute_fourier,
    functional_equation_residual,
    gaussian_moment,
    gaussian_moment_quadrature,
    isotypic_grid_function,
    omega_grid_function,
    radial_fourier,
)
from quatgamma.gamma_op import gaussian_isotypic, to_additive
from quatgamma.quat_core import Quaternion
from quatgamma.specfun import (
    digamma,
    gamma_factor,
    gamma_log_derivative,
    gamma_multiplier,
    h_multiplier,
    k_multiplier,
    log_gamma,
    trigamma,
)
from quatgamma.su2_angular import angular_bessel, character

# the domains, each as a strategy for one point and a fixed (2, 3) array
_REAL = st.floats(-1e3, 1e3)
_DOMAINS = {
    "right half plane": (
        st.builds(complex, st.floats(0.05, 60.0), st.floats(-60.0, 60.0)),
        np.array([[0.3 + 1.0j, 2.0 - 3.0j, 17.5 + 0.0j], [0.05 - 40.0j, 9.0 + 9.0j, 1.0 + 0.0j]]),
    ),
    "strip": (
        st.builds(complex, st.floats(0.05, 0.95), st.floats(-20.0, 20.0)),
        np.array([[0.5 + 0.0j, 0.1 + 3.0j, 0.9 - 7.0j], [0.25 - 1.0j, 0.7 + 14.0j, 0.5 + 0.5j]]),
    ),
    "line": (_REAL, np.array([[0.0, -3.5, 12.0], [700.0, 0.25, -0.01]])),
    "angle": (st.floats(0.0, np.pi), np.array([[0.0, np.pi, 1.0], [0.3, 2.5, 1.5]])),
    "radius": (st.floats(0.0, 50.0), np.array([[0.0, 0.1, 1.0], [3.0, 17.0, 0.5]])),
}

# name, kernel, mode range (None: no mode), domain, scalar result type
KERNELS = [
    ("log_gamma", log_gamma, None, "right half plane", complex),
    ("digamma", digamma, None, "right half plane", complex),
    ("trigamma", trigamma, None, "right half plane", complex),
    ("gamma_factor", gamma_factor, 40, "strip", complex),
    ("gamma_multiplier", gamma_multiplier, 40, "line", complex),
    ("gamma_log_derivative", gamma_log_derivative, 40, "strip", complex),
    ("h_multiplier", h_multiplier, 40, "line", float),
    ("k_multiplier", k_multiplier, 40, "line", float),
    ("gaussian_moment", gaussian_moment, 40, "strip", complex),
    ("gaussian_moment_quadrature", gaussian_moment_quadrature, 40, "strip", complex),
    ("functional_equation_residual", functional_equation_residual, 40, "strip", float),
    ("character", character, 40, "angle", float),
    ("angular_bessel", angular_bessel, 40, "radius", complex),
]
IDS = [k[0] for k in KERNELS]


def _call(kernel, n_max, N, x):
    return kernel(x) if n_max is None else kernel(N, x)


@pytest.mark.parametrize("name, kernel, n_max, domain, kind", KERNELS, ids=IDS)
def test_scalar_in_python_scalar_out(name, kernel, n_max, domain, kind):
    x = _DOMAINS[domain][1][0, 1]
    for arg in (x.item(), x, np.asarray(x)):
        assert type(_call(kernel, n_max, 3, arg)) is kind


@pytest.mark.parametrize("name, kernel, n_max, domain, kind", KERNELS, ids=IDS)
def test_arrays_keep_their_shape(name, kernel, n_max, domain, kind):
    sample = _DOMAINS[domain][1]
    out = _call(kernel, n_max, 3, sample[0].tolist())
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    for arr in (sample[:0, 0], sample[:0], sample):
        assert _call(kernel, n_max, 3, arr).shape == arr.shape


@pytest.mark.parametrize("name, kernel, n_max, domain, kind", [k for k in KERNELS if k[2] is not None],
                         ids=[k[0] for k in KERNELS if k[2] is not None])
def test_negative_mode_raises_one_message(name, kernel, n_max, domain, kind):
    sample = _DOMAINS[domain][1]
    for x in (sample[0, 0], sample):
        with pytest.raises(ValueError, match="^angular mode N must be >= 0$"):
            kernel(-1, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, kernel, n_max, domain, kind", KERNELS, ids=IDS)
def test_non_finite_point_raises_one_message(name, kernel, n_max, domain, kind, bad):
    # NaN passed every domain test, which asks whether a point is outside
    sample = _DOMAINS[domain][1].copy()
    sample[1, 2] = bad
    for x in (sample[1, 2], sample, sample[1].tolist()):
        with pytest.raises(ValueError, match=f"^{name} needs finite points$"):
            _call(kernel, n_max, 3, x)


@pytest.mark.parametrize("name, kernel, n_max, domain, kind", KERNELS, ids=IDS)
def test_array_call_is_the_scalar_calls(name, kernel, n_max, domain, kind):
    points = st.lists(_DOMAINS[domain][0], min_size=1, max_size=6)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(N=st.integers(0, n_max or 0), x=points)
    def check(N, x):
        got = _call(kernel, n_max, N, x)
        want = np.array([_call(kernel, n_max, N, p) for p in x])
        assert np.array_equal(got, want)

    check()


# ------------------------------------------------------------------ 4D points

_PROBES = np.array([[0.3, -0.2, 0.1, 0.4], [0.0, 0.5, 0.0, 0.0], [-0.6, 0.1, 0.2, -0.1]])
_POINT_ROUTINES = {
    "evaluate_points": to_additive(gaussian_isotypic(1, center=0.2)).evaluate_points,
    "brute_fourier": lambda pts: brute_fourier(omega_grid_function(Grid4D(2.0, 9)), pts),
    "radial_fourier": lambda pts: radial_fourier(2, lambda r: np.exp(-2.0 * np.pi * r * r), pts),
}


@pytest.mark.parametrize("routine", list(_POINT_ROUTINES))
def test_points_accept_every_form(routine):
    fn = _POINT_ROUTINES[routine]
    want = fn(_PROBES)
    assert want.shape == (3,)
    rows = _PROBES.tolist()
    quats = [Quaternion(*row) for row in rows]
    for form in (rows, quats, [quats[0], rows[1], quats[2]]):
        assert np.array_equal(fn(form), want)
    # one point: the same value by any form; radial_fourier's node count
    # follows its probes, so only closely that of the three-point call
    single = fn(quats[0])
    assert single.shape == (1,) and abs(single[0] - want[0]) <= 1e-12
    for one in (rows[0], _PROBES[0]):
        assert np.array_equal(fn(one), single)
    empty = fn([])
    assert empty.shape == (0,)


@pytest.mark.parametrize("routine", list(_POINT_ROUTINES))
@pytest.mark.parametrize("width", [3, 5])
def test_points_reject_other_widths(routine, width):
    fn = _POINT_ROUTINES[routine]
    for bad in (np.ones((2, width)), np.ones(width), [[0.1] * width] * 2):
        with pytest.raises(ValueError, match="rows of 4 coordinates"):
            fn(bad)


@pytest.mark.parametrize("routine", list(_POINT_ROUTINES))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_points_refuse_non_finite_coordinates(routine, bad):
    fn = _POINT_ROUTINES[routine]
    pts = _PROBES.copy()
    pts[1, 2] = bad
    for form in (pts, pts[1], pts.tolist(), Quaternion(*pts[1])):
        with pytest.raises(ValueError, match="^points must be finite$"):
            fn(form)


def test_additive_call_reads_one_point():
    phi = to_additive(gaussian_isotypic(1, center=0.2))
    assert phi(_PROBES[0]) == phi(Quaternion(*_PROBES[0])) == phi.evaluate_points(_PROBES)[0]
    with pytest.raises(ValueError):
        phi(_PROBES)


def test_negative_mode_raises_on_the_cosine_routes():
    # these read cos(theta) and call the character kernel directly
    f = gaussian_isotypic(-1)
    routes = [
        lambda: to_additive(f).evaluate_points(_PROBES),
        lambda: isotypic_grid_function(Grid4D(2.0, 5), f),
        lambda: radial_fourier(-1, lambda r: np.exp(-2.0 * np.pi * r * r), _PROBES),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="^angular mode N must be >= 0$"):
            route()
