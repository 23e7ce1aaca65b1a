"""The one guard behind every tolerance check of the package.

Each self-check compares an error estimate with a tolerance through
_errors.check, which passes only when estimate <= tolerance: a NaN on
either side fails, and the message names the stage, the estimate and the
tolerance.  The two-resolution checks take their estimate from
_quadrature.refinement_gap.  Every NaN case below returned NaN, or
passed without a word, while the checks were written as
estimate > tolerance.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from quatgamma import (
    AliasingError,
    DecayError,
    NonConvergenceError,
    QuadratureError,
    additive_oracle,
    connes_trace,
    specfun,
)
from quatgamma._errors import check, check_tolerance
from quatgamma._quadrature import refinement_gap
from quatgamma.additive_oracle import Grid4D, GridFunction, omega_grid_function, radial_fourier
from quatgamma.connes_trace import trace_direct, trace_spectral
from quatgamma.gamma_op import IsotypicFunction, gaussian_isotypic
from quatgamma.specfun import gamma0_expansion
from quatgamma.spectral_line import Profile, check_spectral, from_spectral, to_spectral

LOG_GRID = (1.0 / 64.0, 16.0)
TAU_GRID = (1.0 / 64.0, 64.0)

_MESSAGE = re.compile(r"^(?P<stage>.+): estimate (?P<estimate>\S+) not within tolerance (?P<tolerance>\S+)$")


def _gaussian(v):
    return np.exp(-0.5 * v * v)


@pytest.fixture(scope="module")
def standard():
    return gaussian_isotypic(0)


# ------------------------------------------------------------- the guard


def test_check_passes_only_within_tolerance():
    check(QuadratureError, "stage", 1.0, 1.0)
    check(QuadratureError, "stage", 0.0, 0.0)
    cases = [(math.nextafter(1.0, 2.0), 1.0), (math.nan, 1.0), (0.0, math.nan), (math.inf, 1e300)]
    for estimate, tolerance in cases:
        with pytest.raises(QuadratureError) as info:
            check(QuadratureError, "stage", estimate, tolerance)
        assert str(info.value) == f"stage: estimate {estimate:.3e} not within tolerance {tolerance:.3e}"


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_tolerance_validator_refuses_what_checks_nothing(tol):
    check_tolerance("tol", 0.0)
    with pytest.raises(ValueError, match=f"^tol must be finite and at least 0, got {tol}$"):
        check_tolerance("tol", tol)


def test_refinement_gap_is_absolute_below_one_and_relative_above():
    assert refinement_gap(0.5, 0.5 + 2**-10) == 2**-10
    assert refinement_gap(-64.0, -65.0) == 1.0 / 64.0
    # elementwise: a small value keeps its own scale, not the largest one's
    assert refinement_gap([1e3, 0.25], [1e3, 0.5]) == 0.25
    assert refinement_gap(np.zeros(0), np.zeros(0)) == 0.0
    assert math.isnan(refinement_gap([1.0, math.nan], [1.0, 1.0]))
    assert math.isnan(refinement_gap([1.0, 1.0], [math.nan, 1.0]))


# ------------------------------------------------------ NaN at each guard


def test_nan_log_sample_is_a_decay_error():
    def k(v):
        out = _gaussian(v)
        out[len(out) // 3] = math.nan
        return out

    with pytest.raises(DecayError):
        to_spectral(Profile.from_function(k, *LOG_GRID), *TAU_GRID)
    with pytest.raises(DecayError):
        IsotypicFunction.from_log_function(0, k)


def test_nan_spectral_sample_is_a_decay_error(standard):
    samples = standard.spectral_profile.samples.copy()
    samples[len(samples) // 3] = math.nan
    psi = Profile(standard.spectral_profile.spacing, standard.spectral_profile.half_width, samples)
    with pytest.raises(DecayError):
        check_spectral(psi, standard.v_spacing, standard.v_half_width)
    with pytest.raises(DecayError):
        IsotypicFunction(0, psi, standard.v_spacing, standard.v_half_width)


def test_nan_spacing_is_an_aliasing_error(standard):
    with pytest.raises(AliasingError):
        check_spectral(standard.spectral_profile, math.nan, standard.v_half_width)
    with pytest.raises(AliasingError):
        check_spectral(standard.spectral_profile, standard.v_spacing, math.nan)


def test_nan_on_the_4d_boundary_is_a_decay_error():
    # a face sample off the rows x0 = +-L, which the old Python max dropped
    good = omega_grid_function(Grid4D(2.0, 9))
    c = good.grid.points_per_axis // 2
    table = good.table.copy()
    table[c, good.orbit[0, c, c]] = math.nan
    with pytest.raises(DecayError, match="decay surrogate"):
        GridFunction(good.grid, table, good.orbit)


def test_nan_kernel_fails_both_trace_routes(standard, monkeypatch):
    # each route's own kernel: the direct route reads K off the grid by
    # profile_value, the spectral route sums against gamma_N
    def nan_profile(psi, v):
        return np.full(np.shape(v), complex(math.nan, math.nan))

    def nan_multiplier(n, tau):
        return np.full(np.shape(tau), complex(math.nan, math.nan))

    monkeypatch.setattr(connes_trace, "profile_value", nan_profile)
    with pytest.raises(QuadratureError, match="^trace_direct at cutoff 2.0: .* estimate nan "):
        trace_direct(standard, 2.0)
    monkeypatch.setattr(connes_trace, "gamma_multiplier", nan_multiplier)
    with pytest.raises(QuadratureError, match="^trace_spectral at cutoff 2.0: .* estimate nan "):
        trace_spectral(standard, 2.0)


def test_nan_log_gamma_fails_gamma0_expansion(monkeypatch):
    monkeypatch.setattr(specfun, "log_gamma", lambda z: np.full(np.shape(z), complex(math.nan, 0.0)))
    # numpy flags exp(nan); the guard, not that warning, must stop the call
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonConvergenceError, match="^gamma0_expansion: coefficient c1, .* estimate nan "):
            gamma0_expansion()


def test_radial_fourier_stops_at_the_first_nan_gap():
    layouts = []

    def q(r):
        layouts.append(len(r))
        return np.full_like(r, math.nan)

    match = "^radial_fourier: refinements at 128 and 256 nodes: estimate nan "
    with pytest.raises(QuadratureError, match=match):
        radial_fourier(0, q, [[0.5, 0.0, 0.0, 0.0]])
    assert layouts == [128, 256]


# -------------------------------------------------- one message per guard


def _flat_log_profile(monkeypatch):
    to_spectral(Profile.from_function(np.ones_like, *LOG_GRID), *TAU_GRID)


def _wide_spectral_profile(monkeypatch):
    from_spectral(Profile.from_function(lambda t: np.exp(-0.5 * (t / 40.0) ** 2), *TAU_GRID), *LOG_GRID)


def _coarse_v_spacing(monkeypatch):
    to_spectral(Profile.from_function(_gaussian, *LOG_GRID), TAU_GRID[0], 300.0)


def _coarse_tau_spacing(monkeypatch):
    psi = to_spectral(Profile.from_function(_gaussian, *LOG_GRID), *TAU_GRID)
    from_spectral(psi, LOG_GRID[0], 256.0)


def _undecayed_box(monkeypatch):
    # e^{-2 pi L^2} is 1.3e-8 at L = 1.7
    omega_grid_function(Grid4D(1.7, 17))


def _direct_two_nodes(monkeypatch):
    monkeypatch.setattr(connes_trace, "_DIRECT_PANEL_NODES", 2)
    trace_direct(gaussian_isotypic(0), 8.0)


def _spectral_zero_tolerance(monkeypatch):
    monkeypatch.setattr(connes_trace, "_TOLERANCE", 0.0)
    trace_spectral(gaussian_isotypic(0), 4.0)


def _radial_zero_tolerance(monkeypatch):
    monkeypatch.setattr(additive_oracle, "_RADIAL_TOL", 0.0)
    radial_fourier(1, lambda r: r * np.exp(-2.0 * np.pi * r * r), [[0.3, 0.4, 0.0, 0.1]])


def _gamma0_tiny_tolerance(monkeypatch):
    monkeypatch.setattr(specfun, "_GAMMA0_TOL", 1e-17)
    gamma0_expansion()


GUARDS = [
    ("log decay", DecayError, _flat_log_profile,
     "log profile decay at its grid ends (widen the window)"),
    ("spectral decay", DecayError, _wide_spectral_profile,
     "spectral profile decay at its grid ends (widen the window)"),
    ("v reciprocity", AliasingError, _coarse_v_spacing,
     "v-spacing 0.015625 times tau half-width 300.0 (at most pi)"),
    ("tau reciprocity", AliasingError, _coarse_tau_spacing,
     "tau-spacing 0.015625 times v half-width 256.0 (at most pi)"),
    ("decay surrogate", DecayError, _undecayed_box, "4D decay surrogate"),
    ("trace_direct", QuadratureError, _direct_two_nodes,
     "trace_direct at cutoff 8.0: refinements at 2 and 3 nodes per panel"),
    ("trace_spectral", QuadratureError, _spectral_zero_tolerance,
     "trace_spectral at cutoff 4.0: rounding of the closed-form sum"),
    ("radial_fourier", QuadratureError, _radial_zero_tolerance,
     "radial_fourier: refinements at 128 and 256 nodes"),
    ("gamma0_expansion", NonConvergenceError, _gamma0_tiny_tolerance,
     "gamma0_expansion: coefficient c1, 32- against 64-point circle rule"),
]


@pytest.mark.parametrize("name, error, trip, stage", GUARDS, ids=[g[0] for g in GUARDS])
def test_every_guard_names_stage_estimate_and_tolerance(name, error, trip, stage, monkeypatch):
    with pytest.raises(error) as info:
        trip(monkeypatch)
    found = _MESSAGE.match(str(info.value))
    assert found is not None, str(info.value)
    assert found["stage"] == stage
    assert float(found["estimate"]) > float(found["tolerance"])
