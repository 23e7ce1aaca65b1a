"""Transforms, multipliers, and evaluation on the spectral line.

The Gaussian pair K(v) = e^{-v^2/2} <-> psi(tau) = sqrt(2 pi) e^{-tau^2/2}
is the closed-form anchor; the fast chirp-z path and the NUFFT behind
profile_value are cross-checked against direct summation
(_to_spectral_direct, _from_spectral_direct, _chirp_sum_direct,
_profile_value_direct).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.fft import next_fast_len

from quatgamma import AliasingError, DecayError, spectral_line
from quatgamma.gamma_op import gamma_transform, gaussian_isotypic, op_B, op_H
from quatgamma.specfun import gamma_multiplier
from quatgamma.spectral_line import (
    Profile,
    _bluestein,
    _unit_chirp_sum,
    evaluate_at_one,
    from_spectral,
    profile_value,
    to_spectral,
)

# the transforms take their grids; these tests run the narrow v-window
# |v| <= 16 against |tau| <= 64, both at spacing 1/64
LOG_GRID = (1.0 / 64.0, 16.0)
TAU_GRID = (1.0 / 64.0, 64.0)


def _grid(spacing: float, half_width: float) -> np.ndarray:
    m = int(round(half_width / spacing))
    return spacing * np.arange(-m, m + 1)


def _to_spectral_direct(
    profile: Profile, spacing: float, half_width: float, chunk: int = 512
) -> Profile:
    """Reference for to_spectral: the chunked direct sum
    spacing_v * sum_m K(v_m) e^{i tau_k v_m}."""
    tau = _grid(spacing, half_width)
    v = profile.grid
    out = np.empty(len(tau), dtype=complex)
    for lo in range(0, len(tau), chunk):
        out[lo : lo + chunk] = np.exp(1j * np.outer(tau[lo : lo + chunk], v)) @ (
            profile.samples
        )
    return Profile(spacing, half_width, profile.spacing * out)


def _from_spectral_direct(
    psi: Profile, spacing: float, half_width: float, chunk: int = 512
) -> Profile:
    """Reference for from_spectral: the chunked direct sum
    (spacing_tau / 2 pi) sum_k psi(tau_k) e^{-i tau_k v_m}."""
    v = _grid(spacing, half_width)
    tau = psi.grid
    out = np.empty(len(v), dtype=complex)
    for lo in range(0, len(v), chunk):
        out[lo : lo + chunk] = np.exp(-1j * np.outer(v[lo : lo + chunk], tau)) @ (
            psi.samples
        )
    return Profile(spacing, half_width, psi.spacing / (2.0 * np.pi) * out)


def _profile_value_direct(
    psi: Profile, v: np.ndarray, chunk: int = 256
) -> np.ndarray:
    """Reference for profile_value: the dense off-grid spectral sum."""
    tau = psi.grid
    out = np.empty(len(v), dtype=complex)
    for lo in range(0, len(v), chunk):
        out[lo : lo + chunk] = np.exp(-1j * np.outer(v[lo : lo + chunk], tau)) @ (
            psi.samples
        )
    return psi.spacing / (2.0 * np.pi) * out


def gaussian_log_profile(center: float = 0.0, width: float = 1.0) -> Profile:
    return Profile.from_function(
        lambda v: np.exp(-0.5 * ((v - center) / width) ** 2), *LOG_GRID
    )


def random_bump_profile(seed: int) -> Profile:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, 3)
    widths = rng.uniform(0.7, 1.5, 3)
    amps = rng.uniform(-1.0, 1.0, 3)

    def fn(v):
        return sum(
            a * np.exp(-0.5 * ((v - c) / w) ** 2)
            for a, c, w in zip(amps, centers, widths)
        )

    return Profile.from_function(fn, *LOG_GRID)


# ------------------------------------------------------------- Gaussian pair


def test_gaussian_pair_forward():
    psi = to_spectral(gaussian_log_profile(), *TAU_GRID)
    ref = np.sqrt(2.0 * np.pi) * np.exp(-0.5 * psi.grid**2)
    assert np.max(np.abs(psi.samples - ref)) <= 1e-12


def test_gaussian_pair_inverse():
    psi = Profile.from_function(
        lambda t: np.sqrt(2.0 * np.pi) * np.exp(-0.5 * t**2), *TAU_GRID
    )
    k = from_spectral(psi, *LOG_GRID)
    ref = np.exp(-0.5 * k.grid**2)
    assert np.max(np.abs(k.samples - ref)) <= 1e-12


def test_zero_profiles():
    # an array-valued and a scalar-valued fn, broadcast onto either grid
    for zero in (np.zeros_like, lambda x: 0.0):
        zero_k = Profile.from_function(zero, *LOG_GRID)
        assert zero_k.samples.shape == zero_k.grid.shape
        assert np.all(to_spectral(zero_k, *TAU_GRID).samples == 0)
        zero_psi = Profile.from_function(zero, *TAU_GRID)
        assert zero_psi.samples.shape == zero_psi.grid.shape
        assert np.all(from_spectral(zero_psi, *LOG_GRID).samples == 0)
        assert evaluate_at_one(zero_psi) == 0


def test_shift_theorem():
    # K(v - 1) has spectral profile e^{i tau} psi(tau)
    psi0 = to_spectral(gaussian_log_profile(), *TAU_GRID)
    psi1 = to_spectral(gaussian_log_profile(center=1.0), *TAU_GRID)
    ref = np.exp(1j * psi0.grid) * psi0.samples
    assert np.max(np.abs(psi1.samples - ref)) <= 1e-12


def test_round_trip_random_bumps():
    for seed in (101, 102, 103):
        k = random_bump_profile(seed)
        back = from_spectral(to_spectral(k, *TAU_GRID), *LOG_GRID)
        assert np.max(np.abs(back.samples - k.samples)) <= 1e-8


# ------------------------------------------------------- czt vs direct sums


def test_fast_path_matches_direct_sum():
    k = random_bump_profile(7)
    fast = to_spectral(k, *TAU_GRID)
    slow = _to_spectral_direct(k, fast.spacing, fast.half_width)
    assert np.max(np.abs(fast.samples - slow.samples)) <= 1e-12

    back_fast = from_spectral(fast, *LOG_GRID)
    back_slow = _from_spectral_direct(fast, back_fast.spacing, back_fast.half_width)
    assert np.max(np.abs(back_fast.samples - back_slow.samples)) <= 1e-12


def _chirp_sum_direct(x: np.ndarray, n_out: int, angle: float, chunk: int = 256) -> np.ndarray:
    """Reference for _unit_chirp_sum: the chunked direct sum
    sum_n x[n] e^{i angle k n} (exact phases for a dyadic angle)."""
    n = np.arange(len(x), dtype=float)
    out = np.empty(n_out, dtype=complex)
    for lo in range(0, n_out, chunk):
        k = np.arange(lo, min(lo + chunk, n_out), dtype=float)
        out[lo : lo + chunk] = np.exp(1j * angle * np.outer(k, n)) @ x
    return out


@pytest.mark.parametrize(
    "p, n_out", [(1, 1), (1, 5), (5, 1), (5, 9), (9, 5), (4097, 8193), (8193, 4097)]
)
def test_unit_chirp_sum_matches_direct_sum(p, n_out):
    rng = np.random.default_rng(p + n_out)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    angle = TAU_GRID[0] * LOG_GRID[0]
    fast = _unit_chirp_sum(x, n_out, *_bluestein(p, n_out, angle))
    slow = _chirp_sum_direct(x, n_out, angle)
    bound = 1e-13 * np.sum(np.abs(x))
    assert fast.shape == (n_out,)
    # an off-by-one in the circular kernel layout shows first at the ends
    assert abs(fast[0] - np.sum(x)) <= bound
    last = np.exp(1j * angle * (n_out - 1) * np.arange(p, dtype=float)) @ x
    assert abs(fast[-1] - last) <= bound
    assert np.max(np.abs(fast - slow)) <= bound


def test_transforms_run_at_the_shortest_exact_length(monkeypatch):
    # 8,193 samples each way: the circular convolution needs p + n_out - 1
    # = 16,385 points, rounded up to the next fast length and no further
    lengths = []
    fft = spectral_line.fft

    def recording(a, n=None, **kwargs):
        lengths.append(len(a) if n is None else n)
        return fft(a, n, **kwargs)

    monkeypatch.setattr(spectral_line, "fft", recording)
    k = Profile.from_function(lambda v: np.exp(-0.5 * v * v), 1.0 / 64.0, 64.0)
    psi = to_spectral(k, *TAU_GRID)
    assert len(psi.samples) == 8193
    back = from_spectral(psi, 1.0 / 64.0, 64.0)
    assert len(back.samples) == 8193
    assert lengths and max(lengths) <= next_fast_len(16385)



def test_transforms_do_not_depend_on_the_plan_cache():
    # a plan holds only grid-only arrays, so a cold and a warm cache give
    # the same bits, and a second transform on one geometry builds nothing
    k = random_bump_profile(5)
    spectral_line._plan.cache_clear()
    cold = to_spectral(k, *TAU_GRID)
    cold_back = from_spectral(cold, *LOG_GRID)
    built = spectral_line._plan.cache_info().misses
    warm = to_spectral(k, *TAU_GRID)
    warm_back = from_spectral(warm, *LOG_GRID)
    assert spectral_line._plan.cache_info().misses == built == 2
    assert cold.samples.tobytes() == warm.samples.tobytes()
    assert cold_back.samples.tobytes() == warm_back.samples.tobytes()


def test_plan_arrays_refuse_writes():
    k = random_bump_profile(5)
    to_spectral(k, *TAU_GRID)
    n_out = int(round(2.0 * TAU_GRID[1] / TAU_GRID[0])) + 1
    plan = spectral_line._plan(len(k.samples), n_out, k.spacing, k.half_width, *TAU_GRID, 1j)
    arrays = [a for a in plan if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# ---------------------------------------------------------------- multipliers


def test_unimodular_multiplier_preserves_modulus():
    f = gaussian_isotypic(0)
    rotated = gamma_transform(f).spectral_profile
    psi = f.spectral_profile
    assert np.max(np.abs(np.abs(rotated.samples) - np.abs(psi.samples))) <= 1e-13


# ----------------------------------------------------------------- evaluation


def test_evaluate_at_one_gaussian():
    psi = to_spectral(gaussian_log_profile(), *TAU_GRID)
    assert abs(evaluate_at_one(psi) - 1.0) <= 1e-12


def test_evaluate_matches_inverse_at_zero():
    k = random_bump_profile(11)
    psi = to_spectral(k, *TAU_GRID)
    back = from_spectral(psi, *LOG_GRID)
    mid = len(back.samples) // 2
    assert abs(evaluate_at_one(psi) - back.samples[mid]) <= 1e-10


def test_evaluate_grid_halving_stability():
    k = gaussian_log_profile()
    v1 = evaluate_at_one(to_spectral(k, *TAU_GRID))
    fine = Profile.from_function(
        lambda v: np.exp(-0.5 * v**2), k.spacing / 2.0, k.half_width
    )
    v2 = evaluate_at_one(to_spectral(fine, 1.0 / 128.0, TAU_GRID[1]))
    assert abs(v1 - v2) <= 1e-10


def test_profile_value_on_and_off_grid():
    k = gaussian_log_profile()
    psi = to_spectral(k, *TAU_GRID)
    back = from_spectral(psi, *LOG_GRID)
    # on-grid agreement with the inverse transform
    idx = np.array([100, 1024, 1500])
    vals = profile_value(psi, back.grid[idx])
    assert np.max(np.abs(vals - back.samples[idx])) <= 1e-12
    # off-grid agreement with the closed form
    for v in (0.123456, -2.71828, 0.5 + 1.0 / 3.0):
        assert abs(profile_value(psi, v) - np.exp(-0.5 * v**2)) <= 1e-10


PIN_TARGETS = np.concatenate(
    [
        np.random.default_rng(2024).uniform(-64.0, 64.0, 600),
        np.arange(-64, 65) / 64.0,  # exactly on the native v-nodes
        [-64.0, 64.0, -500.0, 500.0, -401.9, 1000.0 / 3.0],  # beyond the window
    ]
)


@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_profile_value_matches_dense_sum(N):
    # Gamma f has a psi that is not even, so it exposes a wrong FFT sign
    # that f and H f (even psi) hide
    f = gaussian_isotypic(N)
    for g in (f, op_H(f), gamma_transform(f), op_B(f)):
        psi = g.spectral_profile
        peak = np.max(np.abs(g.log_profile.samples))
        fast = profile_value(psi, PIN_TARGETS)
        dense = _profile_value_direct(psi, PIN_TARGETS)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * peak


@pytest.mark.parametrize("N", [0, 1, 5])
def test_profile_value_on_unimodular_psi(N):
    # trace_spectral reads G(v) = sum_k gamma_N(tau_k) e^{i tau_k v} through
    # profile_value; gamma_N has |gamma_N| = 1 and never decays, so the
    # error is bounded by the scale sum_k |psi_k| dtau / 2pi, not the peak;
    # measured 1.2e-14 x scale
    psi = Profile.from_function(lambda tau: gamma_multiplier(N, tau), *TAU_GRID)
    v = np.random.default_rng(77 + N).uniform(-64.0, 0.0, 2000)
    scale = np.sum(np.abs(psi.samples)) * psi.spacing / (2.0 * np.pi)
    fast = profile_value(psi, v)
    dense = _profile_value_direct(psi, v)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * scale


def test_profile_value_scalar_empty_and_shape():
    g = gamma_transform(gaussian_isotypic(1))
    psi = g.spectral_profile
    peak = np.max(np.abs(g.log_profile.samples))
    for v in (0.3, -17.25, 500.0):
        val = profile_value(psi, v)
        assert isinstance(val, complex)
        assert abs(val - _profile_value_direct(psi, np.array([v]))[0]) <= 1e-12 * peak
    empty = profile_value(psi, np.array([]))
    assert empty.shape == (0,) and empty.dtype == complex
    block = PIN_TARGETS[:600].reshape(20, 30)
    flat = profile_value(psi, block.ravel())
    assert np.array_equal(profile_value(psi, block), flat.reshape(20, 30))



def test_profile_value_block_size_invariant(monkeypatch):
    # each target is spread on its own, so neither the block size nor the
    # other targets of a call move its bits; three default blocks, and a
    # prefix for the smallest sizes
    psi = gamma_transform(gaussian_isotypic(1)).spectral_profile
    default = spectral_line._SPREAD_BLOCK
    v = np.random.default_rng(5).uniform(-80.0, 80.0, 2 * default + 5)
    monkeypatch.setattr(spectral_line, "_SPREAD_BLOCK", len(v) + 1)
    whole = profile_value(psi, v)
    for block, count in ((1, 300), (7, 300), (default, len(v))):
        monkeypatch.setattr(spectral_line, "_SPREAD_BLOCK", block)
        assert profile_value(psi, v[:count]).tobytes() == whole[:count].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_value_refuses_non_finite(bad):
    psi = gaussian_isotypic(0).spectral_profile
    with pytest.raises(ValueError, match="finite"):
        profile_value(psi, bad)
    with pytest.raises(ValueError, match="finite"):
        profile_value(psi, np.array([0.5, bad]))


def test_profile_value_far_off_window_is_periodic():
    # K is 2 pi / spacing periodic; at v = 1e9 the NUFFT must reduce the
    # index once, and promptly, and agree with the value one whole number
    # of periods closer to 0.  The two arguments differ from exact
    # periodicity by a few roundings of v (ulp 1.2e-7); |dK/dv| <= 0.65 for
    # this profile, so 8 ulp bounds the difference (measured 5.0e-9).
    g = gamma_transform(gaussian_isotypic(1))
    psi = g.spectral_profile
    period = 2.0 * np.pi / psi.spacing
    v = 1e9
    near = v - np.round(v / period) * period
    bound = 8.0 * np.spacing(v) + 1e-12 * np.max(np.abs(g.log_profile.samples))
    assert abs(profile_value(psi, v) - profile_value(psi, near)) <= bound


# ------------------------------------------------------------------ invariants


def test_parseval():
    for seed in (21, 22):
        k = random_bump_profile(seed)
        psi = to_spectral(k, *TAU_GRID)
        lhs = k.spacing * np.sum(np.abs(k.samples) ** 2)
        rhs = psi.spacing / (2.0 * np.pi) * np.sum(np.abs(psi.samples) ** 2)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_v_multiplication_is_spectral_derivative():
    # to_spectral(v*K) = (1/i) d psi / d tau, checked by central differences
    # of psi evaluated off-grid (step small enough for the 1e-6 target)
    k = gaussian_log_profile()
    v_k = Profile(k.spacing, k.half_width, k.grid * k.samples)
    lhs = to_spectral(v_k, *TAU_GRID)
    delta = 5e-4
    taus = lhs.grid[::64]

    def psi_at(t):
        return k.spacing * (np.exp(1j * np.outer(t, k.grid)) @ k.samples)

    fd = (psi_at(taus + delta) - psi_at(taus - delta)) / (2j * delta)
    assert np.max(np.abs(lhs.samples[::64] - fd)) <= 1e-6


# --------------------------------------------------------------------- guards


def test_aliasing_guard():
    k = gaussian_log_profile()
    with pytest.raises(AliasingError):
        to_spectral(k, TAU_GRID[0], 300.0)
    psi = to_spectral(k, *TAU_GRID)
    with pytest.raises(AliasingError):
        from_spectral(psi, LOG_GRID[0], 256.0)


def test_aliasing_guard_accepts_its_bound():
    # v-spacing pi/64 times tau half-width 64 is pi exactly in floats: the
    # sampling bound itself passes, and the transform is the closed form
    k = Profile.from_function(lambda v: np.exp(-0.5 * v * v), np.pi / 64.0, 5.0 * np.pi)
    assert k.spacing * TAU_GRID[1] == np.pi
    psi = to_spectral(k, *TAU_GRID)
    # measured 1.1e-12, the chirp-z rounding at phases up to 64 * 5 pi
    assert np.max(np.abs(psi.samples - np.sqrt(2.0 * np.pi) * np.exp(-0.5 * psi.grid**2))) <= 1e-11


def test_decay_guard():
    flat = Profile.from_function(np.ones_like, *LOG_GRID)
    with pytest.raises(DecayError):
        to_spectral(flat, *TAU_GRID)
    wide = Profile.from_function(lambda t: np.exp(-0.5 * (t / 40.0) ** 2), *TAU_GRID)
    with pytest.raises(DecayError):
        from_spectral(wide, *LOG_GRID)


def test_grid_policy_lives_in_gamma_op():
    # the transforms take their grids; the one default grid is gamma_op's,
    # so this module exports no constant
    assert [n for n in vars(spectral_line) if n.isupper() and not n.startswith("_")] == []


def test_profile_length_validation():
    with pytest.raises(ValueError):
        Profile(1.0 / 64.0, 16.0, np.zeros(100))
