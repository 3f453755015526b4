"""Channel model tests: Bessel J0, slot correlation, path sampling, and the
geometric / i.i.d. fading laws of the effective channels G_k = F_k^H H_k W_k,
drawn as g = S w through the covariance factor S that both estimators use.

J0 gets two independent checks: frozen literature values and a direct
numerical evaluation of its integral representation.
"""

import math

import numpy as np
import pytest

from omnisync.analysis import build_R_iid, path_factor
from omnisync.channel import (
    SEC6_DOPPLER_HZ,
    SEC6_SLOT_INTERVAL_S,
    ChannelConfig,
    PathSet,
    _complex_normal,
    bessel_j0,
    correlation_matrix,
    sample_paths,
    steering,
    uniform_gains,
)
from omnisync.codebook import build_approach_codebook
from omnisync.montecarlo import _cov_factor
from oracles import loop_covariance_oracle


def sec6_config(k, m_t=4, m_r=4, p=1, beta=None, model="geometric"):
    return ChannelConfig(m_t=m_t, m_r=m_r, p=p,
                         beta=beta if beta is not None else uniform_gains(p),
                         f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S, k=k, model=model)


def j0_integral(x, panels=4096):
    """(1/pi) * integral of cos(x sin theta) over [0, pi], trapezoid rule.

    The integrand has vanishing odd derivatives at both endpoints, so the
    trapezoid rule converges far beyond the 1e-10 comparison tolerance.
    """
    theta = np.linspace(0.0, np.pi, panels + 1)
    return float(np.trapezoid(np.cos(x * np.sin(theta)), theta) / np.pi)


# ===== Bessel J0 =====


@pytest.mark.parametrize("x,expected", [
    (0.0, 1.0),
    (1.0, 0.7651976865579666),
    (5.0, -0.1775967713143383),
    (10.0, -0.2459357644513483),
])
def test_bessel_j0_literature_values(x, expected):
    assert abs(bessel_j0(x) - expected) <= 1e-9


def test_bessel_j0_first_zero():
    assert abs(bessel_j0(2.404825557695773)) <= 1e-9


def test_bessel_j0_matches_integral_representation():
    rng = np.random.default_rng(41)
    for x in rng.uniform(0.0, 40.0, size=25):
        got = bessel_j0(float(x))
        want = j0_integral(float(x))
        assert abs(got - want) <= 1e-8, f"J0({x:.4f}) = {got!r}, integral {want!r}"


def test_bessel_j0_even_in_x():
    assert bessel_j0(-3.7) == bessel_j0(3.7)


# ===== Slot correlation =====


def test_correlation_matrix_frozen_values():
    corr = correlation_matrix(sec6_config(3))
    psi = corr.psi
    assert psi.shape == (3, 3)
    assert np.allclose(np.diag(psi), 1.0, atol=1e-15)
    assert abs(psi[0, 1] + 0.1052315288159432) <= 1e-10
    assert abs(psi[0, 2] + 0.09791256842313789) <= 1e-10
    assert psi[1, 2] == psi[0, 1]
    assert np.array_equal(psi, psi.T)


def test_correlation_matrix_is_toeplitz_in_j0():
    config = ChannelConfig(m_t=2, m_r=2, p=1, beta=(1.0,), f_d=300.0, t_s=1e-3, k=6)
    psi = correlation_matrix(config).psi
    for i in range(6):
        for j in range(6):
            want = bessel_j0(2.0 * math.pi * 300.0 * 1e-3 * abs(i - j))
            assert abs(psi[i, j] - want) <= 1e-14


def test_correlation_factor_reproduces_matrix():
    config = ChannelConfig(m_t=2, m_r=2, p=1, beta=(1.0,), f_d=300.0, t_s=1e-3, k=8)
    corr = correlation_matrix(config)
    assert np.max(np.abs(corr.sqrt_factor @ corr.sqrt_factor.T - corr.psi)) <= 1e-12


def test_zero_doppler_collapses_to_rank_one():
    config = ChannelConfig(m_t=2, m_r=2, p=1, beta=(1.0,), f_d=0.0, t_s=1e-3, k=5)
    corr = correlation_matrix(config)
    assert np.allclose(corr.psi, 1.0, atol=1e-15)
    live_columns = int(np.sum(np.any(np.abs(corr.sqrt_factor) > 1e-12, axis=0)))
    assert live_columns == 1, f"all-ones correlation should factor through rank 1, got {live_columns}"
    assert np.max(np.abs(corr.sqrt_factor @ corr.sqrt_factor.T - 1.0)) <= 1e-12


# ===== Config validation =====


@pytest.mark.parametrize("kwargs", [
    dict(p=0, beta=()),
    dict(beta=(0.5, 0.5)),          # count disagrees with p=1
    dict(beta=(0.7,)),              # does not sum to 1
    dict(beta=(-1.0,)),
    dict(model="rayleigh-ish"),
    dict(beta=(math.nan,)),
    dict(f_d=math.nan),
    dict(f_d=math.inf),
    dict(t_s=math.nan),
    dict(t_s=math.inf),
])
def test_channel_config_rejects_bad_values(kwargs):
    base = dict(m_t=4, m_r=4, p=1, beta=(1.0,), f_d=100.0, t_s=1e-3, k=2)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ChannelConfig(**base)


def test_channel_config_rejects_bad_timing():
    with pytest.raises(ValueError):
        ChannelConfig(m_t=4, m_r=4, p=1, beta=(1.0,), f_d=-1.0, t_s=1e-3, k=2)
    with pytest.raises(ValueError):
        ChannelConfig(m_t=4, m_r=4, p=1, beta=(1.0,), f_d=100.0, t_s=0.0, k=2)


def test_uniform_gains_sum_to_one():
    assert uniform_gains(4) == (0.25, 0.25, 0.25, 0.25)
    gains = uniform_gains(3)
    assert abs(sum(gains) - 1.0) <= 1e-12
    sec6_config(2, p=3, beta=gains)  # must satisfy the config validator


# ===== Steering and path sampling =====


def test_steering_hand_values():
    v = steering(0.25, 4)
    assert np.allclose(v, [1.0, 1.0j, -1.0, -1.0j], atol=1e-15)
    assert np.allclose(np.abs(steering(0.37, 8)), 1.0, atol=1e-15)


def test_sample_paths_deterministic_and_ordered():
    config = sec6_config(2, p=2, beta=(0.5, 0.5))
    paths_a = sample_paths(config, 9)
    paths_b = sample_paths(config, 9)
    assert np.array_equal(paths_a.theta_r, paths_b.theta_r)
    assert np.array_equal(paths_a.theta_t, paths_b.theta_t)
    rng = np.random.default_rng(9)
    assert np.array_equal(paths_a.theta_r, rng.random(2)), "arrival angles drawn first"
    assert np.array_equal(paths_a.theta_t, rng.random(2))
    assert np.all((paths_a.theta_r >= 0) & (paths_a.theta_r < 1))


@pytest.mark.parametrize("shape", [(4, 65536), (2, 3, 4, 5), 7, (0, 3), ()])
def test_complex_normal_matches_sum_expression_bit_for_bit(shape):
    """The draw is (a + 1j b) / sqrt(2) with a drawn before b, to the byte."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        got = _complex_normal(np.random.default_rng(seed), shape)
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ===== Fading realizations =====


def draw_effective_channels(seed, factor, codebook, frames):
    """frames draws of G_k, shape (frames, K, N_r, N_t), as the estimators
    draw them before whitening: the columns g = S w = [vec(G_k)]_k, read
    slot by slot as a strided view."""
    w = _complex_normal(np.random.default_rng(seed), (factor.shape[1], frames))
    g = factor @ w
    return g.T.reshape(frames, codebook.k, codebook.n_t, codebook.n_r).swapaxes(2, 3)


def path_shape(codebook, paths, slot, p):
    """(F_k^H u_p)(W_k^H v_p)^H: the N_r x N_t mixing of path p in slot k."""
    u = steering(float(paths.theta_r[p]), codebook.m_r)
    v = steering(float(paths.theta_t[p]), codebook.m_t)
    return np.outer(codebook.f[slot].conj().T @ u, (codebook.w[slot].conj().T @ v).conj())


def test_realize_channel_is_rank_one_per_slot():
    """One path: every drawn G_k is the path gain times the rank-one
    (F_k^H u)(W_k^H v)^H of that path's steering vectors.  N_t != N_r, so a
    factor row order other than vec(G_k) column by column fails."""
    config = sec6_config(2)
    cb = build_approach_codebook("random-phase", 4, 3, 4, 2, 2, seed=3)
    paths = sample_paths(config, 3)
    corr = correlation_matrix(config)
    geff = draw_effective_channels(11, path_factor(cb, paths, config.beta, corr.sqrt_factor),
                                   cb, 5)
    assert geff.shape == (5, 2, 2, 3)
    for k in range(2):
        shape = path_shape(cb, paths, k, 0)
        for g in geff[:, k]:
            alpha = np.vdot(shape, g) / np.vdot(shape, shape)
            assert abs(alpha) > 1e-3
            assert np.max(np.abs(g - alpha * shape)) <= 1e-12


def test_realize_channel_gain_moments():
    """Sample moments of the per-path gains, recovered from the drawn G_k,
    match beta and the slot correlation."""
    config = sec6_config(2, p=2, beta=(0.75, 0.25))
    cb = build_approach_codebook("random-phase", 4, 2, 4, 2, 2, seed=5)
    paths = sample_paths(config, 5)
    corr = correlation_matrix(config)
    geff = draw_effective_channels(17, path_factor(cb, paths, config.beta, corr.sqrt_factor),
                                   cb, 3000)
    draws = np.empty((3000, 2, 2), dtype=np.complex128)
    for k in range(2):
        basis = np.stack([path_shape(cb, paths, k, p).ravel() for p in range(2)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, geff[:, k].reshape(3000, -1).T, rcond=None)
        assert np.max(np.abs(basis @ coef - geff[:, k].reshape(3000, -1).T)) <= 1e-10
        draws[:, :, k] = coef.T
    power = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.max(np.abs(power[0] - 0.75)) <= 0.06, f"path 0 power {power[0]}"
    assert np.max(np.abs(power[1] - 0.25)) <= 0.06, f"path 1 power {power[1]}"
    cross = np.mean(draws[:, 0, 0] * np.conj(draws[:, 0, 1])) / 0.75
    assert abs(cross.real - corr.psi[0, 1]) <= 0.08
    assert abs(cross.imag) <= 0.08
    assert abs(np.mean(draws[:, 0, 0])) <= 0.05


def assert_matches_covariance(geff, r):
    """Sample mean and covariance of slot-stacked column-major vec(G_k) (the
    stacking of the analysis covariance R) within 4 sigma of 0 and R, entry
    by entry: a sample covariance entry has standard deviation
    sqrt(R_ii R_jj / n) for n complex normal draws."""
    n = geff.shape[0]
    g = geff.transpose(0, 1, 3, 2).reshape(n, -1)
    scale = np.sqrt(np.diag(r).real)
    assert np.all(np.abs(g.mean(axis=0)) <= 4 * scale / math.sqrt(n))
    sample = g.T @ g.conj() / n
    worst = np.max(np.abs(sample - r) / (np.outer(scale, scale) / math.sqrt(n)))
    assert worst <= 4.0, f"sample covariance off by {worst:.2f} sigma"


def test_geometric_effective_channel_covariance():
    """Two fixed paths with unequal gains: the drawn G_k follow the
    covariance of the slot-by-slot loop oracle."""
    config = sec6_config(3, m_t=8, m_r=8, p=2, beta=(0.3, 0.7))
    cb = build_approach_codebook("random-phase", 8, 2, 8, 2, 3, seed=4)
    paths = PathSet(theta_r=np.array([0.12, 0.57]), theta_t=np.array([0.33, 0.81]))
    corr = correlation_matrix(config)
    geff = draw_effective_channels(47, path_factor(cb, paths, config.beta, corr.sqrt_factor),
                                   cb, 20000)
    assert geff.shape == (20000, 3, 2, 2)
    assert_matches_covariance(geff, loop_covariance_oracle(cb, paths, config.beta, corr.psi))


def test_iid_effective_channel_covariance():
    config = sec6_config(2, m_t=4, m_r=4, model="iid")
    cb = build_approach_codebook("random-phase", 4, 2, 4, 2, 2, seed=6)
    r = build_R_iid(cb, correlation_matrix(config).psi)
    geff = draw_effective_channels(53, _cov_factor(r), cb, 20000)
    assert geff.shape == (20000, 2, 2, 2)
    assert_matches_covariance(geff, r)
