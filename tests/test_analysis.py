"""Analysis tests: effective-covariance factors and spectra, the exact and
the low-noise asymptotic missed detection, the small-threshold ratio law,
and the closed-form false alarm.

Hand oracles use exact polynomial identities, an independent binomial-tail
summation, and a slot-by-slot loop of outer products for the effective
covariance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from omnisync.analysis import (
    _log_comb,
    _log_comb_row,
    _numerical_rank,
    _path_vectors,
    GeneralizedFRatio,
    asymptotic_md,
    build_R_iid,
    fa_closed_form,
    fa_closed_form_log,
    lemma1_cdf,
    md_exact,
    path_factor,
)
from omnisync.channel import (
    SEC6_DOPPLER_HZ,
    SEC6_SLOT_INTERVAL_S,
    ChannelConfig,
    PathSet,
    correlation_matrix,
    sample_paths,
)
from omnisync.codebook import build_approach_codebook, build_omni_codebook
from omnisync.detector import threshold_from_fa
from omnisync.montecarlo import (
    ExperimentConfig,
    _merge_counts,
    _plan,
    _Plan,
    _drop,
    _prediction_spectrum,
    derive_seed,
    experiment_codebook,
    run_md_reduced,
)
from oracles import loop_covariance_oracle, loop_path_vectors, loop_whitener


def sec6_psi(k):
    config = ChannelConfig(m_t=2, m_r=2, p=1, beta=(1.0,),
                           f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S, k=k)
    return correlation_matrix(config).psi


# ===== Effective covariance builders =====


def build_R_single_path(codebook, theta_r, theta_t, psi):
    """Effective covariance for one path at unit gain, its descending
    spectrum, and the K x K reduced matrix psi * diag(a_k^H a_k), which
    shares the nonzero eigenvalues of the K*N_r*N_t covariance.  For
    constant-power designs like omni-golay a_k^H a_k = N_r * N_t at every
    angle, so the spectrum does not depend on the path direction."""
    q0 = codebook.n_t * codebook.n_r
    a = _path_vectors(codebook, theta_r, theta_t)
    norms = np.sum(np.abs(a.reshape(codebook.k, q0)) ** 2, axis=1)
    r = np.kron(psi, np.ones((q0, q0))) * (a @ a.conj().T)
    return r, np.linalg.eigvalsh(r)[::-1], psi * norms[None, :]


ORACLE_DESIGNS = {"omni-golay": 2, "quasi-omni-zc": 1, "dft-sweep": 1, "random-phase": 1}
ORACLE_BETA = {1: (1.0,), 4: (0.1, 0.2, 0.3, 0.4)}


def oracle_case(design, k, p, f_d=SEC6_DOPPLER_HZ):
    """Codebook, random paths, unequal gains and the slot correlation."""
    channel = ChannelConfig(m_t=16, m_r=8, p=p, beta=ORACLE_BETA[p], f_d=f_d,
                            t_s=SEC6_SLOT_INTERVAL_S, k=k)
    cb = build_approach_codebook(design, 16, ORACLE_DESIGNS[design], 8, 2, k, seed=k * 10 + p)
    return cb, sample_paths(channel, 100 + k * 10 + p), channel.beta, correlation_matrix(channel)


def max_rel_err(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
def test_batched_builders_match_loop_oracle(design, k, p):
    """The batched path vectors, one column per path, and the single-path
    covariance built from them."""
    cb, paths, beta, corr = oracle_case(design, k, p)
    batched = _path_vectors(cb, paths.theta_r, paths.theta_t)
    for col in range(p):
        loop = np.concatenate(loop_path_vectors(
            cb, float(paths.theta_r[col]), float(paths.theta_t[col])))
        assert max_rel_err(batched[:, col], loop) <= 1e-12
    if p == 1:
        want = loop_covariance_oracle(cb, paths, beta, corr.psi)
        single, _, reduced = build_R_single_path(
            cb, float(paths.theta_r[0]), float(paths.theta_t[0]), corr.psi)
        assert max_rel_err(single, want) <= 1e-12
        norms = [np.vdot(a, a).real for a in loop_path_vectors(
            cb, float(paths.theta_r[0]), float(paths.theta_t[0]))]
        assert max_rel_err(reduced, corr.psi * np.array(norms)[None, :]) <= 1e-12


@pytest.mark.parametrize("f_d", [SEC6_DOPPLER_HZ, 0.0])
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
def test_path_factor_matches_loop_oracle(design, k, p, f_d):
    """S S^H = R, also for the rank-one all-ones psi at f_d = 0."""
    cb, paths, beta, corr = oracle_case(design, k, p, f_d)
    s = path_factor(cb, paths, beta, corr.sqrt_factor)
    assert s.shape == (k * cb.n_t * cb.n_r, p * k)
    want = loop_covariance_oracle(cb, paths, beta, corr.psi)
    assert max_rel_err(s @ s.conj().T, want) <= 1e-12


def test_single_path_reduced_form_shares_spectrum():
    cb = build_omni_codebook(8, 2, 8, 2, 3)
    psi = sec6_psi(3)
    r, eigs, reduced = build_R_single_path(cb, 0.31, 0.62, psi)
    assert r.shape == (12, 12)
    assert _numerical_rank(eigs, 12) == 3
    # Flat patterns make every per-slot squared norm N_t * N_r = 4.
    assert np.allclose(reduced, psi * 4.0, atol=1e-9)
    full_nonzero = np.sort(eigs[:3])
    small = np.sort(np.linalg.eigvals(reduced).real)
    assert np.allclose(full_nonzero, small, atol=1e-9), (
        f"reduced spectrum {small} vs full {full_nonzero}")


def test_two_slot_omni_frozen_spectrum():
    cb = build_omni_codebook(16, 2, 16, 2, 2)
    _, eigs, _ = build_R_single_path(cb, 0.37, 0.81, sec6_psi(2))
    assert abs(eigs[0] - 4.420926115263772) <= 1e-9
    assert abs(eigs[1] - 3.579073884736228) <= 1e-9


def test_single_path_spectrum_angle_independent_for_omni():
    cb = build_omni_codebook(16, 2, 16, 2, 2)
    psi = sec6_psi(2)
    _, eigs_a, _ = build_R_single_path(cb, 0.11, 0.93, psi)
    _, eigs_b, _ = build_R_single_path(cb, 0.64, 0.05, psi)
    assert np.allclose(eigs_a[:2], eigs_b[:2], atol=1e-9)


def test_general_builder_matches_single_path():
    """path_factor of one path reproduces the single-path covariance."""
    channel = ChannelConfig(m_t=16, m_r=8, p=1, beta=(1.0,), f_d=SEC6_DOPPLER_HZ,
                            t_s=SEC6_SLOT_INTERVAL_S, k=2)
    cb = build_approach_codebook("quasi-omni-zc", 16, 1, 8, 2, 2)
    corr = correlation_matrix(channel)
    paths = PathSet(theta_r=np.array([0.42]), theta_t=np.array([0.17]))
    s = path_factor(cb, paths, (1.0,), corr.sqrt_factor)
    single, _, _ = build_R_single_path(cb, 0.42, 0.17, corr.psi)
    assert np.max(np.abs(s @ s.conj().T - single)) <= 1e-12


def test_general_builder_superposes_paths():
    """The covariance of a two-path factor is the gain-weighted sum of the
    single-path ones."""
    cb = build_omni_codebook(8, 2, 8, 2, 1)
    sqrt_psi = np.eye(1)
    paths = PathSet(theta_r=np.array([0.1, 0.6]), theta_t=np.array([0.3, 0.9]))
    both, first, second = (s @ s.conj().T for s in (
        path_factor(cb, paths, (0.25, 0.75), sqrt_psi),
        path_factor(cb, PathSet(paths.theta_r[:1], paths.theta_t[:1]), (1.0,), sqrt_psi),
        path_factor(cb, PathSet(paths.theta_r[1:], paths.theta_t[1:]), (1.0,), sqrt_psi)))
    assert np.max(np.abs(both - (0.25 * first + 0.75 * second))) <= 1e-12


def prediction_plan(approach, k, f_d=SEC6_DOPPLER_HZ, model="geometric"):
    channel = ChannelConfig(m_t=8, m_r=8, p=1, beta=(1.0,), f_d=f_d,
                            t_s=SEC6_SLOT_INTERVAL_S, k=k, model=model)
    config = ExperimentConfig(approach=approach, k=k, m_t=8, m_r=8, n_t=2, n_r=2, l=16,
                              channel=channel, snr_db_list=(0.0,))
    return _plan(config, 0.1, (1.0,), None)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_prediction_covariance_is_single_path_at_zero_angle(k):
    """The omni-golay single-path asymptote takes its spectrum from
    path_factor at angle 0: the loop oracle's eigenvalues, of rank K."""
    plan = prediction_plan("omni-golay", k)
    eigs = _prediction_spectrum(plan)
    want = np.linalg.eigvalsh(loop_covariance_oracle(
        plan.codebook, PathSet(np.zeros(1), np.zeros(1)), (1.0,),
        correlation_matrix(plan.config.channel).psi))[::-1]
    assert eigs.shape == (k,)
    assert np.max(np.abs(eigs - want[:k])) <= 1e-12 * want[0]
    assert np.max(np.abs(want[k:])) <= 1e-12 * want[0]
    assert _numerical_rank(eigs, 4 * k) == k


def test_prediction_spectrum_undefined_without_full_rank_or_flat_design():
    """f_d = 0 leaves a rank-one slot correlation, so K >= 2 has no
    asymptote and its p_md_asym cells stay empty; neither has a design whose
    spectrum moves with the angle."""
    assert _prediction_spectrum(prediction_plan("omni-golay", 1, f_d=0.0)) is not None
    for k in (2, 4):
        plan = prediction_plan("omni-golay", k, f_d=0.0)
        assert _prediction_spectrum(plan) is None
        rows = run_md_reduced(replace(plan.config, drops=1, frames_per_drop=10))
        assert [row.p_md_asym for row in rows] == [None]
    assert _prediction_spectrum(prediction_plan("random-phase", 2)) is None


@pytest.mark.parametrize("k", [1, 2])
def test_prediction_spectrum_of_iid_model(k):
    """The spectrum of R_w = B R B^H: random-phase combiners have Grams far
    from I, so the unwhitened spectrum of R fails."""
    plan = prediction_plan("random-phase", k, model="iid")
    b = loop_whitener(plan.codebook)
    r = build_R_iid(plan.codebook, correlation_matrix(plan.config.channel).psi)
    want = np.linalg.eigvalsh(b @ r @ b.conj().T)[::-1]
    eigs = _prediction_spectrum(plan)
    assert np.max(np.abs(eigs - want[:eigs.size])) <= 1e-12 * want[0]
    assert np.max(np.abs(want[eigs.size:]), initial=0.0) <= 1e-12 * want[0]


def test_iid_covariance_is_identity_for_omni():
    cb = build_omni_codebook(8, 2, 8, 2, 2)
    r = build_R_iid(cb, sec6_psi(2))
    assert np.max(np.abs(r - np.eye(8))) <= 1e-12, (
        "unitary slots with a disjoint schedule must whiten the iid channel")


# ===== Missed-detection asymptote =====


def test_asymptotic_md_frozen_hand_value():
    pred = asymptotic_md((1.0,), gamma=0.1, noise_var=1.0, k=1, l=2, n_r=1, n_t=1)
    assert pred.rank == 1
    assert abs(pred.value - 1.0 / 18.0) <= 1e-12 / 18.0
    assert abs(pred.log_value - math.log(1.0 / 18.0)) <= 1e-12


def test_asymptotic_md_scales_with_rank_power_of_noise():
    lo = asymptotic_md((2.0, 1.0), 0.05, 1e-2, 1, 16, 2, 2)
    hi = asymptotic_md((1.0, 2.0), 0.05, 1e-0, 1, 16, 2, 2)
    assert abs(lo.value / hi.value - 1e-4) <= 1e-12, "rank 2 means a slope of 2 decades/decade"
    assert abs(lo.eig_product - 2.0) <= 1e-12


def test_asymptotic_md_validation():
    with pytest.raises(ValueError):
        asymptotic_md((1.0,), 0.0, 1.0, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        asymptotic_md((1.0,), 0.1, 0.0, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        asymptotic_md((0.0,), 0.1, 1.0, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        asymptotic_md((), 0.1, 1.0, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        # rank 3 exceeds the signal dimension K*N_r*N_t = 1.
        asymptotic_md((1.0, 1.0, 1.0), 0.1, 1.0, 1, 2, 1, 1)


def test_asymptotic_md_full_rank_coefficient_is_binomial():
    """At r = q the coefficient is C(K*L*N_r - 1, r) = C(127, 4) = 10334625."""
    eigs = (4.0, 3.0, 2.0, 1.0)
    gamma, noise_var = 0.07, 0.5
    pred = asymptotic_md(eigs, gamma, noise_var, 1, 64, 2, 2)
    scale = 2 * noise_var * gamma / (64 * (1 - gamma))
    assert abs(pred.value - scale**4 * 10334625 / 24.0) <= 1e-12 * pred.value


@pytest.mark.parametrize("eigs,k,n_r,n_t", [
    ((4.0,), 1, 2, 2),
    ((2.0, 0.5), 1, 2, 2),
    ((3.0, 2.0, 1.5, 1.0), 1, 2, 2),
    (tuple(np.linspace(0.5, 4.0, 8)), 1, 4, 4),
])
def test_asymptotic_md_is_leading_term_of_exact_law(eigs, k, n_r, n_t):
    """The asymptote-to-exact ratio falls to 1 as the noise vanishes, for
    full rank (r = q) and rank-deficient (r < q) spectra alike."""
    gamma = threshold_from_fa(1e-2, k, 64, n_r, n_t)
    ratios = [asymptotic_md(eigs, gamma, nv, k, 64, n_r, n_t).value
              / md_exact(eigs, nv, gamma, k, 64, n_r, n_t) for nv in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b < a for a, b in zip(ratios, ratios[1:])), f"ratios {ratios} not falling"
    assert 1.0 <= ratios[-1] <= 1.01, f"asymptote/exact {ratios[-1]:.6f} at noise 1e-4"


# ===== Exact conditional missed detection =====


@pytest.mark.parametrize("k,l,n_r,n_t,gamma", [
    (1, 8, 1, 1, 0.3),
    (2, 16, 2, 1, 0.1),
    (1, 64, 2, 2, 0.0769301181402087),
    (4, 32, 1, 1, 0.02),
])
def test_md_exact_without_signal_is_false_alarm_complement(k, l, n_r, n_t, gamma):
    got = md_exact((), 1.0, gamma, k, l, n_r, n_t)
    assert abs(got - (1.0 - fa_closed_form(gamma, k, l, n_r, n_t))) <= 1e-12
    zeros = md_exact(np.zeros(k * n_r * n_t), 1.0, gamma, k, l, n_r, n_t)
    assert abs(zeros - got) <= 1e-15


def test_md_exact_single_weights_match_ratio_law():
    """q = d = 1: P{w E1 < t E2} = t / (t + w) with w = 1 + 2 * lambda / noise_var;
    lambda = 0 is the unit-weight law t / (1 + t) that lemma1_cdf expands."""
    t = 1e-2
    gamma = t / (1.0 + t)
    exact = md_exact((0.0,), 1.0, gamma, 1, 2, 1, 1)
    assert abs(exact - t / (1.0 + t)) <= 1e-15
    assert abs(lemma1_cdf(GeneralizedFRatio((1.0,), (1.0,)), t) - exact) <= 1.1 * t * exact
    for lam, nv in ((0.5, 1.0), (3.0, 0.1)):
        w = 1.0 + 2.0 * lam / nv
        assert abs(md_exact((lam,), nv, gamma, 1, 2, 1, 1) - t / (t + w)) <= 1e-15


def test_md_exact_batches_over_spectra():
    gamma = threshold_from_fa(1e-2, 1, 16, 2, 2)
    spectra = np.array([[[2.0, 0.5], [4.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]])
    batch = md_exact(spectra, 0.3, gamma, 1, 16, 2, 2)
    assert batch.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        # Only the order of the final sum over counts may differ.
        single = md_exact(spectra[idx], 0.3, gamma, 1, 16, 2, 2)
        assert abs(batch[idx] - single) <= 1e-14 * single
    # Deep in the tail every term stays positive and finite.
    tiny = md_exact((4.0, 4.0, 4.0, 4.0), 1e-6, gamma, 1, 16, 2, 2)
    assert 0.0 < tiny < 1e-20


def test_md_exact_validation():
    with pytest.raises(ValueError):
        md_exact((1.0,), 1.0, 0.0, 1, 8, 1, 1)
    with pytest.raises(ValueError):
        md_exact((1.0,), 0.0, 0.1, 1, 8, 1, 1)
    with pytest.raises(ValueError):
        md_exact((1.0, 1.0), 1.0, 0.1, 1, 8, 1, 1)
    with pytest.raises(ValueError):
        md_exact(1.0, 1.0, 0.1, 1, 8, 1, 1)


def test_md_exact_matches_reduced_sampler():
    """A fixed factor diag(sqrt(eigs)) makes the exact law one number per
    SNR point."""
    eigs = (2.0, 0.5, 0.0, 0.0)
    channel = ChannelConfig(m_t=8, m_r=8, p=1, beta=(1.0,), f_d=SEC6_DOPPLER_HZ,
                            t_s=SEC6_SLOT_INTERVAL_S, k=1)
    config = ExperimentConfig(
        approach="omni-golay", k=1, m_t=8, m_r=8, n_t=2, n_r=2, l=16, channel=channel,
        snr_db_list=(-6.0, 0.0), drops=20, frames_per_drop=2000, master_seed=5)
    gamma = threshold_from_fa(config.p_fa_target, 1, 16, 2, 2)
    noise_vars = tuple(10.0 ** (-s / 10.0) for s in config.snr_db_list)
    plan = _Plan(config, gamma, noise_vars, experiment_codebook(config),
                 correlation_matrix(channel).sqrt_factor, None, np.diag(np.sqrt(eigs)))
    counts, trials = _merge_counts([_drop("reduced", plan, d) for d in range(config.drops)],
                                   len(noise_vars))
    for snr, nv, cnt in zip(config.snr_db_list, noise_vars, counts):
        law = md_exact(eigs, nv, gamma, 1, 16, 2, 2)
        sigma = math.sqrt(law * (1.0 - law) / trials)
        assert abs(cnt / trials - law) <= 3 * sigma, (
            f"at {snr} dB sampled {cnt / trials:.4e} vs exact {law:.4e}")


def test_md_exact_of_whitened_spectrum_matches_reduced_sampler():
    """Random-phase combiners with N_r = 2 have Grams far from I, so the
    detector's law is md_exact on the spectrum of R_w = B R B^H, not of R
    (which reads about 0.080 against 0.068 here)."""
    channel = ChannelConfig(m_t=8, m_r=4, p=1, beta=(1.0,), f_d=SEC6_DOPPLER_HZ,
                            t_s=SEC6_SLOT_INTERVAL_S, k=2, model="iid")
    config = ExperimentConfig(
        approach="random-phase", k=2, m_t=8, m_r=4, n_t=2, n_r=2, l=8, channel=channel,
        snr_db_list=(0.0,), drops=20, frames_per_drop=2000, master_seed=3)
    cb = experiment_codebook(config)
    b = loop_whitener(cb)
    r = build_R_iid(cb, correlation_matrix(channel).psi)
    (row,) = run_md_reduced(config)
    law = md_exact(np.linalg.eigvalsh(b @ r @ b.conj().T)[::-1], 1.0, row.gamma, 2, 8, 2, 2)
    sigma = math.sqrt(law * (1.0 - law) / row.trials)
    assert abs(row.p_md_hat - law) <= 3 * sigma, (
        f"sampled {row.p_md_hat:.4e} vs exact {law:.4e} +- {3 * sigma:.1e}")


def test_md_exact_matches_multipath_sampler():
    """Given each drop's angles the exact law is known per drop, so the pooled
    four-path sample is held to the mean of the per-drop laws."""
    channel = ChannelConfig(m_t=16, m_r=8, p=4, beta=(0.1, 0.2, 0.3, 0.4),
                            f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S, k=4)
    config = ExperimentConfig(
        approach="quasi-omni-zc", k=4, m_t=16, m_r=8, n_t=1, n_r=2, l=16, channel=channel,
        snr_db_list=(-10.0, -4.0), drops=40, frames_per_drop=500, master_seed=6)
    cb = build_approach_codebook("quasi-omni-zc", 16, 1, 8, 2, 4)
    psi = correlation_matrix(channel).psi
    eigs = np.array([np.linalg.eigvalsh(loop_covariance_oracle(
        cb, sample_paths(channel, derive_seed(6, d)), channel.beta, psi))
        for d in range(config.drops)])
    for row in run_md_reduced(config):
        laws = md_exact(eigs, 10.0 ** (-row.snr_db / 10.0), row.gamma, 4, 16, 2, 1)
        law = float(np.mean(laws))
        sigma = math.sqrt(float(np.mean(laws * (1.0 - laws))) / row.trials)
        assert abs(row.p_md_hat - law) <= 3 * sigma, (
            f"at {row.snr_db} dB sampled {row.p_md_hat:.4e} vs exact {law:.4e}")


# ===== Small-threshold ratio law =====


def test_lemma1_cdf_polynomial_hand_values():
    t = 0.01
    assert abs(lemma1_cdf(GeneralizedFRatio((1.0,), (1.0,)), t) - t) <= 1e-15
    assert abs(lemma1_cdf(GeneralizedFRatio((1.0,), (1.0, 1.0)), t) - 2 * t) <= 1e-15
    # h_2(1,1,1) = 6, prod(1/lam) = 1/2 -> 3 t^2.
    assert abs(lemma1_cdf(GeneralizedFRatio((1.0, 2.0), (1.0, 1.0, 1.0)), t)
               - 3 * t * t) <= 1e-16
    # Distinct denominator weights exercise the DP route: h_1(1,2) = 3.
    assert abs(lemma1_cdf(GeneralizedFRatio((1.0,), (1.0, 2.0)), t) - 3 * t) <= 1e-15
    # h_2(1,2) = 1 + 2 + 4 = 7.
    assert abs(lemma1_cdf(GeneralizedFRatio((1.0, 1.0), (1.0, 2.0)), t) - 7 * t * t) <= 1e-16


def test_lemma1_cdf_equal_weights_match_binomial_closed_form():
    """With N equal denominator weights h_M is C(M+N-1, M) sigma^M, and a
    negligible nudge of one weight moves the law negligibly."""
    t = 0.02
    for m, n in ((1, 3), (4, 64), (8, 256), (32, 1000)):
        for sigma in (0.7, 1.0, 3.0):
            equal = lemma1_cdf(GeneralizedFRatio((1.0,) * m, (sigma,) * n), t)
            closed = t**m * math.comb(m + n - 1, m) * sigma**m
            assert abs(equal - closed) <= 1e-14 * closed, (m, n, sigma)
            nudged = lemma1_cdf(
                GeneralizedFRatio((1.0,) * m, (sigma,) * (n - 1) + (sigma + 1e-12,)), t)
            assert abs(equal - nudged) <= 1e-10 * equal, (m, n, sigma)


def test_lemma1_cdf_first_order_of_exact_law():
    ratio = GeneralizedFRatio((1.0,), (1.0,))
    for t in (1e-6, 1e-4):
        exact = t / (1.0 + t)
        approx = lemma1_cdf(ratio, t)
        assert abs(approx - exact) <= 1.1 * t * exact


def test_lemma1_validation():
    with pytest.raises(ValueError):
        GeneralizedFRatio((), (1.0,))
    with pytest.raises(ValueError):
        GeneralizedFRatio((1.0,), (0.0,))
    with pytest.raises(ValueError):
        lemma1_cdf(GeneralizedFRatio((1.0,), (1.0,)), -0.1)


# ===== Closed-form false alarm =====


def binomial_tail_oracle(gamma, k, l, n_r, n_t):
    n = k * l * n_r - 1
    return sum(math.comb(n, i) * gamma**i * (1.0 - gamma) ** (n - i)
               for i in range(k * n_r * n_t))


def test_fa_closed_form_hand_and_frozen():
    assert fa_closed_form(0.5, 1, 2, 1, 1) == 0.5
    got = fa_closed_form(0.05, 1, 64, 2, 2)
    assert abs(got - 0.11627867139820966) <= 1e-15
    assert abs(fa_closed_form_log(0.05, 1, 64, 2, 2) - math.log(got)) <= 1e-12


@pytest.mark.parametrize("k,l,n_r,n_t,gamma", [
    (1, 8, 1, 1, 0.3),
    (2, 16, 2, 1, 0.1),
    (1, 64, 2, 2, 0.0769301181402087),
    (4, 32, 1, 1, 0.02),
])
def test_fa_closed_form_matches_binomial_oracle(k, l, n_r, n_t, gamma):
    got = fa_closed_form(gamma, k, l, n_r, n_t)
    want = binomial_tail_oracle(gamma, k, l, n_r, n_t)
    assert abs(got - want) <= 1e-10 * want, f"fa {got!r} vs oracle {want!r}"


@pytest.mark.parametrize("n,a", [(16383, 256), (127, 4)])
def test_log_comb_row_is_exact(n, a):
    assert list(_log_comb_row(n, a)) == [_log_comb(n, m) for m in range(a)]


def test_fa_closed_form_monotone_and_edged():
    assert fa_closed_form(1e-12, 1, 64, 2, 2) > 0.999999
    assert fa_closed_form(0.2, 1, 64, 2, 2) > fa_closed_form(0.3, 1, 64, 2, 2)
