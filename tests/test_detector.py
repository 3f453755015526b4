"""Detector tests: pilot structure, the batched GLRT statistic against a
per-frame loop oracle and a hand projection oracle, invariances, threshold
calibration, an end-to-end false-alarm rate check against the closed form,
the whitened pilot coordinates both estimators score against the statistic,
one drop of the full estimator against per-frame synthesis, and the law of
the noise that estimator draws.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from omnisync import detector
from omnisync.analysis import build_R_iid, fa_closed_form
from omnisync.channel import (
    SEC6_DOPPLER_HZ,
    SEC6_SLOT_INTERVAL_S,
    ChannelConfig,
    _complex_normal,
    correlation_matrix,
    sample_paths,
    steering,
)
from omnisync.codebook import Codebook, build_approach_codebook, build_omni_codebook
from omnisync.detector import glrt_statistic, make_sync_signal, threshold_from_fa
from omnisync.montecarlo import (
    ExperimentConfig,
    _combiner_whitener,
    _cov_factor,
    _drop,
    _full_noise,
    _plan,
    _whiten,
    derive_seed,
    estimate_fa,
    experiment_codebook,
)


def scalar_codebook(k=1):
    one = np.ones((1, 1), dtype=np.complex128)
    one.setflags(write=False)
    return Codebook(k=k, w=(one,) * k, f=(one,) * k, design="explicit")


# ===== Per-frame oracles =====


def loop_glrt_statistic(y, codebook, x):
    """(T, t_raw) of one frame, slot by slot.

    y holds the frame's K observations Y_k (N_r x L).  T is the whitened
    projection energy over the whitened total; t_raw is computed
    independently as the difference of the two maximized log-likelihoods,
    K*L*N_r times the log ratio of the noise-variance estimates under the
    two hypotheses.
    """
    k = codebook.k
    n_r = codebook.n_r
    l = x.shape[1]
    num = 0.0
    den = 0.0
    resid = 0.0
    for i in range(k):
        yk = y[i]
        fk = codebook.f[i]
        fhf = fk.conj().T @ fk
        a = yk @ x.conj().T
        xxh = x @ x.conj().T
        gain = a @ np.linalg.solve(xxh, a.conj().T)
        num += float(np.trace(np.linalg.solve(fhf, gain)).real)
        den += float(np.trace(np.linalg.solve(fhf, yk @ yk.conj().T)).real)
        # Residual of the per-slot least-squares fit, whitened by F^H F.
        g_hat = np.linalg.solve(xxh.conj().T, a.conj().T).conj().T
        e = yk - g_hat @ x
        resid += float(np.trace(np.linalg.solve(fhf, e @ e.conj().T)).real)
    t = min(max(num / den, 0.0), 1.0)
    scale = k * l * n_r
    if resid <= 0.0:
        return t, math.inf
    return t, scale * (math.log(den / scale) - math.log(resid / scale))


def synthesize_oracle(codebook, x, h, n, noise_var):
    """One frame, slot by slot: Y_k = F_k^H H_k W_k X + sqrt(noise_var) N_k
    with N_k (N_r x L) the combined noise F_k^H Z_k; h None is noise only."""
    y = []
    for k in range(codebook.k):
        yk = math.sqrt(noise_var) * n[k]
        if h is not None:
            fk = codebook.f[k]
            yk = yk + fk.conj().T @ (h[k] @ (codebook.w[k] @ x))
        y.append(yk)
    return np.stack(y)


# ===== Pilot =====


def test_sync_signal_row_orthogonality():
    x = make_sync_signal(2, 64)
    assert x.shape == (2, 64)
    gram = x @ x.conj().T
    assert np.max(np.abs(gram - (64 / 2) * np.eye(2))) <= 1e-9
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        make_sync_signal(3, 2)
    with pytest.raises(ValueError):
        make_sync_signal(2, 2)  # a square pilot spans every observation: T == 1
    with pytest.raises(ValueError):
        make_sync_signal(0, 4)


# ===== GLRT statistic =====


ORACLE_DESIGNS = [("omni-golay", 2), ("random-phase", 1), ("random-phase", 2)]


@pytest.mark.parametrize("frames", [1, 50])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("design,n", ORACLE_DESIGNS)
def test_glrt_statistic_matches_loop_oracle(design, n, k, frames):
    cb = build_approach_codebook(design, 8, n, 8, n, k, seed=5)
    if (design, n) == ("random-phase", 2):
        fhf = cb.f[0].conj().T @ cb.f[0]
        assert abs(fhf[0, 1]) > 0.1, "the random combiner should not be orthogonal"
    x = make_sync_signal(n, 16)
    rng = np.random.default_rng(100 * k + frames)
    # Signal strengths spread over frames, so T covers much of [0, 1].
    gains = _complex_normal(rng, (frames, k, n, n)) * rng.uniform(0.0, 2.0, (frames, 1, 1, 1))
    y = np.einsum("ckab,bl->ckal", gains, x) + _complex_normal(rng, (frames, k, n, 16))
    t = glrt_statistic(y, x, cb.f)
    assert t.shape == (frames,)
    want = np.array([loop_glrt_statistic(frame, cb, x)[0] for frame in y])
    assert np.max(np.abs(t - want)) <= 1e-12


@pytest.mark.parametrize("y", [
    np.array([[1.0 + 0j, 1.0]]),
    np.array([[1.0 + 0j, -1.0]]),
    np.array([[2.0 - 1.0j, 0.5 + 0.25j]]),
])
def test_glrt_matches_projection_oracle(y):
    """Scalar case: T is the squared cosine between y and the pilot row."""
    x = make_sync_signal(1, 2)
    t = glrt_statistic(y[None, None], x, scalar_codebook().f)
    cos2 = abs(np.vdot(x[0], y[0])) ** 2 / (np.vdot(x[0], x[0]).real * np.vdot(y[0], y[0]).real)
    assert abs(t[0] - cos2) <= 1e-12, f"T {t[0]!r} vs projection oracle {cos2!r}"


def test_glrt_extremes_and_raw_scale():
    cb = scalar_codebook()
    x = make_sync_signal(1, 2)
    # Frames aligned with, orthogonal to and tilted from the pilot row.
    y = np.array([[[[3.0, 3.0]]], [[[1.0, -1.0]]], [[[1.0, 0.2]]]], dtype=np.complex128)
    t = glrt_statistic(y, x, cb.f)
    assert t[0] == 1.0
    assert abs(t[1]) <= 1e-15

    oracle = [loop_glrt_statistic(frame, cb, x) for frame in y]
    for (t_loop, _), t_batch in zip(oracle, t):
        assert abs(t_loop - t_batch) <= 1e-12
    assert oracle[0][1] == math.inf
    assert abs(oracle[1][1]) <= 1e-12
    # The two likelihood routes must agree: t_raw = -K L N_r log(1 - T).
    t_loop, t_raw = oracle[2]
    assert abs(t_raw + 2 * math.log1p(-t_loop)) <= 1e-10


def test_glrt_scale_invariance():
    rng = np.random.default_rng(13)
    cb = build_omni_codebook(8, 2, 8, 2, 2)
    x = make_sync_signal(2, 16)
    y = rng.standard_normal((4, 2, 2, 16)) + 1j * rng.standard_normal((4, 2, 2, 16))
    base = glrt_statistic(y, x, cb.f)
    scaled = glrt_statistic(5.0 * y, x, cb.f)
    assert np.max(np.abs(base - scaled)) <= 1e-12


def test_glrt_invariant_to_combiner_recombination():
    """Replacing F by F U (U unitary) with y mapped to U^H y leaves T alone."""
    rng = np.random.default_rng(29)
    cb = build_omni_codebook(8, 2, 8, 2, 1)
    x = make_sync_signal(2, 16)
    y = rng.standard_normal((4, 1, 2, 16)) + 1j * rng.standard_normal((4, 1, 2, 16))
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]], dtype=np.complex128)
    base = glrt_statistic(y, x, cb.f)
    rotated = glrt_statistic(np.einsum("ab,ckbl->ckal", u.conj().T, y), x, (cb.f[0] @ u,))
    assert np.max(np.abs(base - rotated)) <= 1e-10


def test_glrt_zero_frame_raises():
    x = make_sync_signal(1, 2)
    batch = np.zeros((3, 1, 1, 2), dtype=np.complex128)
    batch[0, 0, 0] = [1.0, 0.5]
    batch[2, 0, 0] = [0.3, -1.0]
    with pytest.raises(ValueError, match="no energy"):
        glrt_statistic(batch, x, scalar_codebook().f)
    with pytest.raises(ValueError, match="no energy"):
        glrt_statistic(batch[1:2], x, scalar_codebook().f)


# ===== Whitened pilot coordinates =====


@pytest.mark.parametrize("design,n", ORACLE_DESIGNS)
def test_whitened_pilot_energies_give_the_statistic(design, n):
    """On frames y = G X + s C w, with C_k = cholesky(F_k^H F_k) colouring
    white w into the combined noise, the pilot-row energy |g + s z|^2 over
    the off-pilot energy s^2 y1, in the coordinates both estimators score
    (g = sqrt(L/N_t) B vec(G), and z, y1 of the full noise draw of w), is
    T / (1 - T) of glrt_statistic: the two routes meet by derivation."""
    k, l, frames, seed = 2, 16, 400, 43
    rng = np.random.default_rng(seed)
    cb = build_approach_codebook(design, 8, n, 8, n, k, seed=5)
    x = make_sync_signal(n, l)
    gains = _complex_normal(rng, (frames, k, n, n)) * rng.uniform(0.0, 2.0, (frames, 1, 1, 1))
    vec_g = gains.swapaxes(2, 3).reshape(frames, -1).T  # [vec(G_k)]_k, one column per frame
    g = math.sqrt(l / n) * _whiten(_combiner_whitener(cb), vec_g)
    pilot = x.conj().T * math.sqrt(n / l)
    z, y1 = _full_noise(pilot, (k, n, l), np.random.default_rng(seed + 1), frames)
    w = _complex_normal(np.random.default_rng(seed + 1), (frames, k, n, l))
    chol = np.stack([np.linalg.cholesky(f.conj().T @ f) for f in cb.f])
    # s >= 0.3 keeps T away from 1, where 1 - T would round away digits.
    for s in (0.3, 1.0, 2.5, 10.0):
        t = glrt_statistic(np.einsum("ckab,bl->ckal", gains, x) + s * (chol @ w), x, cb.f)
        ratio = np.sum(np.abs(g + s * z) ** 2, axis=0) / (s * s * y1)
        assert np.max(np.abs(ratio * (1.0 - t) / t - 1.0)) <= 1e-12
        assert 0.05 < np.median(t) < 0.95, "the statistic should not sit at an extreme"


# ===== Threshold calibration =====


def test_threshold_frozen_desk_point():
    gamma = threshold_from_fa(1e-2, 1, 64, 2, 2)
    assert abs(gamma - 0.0769301181402087) <= 1e-12
    assert abs(fa_closed_form(gamma, 1, 64, 2, 2) - 1e-2) <= 1e-12


# Bisection output, pinned to the last bit: the paper-sec6 shape (1, 64, 2, 2)
# and the large calibration shape (16, 256, 4, 4), one target per decade.
@pytest.mark.parametrize("pfa,shape,want", [
    (1e-4, (1, 64, 2, 2), "0.11911161206682172"),
    (1e-1, (16, 256, 4, 4), "0.01687865974124378"),
    (1e-2, (16, 256, 4, 4), "0.01796540747312278"),
    (1e-3, (16, 256, 4, 4), "0.018787936520624077"),
    (1e-4, (16, 256, 4, 4), "0.019482879630437405"),
    (1e-5, (16, 256, 4, 4), "0.020099373472097642"),
    (1e-6, (16, 256, 4, 4), "0.0206615554315194"),
])
def test_threshold_frozen_bits(pfa, shape, want):
    assert repr(threshold_from_fa(pfa, *shape)) == want


def test_threshold_exact_binomial_midpoint():
    # K=1, L=2, N_r=N_t=1: FA(gamma) = 1 - gamma, so the 0.5 target is exact.
    assert abs(threshold_from_fa(0.5, 1, 2, 1, 1) - 0.5) <= 1e-12


@pytest.mark.parametrize("pfa", [1e-1, 1e-2, 1e-4])
def test_threshold_round_trips_through_fa(pfa):
    gamma = threshold_from_fa(pfa, 2, 32, 2, 1)
    assert abs(fa_closed_form(gamma, 2, 32, 2, 1) - pfa) <= 1e-12 * pfa + 1e-15


def test_threshold_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        threshold_from_fa(1e-2, 1, 2, 1, 2)  # signal dim reaches observation dim
    with pytest.raises(ValueError):
        threshold_from_fa(0.0, 1, 64, 2, 2)


def test_threshold_bisection_stops_when_the_bracket_stalls(monkeypatch):
    """Above 0.5 adjacent doubles are 1.1e-16 apart, so the bracket never
    narrows to 1e-16; the bisection stops once no double lies inside it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fa_closed_form(*args)

    monkeypatch.setattr(detector, "fa_closed_form", counted)
    assert repr(threshold_from_fa(1e-2, 1, 8, 2, 2)) == "0.5285144348537301"
    assert len(calls) <= 60


def test_threshold_guard_is_relative(monkeypatch):
    """A law that jumps across a 1e-13 target, missing it by 1e-11 relative,
    is within 1e-12 absolute but must not pass calibration. The law's rounding
    grows with n = K*L*N_r - 1, so past n = 4503 the guard is n*2**-52
    relative: a 2e-12 miss passes at n = 16383 but not at n = 15."""
    def stepped(target, miss):
        return lambda gamma, *dims: target * (1 + miss if gamma < 0.5 else 1 - miss)

    monkeypatch.setattr(detector, "fa_closed_form", stepped(1e-13, 1e-11))
    with pytest.raises(ArithmeticError):
        threshold_from_fa(1e-13, 1, 8, 2, 2)
    monkeypatch.setattr(detector, "fa_closed_form", stepped(1e-6, 2e-12))
    assert threshold_from_fa(1e-6, 16, 256, 4, 4) == 0.5
    with pytest.raises(ArithmeticError):
        threshold_from_fa(1e-6, 1, 8, 2, 2)


def test_false_alarm_rate_matches_closed_form():
    """3000 noise-only frames through the batched statistic vs the analytic law."""
    cb = scalar_codebook()
    x = make_sync_signal(1, 8)
    gamma = threshold_from_fa(0.1, 1, 8, 1, 1)
    rng = np.random.default_rng(101)
    trials = 3000
    t = glrt_statistic(_complex_normal(rng, (trials, 1, 1, 8)), x, cb.f)
    rate = float(np.mean(t > gamma))
    stderr = math.sqrt(0.1 * 0.9 / trials)
    assert abs(rate - 0.1) <= 3 * stderr, f"false alarm rate {rate:.4f} vs 0.1 +- {3 * stderr:.4f}"


# ===== The full estimator's frame chain =====


@pytest.mark.parametrize("model", ["geometric", "iid", "noise-only"])
def test_full_drop_matches_per_frame_oracle(model):
    """One drop of the full estimator, drawn again from its seed in the same
    order (angles, gain variables, white noise that each slot's Cholesky
    factor of F_k^H F_k colours into F_k^H Z_k), synthesized frame by frame
    and scored by the loop oracle, gives the same miss counts.  The i.i.d.
    model draws the effective channels through the eigen-factor of
    build_R_iid, one column per frame; the minimum-norm antenna channel
    pinv(F_k^H) G_k pinv(W_k) reproduces them."""
    k, m_t, m_r, n, l, frames = 2, 8, 4, 2, 8, 60
    geometric = model == "geometric"
    channel = ChannelConfig(beta=(0.3, 0.7), f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S,
                            model="iid" if model == "iid" else "geometric")
    config = ExperimentConfig(
        approach="random-phase", k=k, m_t=m_t, m_r=m_r, n_t=n, n_r=n, l=l, channel=channel,
        snr_db_list=(-6.0, -3.0), drops=1, frames_per_drop=frames, estimator="full",
        master_seed=9)
    gamma = threshold_from_fa(0.2, k, l, n, n)
    cb = experiment_codebook(config)
    x = make_sync_signal(n, l)
    corr = correlation_matrix(channel, k)
    noise_vars = (1.0,) if model == "noise-only" else (10.0 ** 0.6, 10.0 ** 0.3)
    no_signal = np.zeros((k * n * n, 0))
    plan = _plan(config, gamma, noise_vars, no_signal if model == "noise-only" else None)
    counts, trials = _drop("full", plan, 0)
    assert trials == frames

    rng = np.random.default_rng(derive_seed(9, 0))
    h = [None] * frames
    if geometric:
        paths = sample_paths(channel, rng)
        xi = _complex_normal(rng, (2, k, frames))
        for c in range(frames):
            h[c] = [sum(math.sqrt(channel.beta[p]) * (corr.sqrt_factor[s] @ xi[p, :, c])
                        * np.outer(steering(paths.theta_r[p], m_r),
                                   steering(paths.theta_t[p], m_t).conj())
                        for p in range(2)) for s in range(k)]
    elif model == "iid":
        factor = _cov_factor(build_R_iid(cb, corr.psi))
        g = factor @ _complex_normal(rng, (factor.shape[1], frames))
        for c in range(frames):
            slots = g[:, c].reshape(k, n * n)
            h[c] = [np.linalg.pinv(cb.f[s].conj().T)
                    @ slots[s].reshape((n, n), order="F") @ np.linalg.pinv(cb.w[s])
                    for s in range(k)]
    w = _complex_normal(rng, (frames, k, n, l))
    chol = [np.linalg.cholesky(f.conj().T @ f) for f in cb.f]
    noise = [[chol[s] @ w[c, s] for s in range(k)] for c in range(frames)]
    want = [sum(loop_glrt_statistic(synthesize_oracle(cb, x, h[c], noise[c], nv), cb, x)[0]
                <= gamma for c in range(frames)) for nv in noise_vars]
    assert counts.tolist() == want
    assert 0 < want[-1] < frames, "the counts should not be trivial"


def test_full_drop_noise_has_combiner_covariance(monkeypatch):
    """The combined noise F_k^H Z_k has covariance F_k^H F_k per slot, so
    whitened by C_k^-1 it is white, and that is what the full drop scores:
    its pilot coordinates are i.i.d. CN(0, 1) (no covariance across entries,
    no pseudo-covariance) and its off-pilot energy has mean
    K*N_r*(L - N_t).  The codebook's Grams differ between slots and are not
    multiples of I, so a drop that skipped whitening would see coloured
    noise in the statistic; the noise-only full route then meets the
    closed-form false alarm."""
    k, m, n, l = 3, 8, 2, 4
    channel = ChannelConfig(beta=(1.0,), f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S)
    config = ExperimentConfig(
        approach="random-phase", k=k, m_t=m, m_r=m, n_t=1, n_r=n, l=l, channel=channel,
        snr_db_list=(), p_fa_target=0.1, drops=1, frames_per_drop=20000, estimator="full",
        master_seed=12)
    grams = [f.conj().T @ f for f in experiment_codebook(config).f]
    for g in grams:
        assert abs(g[0, 1]) > 0.1 * abs(g[0, 0]), "the Gram should not be a multiple of I"
    assert np.max(np.abs(grams[1] - grams[0])) > 0.1 * abs(grams[0][0, 0])

    seen = []

    def record(*args):
        seen.append(_full_noise(*args))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr("omnisync.montecarlo._full_noise", record)
        _drop("full", _plan(config, 0.5, (1.0,), np.zeros((k * n, 0))), 0)
    z = np.concatenate([zc for zc, _ in seen], axis=1)  # (K*N_r*N_t, frames)
    y1 = np.concatenate([y for _, y in seen])
    frames = config.frames_per_drop
    assert z.shape == (k * n, frames)
    sigma = 1.0 / math.sqrt(frames)
    assert np.max(np.abs(z @ z.conj().T / frames - np.eye(k * n)) / sigma) <= 4.0
    assert np.max(np.abs(z @ z.T / frames) / sigma) <= 4.0
    d = k * n * (l - 1)
    assert abs(np.mean(y1) - d) <= 4.0 * math.sqrt(d / frames)

    row = estimate_fa(replace(config, drops=10, frames_per_drop=500))
    exact = fa_closed_form(row.gamma, k, l, n, 1)
    band = 3 * math.sqrt(exact * (1.0 - exact) / row.trials)
    assert abs(row.p_md_hat - exact) <= band, (
        f"fa {row.p_md_hat:.4f} vs closed form {exact:.4f} +- {band:.4f}")
