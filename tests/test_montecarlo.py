"""Monte Carlo engine tests: seed derivation, config validation, estimator
agreement, calibration against the closed-form false alarm, stderr sanity,
slope fitting, worker determinism, and CSV formatting.

Every randomized check runs from a frozen master seed, so the suite is
reproducible run to run.
"""

import math
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from omnisync import montecarlo
from omnisync.analysis import build_R_iid, fa_closed_form, path_factor
from omnisync.channel import (
    SEC6_DOPPLER_HZ,
    SEC6_SLOT_INTERVAL_S,
    ChannelConfig,
    _complex_normal,
    correlation_matrix,
    sample_paths,
)
from omnisync.codebook import zc_precoder
from omnisync.detector import threshold_from_fa
from omnisync.montecarlo import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    _cov_factor,
    _drop,
    _merge_counts,
    _plan,
    _Plan,
    derive_seed,
    estimate_fa,
    estimate_slope,
    experiment_codebook,
    results_to_csv,
    run_md_full,
    run_md_reduced,
    sweep,
    write_results_csv,
)
from oracles import loop_whitener


def make_config(approach="omni-golay", k=1, m_t=16, m_r=16, n_t=2, n_r=2, l=16,
                snr=(-6.0,), model="geometric", **kwargs):
    channel = ChannelConfig(beta=(1.0,), f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S,
                            model=model)
    base = dict(approach=approach, k=k, m_t=m_t, m_r=m_r, n_t=n_t, n_r=n_r, l=l,
                channel=channel, snr_db_list=snr, drops=10, frames_per_drop=100,
                master_seed=1)
    base.update(kwargs)
    return ExperimentConfig(**base)


def row_for(snr_db, p_md_hat):
    return ResultRow(approach="omni-golay", k=1, snr_db=snr_db, gamma=0.1,
                     p_fa_target=0.01, p_md_hat=p_md_hat, p_md_stderr=0.001,
                     p_md_asym=None, trials=10000, seed=1)


# ===== Seed derivation =====


def test_derive_seed_frozen_vectors():
    # (0, 0) reproduces the published splitmix64 output for state 0.
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4


def test_derive_seed_distinct_and_in_range():
    seen = {derive_seed(m, d) for m in range(4) for d in range(256)}
    assert len(seen) == 4 * 256, "seed collisions across (master, drop) pairs"
    assert all(0 <= s < 2**64 for s in seen)


# ===== Config validation and codebook dispatch =====


@pytest.mark.parametrize("kwargs", [
    dict(approach="mystery"),
    dict(estimator="exact"),
    dict(drops=0),
    dict(frames_per_drop=0),
    dict(p_fa_target=1.5),
    dict(n_t=16, l=16),          # signal occupies the whole slot
    dict(snr=(math.nan,)),
    dict(snr=(0.0, math.inf)),
    dict(k=0),
    dict(m_t=0),
    dict(m_r=0),
    dict(n_r=0),
])
def test_experiment_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        make_config(**kwargs)


def test_experiment_config_normalizes_snr_list():
    config = make_config(snr=[0, -3])
    assert config.snr_db_list == (0.0, -3.0)
    assert all(isinstance(s, float) for s in config.snr_db_list)


def test_experiment_codebook_dispatch():
    omni = experiment_codebook(make_config())
    assert omni.design == "omni-golay" and omni.m_t == 16 and omni.n_t == 2

    zc = experiment_codebook(make_config(approach="quasi-omni-zc", m_t=64, n_t=1,
                                         zc_root=3))
    assert np.array_equal(zc.w[0], zc_precoder(64, 3))

    rnd_kwargs = dict(approach="random-phase", n_t=1, n_r=1)
    again = experiment_codebook(make_config(master_seed=9, **rnd_kwargs))
    assert np.array_equal(
        experiment_codebook(make_config(master_seed=9, **rnd_kwargs)).w[0],
        again.w[0]), "random design must be a pure function of master_seed"
    other = experiment_codebook(make_config(master_seed=10, **rnd_kwargs))
    assert not np.array_equal(again.w[0], other.w[0])


# ===== Estimator agreement (reduced vs full) =====


AGREEMENT_CASES = [
    (1, 1, 8, 0.0),
    (1, 1, 64, -8.0),
    (1, 2, 8, -2.0),
    (1, 2, 64, -10.0),
    (2, 1, 8, 0.0),
    (2, 1, 64, -8.0),
    (2, 2, 8, -2.0),
    (2, 2, 64, -10.0),
]


# Random-phase combiners with N_r = 2 have Grams far from I, so only whitened
# signal factors make the two samplers agree there.
@pytest.mark.parametrize("k,n,l,snr,model,approach", [
    *(pytest.param(*case, "geometric", "omni-golay" if case[1] == 2 else "random-phase",
                   id="-".join(map(str, case))) for case in AGREEMENT_CASES),
    pytest.param(2, 1, 8, 0.0, "iid", "random-phase", id="iid-2-1-8-0.0"),
    pytest.param(2, 2, 8, -2.0, "iid", "omni-golay", id="iid-2-2-8--2.0"),
    pytest.param(2, 2, 8, 0.0, "geometric", "random-phase", id="random-phase-2-2-8-0.0"),
    pytest.param(2, 2, 64, -6.0, "geometric", "random-phase", id="random-phase-2-2-64--6.0"),
    pytest.param(2, 2, 8, 0.0, "iid", "random-phase", id="iid-random-phase-2-2-8-0.0"),
])
def test_reduced_and_full_estimators_agree(k, n, l, snr, model, approach):
    """Same drop population, two samplers, 3 sigma agreement on 8000 frames."""
    kwargs = dict(approach=approach, k=k, m_t=8, m_r=8, n_t=n, n_r=n, l=l, model=model,
                  snr=(snr,), drops=20, frames_per_drop=400, master_seed=7)
    red = run_md_reduced(make_config(**kwargs))[0]
    ful = run_md_full(make_config(estimator="full", **kwargs))[0]
    assert 0.02 < red.p_md_hat < 0.9, f"cell drifted out of calibration: {red.p_md_hat}"
    combined = math.hypot(red.p_md_stderr, ful.p_md_stderr)
    diff = abs(red.p_md_hat - ful.p_md_hat)
    assert diff <= 3 * combined, (
        f"estimators disagree at k={k} n={n} l={l}: "
        f"reduced {red.p_md_hat:.4f} vs full {ful.p_md_hat:.4f} (3 sigma {3 * combined:.4f})")


@pytest.mark.parametrize("model", ["geometric", "iid"])
def test_reduced_drop_matches_direct_count(model):
    """One drop of the reduced estimator, drawn again from its seed in the
    same order, counts |sigma eta + s z|^2 + s^2 E <= t s^2 y1 directly at
    every s^2.  sigma holds the singular values of sqrt(L/N_t) B S, the
    factor whitened by the block-diagonal B = blockdiag_k(I_{N_t} kron
    C_k^-1) built here from the combiners; after the angles come eta and z
    (one white entry per singular value), the pilot noise energy E ~
    Gamma(q - r) outside the factor's range (none when r = q, as for the
    full-rank i.i.d. factor) and y1 ~ Gamma(K N_r (L - N_t))."""
    k, n, l, frames = 2, 2, 8, 3000
    q = k * n * n
    channel = ChannelConfig(beta=(0.3, 0.7), f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S,
                            model=model)
    config = ExperimentConfig(
        approach="random-phase", k=k, m_t=8, m_r=8, n_t=n, n_r=n, l=l, channel=channel,
        snr_db_list=(-6.0, -3.0, 0.0, 3.0), drops=1, frames_per_drop=frames, master_seed=17)
    gamma = threshold_from_fa(0.1, k, l, n, n)
    noise_vars = tuple(10.0 ** (-s / 10.0) for s in config.snr_db_list)
    counts, trials = _drop("reduced", _plan(config, gamma, noise_vars, None), 0)
    assert trials == frames

    cb = experiment_codebook(config)
    corr = correlation_matrix(channel, k)
    rng = np.random.default_rng(derive_seed(17, 0))
    if model == "iid":
        factor = _cov_factor(build_R_iid(cb, corr.psi))
    else:
        factor = path_factor(cb, sample_paths(channel, rng), channel.beta, corr.sqrt_factor)
    sigma = np.linalg.svd(math.sqrt(l / n) * loop_whitener(cb) @ factor, compute_uv=False)
    r = sigma.size
    assert r == (q if model == "iid" else 2 * k), "both rank cases should be exercised"
    g = sigma[:, None] * _complex_normal(rng, (r, frames))
    z = _complex_normal(rng, (r, frames))
    outside = rng.gamma(q - r, 1.0, size=frames) if r < q else 0.0
    y1 = rng.gamma(k * n * (l - n), 1.0, size=frames)
    t_ratio = gamma / (1.0 - gamma)
    want = [int(np.sum(np.sum(np.abs(g + math.sqrt(nv) * z) ** 2, axis=0) + nv * outside
                       <= t_ratio * nv * y1))
            for nv in noise_vars]
    assert counts.tolist() == want
    assert 0 < want[-1] < want[0] < frames, "the counts should not be trivial"


@pytest.mark.parametrize("width", [1, 12])
def test_reduced_drop_reads_only_the_spectrum(monkeypatch, width):
    """The miss law depends on the drop's factor A only through its singular
    values, and the reduced route draws nothing else: U A V, for seeded
    random unitaries U and V, gives A's counts.  q = 4, so width 1 has
    r < q, as at the paper-sec6 shape, and width 12 has r = q < width, as
    in the multipath runs."""
    config = make_config(snr=(-9.0, -3.0, 3.0), drops=3, frames_per_drop=2000, master_seed=29)
    q = config.k * config.n_r * config.n_t
    gamma = threshold_from_fa(config.p_fa_target, config.k, config.l, config.n_r, config.n_t)
    noise_vars = tuple(10.0 ** (-s / 10.0) for s in config.snr_db_list)
    rng = np.random.default_rng(31)
    a = _complex_normal(rng, (q, width)) / math.sqrt(width)
    u, v = (np.linalg.qr(_complex_normal(rng, (m, m)))[0] for m in (q, width))

    def counts_for(factor):
        monkeypatch.setattr(montecarlo, "_drop_factor", lambda plan, drop_rng: factor)
        plan = _plan(config, gamma, noise_vars, None)
        return _merge_counts([_drop("reduced", plan, d) for d in range(config.drops)],
                             len(noise_vars))

    counts, trials = counts_for(a)
    rotated, _ = counts_for(u @ a @ v)
    assert rotated.tolist() == counts.tolist()
    assert 0 < counts[-1] < counts[0] < trials, "the counts should not be trivial"


@pytest.mark.parametrize("estimator", ["reduced", "full"])
def test_snr_points_share_their_draws(estimator):
    """Every SNR point scores the same signal and noise draws, so adding a
    point leaves the counts at the others unchanged."""
    kwargs = dict(approach="random-phase", k=2, m_t=8, m_r=8, n_t=1, n_r=1, l=8,
                  drops=6, frames_per_drop=300, estimator=estimator, master_seed=23)
    two = sweep(make_config(snr=(-6.0, 0.0), **kwargs))
    three = sweep(make_config(snr=(-6.0, 0.0, 6.0), **kwargs))
    assert three[:2] == two
    assert all(0.0 < row.p_md_hat < 1.0 for row in two)


def test_run_md_handles_empty_snr_list():
    assert run_md_reduced(make_config(snr=())) == []


# ===== Calibration checks =====


def test_null_covariance_recovers_false_alarm_complement():
    """With a zero-width signal factor a miss is just a non-alarm."""
    config = make_config(snr=(0.0,), drops=40, frames_per_drop=500, master_seed=8)
    gamma = threshold_from_fa(config.p_fa_target, 1, config.l, 2, 2)
    plan = _Plan(config, gamma, (1.0,), experiment_codebook(config),
                 correlation_matrix(config.channel, 1).sqrt_factor, None, np.zeros((4, 0)))
    counts, trials = _merge_counts([_drop("reduced", plan, d) for d in range(config.drops)], 1)
    stderr = math.sqrt(0.99 * 0.01 / trials)
    assert abs(counts[0] / trials - 0.99) <= 3 * stderr


def test_estimate_fa_hits_target():
    config = make_config(snr=(), p_fa_target=0.05, drops=40, frames_per_drop=500,
                         master_seed=2)
    row = estimate_fa(config)
    assert math.isnan(row.snr_db)
    assert row.trials == 20000
    band = 3 * math.sqrt(0.05 * 0.95 / 20000)
    assert abs(row.p_md_hat - 0.05) <= band, f"fa {row.p_md_hat:.4f} vs 0.05 +- {band:.4f}"
    assert abs(row.p_md_asym - 0.05) <= 1e-9


def test_estimate_fa_explicit_gamma_edges():
    for estimator in ("reduced", "full"):
        config = make_config(snr=(), drops=5, frames_per_drop=200, estimator=estimator)
        assert estimate_fa(config, gamma=0.0).p_md_hat == 1.0
        assert estimate_fa(config, gamma=0.9).p_md_hat == 0.0
        with pytest.raises(ValueError):
            estimate_fa(config, gamma=1.0)


def test_estimate_fa_full_estimator_route():
    config = make_config(approach="random-phase", m_t=4, m_r=4, n_t=1, n_r=1, l=8,
                         snr=(), p_fa_target=0.1, drops=10, frames_per_drop=300,
                         estimator="full", master_seed=3)
    row = estimate_fa(config)
    band = 3 * math.sqrt(0.1 * 0.9 / 3000)
    assert abs(row.p_md_hat - 0.1) <= band
    # Pinned to the last bit, and the same for any worker count.
    assert results_to_csv([row]).splitlines()[1] == (
        "random-phase,1,nan,0.28031432699884795,0.1,0.10566666666666667,"
        "0.005612522374780113,0.10000000000000002,3000,3")
    assert estimate_fa(config, workers=2) == row


def test_estimate_fa_reduced_estimator_route():
    """The reduced drop with a zero-width factor: the pilot noise energy
    Gamma(q) against t * y1, pinned to the last bit at any worker count."""
    config = make_config(approach="random-phase", m_t=4, m_r=4, n_t=1, n_r=1, l=8,
                         snr=(), p_fa_target=0.1, drops=10, frames_per_drop=300,
                         estimator="reduced", master_seed=3)
    row = estimate_fa(config)
    band = 3 * math.sqrt(0.1 * 0.9 / 3000)
    assert abs(row.p_md_hat - 0.1) <= band
    assert results_to_csv([row]).splitlines()[1] == (
        "random-phase,1,nan,0.28031432699884795,0.1,0.10366666666666667,"
        "0.005565365782794181,0.10000000000000002,3000,3")
    assert estimate_fa(config, workers=2) == row


@pytest.mark.parametrize("estimator", ["reduced", "full"])
def test_estimate_fa_rejects_unbuildable_codebook(estimator):
    """Both routes build the run's codebook, as sweep does."""
    config = make_config(n_t=3, snr=(0.0,), drops=2, frames_per_drop=10, estimator=estimator)
    with pytest.raises(ValueError):
        sweep(config)
    with pytest.raises(ValueError):
        estimate_fa(config)


def test_full_estimator_geometric_csv_is_pinned():
    """Two paths, drops sampling their own path factors: pinned to the last
    bit, and the same for any worker count."""
    channel = ChannelConfig(beta=(0.4, 0.6), f_d=SEC6_DOPPLER_HZ, t_s=SEC6_SLOT_INTERVAL_S)
    config = ExperimentConfig(
        approach="random-phase", k=2, m_t=8, m_r=8, n_t=2, n_r=2, l=8, channel=channel,
        snr_db_list=(-6.0, 0.0), drops=4, frames_per_drop=300, estimator="full",
        master_seed=21)
    text = results_to_csv(run_md_full(config))
    assert text.splitlines()[1:] == [
        "random-phase,2,-6.0,0.4442916979599707,0.01,0.7833333333333333,"
        "0.01189265257144869,,1200,21",
        "random-phase,2,0.0,0.4442916979599707,0.01,0.29083333333333333,"
        "0.013110088531215047,,1200,21",
    ]
    assert results_to_csv(run_md_full(config, workers=2)) == text


def test_md_nonincreasing_in_snr():
    config = make_config(snr=(-14.0, -10.0, -6.0, -2.0), drops=100,
                         frames_per_drop=400, master_seed=5)
    rows = run_md_reduced(config)
    for lo, hi in zip(rows, rows[1:]):
        slack = 3 * (lo.p_md_stderr + hi.p_md_stderr)
        assert hi.p_md_hat <= lo.p_md_hat + slack, (
            f"MD rose from {lo.p_md_hat:.4f} at {lo.snr_db} dB "
            f"to {hi.p_md_hat:.4f} at {hi.snr_db} dB")


def test_binomial_stderr_matches_drop_bootstrap_on_homogeneous_config():
    """The i.i.d. channel makes drops exchangeable, so the pooled binomial
    stderr and a drop-level bootstrap must agree (within 20% here)."""
    p_drop = []
    for master in range(100, 160):
        config = make_config(m_t=2, m_r=2, l=8, model="iid", snr=(-4.0,),
                             drops=1, frames_per_drop=170, master_seed=master)
        p_drop.append(run_md_reduced(config)[0].p_md_hat)
    p_drop = np.array(p_drop)
    pbar = float(p_drop.mean())
    rng = np.random.default_rng(2024)
    boot = float(rng.choice(p_drop, size=(4000, 60), replace=True).mean(axis=1).std(ddof=1))
    binom = math.sqrt(pbar * (1.0 - pbar) / (60 * 170))
    assert abs(boot / binom - 1.0) <= 0.2, f"bootstrap {boot:.5f} vs binomial {binom:.5f}"


# ===== Sweep dispatch and slope fitting =====


def test_sweep_dispatches_on_estimator():
    kwargs = dict(approach="random-phase", m_t=4, m_r=4, n_t=1, n_r=1, l=8,
                  snr=(0.0,), drops=5, frames_per_drop=100, master_seed=6)
    reduced_config = make_config(**kwargs)
    assert sweep(reduced_config) == run_md_reduced(reduced_config)
    full_config = make_config(estimator="full", **kwargs)
    assert sweep(full_config) == run_md_full(full_config)


def test_estimate_slope_exact_decade():
    rows = [row_for(10.0, 0.005), row_for(0.0, 0.05)]
    assert abs(estimate_slope(rows) - 1.0) <= 1e-12, "one decade over 10 dB is slope 1"
    steeper = [row_for(0.0, 0.08), row_for(5.0, 0.0008)]
    assert abs(estimate_slope(steeper) - 4.0) <= 1e-12


@pytest.mark.parametrize("rows", [
    [row_for(0.0, 0.05)],
    [row_for(0.0, 0.05), row_for(5.0, 0.01), row_for(10.0, 0.001)],
    [row_for(0.0, 0.05), row_for(0.0, 0.01)],
    [row_for(0.0, 0.5), row_for(10.0, 0.01)],
    [row_for(0.0, 0.05), row_for(10.0, 0.0)],
])
def test_estimate_slope_rejects_bad_inputs(rows):
    with pytest.raises(ValueError):
        estimate_slope(rows)


# ===== Worker determinism and CSV output =====


def test_worker_count_does_not_change_results():
    config = make_config(m_r=4, l=8, snr=(-6.0, -2.0), drops=12,
                         frames_per_drop=300, master_seed=4)
    rows_serial = run_md_reduced(config, workers=1)
    rows_pool = run_md_reduced(config, workers=3)
    assert rows_serial == rows_pool
    assert results_to_csv(rows_serial) == results_to_csv(rows_pool)
    fa_serial = estimate_fa(config, workers=1)
    fa_pool = estimate_fa(config, workers=4)
    assert fa_serial == fa_pool


def test_worker_count_does_not_change_multipath_results():
    """Four paths: every drop samples through its own explicit factor."""
    channel = ChannelConfig(beta=(0.1, 0.2, 0.3, 0.4), f_d=SEC6_DOPPLER_HZ,
                            t_s=SEC6_SLOT_INTERVAL_S)
    config = ExperimentConfig(
        approach="quasi-omni-zc", k=4, m_t=16, m_r=8, n_t=1, n_r=2, l=16, channel=channel,
        snr_db_list=(-10.0, -4.0), drops=12, frames_per_drop=200, master_seed=4)
    serial = results_to_csv(run_md_reduced(config, workers=1))
    assert serial == results_to_csv(run_md_reduced(config, workers=2))


def test_spawned_workers_match_serial(monkeypatch):
    """Workers started by spawn import omnisync afresh and receive the run
    only by pickling; a reduced P=4 run and a full run, and the noise-only
    run of each, still give the serial CSV bytes.  The configs stay tiny:
    spawn start-up dominates."""
    spawn = multiprocessing.get_context("spawn")
    started = []

    def get_context():
        started.append(spawn)
        return spawn

    channel = ChannelConfig(beta=(0.1, 0.2, 0.3, 0.4), f_d=SEC6_DOPPLER_HZ,
                            t_s=SEC6_SLOT_INTERVAL_S)
    reduced = ExperimentConfig(
        approach="quasi-omni-zc", k=2, m_t=8, m_r=4, n_t=1, n_r=2, l=8, channel=channel,
        snr_db_list=(-6.0, 0.0), drops=4, frames_per_drop=50, master_seed=8)
    full = make_config(m_t=8, m_r=4, l=8, snr=(-6.0, 0.0), drops=4, frames_per_drop=50,
                       estimator="full", master_seed=8)
    def run(config, workers):
        rows = sweep(config, workers=workers) + [estimate_fa(config, workers=workers)]
        return results_to_csv(rows)

    serial = [run(c, 1) for c in (reduced, full)]
    monkeypatch.setattr(montecarlo, "multiprocessing", SimpleNamespace(get_context=get_context))
    assert [run(c, 2) for c in (reduced, full)] == serial
    assert len(started) == 4, "every run should go through a spawn pool"


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_is_rejected(workers):
    config = make_config(drops=2, frames_per_drop=10)
    with pytest.raises(ValueError, match="workers"):
        run_md_reduced(config, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        estimate_fa(config, workers=workers)


def test_results_csv_formatting(tmp_path):
    rows = [row_for(0.0, 0.5),
            ResultRow(approach="dft-sweep", k=8, snr_db=-2.5, gamma=0.25,
                      p_fa_target=0.01, p_md_hat=0.125, p_md_stderr=0.01,
                      p_md_asym=0.0625, trials=64, seed=3)]
    text = results_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "omni-golay,1,0.0,0.1,0.01,0.5,0.001,,10000,1"
    assert lines[2] == "dft-sweep,8,-2.5,0.25,0.01,0.125,0.01,0.0625,64,3"
    assert text.endswith("\n")
    # Values survive a parse round trip at full precision.
    fields = lines[2].split(",")
    assert float(fields[5]) == 0.125

    path = tmp_path / "rows.csv"
    write_results_csv(rows, str(path))
    assert path.read_text(encoding="utf-8") == text
