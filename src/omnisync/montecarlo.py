"""Deterministic parallel Monte Carlo for missed detection and false alarm.

Experiments run as drops x frames: a drop fixes the path angles (and hence
the factor S of the effective covariance R = S S^H), frames are independent
fading/noise realizations inside the drop, and missed-detection counts are
pooled over all drops and frames per SNR point.  Per-drop seeds come from a
fixed 64-bit mix of the master seed and the drop index, and the per-drop
frame stream is chunked by a config-determined size, so results are
byte-identical for any worker count.

Both estimators score a frame in combiner-whitened pilot coordinates: after
slot k is whitened by C_k^-1 (C_k = cholesky(F_k^H F_k)), the detector's
numerator is the frame's energy on the pilot rows and its denominator adds
the energy off them.  One drop loop serves both.  The signal's pilot
coordinates are g = sqrt(L/N_t) B S xi, with S the drop's covariance factor
and B = blockdiag_k(I_{N_t} (x) C_k^-1).  "full" draws xi and the whitened
post-combining noise frames, and reads the noise's pilot coordinates and
off-pilot energy off them.  "reduced" uses that the miss law depends on the
factor only through its singular values: it draws the signal and the noise
in the factor's singular basis, one white entry of each per singular value,
plus the pilot noise energy outside the factor's range and the off-pilot
energy as Gamma variates.  Each chunk of frames is scored once: one signal
and one noise draw serve every SNR point (common random numbers), so a
frame's miss test is a quadratic in sqrt(noise_var) with per-frame
coefficients computed once per chunk.  Where the whitened spectrum does not
depend on the drop (the i.i.d. model, or one path through the flat design),
it gives the p_md_asym column.  False alarm is the signal-free run of
either estimator: a zero-width factor at unit noise variance, where a frame
not missed is an alarm.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analysis import _numerical_rank, asymptotic_md, build_R_iid, fa_closed_form, path_factor
from .channel import ChannelConfig, PathSet, _complex_normal, correlation_matrix, sample_paths
from .codebook import NAMED_DESIGNS, UNITARY_TOL, Codebook, build_approach_codebook
from .detector import make_sync_signal, threshold_from_fa

DESK_P_FA = 1e-2
ESTIMATORS = ("reduced", "full")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CODEBOOK_TAG = 1 << 48


def mix64(state: int) -> int:
    """Fixed 64-bit scrambler (splitmix64 finalizer)."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Entry `index` of the splittable seed stream rooted at master_seed."""
    return mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


# ===== Configuration and result rows =====


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    snr_db_list entries are -10*log10(noise_var); the desk-scale false-alarm
    default of 1e-2 keeps trial counts tractable, the 1e-4 production target
    is a config choice away.
    """

    approach: str
    k: int
    m_t: int
    m_r: int
    n_t: int
    n_r: int
    l: int
    channel: ChannelConfig
    snr_db_list: tuple[float, ...]
    p_fa_target: float = DESK_P_FA
    drops: int = 100
    frames_per_drop: int = 1000
    estimator: str = "reduced"
    master_seed: int = 1
    zc_root: int = 1

    def __post_init__(self):
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise ValueError(f"SNR points must be finite, got {self.snr_db_list!r}")
        if self.approach not in NAMED_DESIGNS:
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be 'reduced' or 'full', got {self.estimator!r}")
        if self.drops < 1 or self.frames_per_drop < 1:
            raise ValueError("drops and frames_per_drop must be at least 1")
        if not 0.0 < self.p_fa_target < 1.0:
            raise ValueError("false-alarm target must be inside (0, 1)")
        if not 1 <= self.n_t < self.l:
            raise ValueError("need 1 <= n_t < l for a well-posed detector")
        for mine, theirs, name in ((self.m_t, self.channel.m_t, "m_t"),
                                   (self.m_r, self.channel.m_r, "m_r"),
                                   (self.k, self.channel.k, "k")):
            if mine != theirs:
                raise ValueError(f"experiment {name}={mine} disagrees with channel {name}={theirs}")


@dataclass(frozen=True)
class ResultRow:
    """One estimate: an MD point of a sweep, or (for noise-only runs) the
    false-alarm fraction carried in the same probability fields."""

    approach: str
    k: int
    snr_db: float
    gamma: float
    p_fa_target: float
    p_md_hat: float
    p_md_stderr: float
    p_md_asym: float | None
    trials: int
    seed: int


def experiment_codebook(config: ExperimentConfig) -> Codebook:
    """The per-run codebook; random-phase draws once from a dedicated seed."""
    return build_approach_codebook(
        config.approach, config.m_t, config.n_t, config.m_r, config.n_r, config.k,
        seed=derive_seed(config.master_seed, _CODEBOOK_TAG), zc_root=config.zc_root)


# ===== Shared drop machinery =====


def _map_drops(task, drops: int, workers: int) -> list:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1 or drops <= 1:
        return [task(d) for d in range(drops)]
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=min(workers, drops)) as pool:
        return pool.map(task, range(drops), chunksize=max(1, drops // (workers * 4)))


def _merge_counts(results, n_points: int) -> tuple[np.ndarray, int]:
    counts = np.zeros(n_points, dtype=np.int64)
    trials = 0
    for cnt, frames in results:
        counts += cnt
        trials += frames
    return counts, trials


def _count_misses(counts: np.ndarray, c0, c1, c2, noise_vars) -> None:
    """Adds to counts[i] the frames whose miss quadratic c0 + s * (c1 + s * c2)
    in s = sqrt(noise_vars[i]) is <= 0, the detector's T <= gamma.  c0 and c1
    may be the scalar 0.0 of a signal-free run; one scratch buffer and one
    mask serve every point."""
    out = np.empty_like(c2)
    mask = np.empty(c2.shape, dtype=bool)
    for i, nv in enumerate(noise_vars):
        s = math.sqrt(nv)
        np.multiply(c2, s, out=out)
        out += c1
        out *= s
        out += c0
        counts[i] += int(np.count_nonzero(np.less_equal(out, 0.0, out=mask)))


def _row(config, snr_db: float, gamma: float, hits: int, trials: int, asym) -> ResultRow:
    """The row of hits out of trials: their fraction and its binomial stderr."""
    p = hits / trials
    return ResultRow(
        approach=config.approach, k=config.k, snr_db=float(snr_db), gamma=gamma,
        p_fa_target=config.p_fa_target, p_md_hat=p,
        p_md_stderr=math.sqrt(p * (1.0 - p) / trials),
        p_md_asym=asym, trials=trials, seed=config.master_seed)


# ===== Signal factors and the shared run =====


def _cov_factor(r: np.ndarray) -> np.ndarray:
    """Tall factor S with S S^H = r (columns spanning the numerical rank)."""
    w, v = np.linalg.eigh(r)
    w = w[::-1]
    v = v[:, ::-1]
    rank = _numerical_rank(w, r.shape[0])
    return v[:, :rank] * np.sqrt(np.maximum(w[:rank], 0.0))


def _combiner_whitener(codebook: Codebook) -> np.ndarray | None:
    """Each slot's C_k^-1, C_k = cholesky(F_k^H F_k), stacked (K, N_r, N_r).

    None when every Gram is within UNITARY_TOL of I: whitening those would
    only move last bits (omni-golay Grams are off by 1.1e-16 at M_r = 8).
    """
    grams = np.stack([f.conj().T @ f for f in codebook.f])
    if np.max(np.abs(grams - np.eye(grams.shape[1]))) <= UNITARY_TOL:
        return None
    return np.linalg.inv(np.linalg.cholesky(grams))


def _whiten(cinv: np.ndarray | None, factor: np.ndarray) -> np.ndarray:
    """B S with B = blockdiag_k(I_{N_t} (x) C_k^-1): C_k^-1 applied to each
    transmit stream's N_r rows of slot k, so B R B^H is the covariance of the
    combiner-whitened effective channels."""
    if cinv is None:
        return factor
    k, n_r = cinv.shape[:2]
    blocks = factor.reshape(k, -1, n_r, factor.shape[1])
    return (cinv[:, None] @ blocks).reshape(factor.shape)


@dataclass(frozen=True)
class _Plan:
    """One run of either estimator.  cinv is _combiner_whitener's output and
    fixed_factor the run's whitened signal factor (the i.i.d. model's, or a
    (q, 0) factor for noise-only frames); when it is None every drop
    factors its own path angles.  fixed_sigma, the fixed factor's singular
    values, is computed once when the plan is built."""

    config: ExperimentConfig
    gamma: float
    noise_vars: tuple[float, ...]
    codebook: Codebook
    sqrt_psi: np.ndarray
    cinv: np.ndarray | None
    fixed_factor: np.ndarray | None
    fixed_sigma: np.ndarray | None = field(init=False)

    def __post_init__(self):
        sigma = (None if self.fixed_factor is None
                 else np.linalg.svd(self.fixed_factor, compute_uv=False))
        object.__setattr__(self, "fixed_sigma", sigma)


def _plan(config: ExperimentConfig, gamma: float, noise_vars,
          fixed_factor: np.ndarray | None) -> _Plan:
    """The plan of run_md_reduced, run_md_full and estimate_fa; fixed_factor
    None means the whitened eigen-factor of build_R_iid for the i.i.d.
    model, else per-drop factors."""
    codebook = experiment_codebook(config)
    corr = correlation_matrix(config.channel)
    cinv = _combiner_whitener(codebook)
    if fixed_factor is None and config.channel.model == "iid":
        fixed_factor = _whiten(cinv, _cov_factor(build_R_iid(codebook, corr.psi)))
    return _Plan(config, gamma, noise_vars, codebook, corr.sqrt_factor, cinv, fixed_factor)


def _prediction_spectrum(plan: _Plan) -> np.ndarray | None:
    """Drop-independent spectrum of the whitened effective covariance, when
    one exists: the squared singular values of the run's fixed factor, or,
    for a single path through the flat design, of the whitened path_factor
    at angle 0 (every angle gives the same spectrum).  That single-path
    spectrum has the rank of psi, and its analysis needs it full (rank K)."""
    cfg = plan.config
    if plan.fixed_sigma is not None:
        return plan.fixed_sigma ** 2
    if cfg.channel.p != 1 or cfg.approach != "omni-golay":
        return None
    factor = _whiten(plan.cinv, path_factor(plan.codebook, PathSet(np.zeros(1), np.zeros(1)),
                                            (1.0,), plan.sqrt_psi))
    eigs = np.linalg.svd(factor, compute_uv=False) ** 2
    return eigs if _numerical_rank(eigs, factor.shape[0]) == cfg.k else None


def _drop_factor(plan: _Plan, rng: np.random.Generator) -> np.ndarray:
    """The drop's whitened signal factor B S (S S^H = R): slot-major rows, one
    per entry of vec(C_k^-1 G_k), N_r receive streams within each of N_t
    transmit streams."""
    if plan.fixed_factor is not None:
        return plan.fixed_factor
    cfg = plan.config
    paths = sample_paths(cfg.channel, rng)
    return _whiten(plan.cinv, path_factor(plan.codebook, paths, cfg.channel.beta, plan.sqrt_psi))


def _reduced_chunk(q: int) -> int:
    return min(1 << 16, max(1, (1 << 20) // max(q, 1)))


def _full_chunk(k: int, m_r: int, l: int) -> int:
    return min(4096, max(1, (1 << 19) // (k * m_r * l)))


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a^H b) of every column pair of a and b."""
    return np.einsum("qc,qc->c", a.real, b.real) + np.einsum("qc,qc->c", a.imag, b.imag)


def _full_noise(pilot: np.ndarray, shape: tuple[int, int, int], rng: np.random.Generator,
                c: int):
    """c whitened frames w ~ CN(0, I) of shape (K, N_r, L): their pilot
    coordinates z = w X^H sqrt(N_t / L) (pilot is X^H sqrt(N_t / L), with
    orthonormal columns) in the factor's row order, and their off-pilot
    energy y1 = |w|^2 - |z|^2."""
    w = _complex_normal(rng, (c,) + shape)
    # einsum, not a BLAS product: with threaded OpenBLAS (2-core Xeon) the
    # product took 3 ms per paper-sec6 chunk against 0.15 ms here, and its
    # spinning threads doubled the CPU time of noise-only runs.
    z = np.einsum("ckal,lt->ckat", w, pilot).swapaxes(2, 3).reshape(c, -1).T
    energy = w.reshape(c, -1).view(np.float64)
    return z, np.einsum("ci,ci->c", energy, energy) - _re_inner(z, z)


def _reduced_terms(sigma: np.ndarray, q: int, d_dim: int, t_ratio: float,
                   rng: np.random.Generator, c: int):
    """Miss coefficients of c reduced frames, drawn in the singular basis of
    the drop's signal factor A = sqrt(L / N_t) B S = U diag(sigma) V^H.

    xi and z are white, so V^H xi (eta) and U^H z are white in the r =
    sigma.size coordinates of A's range, and the pilot noise energy outside
    it is Gamma(q - r).  Drawn in that order: eta and z (r x c each), that
    energy (skipped when r = q) and the off-pilot energy y1 ~ Gamma(d_dim).
    The coefficients are c0 = |sigma eta|^2, c1 = 2 Re((sigma eta)^H z) and
    c2 = |z|^2 + Gamma(q - r) - t y1; r = 0 leaves c0 = c1 = 0.
    """
    r = sigma.size
    c0 = c1 = energy = 0.0
    if r:
        g = _complex_normal(rng, (r, c))
        g *= sigma[:, None]
        z = _complex_normal(rng, (r, c))
        c0, c1, energy = _re_inner(g, g), 2.0 * _re_inner(g, z), _re_inner(z, z)
    if r < q:
        energy += rng.gamma(q - r, 1.0, size=c)
    return c0, c1, energy - t_ratio * rng.gamma(d_dim, 1.0, size=c)


def _full_terms(amp_factor: np.ndarray, pilot: np.ndarray, shape: tuple[int, int, int],
                t_ratio: float, rng: np.random.Generator, c: int):
    """Miss coefficients of c full frames: the signal's pilot coordinates
    g = amp_factor xi, then _full_noise's z and y1; c0 = |g|^2,
    c1 = 2 Re(g^H z) and c2 = |z|^2 - t y1.  A zero-width factor skips the
    signal draw and terms."""
    width = amp_factor.shape[1]
    xi = _complex_normal(rng, (width, c)) if width else None
    z, y1 = _full_noise(pilot, shape, rng, c)
    c2 = _re_inner(z, z) - t_ratio * y1
    if not width:
        return 0.0, 0.0, c2
    g = amp_factor @ xi
    return _re_inner(g, g), 2.0 * _re_inner(g, z), c2


def _drop(estimator: str, plan: _Plan, drop_index: int):
    """Misses (T <= gamma) per noise variance in one drop of either estimator.

    T <= gamma is |g + s z|^2 <= t s^2 y1 (t = gamma / (1 - gamma)) in the
    whitened pilot coordinates: the signal's g = sqrt(L / N_t) B S xi and
    the noise's white z and off-pilot energy y1.  That is a quadratic in
    s = sqrt(noise_var) whose per-frame coefficients each chunk draws once
    for every noise variance.  The full route draws all of g, z and y1
    (_full_terms); the reduced route reads only the spectrum of the drop's
    factor (_reduced_terms).
    """
    cfg = plan.config
    rng = np.random.default_rng(derive_seed(cfg.master_seed, drop_index))
    amp = math.sqrt(cfg.l / cfg.n_t)
    t_ratio = plan.gamma / (1.0 - plan.gamma)
    if estimator == "reduced":
        q = cfg.k * cfg.n_r * cfg.n_t
        sigma = (plan.fixed_sigma if plan.fixed_sigma is not None
                 else np.linalg.svd(_drop_factor(plan, rng), compute_uv=False))
        chunk = _reduced_chunk(q)
        terms = partial(_reduced_terms, amp * sigma, q, cfg.k * cfg.n_r * (cfg.l - cfg.n_t),
                        t_ratio)
    else:
        chunk = _full_chunk(cfg.k, cfg.m_r, cfg.l)
        pilot = make_sync_signal(cfg.n_t, cfg.l).conj().T * math.sqrt(cfg.n_t / cfg.l)
        terms = partial(_full_terms, amp * _drop_factor(plan, rng), pilot,
                        (cfg.k, cfg.n_r, cfg.l), t_ratio)
    counts = np.zeros(len(plan.noise_vars), dtype=np.int64)
    remaining = cfg.frames_per_drop
    while remaining > 0:
        c = min(chunk, remaining)
        remaining -= c
        _count_misses(counts, *terms(rng, c), plan.noise_vars)
    return counts, cfg.frames_per_drop


def _run_md(estimator: str, config: ExperimentConfig, workers: int) -> list[ResultRow]:
    if not config.snr_db_list:
        return []
    gamma = threshold_from_fa(config.p_fa_target, config.k, config.l, config.n_r, config.n_t)
    noise_vars = tuple(10.0 ** (-s / 10.0) for s in config.snr_db_list)
    plan = _plan(config, gamma, noise_vars, None)
    results = _map_drops(partial(_drop, estimator, plan), config.drops, workers)
    counts, trials = _merge_counts(results, len(noise_vars))
    eigs = _prediction_spectrum(plan)
    asym = [None if eigs is None else
            asymptotic_md(eigs, gamma, nv, config.k, config.l, config.n_r, config.n_t).value
            for nv in noise_vars]
    return [_row(config, snr, gamma, int(cnt), trials, pred)
            for snr, cnt, pred in zip(config.snr_db_list, counts, asym)]


# ===== The two estimators and false alarm =====


def run_md_reduced(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Missed-detection sweep through the reduced ratio form.

    The miss event depends on the drop's whitened signal factor only through
    its r singular values, so each frame draws r white signal entries scaled
    by them, r white pilot noise entries, the pilot noise energy outside the
    factor's range as a Gamma(K*N_r*N_t - r) variate and the off-pilot noise
    energy as a Gamma(K*N_r*(L-N_t)) variate.  Geometric drops take the
    singular values of analysis.path_factor of their angles; the i.i.d.
    model's fixed factor is decomposed once per run.  These are draws of
    the full estimator's law, not of its random numbers.
    """
    return _run_md("reduced", config, workers)


def run_md_full(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Missed-detection sweep through post-combining frame synthesis.

    Each frame draws the signal through the drop's whitened factor, then its
    combiner-whitened noise C_k^-1 F_k^H Z_k as white N_r x L blocks per
    slot, and reads the detector's numerator and denominator off it: the
    energy on the pilot rows and off them.  It draws every coordinate the
    reduced estimator folds into its singular values and Gamma variates, so
    the two routes sample the same law through different random numbers.
    """
    return _run_md("full", config, workers)


def estimate_fa(config: ExperimentConfig, workers: int = 1,
                gamma: float | None = None) -> ResultRow:
    """Noise-only run; the probability fields carry the false-alarm fraction.

    The configured estimator's drop runs with a zero-width signal factor at
    unit noise variance, so a frame that is not missed is a false alarm.
    gamma defaults to the threshold calibrated for config.p_fa_target; an
    explicit value (including 0) overrides it.  The analytic column holds the
    closed-form false alarm at the same threshold.
    """
    if gamma is None:
        gamma = threshold_from_fa(config.p_fa_target, config.k, config.l, config.n_r, config.n_t)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("threshold must be inside [0, 1)")
    no_signal = np.zeros((config.k * config.n_r * config.n_t, 0))
    task = partial(_drop, config.estimator, _plan(config, gamma, (1.0,), no_signal))
    misses, trials = _merge_counts(_map_drops(task, config.drops, workers), 1)
    return _row(config, math.nan, gamma, trials - int(misses[0]), trials,
                fa_closed_form(gamma, config.k, config.l, config.n_r, config.n_t))


# ===== Sweeps, slopes, CSV =====


def sweep(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """One ResultRow per SNR point, using the configured estimator."""
    if config.estimator == "full":
        return run_md_full(config, workers=workers)
    return run_md_reduced(config, workers=workers)


def estimate_slope(rows) -> float:
    """Diversity-order estimate from two sweep rows at distinct SNRs.

    slope = (log10 p_low - log10 p_high) / (dB gap / 10); both MD estimates
    must sit inside the low-probability regime (0, 0.1).
    """
    if len(rows) != 2:
        raise ValueError(f"need exactly two rows, got {len(rows)}")
    lo, hi = sorted(rows, key=lambda r: r.snr_db)
    if not lo.snr_db < hi.snr_db:
        raise ValueError("rows must sit at distinct SNRs")
    for row in (lo, hi):
        if not 0.0 < row.p_md_hat < 0.1:
            raise ValueError(
                f"not applicable: p_md_hat={row.p_md_hat!r} at {row.snr_db} dB is outside (0, 0.1)")
    return (math.log10(lo.p_md_hat) - math.log10(hi.p_md_hat)) / ((hi.snr_db - lo.snr_db) / 10.0)


CSV_HEADER = "approach,k,snr_db,gamma,p_fa_target,p_md_hat,p_md_stderr,p_md_asym,trials,seed"


def results_to_csv(rows) -> str:
    """Canonical CSV rendering; missing analytic values become empty fields."""
    lines = [CSV_HEADER]
    for r in rows:
        asym = "" if r.p_md_asym is None else repr(float(r.p_md_asym))
        lines.append(",".join([
            r.approach, str(r.k), repr(float(r.snr_db)), repr(float(r.gamma)),
            repr(float(r.p_fa_target)), repr(float(r.p_md_hat)), repr(float(r.p_md_stderr)),
            asym, str(r.trials), str(r.seed)]))
    return "\n".join(lines) + "\n"


def write_results_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(results_to_csv(rows))
