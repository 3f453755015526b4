"""Detection-error analysis: effective-covariance factors, the exact and the
asymptotic missed detection, the generalized-F tail law, and the closed-form
false alarm.

The effective covariance R is the covariance of the stacked post-combining
signal means g = [vec(F_1^H H_1 W_1); ...; vec(F_K^H H_K W_K)], stacked
column-major per slot (transmit-stream major, receive-stream minor).  Missed
detection of the ratio detector at threshold gamma reduces to the event

    || sqrt(L/N_t) g + z2 ||^2 / || z1 ||^2  <  gamma / (1 - gamma)

with z2 of dimension K*N_r*N_t and z1 of dimension K*N_r*(L - N_t), both
white with variance noise_var.  The precoders and combiners enter only
through the spectrum of R, the squared singular values of a factor S with
S S^H = R (path_factor; the i.i.d. model's R comes from build_R_iid).  Given
the spectrum the event has an exact law (md_exact), whose low-noise tail is
governed by the nonzero eigenvalues (asymptotic_md).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import PathSet
from .codebook import Codebook

RANK_REL_TOL = 1e-10


def _numerical_rank(eigs: np.ndarray, dim: int) -> int:
    if eigs.size == 0:
        return 0
    cut = dim * max(float(eigs[0]), 0.0) * RANK_REL_TOL
    return int(np.sum(eigs > cut))


# ===== Effective covariance builders =====


def _path_vectors(codebook: Codebook, theta_r, theta_t) -> np.ndarray:
    """Slot-major path vectors, one column per path.

    Column p stacks a_kp = (W_k^T v_p*) kron (F_k^H u_p) over the slots k,
    so the result has shape (K*N_t*N_r, P) for P angle pairs.
    """
    theta_r = np.atleast_1d(np.asarray(theta_r, dtype=np.float64))
    theta_t = np.atleast_1d(np.asarray(theta_t, dtype=np.float64))
    u = np.exp((2j * np.pi * theta_r)[None, :] * np.arange(codebook.m_r)[:, None])
    v = np.exp((2j * np.pi * theta_t)[None, :] * np.arange(codebook.m_t)[:, None])
    tx = np.stack(codebook.w).swapaxes(1, 2) @ v.conj()
    rx = np.stack(codebook.f).conj().swapaxes(1, 2) @ u
    a = tx[:, :, None, :] * rx[:, None, :, :]
    return a.reshape(-1, theta_r.shape[0])


def path_factor(codebook: Codebook, paths: PathSet, beta, sqrt_psi: np.ndarray) -> np.ndarray:
    """Explicit factor S of the P-path effective covariance, S S^H = R.

    S = [sqrt(beta_p) * diag(a_p) * (sqrt_psi kron 1_q0)]_p has shape
    (K*N_t*N_r, P*K), with a_p the slot-major path vector of path p and
    sqrt_psi a K x K factor of the slot correlation (sqrt_psi sqrt_psi^T =
    psi).  Rank-deficient psi needs no special case: its zero directions
    are zero columns of S.
    """
    q0 = codebook.n_t * codebook.n_r
    a = _path_vectors(codebook, paths.theta_r, paths.theta_t)
    a = a * np.sqrt(np.asarray(beta, dtype=np.float64))
    rows = np.repeat(sqrt_psi, q0, axis=0)
    return (a[:, :, None] * rows[:, None, :]).reshape(a.shape[0], -1)


def build_R_iid(codebook: Codebook, psi: np.ndarray) -> np.ndarray:
    """Effective covariance for the entrywise independent channel.

    Block (k, l) is psi[k, l] * (W_k^T W_l^*) kron (F_k^H F_l); with
    omnidirectional unitary slots and a disjoint schedule this is the
    identity.
    """
    k = codebook.k
    q0 = codebook.n_t * codebook.n_r
    r = np.empty((k * q0, k * q0), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            tx = codebook.w[i].T @ codebook.w[j].conj()
            rx = codebook.f[i].conj().T @ codebook.f[j]
            r[i * q0:(i + 1) * q0, j * q0:(j + 1) * q0] = psi[i, j] * np.kron(tx, rx)
    return r


# ===== Asymptotic missed detection =====


@dataclass(frozen=True)
class AsymptoticMD:
    """Low-noise missed-detection asymptote and its building blocks."""

    rank: int
    eig_product: float
    value: float
    log_value: float


def _log_comb(n: int, m: int) -> float:
    # math.comb is exact big-integer; math.log accepts arbitrarily large ints.
    return math.log(math.comb(n, m))


@functools.lru_cache(maxsize=64)
def _log_comb_row(n: int, a: int) -> tuple[float, ...]:
    """(log C(n, 0), ..., log C(n, a-1)), each the log of the exact integer.

    The recurrence C(n, m+1) = C(n, m) * (n - m) // (m + 1) divides exactly,
    so every entry equals _log_comb(n, m).
    """
    logs = []
    c = 1
    for m in range(a):
        logs.append(math.log(c))
        c = c * (n - m) // (m + 1)
    return tuple(logs)


def _log_sum_exp(logs) -> float:
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


@functools.lru_cache(maxsize=64)
def _log_md_coefficient(r: int, q: int, d: int, gamma: float) -> float:
    """log of gamma^(q-r) * sum_{j<d} h_j(1^r, (1-gamma)^(q-r)).

    The q-r noise-only geometric counts sum to a negative binomial count n,
    and the r saturated ones contribute sum_{m<d-n} h_m(1^r) = C(r+d-1-n, r),
    so the coefficient is sum_{n<d} NB(n; q-r, gamma) * C(r+d-1-n, r).  At
    r = q it is the single term C(K*L*N_r - 1, r).
    """
    if r == q:
        return _log_comb(r + d - 1, r)
    log_g = math.log(gamma)
    log_1mg = math.log1p(-gamma)
    return _log_sum_exp([
        _log_comb(q - r - 1 + n, n) + (q - r) * log_g + n * log_1mg + _log_comb(r + d - 1 - n, r)
        for n in range(d)])


def asymptotic_md(
    eigs,
    gamma: float,
    noise_var: float,
    k: int,
    l: int,
    n_r: int,
    n_t: int,
) -> AsymptoticMD:
    """Leading missed-detection term as the noise variance goes to zero.

    value = (N_t * noise_var * gamma / (L * (1 - gamma)))^r * prod_m 1/lambda_m
            * gamma^(q-r) * sum_{j<d} h_j(1^r, (1-gamma)^(q-r))

    over the r nonzero eigenvalues lambda_m of the spectrum eigs (those above
    q * max(eigs) * RANK_REL_TOL, in any order), with q = K*N_r*N_t and
    d = K*N_r*(L - N_t): it is md_exact with every 1 - a_i of the signal
    terms replaced by its first order in noise_var.  At r = q the sum is
    C(K*L*N_r - 1, r).  The ratio to md_exact tends to 1 as noise_var goes
    to 0 at a fixed spectrum; at finite noise it overshoots.  Computed in the
    log domain; value overflows to inf / underflows to 0 gracefully.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {gamma!r}")
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    q = k * n_r * n_t
    lams = np.sort(np.asarray(eigs, dtype=np.float64))[::-1]
    r = _numerical_rank(lams, q)
    if r == 0:
        raise ValueError("spectrum has rank 0; the asymptote is undefined")
    d = k * n_r * (l - n_t)
    if d < 1:
        raise ValueError("signal dimension must be below the observation dimension")
    if r > q:
        raise ValueError(f"rank {r} exceeds the signal dimension {q}")
    log_lam_sum = float(np.sum(np.log(lams[:r])))
    log_scale = math.log(n_t) + math.log(noise_var) + math.log(gamma) \
        - math.log(l) - math.log1p(-gamma)
    log_value = r * log_scale + _log_md_coefficient(r, q, d, gamma) - log_lam_sum
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    try:
        eig_product = math.exp(log_lam_sum)
    except OverflowError:
        eig_product = math.inf
    return AsymptoticMD(rank=r, eig_product=eig_product, value=value, log_value=log_value)


# ===== Exact conditional missed detection =====


def md_exact(eigs, noise_var: float, gamma: float, k: int, l: int, n_r: int, n_t: int):
    """Exact missed-detection probability given the effective spectrum.

    With t = gamma / (1 - gamma), the reduced miss event is
    sum_i w_i E_i < t * Gamma(d) over q = K*N_r*N_t unit exponentials E_i,
    where w_i = 1 + (L/N_t) * lambda_i / noise_var (1 past the given
    eigenvalues) and d = K*N_r*(L - N_t).  Given the numerator, the
    denominator exceeds it with the probability that a Poisson count stays
    below d; mixed over the exponentials that count is a sum of independent
    geometric counts with ratios a_i = w_i / (t + w_i), so

        P_md = prod_i (1 - a_i) * sum_{j<d} h_j(a).

    Every term is positive, and folding the factor 1 - a_i in with each a_i
    keeps every partial sum a probability, so the law cannot overflow.

    eigs holds a spectrum on its last axis (at most q entries; negative
    round-off is clipped to 0) and may carry leading axes that index many
    spectra; the result has the shape of those axes (a float for one
    spectrum).  With no eigenvalues it is 1 - fa_closed_form at gamma.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {gamma!r}")
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    q = k * n_r * n_t
    d = k * n_r * (l - n_t)
    if d < 1:
        raise ValueError("signal dimension must be below the observation dimension")
    lam = np.maximum(np.asarray(eigs, dtype=np.float64), 0.0)
    if lam.ndim == 0:
        raise ValueError("eigs needs the spectrum on its last axis")
    if lam.shape[-1] > q:
        raise ValueError(f"{lam.shape[-1]} eigenvalues exceed the signal dimension {q}")
    t = gamma / (1.0 - gamma)
    w = 1.0 + (l / n_t) * lam / noise_var
    w = np.concatenate([w, np.ones(lam.shape[:-1] + (q - lam.shape[-1],))], axis=-1)
    law = _homogeneous_sums(d - 1, w / (t + w), scales=t / (t + w))
    p = law.sum(axis=0)
    return float(p) if p.ndim == 0 else p


# ===== Generalized-F ratio tail (weighted chi-square over chi-square) =====


@dataclass(frozen=True)
class GeneralizedFRatio:
    """Ratio of independent weighted sums of unit-mean exponentials.

    lam holds the numerator weights, sigma the denominator weights.
    """

    lam: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if not self.lam or not self.sigma:
            raise ValueError("need at least one weight on each side")
        if any(v <= 0 for v in self.lam) or any(v <= 0 for v in self.sigma):
            raise ValueError("weights must be positive")


def _homogeneous_sums(order: int, sigmas, scales=None) -> np.ndarray:
    """Complete homogeneous symmetric polynomials h_0..h_order(sigmas).

    The weights lie on the last axis of sigmas, which may carry leading
    axes; the result has shape (order + 1,) + those axes.  With scales (the
    shape of sigmas), weight i's factor is multiplied by scales[..., i] as it
    is folded in, so the result is prod(scales) * h_j(sigmas).
    """
    sig = np.moveaxis(np.asarray(sigmas, dtype=np.float64), -1, 0)
    if scales is not None:
        scales = np.moveaxis(np.asarray(scales, dtype=np.float64), -1, 0)
    h = np.zeros((order + 1,) + sig.shape[1:])
    h[0] = 1.0
    for i, s in enumerate(sig):
        for m in range(1, order + 1):
            h[m] += s * h[m - 1]
        if scales is not None:
            h *= scales[i]
    return h


def lemma1_cdf(ratio: GeneralizedFRatio, t: float) -> float:
    """Small-t tail law P{ratio < t} ~ t^M * h_M(sigma) / prod(lam).

    For a single unit weight on each side the exact law is t / (1 + t), which
    the approximation matches to first order.
    """
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    m = len(ratio.lam)
    h = float(_homogeneous_sums(m, ratio.sigma)[m])
    inv_lam = math.prod(1.0 / v for v in ratio.lam)
    return (t ** m) * inv_lam * h


# ===== False alarm =====


def fa_closed_form_log(gamma: float, k: int, l: int, n_r: int, n_t: int) -> float:
    """Natural log of the false-alarm probability at threshold gamma."""
    if k * n_r * n_t >= k * l * n_r:
        raise ValueError("signal dimension must be below the observation dimension")
    if gamma <= 0.0:
        return 0.0
    if gamma >= 1.0:
        return -math.inf
    n = k * l * n_r - 1
    a = k * n_r * n_t
    log_g = math.log(gamma)
    log_1mg = math.log1p(-gamma)
    return _log_sum_exp([log_c + m * log_g + (n - m) * log_1mg
                         for m, log_c in enumerate(_log_comb_row(n, a))])


def fa_closed_form(gamma: float, k: int, l: int, n_r: int, n_t: int) -> float:
    """False-alarm probability of the ratio detector at threshold gamma.

    Equals the binomial tail P{Bin(K*L*N_r - 1, gamma) < K*N_r*N_t}, i.e. the
    upper tail of a Beta(K*N_r*N_t, K*N_r*(L - N_t)) variable at gamma.
    """
    return math.exp(fa_closed_form_log(gamma, k, l, n_r, n_t))
