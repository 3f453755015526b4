"""GLRT synchronization detector for the slot-based downlink frame.

Each slot observes Y_k = F_k^H H_k W_k X + F_k^H Z_k under the signal
hypothesis and Y_k = F_k^H Z_k under noise only, with Z_k white complex
normal of variance noise_var per entry.  The detector compares a normalized
ratio statistic T in [0, 1] against a threshold chosen from the closed-form
false-alarm law; T is invariant to scaling of Y and to unitary recombination
of the combiner columns.  T's numerator and denominator are Hermitian forms
of Y, so for frames Y = S + s * Z the miss test num - gamma * den <= 0 is a
quadratic in s whose coefficients serve every noise variance at once.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import fa_closed_form


def make_sync_signal(n_t: int, l: int) -> np.ndarray:
    """Harmonic pilot X (N_t x L), shared by every slot: row n is the n-th
    DFT tone over L samples, scaled so the rows are orthogonal with squared
    norm L / N_t, i.e. X X^H = (L / N_t) * I.

    L must exceed N_t: at L = N_t the pilot rows span every observation and
    T is identically 1.
    """
    if n_t < 1 or l <= n_t:
        raise ValueError(f"need 1 <= n_t < l, got n_t={n_t}, l={l}")
    rows = np.arange(n_t)[:, None] * np.arange(l)[None, :]
    x = np.exp(2j * np.pi * rows / l) / math.sqrt(n_t)
    x.setflags(write=False)
    return x


def _glrt_forms(u: np.ndarray, v: np.ndarray, x: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """Real parts of the numerator and denominator of T as Hermitian forms of
    two frame batches u and v, each shaped like glrt_statistic's y, summed
    over the slots: with A = Y X^H and M_k = (F_k^H F_k)^-1,
    num(u, v) = sum_k Re tr(M_k A_u,k (X X^H)^-1 A_v,k^H) and
    den(u, v) = sum_k Re tr(M_k U_k V_k^H).  Both are symmetric in (u, v),
    and at (y, y) they are the numerator and denominator of T.
    """
    xc = x.conj().T
    inv_xxh = np.linalg.inv(x @ xc)
    minv = np.stack([np.linalg.inv(fk.conj().T @ fk) for fk in f])
    a_u = np.einsum("ckal,lt->ckat", u, xc)
    a_v = a_u if v is u else np.einsum("ckal,lt->ckat", v, xc)
    t1 = np.einsum("ckat,ts->ckas", a_u, inv_xxh)
    num = np.einsum("ckas,ckbs,kba->ck", t1, a_v.conj(), minv).real
    den = np.einsum("ckal,ckbl,kba->ck", u, v.conj(), minv).real
    return num.sum(axis=1), den.sum(axis=1)


def glrt_statistic(y: np.ndarray, x: np.ndarray, f) -> np.ndarray:
    """Generalized likelihood ratio statistic T for a batch of frames.

    y holds the post-combining observations Y_k (N_r x L) of the K slots as a
    (frames, K, N_r, L) array; one frame is a batch of one.  x is the pilot
    X (N_t x L) and f the K combiners F_k (M_r x N_r).  T is the fraction of
    the combiner-whitened observed energy, sum_k tr((F_k^H F_k)^-1 Y_k Y_k^H),
    captured by the least-squares projection onto the pilot rows, so it lies
    in [0, 1] up to rounding.  Returns one T per frame and raises ValueError
    when a frame has no energy, where T is undefined.
    """
    num, den = _glrt_forms(y, y, x, f)
    if np.any(den <= 0.0):
        raise ValueError("frame has no energy; statistic undefined")
    return num / den


def _miss_coefficients(ys: np.ndarray, yz: np.ndarray, x: np.ndarray, f,
                       gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame coefficients (c0, c1, c2) of the miss test at threshold gamma
    for the frames y = ys + s * yz, signal ys plus noise yz scaled by
    s = sqrt(noise_var): num - gamma * den of T is the quadratic
    c0 + s * (c1 + s * c2), so a frame misses (T <= gamma) when it is <= 0.
    One batch of coefficients settles the test at every noise variance.
    """
    n_ss, d_ss = _glrt_forms(ys, ys, x, f)
    n_sz, d_sz = _glrt_forms(ys, yz, x, f)
    n_zz, d_zz = _glrt_forms(yz, yz, x, f)
    return n_ss - gamma * d_ss, 2.0 * (n_sz - gamma * d_sz), n_zz - gamma * d_zz


def threshold_from_fa(p_fa_target: float, k: int, l: int, n_r: int, n_t: int) -> float:
    """Threshold gamma whose closed-form false alarm equals p_fa_target.

    Bisection on the strictly decreasing false-alarm law; the returned gamma
    reproduces the target within 1e-12.
    """
    if not 0.0 < p_fa_target < 1.0:
        raise ValueError("false-alarm target must be inside (0, 1)")
    if k * n_r * n_t >= k * l * n_r:
        raise ValueError("signal dimension must be below the observation dimension")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fa_closed_form(mid, k, l, n_r, n_t) > p_fa_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    gamma = 0.5 * (lo + hi)
    achieved = fa_closed_form(gamma, k, l, n_r, n_t)
    if abs(achieved - p_fa_target) > 1e-12 * max(1.0, p_fa_target):
        raise ArithmeticError(
            f"bisection failed to meet the false-alarm target: {achieved!r} vs {p_fa_target!r}")
    return gamma
