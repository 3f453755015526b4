"""GLRT synchronization detector for the slot-based downlink frame.

Each slot observes Y_k = F_k^H H_k W_k X + F_k^H Z_k under the signal
hypothesis and Y_k = F_k^H Z_k under noise only, with Z_k white complex
normal of variance noise_var per entry.  The detector compares a normalized
ratio statistic T in [0, 1] against a threshold chosen from the closed-form
false-alarm law; T is invariant to scaling of Y and to unitary recombination
of the combiner columns.  After slot k is whitened by C_k^-1, with
C_k = cholesky(F_k^H F_k), T's numerator is the energy of the whitened
frame on the pilot rows and its denominator the frame's whole energy; the
Monte Carlo estimators score their frames in those coordinates, and this
module's glrt_statistic stays the statistic they are tested against.
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
    xc = x.conj().T
    inv_xxh = np.linalg.inv(x @ xc)
    minv = np.stack([np.linalg.inv(fk.conj().T @ fk) for fk in f])
    a = np.einsum("ckal,lt->ckat", y, xc)
    t1 = np.einsum("ckat,ts->ckas", a, inv_xxh)
    num = np.einsum("ckas,ckbs,kba->ck", t1, a.conj(), minv).real.sum(axis=1)
    den = np.einsum("ckal,ckbl,kba->ck", y, y.conj(), minv).real.sum(axis=1)
    if np.any(den <= 0.0):
        raise ValueError("frame has no energy; statistic undefined")
    return num / den


def threshold_from_fa(p_fa_target: float, k: int, l: int, n_r: int, n_t: int) -> float:
    """Threshold gamma whose closed-form false alarm equals p_fa_target.

    Bisection on the strictly decreasing false-alarm law; the returned gamma
    reproduces the target within 1e-12.
    """
    if not 0.0 < p_fa_target < 1.0:
        raise ValueError("false-alarm target must be inside (0, 1)")
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
