"""Time-correlated multipath channel model for slot-based synchronization.

Geometric model: H_k is a sum of P planar-wavefront paths with virtual angles
fixed within a drop and complex gains that evolve across the K slots with a
Clarke temporal correlation (zeroth-order Bessel of the Doppler-lag product).
An i.i.d. variant keeps the same per-entry temporal correlation but draws
every antenna pair independently.  Both models normalize the mean squared
Frobenius norm of H_k to M_r * M_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Clamp for eigenvalues of the temporal correlation when forming its square
# root factor, relative to the largest eigenvalue.
EIG_CLAMP_REL = 1e-10

# Carrier 30 GHz, mobile speed 30 km/h, slot interval 0.5 ms.
SEC6_DOPPLER_HZ = (30.0 / 3.6) * 30e9 / 3e8
SEC6_SLOT_INTERVAL_S = 5e-4

CHANNEL_MODELS = ("geometric", "iid")


# ===== Configuration and result types =====


@dataclass(frozen=True)
class ChannelConfig:
    """The channel object of an experiment document, shared by the geometric
    and i.i.d. models.

    beta holds one average gain per path and must sum to 1; the i.i.d. model
    ignores the path structure but keeps the temporal correlation.
    """

    beta: tuple[float, ...]
    f_d: float
    t_s: float
    model: str = "geometric"

    def __post_init__(self):
        if not all(0 <= b < math.inf for b in self.beta):
            raise ValueError(f"path gains must be finite and nonnegative, got {self.beta!r}")
        if abs(sum(self.beta) - 1.0) > 1e-12:
            raise ValueError(f"path gains must sum to 1, got {sum(self.beta)!r}")
        if not (0 <= self.f_d < math.inf and 0 < self.t_s < math.inf):
            raise ValueError("Doppler must be finite and nonnegative and the slot interval "
                             f"finite and positive, got f_d={self.f_d!r}, t_s={self.t_s!r}")
        if self.model not in CHANNEL_MODELS:
            raise ValueError(f"unknown channel model {self.model!r}")

    @property
    def p(self) -> int:
        return len(self.beta)


def uniform_gains(p: int) -> tuple[float, ...]:
    return tuple([1.0 / p] * p)


@dataclass(frozen=True)
class TemporalCorrelation:
    """Slot correlation matrix psi (K x K, real symmetric PSD) and a factor
    sqrt_factor with sqrt_factor @ sqrt_factor.T == psi after clamping."""

    psi: np.ndarray
    sqrt_factor: np.ndarray


@dataclass(frozen=True)
class PathSet:
    """Virtual arrival/departure angles for one drop, each uniform on [0, 1)."""

    theta_r: np.ndarray
    theta_t: np.ndarray


# ===== Primitives =====


def steering(theta: float, m: int) -> np.ndarray:
    """Array response at virtual angle theta: entry m' is exp(j*2*pi*m'*theta)."""
    return np.exp(2j * np.pi * theta * np.arange(m))


def bessel_j0(x: float) -> float:
    """Zeroth-order Bessel function of the first kind.

    Power series up to |x| = 16, Hankel asymptotic expansion with three
    correction terms in each cosine/sine factor beyond.  Absolute error is
    below 1e-9 everywhere (worst near the crossover).
    """
    x = abs(float(x))
    if x <= 16.0:
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        for k in range(1, 80):
            term *= -q / (k * k)
            total += term
            if abs(term) < 1e-17 * (1.0 + abs(total)):
                break
        return total
    z2 = 1.0 / (x * x)
    p_fac = 1.0 + z2 * (-9.0 / 128.0 + z2 * (11025.0 / 98304.0
                                             + z2 * (-108056025.0 / 188743680.0)))
    q_fac = (1.0 / x) * (-1.0 / 8.0 + z2 * (75.0 / 1024.0
                                            + z2 * (-893025.0 / 3932160.0)))
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p_fac * math.cos(chi) - q_fac * math.sin(chi))


def correlation_matrix(channel: ChannelConfig, k: int) -> TemporalCorrelation:
    """Clarke correlation matrix of K slots and its symmetric square-root factor.

    psi[i, j] = J0(2*pi*f_d*T_s*|i - j|).  Eigenvalues below
    EIG_CLAMP_REL times the largest are clamped to zero before taking the
    square root, so the factor is exact for rank-deficient correlations
    (e.g. f_d = 0, where psi is all ones).
    """
    if k < 1:
        raise ValueError(f"need at least one slot, got k={k}")
    lags = np.array([bessel_j0(2.0 * math.pi * channel.f_d * channel.t_s * d)
                     for d in range(k)])
    idx = np.arange(k)
    psi = lags[np.abs(idx[:, None] - idx[None, :])]
    eigval, eigvec = np.linalg.eigh(psi)
    clamp = EIG_CLAMP_REL * max(float(eigval[-1]), 0.0)
    eigval = np.where(eigval < clamp, 0.0, eigval)
    factor = eigvec * np.sqrt(eigval)
    psi = np.ascontiguousarray(psi)
    psi.setflags(write=False)
    factor.setflags(write=False)
    return TemporalCorrelation(psi=psi, sqrt_factor=factor)


# ===== Sampling =====


def sample_paths(config: ChannelConfig, seed: int | np.random.Generator) -> PathSet:
    """Draws the drop-level path angles, arrival first then departure."""
    rng = np.random.default_rng(seed)
    theta_r = rng.random(config.p)
    theta_t = rng.random(config.p)
    theta_r.setflags(write=False)
    theta_t.setflags(write=False)
    return PathSet(theta_r=theta_r, theta_t=theta_t)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: the real parts are drawn first, then the imaginary
    parts, written into one complex array and scaled in place."""
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out
