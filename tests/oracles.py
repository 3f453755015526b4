"""Slot-by-slot oracles of the effective covariance, shared by the test
modules: a loop of outer products that shares no code with the batched
factor it checks."""

import numpy as np

from omnisync.channel import steering


def loop_path_vectors(codebook, theta_r, theta_t):
    """Per-slot a_k = (W_k^T v*) kron (F_k^H u) of one path, slot by slot."""
    u = steering(theta_r, codebook.m_r)
    v = steering(theta_t, codebook.m_t)
    return [np.kron(wk.T @ v.conj(), fk.conj().T @ u) for wk, fk in zip(codebook.w, codebook.f)]


def loop_covariance_oracle(codebook, paths, beta, psi):
    """Effective covariance by the K x K x P loop of outer products: block
    (k, l) is psi[k, l] * sum_p beta_p * a_kp a_lp^H."""
    k = codebook.k
    q0 = codebook.n_t * codebook.n_r
    r = np.zeros((k * q0, k * q0), dtype=np.complex128)
    for p, b in enumerate(beta):
        a = loop_path_vectors(codebook, float(paths.theta_r[p]), float(paths.theta_t[p]))
        for i in range(k):
            for j in range(k):
                r[i * q0:(i + 1) * q0, j * q0:(j + 1) * q0] += (
                    psi[i, j] * b * np.outer(a[i], a[j].conj()))
    return r
