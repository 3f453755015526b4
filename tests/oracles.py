"""Slot-by-slot oracles of the effective covariance and its combiner
whitening, shared by the test modules: loops of outer products and
Kronecker blocks that share no code with the batched factors they check."""

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


def loop_whitener(codebook):
    """B = blockdiag_k(I_{N_t} kron C_k^-1), C_k = cholesky(F_k^H F_k), block
    by block: the row transform that whitens [vec(G_k)]_k for the combiners."""
    n_t, n_r = codebook.n_t, codebook.n_r
    q0 = n_t * n_r
    b = np.zeros((codebook.k * q0,) * 2, dtype=np.complex128)
    for s, fk in enumerate(codebook.f):
        b[s * q0:(s + 1) * q0, s * q0:(s + 1) * q0] = np.kron(
            np.eye(n_t), np.linalg.inv(np.linalg.cholesky(fk.conj().T @ fk)))
    return b
