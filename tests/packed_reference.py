"""Loop-built reference implementations of the packed Fourier operators.

These are the original element-by-element constructions of
``washboard.basis.packed_dq_matrix`` and ``packed_mult_matrix``: d/dq filled
harmonic by harmonic, and multiplication as the conjugation P C U of the
complex two-sided convolution matrix C by the packed <-> complex maps.  The
tests hold the vectorized library versions to them bit for bit.
"""

import numpy as np


def reference_dq_matrix(n_fourier: int, period: float) -> np.ndarray:
    M = n_fourier
    w1 = 2.0 * np.pi / period
    D = np.zeros((2 * M + 1, 2 * M + 1))
    for k in range(1, M + 1):
        D[k, M + k] = -w1 * k
        D[M + k, k] = w1 * k
    return D


def reference_mult_matrix(coeffs: np.ndarray, n_fourier: int, period: float) -> np.ndarray:
    M = n_fourier
    K = len(coeffs) - 1
    full = np.zeros(2 * M + 2 * K + 1, dtype=complex)   # index m+M+K
    full[M + K] = coeffs[0]
    for m in range(1, K + 1):
        full[M + K + m] = coeffs[m]
        full[M + K - m] = np.conj(coeffs[m])
    # complex convolution on harmonics -M..M
    C = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)
    for j in range(-M, M + 1):
        for k in range(max(-M, j - K), min(M, j + K) + 1):
            C[M + j, M + k] = full[M + K + (j - k)]
    # conjugate by the packed <-> complex maps
    U = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)   # packed -> complex(-M..M)
    U[M, 0] = 1.0
    for k in range(1, M + 1):
        U[M + k, k] = 1.0
        U[M + k, M + k] = 1.0j
        U[M - k, k] = 1.0
        U[M - k, M + k] = -1.0j
    P = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)   # complex -> packed
    P[0, M] = 1.0
    for k in range(1, M + 1):
        P[k, M + k] = 0.5          # xi_k = Re c_k = (c_k + c_{-k})/2
        P[k, M - k] = 0.5
        P[M + k, M + k] = -0.5j    # eta_k = Im c_k = (c_k - c_{-k})/(2i)
        P[M + k, M - k] = 0.5j
    A = (P @ C @ U)
    assert np.abs(A.imag).max() < 1e-12 * max(np.abs(A.real).max(), 1.0)
    return A.real
