"""Loop-built reference implementations of the packed Fourier operators.

These are the original element-by-element constructions of
``washboard.basis.packed_dq_matrix`` and ``packed_mult_matrix``: d/dq filled
harmonic by harmonic, and multiplication as the conjugation P C U of the
complex two-sided convolution matrix C by the packed <-> complex maps.  The
tests hold the vectorized library versions to them bit for bit.

``GibbsTensorQuadrature`` is a brute (p, q) quadrature against the
equilibrium density, the independent reference for the Gibbs pairing
``washboard.basis.gibbs_inner``.  ``evaluate_field`` gives the point values
of a ``HermiteFourierField`` in its own basis, the reference evaluation of
solved fields.

``effective_potential`` is the tilted potential V(q) - F q, and
``check_overdamped_asymptotics`` measures how fast the underdamped solve
approaches the overdamped limit as gamma grows.
"""

import numpy as np
from scipy.special import roots_hermitenorm

from washboard.basis import TruncationSpec, fourier_table, hermite_table
from washboard.model import ModelParams, PeriodicPotential
from washboard.overdamped import solve_overdamped
from washboard.transport import solve_transport


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


def evaluate_field(field, q, p):
    """Point values g(q, p) of a field in its basis centred at ``field.p0``;
    q and p broadcast together."""
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    H = hermite_table(field.n_hermite, (p.ravel() - field.p0) * np.sqrt(field.beta))
    levels = field.coeffs @ fourier_table(field.n_fourier, field.period, q.ravel())
    vals = np.einsum("xn,nx->x", H, levels)
    return vals.reshape(q.shape) if q.ndim else float(vals[0])


class GibbsTensorQuadrature:
    """int g h rho_bar dp dq on a tensor grid, rho_bar = Z^-1 e^{-beta H0}.

    Gauss nodes of the unit Maxwellian in p (``n_p`` of them: exact for
    polynomials in p of degree up to 2 n_p - 1) and a uniform trapezoid
    against e^{-beta V} in q, normalized on the grid itself.  Fields are
    evaluated point by point, Hermite levels through ``hermite_table`` and
    Fourier levels harmonic by harmonic.
    """

    def __init__(self, params, n_p: int, n_q: int):
        self.beta = params.beta
        self.period = params.potential.period
        x, wx = roots_hermitenorm(n_p)
        self.x = x
        self.p = x / np.sqrt(self.beta)
        self.q = np.arange(n_q) * self.period / n_q
        wq = np.exp(-self.beta * params.potential.evaluate(self.q))
        self.weights = np.outer(wx / wx.sum(), wq / wq.sum())   # (n_p, n_q)

    def values(self, field) -> np.ndarray:
        """Field values on the (p, q) grid, shape (n_p, n_q)."""
        assert field.p0 == 0.0
        c = field.coeffs
        M = field.n_fourier
        w1 = 2.0 * np.pi / self.period
        levels = np.repeat(c[:, :1], self.q.size, axis=1)
        for k in range(1, M + 1):
            levels = levels + 2.0 * (np.outer(c[:, k], np.cos(k * w1 * self.q))
                                     - np.outer(c[:, M + k], np.sin(k * w1 * self.q)))
        return hermite_table(field.n_hermite, self.x) @ levels

    def integrate(self, vals: np.ndarray) -> float:
        """Integral against rho_bar of values on the grid."""
        return float(np.sum(self.weights * vals))

    def inner(self, g, h) -> float:
        return self.integrate(self.values(g) * self.values(h))


def effective_potential(potential: PeriodicPotential, force: float, q):
    """Tilted potential V(q) - F*q."""
    q = np.asarray(q, dtype=float)
    return potential.evaluate(q) - force * q


def check_overdamped_asymptotics(potential: PeriodicPotential, beta: float,
                                 force: float, gammas, trunc: TruncationSpec,
                                 n_fourier_od: int = 64) -> dict:
    """Errors e_U(gamma) = |gamma U(gamma) - U_O| and e_D likewise, with the
    consecutive-gamma ratios (an O(gamma^-2) remainder halves them to ~1/4
    when gamma doubles)."""
    od = solve_overdamped(potential, beta, force, n_fourier_od)
    gammas = sorted(float(g) for g in gammas)
    e_u, e_d, results = [], [], []
    for g in gammas:
        params = ModelParams(gamma=g, beta=beta, force=force, potential=potential)
        res = solve_transport(params, trunc, adaptive=True)
        results.append(res)
        e_u.append(abs(g * res.drift - od.drift))
        e_d.append(abs(g * res.d_primary - od.diffusion))
    ratios_u = [e_u[i + 1] / e_u[i] if e_u[i] > 0 else np.nan for i in range(len(e_u) - 1)]
    ratios_d = [e_d[i + 1] / e_d[i] if e_d[i] > 0 else np.nan for i in range(len(e_d) - 1)]
    return {
        "gammas": gammas,
        "overdamped": od,
        "transport": results,
        "e_drift": e_u,
        "e_diffusion": e_d,
        "ratios_drift": ratios_u,
        "ratios_diffusion": ratios_d,
    }
