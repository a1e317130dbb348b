"""Large-friction limit: position-only solvers and quadrature oracles.

For gamma -> infinity the transport coefficients behave as U ~ U_O/gamma and
D ~ D_O/gamma with O(gamma^-3) remainders, where (U_O, D_O) belong to the
overdamped dynamics with generator

    L_O = (-V'(q) + F) d/dq + (1/beta) d^2/dq^2

on the periodic cell.  Both the stationary density and the corrector are
solved by a 1-d Fourier-Galerkin method on the shared packed real basis of
:mod:`washboard.basis`: d/dq, the multiplication by -V' + F, the metric and
the reconstruction table all come from there.  The drift is independently
validated against the classical double-quadrature formula, and the zero-tilt
diffusion against the Lifson-Jackson closed form.

Two corrector-based expressions for D_O appear in the literature: the
gradient-squared form  (1/beta) int (1 + phi')^2 rho dq  and the linear form
(1/beta) int (1 + phi') rho dq.  They agree at F = 0 (both reduce to
Lifson-Jackson) but differ by U_O (mean_q phi - <phi>_rho) for F != 0; the
gradient-squared form is the actual gamma -> infinity limit of gamma*D (the
martingale decomposition of q + phi(q) gives it directly), so ``diffusion``
reports that form and the linear form is kept as a diagnostic alongside the
discrepancy between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import PeriodicPotential
from .basis import fourier_table, packed_dq_matrix, packed_metric, packed_mult_matrix

__all__ = [
    "OverdampedResult",
    "solve_overdamped",
    "stratonovich_drift",
    "lifson_jackson_diffusion",
]


@dataclass(frozen=True)
class OverdampedResult:
    """Overdamped transport coefficients (friction scaled out)."""

    drift: float
    diffusion: float              # gradient-squared form
    diffusion_linear_form: float  # (1/beta) int (1 + phi') rho dq
    residuals: dict = field(default_factory=dict)


def solve_overdamped(potential: PeriodicPotential, beta: float, force: float,
                     n_fourier: int = 64) -> OverdampedResult:
    """Fourier-Galerkin solve of the overdamped stationary and corrector problems.

    The stationary density is normalized to int rho = 1; the corrector solves
    -L_O phi = (-V' + F) - U_O with zero mean (the U_O centering makes the
    right-hand side orthogonal to the stationary density, which spans the
    cokernel).  In each problem the harmonic-0 row, which is identically
    zero, is replaced by the normalization or the zero-mean condition.
    """
    if n_fourier < max(potential.n_harmonics, 1):
        raise ValueError("n_fourier below the potential's highest harmonic")
    M = n_fourier
    L = potential.period
    d_q = packed_dq_matrix(M, L)
    B = packed_mult_matrix(potential.tilt_drift_coeffs(force), M, L)
    b = B[:, 0]                                      # B times 1: -V' + F itself
    wL = L * packed_metric(M)                        # int f g dq = f . wL g
    laplace = d_q @ d_q / beta

    # stationary: d/dq(-b rho + rho'/beta) = 0, row 0 replaced by normalization
    Lstar = laplace - d_q @ B
    A = Lstar.copy()
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs = np.zeros(2 * M + 1)
    rhs[0] = 1.0 / L
    rho = np.linalg.solve(A, rhs)
    stat_res = float(np.abs(Lstar @ rho).max())

    drift = float(wL * b @ rho)                      # int b rho dq

    # corrector: -L_O phi = b - U_O, mean-zero via row 0
    Acell = -(B @ d_q + laplace)
    Acell[0, :] = 0.0
    Acell[0, 0] = 1.0
    rhs2 = b.copy()
    rhs2[0] = 0.0
    phi = np.linalg.solve(Acell, rhs2)
    cell_res = float(np.abs((Acell @ phi - rhs2)[1:]).max())

    dphi = d_q @ phi
    d_linear = float((1.0 + wL * dphi @ rho) / beta)

    n_q = max(512, 8 * M)
    table = fourier_table(M, L, np.arange(n_q) * L / n_q)
    dphi_q = dphi @ table
    rho_q = rho @ table
    d_squared = float(np.mean((1.0 + dphi_q) ** 2 * rho_q) * L / beta)

    return OverdampedResult(
        drift=drift,
        diffusion=d_squared,
        diffusion_linear_form=d_linear,
        residuals={
            "stationary": stat_res,
            "corrector": cell_res,
            "form_gap": abs(d_squared - d_linear),
        },
    )


def stratonovich_drift(potential: PeriodicPotential, beta: float, force: float,
                       n_nodes: int = 200) -> float:
    """Closed-form overdamped drift as a double quadrature,

        U_O = (L/beta) (1 - e^{-beta L F}) / int_0^L I_+(q) dq,
        I_+(q) = int_0^L exp(beta [V_eff(q) - V_eff(q - y)]) dy,

    evaluated with tensor Gauss-Legendre nodes and a shifted exponent so that
    large beta*V or beta*L*F cannot overflow.  Serves as the independent
    oracle for :func:`solve_overdamped`'s drift.
    """
    L = potential.period
    x, w = leggauss(n_nodes)
    q = 0.5 * L * (x + 1.0)
    wq = 0.5 * L * w
    Q, Y = np.meshgrid(q, q, indexing="ij")
    expo = beta * (potential.evaluate(Q) - potential.evaluate(Q - Y) - force * Y)
    emax = float(expo.max())
    denom_scaled = float(wq @ np.exp(expo - emax) @ wq)
    arg = beta * L * force
    # numerator (1 - e^{-arg}), in log form against the shifted denominator
    if arg == 0.0:
        return 0.0
    sign = 1.0 if arg > 0 else -1.0
    log_num = np.log(abs(-np.expm1(-arg))) if arg > 0 else (-arg + np.log(abs(-np.expm1(arg))))
    log_ratio = log_num - (emax + np.log(denom_scaled))
    return float(sign * (L / beta) * np.exp(log_ratio))


def lifson_jackson_diffusion(potential: PeriodicPotential, beta: float,
                             n_nodes: int = 4096) -> float:
    """Zero-tilt overdamped diffusivity  L^2 / (beta int e^{beta V} int e^{-beta V})."""
    L = potential.period
    q = np.arange(n_nodes) * L / n_nodes
    V = potential.evaluate(q)
    zp = float(np.mean(np.exp(beta * (V - V.max())))) * L
    zm = float(np.mean(np.exp(-beta * (V - V.min())))) * L
    return L * L / (beta * zp * zm * np.exp(V.max() * beta - V.min() * beta))

