"""Tilt-series expansion of the transport coefficients from equilibrium solves.

The drift and diffusion admit power series in the tilt F whose coefficients
involve only the untilted (F = 0) dynamics:

    U(F) = sum_{l>=1} F^l V_l
    D(F) = sum_{l>=0} F^l [ V_{l+1}/beta + sum_{n=1}^{l} Sigma_{nl} ]
         = (1/beta) dU/dF + sum_{l>=1} F^l sum_{n=1}^{l} Xi_{nl}

with V_l, Sigma_nl, Xi_nl built from two chains of equilibrium Poisson
problems: f_j = (-Lhat0)^{-1} a+ f_{j-1} starting from f_0 = 1, and
phi_0 = (-L0)^{-1} p followed by phi_j = (-L0)^{-1}(a- phi_{j-1} - V_j).
The l = 0 diffusion term V_1/beta is the fluctuation-dissipation value; the
Sigma/Xi columns quantify how the naive extension D_l = (l+1) V_{l+1}/beta,
the F^l coefficient of (1/beta) dU/dF, fails beyond linear response.

Each Poisson problem is solved as one sparse block-tridiagonal system over all
Hermite levels, bordered by the mean-zero constraint row (the right-hand sides
here populate every level, so the level-recursion shortcut used by the
nonperturbative solver buys nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import ModelParams
from .basis import (
    GibbsQuadrature,
    HermiteFourierField,
    TruncationSpec,
    apply_lower,
    apply_raise,
)
from .transport import SolverError, hierarchy_blocks

__all__ = [
    "EquilibriumChain",
    "ExpansionTable",
    "assemble_generator",
    "EquilibriumPoissonSolver",
    "solve_equilibrium_poisson",
    "build_chain",
    "velocity_coefficient",
    "diffusion_coefficients",
    "partial_sum_U",
    "partial_sum_D",
    "series_radius_estimate",
]


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

def assemble_generator(params: ModelParams, trunc: TruncationSpec,
                       adjoint: bool = False) -> sp.csr_matrix:
    """Sparse matrix of -L (or -Lhat at F = 0) on stacked level coefficients.

    Level m couples to m-1 and m+1 through d/dq and the tilt drift; the
    Ornstein-Uhlenbeck part contributes +gamma*m on the diagonal of -L.  The
    adjoint flips the sign of the transport (antisymmetric) part.  With
    sgn = -1 for the adjoint and +1 otherwise, and d_q, T the blocks of
    :func:`~washboard.transport.hierarchy_blocks`, the blocks of level m are

        sub-diagonal    (-sgn sqrt(m/beta)) d_q
        diagonal        gamma m I
        super-diagonal  (-sgn sqrt((m+1)/beta)) d_q - (sgn sqrt(beta (m+1))) T

    All levels are assembled in one COO pass.  The stored structure is part of
    the contract, because splu's COLAMD ordering depends on which entries are
    stored: every diagonal entry is stored, level 0's zeros included, and an
    off-diagonal entry is stored exactly when its value is nonzero, so a
    super-diagonal entry whose two terms cancel is not.  Each value is the
    same floating-point expression, evaluated in the same order, as in a
    block-by-block build, so ``indptr``, ``indices`` and ``data`` equal that
    build's bit for bit (for finite level factors, i.e. beta (N+1) below
    the float range).
    """
    blocks = hierarchy_blocks(params, trunc)
    if adjoint and params.force != 0.0:
        raise ValueError("adjoint generator is only used for the F = 0 chain")
    N, size = trunc.n_hermite, blocks.size
    n = (N + 1) * size
    beta, sgn = params.beta, (-1.0 if adjoint else 1.0)
    d_q, tilt = blocks.d_q, blocks.tilt
    lower = size * np.arange(N)[:, None]   # first row of levels 0..N-1
    upper = lower + size                   # first row of levels 1..N
    up = np.arange(1, N + 1)
    # a[m-1] scales d_q in the sub-block of level m and the super-block of m-1
    a = (-sgn * np.sqrt(up / beta))[:, None]
    b = (sgn * np.sqrt(beta * up))[:, None]
    i_d, j_d = np.nonzero(d_q)
    i_u, j_u = np.nonzero((d_q != 0) | (tilt != 0))
    diag = np.arange(n)
    rows = np.concatenate([diag, (upper + i_d).ravel(), (lower + i_u).ravel()])
    cols = np.concatenate([diag, (lower + j_d).ravel(), (upper + j_u).ravel()])
    vals = np.concatenate([
        np.repeat(params.gamma * np.arange(N + 1), size),
        (a * d_q[i_d, j_d]).ravel(),
        (a * d_q[i_u, j_u] - b * tilt[i_u, j_u]).ravel(),
    ])
    keep = vals != 0
    keep[:n] = True   # the diagonal is stored even where gamma*m is 0
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()


def _gibbs_q_packed(params: ModelParams, n_fourier: int) -> np.ndarray:
    """Packed Fourier coefficients of w(q) = e^{-beta V}/Z_q (so int w dq = 1)."""
    L = params.potential.period
    n = max(1024, 16 * n_fourier)
    q = np.arange(n) * L / n
    w = np.exp(-params.beta * params.potential.evaluate(q))
    w = w / (w.mean() * L)
    ck = np.fft.rfft(w) / n
    out = np.zeros(2 * n_fourier + 1)
    out[0] = ck[0].real
    out[1 : n_fourier + 1] = ck[1 : n_fourier + 1].real
    out[n_fourier + 1 :] = ck[1 : n_fourier + 1].imag
    return out


def _mean_functional(params: ModelParams, trunc: TruncationSpec) -> np.ndarray:
    """Vector t with <psi, 1>_beta = t . psi_flat (level 0 only survives in p)."""
    L = params.potential.period
    xw = _gibbs_q_packed(params, trunc.n_fourier)
    t0 = 2.0 * L * xw
    t0[0] = L * xw[0]
    t = np.zeros((trunc.n_hermite + 1) * (2 * trunc.n_fourier + 1))
    t[: t0.size] = t0
    return t


class EquilibriumPoissonSolver:
    """Factorized bordered solver for -L0 psi = u (or -Lhat0 psi = u).

    The border row enforces <psi, 1>_beta = 0 and the border column absorbs
    the (spectrally small) discrete solvability defect, returned as ``lam``.
    The factorization is reused across right-hand sides.
    """

    def __init__(self, params: ModelParams, trunc: TruncationSpec, adjoint: bool):
        if params.force != 0.0:
            raise ValueError("equilibrium Poisson solver requires force = 0")
        self.params = params
        self.trunc = trunc
        self.adjoint = adjoint
        A = assemble_generator(params, trunc, adjoint=adjoint)
        t = _mean_functional(params, trunc)
        n = A.shape[0]
        e0 = sp.csc_matrix((np.ones(1), (np.zeros(1, int), np.zeros(1, int))), shape=(n, 1))
        bordered = sp.bmat([[A, e0], [sp.csr_matrix(t[None, :]), sp.csr_matrix((1, 1))]],
                           format="csc")
        try:
            self._lu = spla.splu(bordered)
        except RuntimeError as exc:
            raise SolverError("bordered equilibrium operator is singular") from exc
        self._A = A.tocsr()
        self._t = t
        self._n = n
        self._shape = (trunc.n_hermite + 1, 2 * trunc.n_fourier + 1)

    def mean(self, v: HermiteFourierField) -> float:
        """<v, 1>_beta from the constraint functional (exact in the basis)."""
        return float(self._t @ v.coeffs.reshape(-1))

    def solve(self, rhs: HermiteFourierField, solvability_tol: float = 1e-9
              ) -> tuple[HermiteFourierField, float, float]:
        """Mean-zero solution psi plus (lam, residual) diagnostics.

        Raises if the right-hand side violates the solvability condition
        <1, rhs>_beta = 0 beyond ``solvability_tol`` (relative to its size).
        """
        flat = rhs.coeffs.reshape(-1)
        scale = max(float(np.abs(flat).max()), 1e-300)
        defect = abs(float(self._t @ flat))
        if defect > solvability_tol * max(scale, 1.0):
            raise SolverError(
                f"right-hand side violates solvability: <1, rhs> = {defect:.3e}"
            )
        x = self._lu.solve(np.concatenate([flat, [0.0]]))
        psi, lam = x[: self._n], float(x[self._n])
        residual = float(np.abs(self._A @ psi - flat).max())
        fld = HermiteFourierField(psi.reshape(self._shape),
                                  self.params.potential.period, self.params.beta)
        return fld, lam, residual


def solve_equilibrium_poisson(rhs: HermiteFourierField, adjoint: bool,
                              params: ModelParams, trunc: TruncationSpec
                              ) -> HermiteFourierField:
    """One-shot mean-zero solve of -L0 psi = rhs (adjoint: -Lhat0 psi = rhs)."""
    solver = EquilibriumPoissonSolver(params, trunc, adjoint)
    psi, _, _ = solver.solve(rhs)
    return psi


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumChain:
    """Solutions f_0..f_K and phi_0..phi_{K-1} of the equilibrium chain,
    the drift coefficients V_1..V_K, and the shared quadrature grid."""

    params: ModelParams
    trunc: TruncationSpec
    order: int
    fs: tuple[HermiteFourierField, ...]
    phis: tuple[HermiteFourierField, ...]
    v: np.ndarray                       # v[j] = V_j, v[0] = 0
    v_phi_form: np.ndarray              # beta * int phi_{j-1} p rho_bar
    grid: GibbsQuadrature = field(repr=False)
    diagnostics: dict = field(default_factory=dict, repr=False)

    def inner(self, g: HermiteFourierField, h: HermiteFourierField) -> float:
        return self.grid.inner(g, h)


def build_chain(params: ModelParams, trunc: TruncationSpec, order: int
                ) -> EquilibriumChain:
    """Solve the equilibrium chain up to the given order (default figure runs
    use order 9).

    f_j is produced by repeated adjoint-solve of the raised previous member;
    V_j is needed on the fly because it enters the phi_j right-hand side.
    phi_j's additive constant is fixed afterwards by the side condition
    <phi_j, 1> = -sum_r <f_r, phi_{j-r}> (constants lie in the kernel, so the
    shift is exact).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if params.force != 0.0:
        raise ValueError("the chain is defined for the untilted problem; "
                         "use params.with_force(0.0)")
    trunc.check_potential(params.potential)
    N, M = trunc.n_hermite, trunc.n_fourier
    L = params.potential.period
    beta = params.beta

    adj = EquilibriumPoissonSolver(params, trunc, adjoint=True)
    fwd = EquilibriumPoissonSolver(params, trunc, adjoint=False)
    grid = GibbsQuadrature(params, N, M)
    p_field = HermiteFourierField.momentum(N, M, L, beta)
    pvals = grid.values(p_field)

    lams: dict[str, float] = {}
    residuals: dict[str, float] = {}
    solvability: dict[str, float] = {}

    fs = [HermiteFourierField.constant(1.0, N, M, L, beta)]
    f_vals = [grid.values(fs[0])]
    for j in range(1, order + 1):
        rhs = apply_raise(fs[j - 1])
        try:
            f, lam, res = adj.solve(rhs)
        except SolverError as exc:
            raise SolverError(f"f-chain solve failed at j={j}: {exc}") from exc
        fs.append(f)
        f_vals.append(grid.values(f))
        lams[f"f{j}"] = lam
        residuals[f"f{j}"] = res

    v = np.zeros(order + 1)
    for j in range(1, order + 1):
        v[j] = grid.integrate(pvals * f_vals[j])

    phis = []
    phi_vals = []
    phi0, lam, res = fwd.solve(p_field)
    phis.append(phi0)
    phi_vals.append(grid.values(phi0))
    lams["phi0"] = lam
    residuals["phi0"] = res
    for j in range(1, order):
        lowered = apply_lower(phis[j - 1])
        mean_lowered = fwd.mean(lowered)
        solvability[f"phi{j}"] = abs(mean_lowered - v[j])
        rhs = lowered.plus(
            HermiteFourierField.constant(-v[j], N, M, L, beta))
        try:
            phi, lam, res = fwd.solve(rhs)
        except SolverError as exc:
            raise SolverError(
                f"phi-chain solvability failed at j={j}: "
                f"<a- phi_{j-1}, 1> - V_{j} = {mean_lowered - v[j]:.3e}"
            ) from exc
        target = -sum(grid.integrate(f_vals[r] * phi_vals[j - r])
                      for r in range(1, j + 1))
        coeffs = phi.coeffs.copy()
        coeffs[0, 0] += target
        phis.append(phi.with_coeffs(coeffs))
        phi_vals.append(grid.values(phis[j]))
        lams[f"phi{j}"] = lam
        residuals[f"phi{j}"] = res

    v_phi = np.zeros(order + 1)
    for j in range(1, min(order, len(phis)) + 1):
        v_phi[j] = beta * grid.integrate(pvals * phi_vals[j - 1])

    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(v_phi))):
        raise SolverError("non-finite drift coefficient in the equilibrium chain")
    diagnostics = {"lambda": lams, "residual": residuals, "solvability": solvability}
    return EquilibriumChain(
        params=params, trunc=trunc, order=order,
        fs=tuple(fs), phis=tuple(phis), v=v, v_phi_form=v_phi,
        grid=grid, diagnostics=diagnostics,
    )


def velocity_coefficient(chain: EquilibriumChain, j: int) -> float:
    """V_j, with the two defining integrals cross-checked against each other."""
    if not 1 <= j <= chain.order:
        raise ValueError(f"j must be in 1..{chain.order}")
    vf = chain.v[j]
    vscale = float(np.abs(chain.v[1:]).max())
    if j - 1 < len(chain.phis):
        vp = chain.v_phi_form[j]
        if abs(vf - vp) > 1e-6 * max(abs(vf), abs(vp), 1e-6 * vscale):
            raise SolverError(
                f"V_{j} forms disagree: f-form {vf:.9e} vs phi-form {vp:.9e} "
                "(chain not converged)"
            )
    return vf


# ---------------------------------------------------------------------------
# Diffusion-series tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTable:
    """Series coefficients: V_l, the Sigma/Xi correction tables, and the two
    D-series (full, and the naive fluctuation-dissipation extrapolation)."""

    order: int
    beta: float
    v: np.ndarray              # v[l], l = 0..K (v[0] = 0)
    sigma: np.ndarray          # sigma[n-1, l-1], 1 <= n <= l <= K-1
    xi: np.ndarray
    d_series_full: np.ndarray  # coefficient of F^l, l = 0..K-1
    d_series_naive: np.ndarray

    def sigma_column_sum(self, ell: int) -> float:
        return float(self.sigma[:, ell - 1].sum())

    def xi_column_sum(self, ell: int) -> float:
        return float(self.xi[:, ell - 1].sum())

    def rows(self) -> list[dict]:
        out = []
        for ell in range(self.order):
            out.append({
                "ell": ell,
                "V_ell": self.v[ell] if ell >= 1 else 0.0,
                "D_ell_full": self.d_series_full[ell],
                "D_ell_naive": self.d_series_naive[ell],
                "sum_Sigma": self.sigma_column_sum(ell) if ell >= 1 else 0.0,
                "sum_Xi": self.xi_column_sum(ell) if ell >= 1 else 0.0,
            })
        return out


def diffusion_coefficients(chain: EquilibriumChain) -> ExpansionTable:
    """Sigma/Xi tables by weighted quadrature of the chain fields and the
    assembled D-series coefficients."""
    K = chain.order
    beta = chain.params.beta
    grid = chain.grid
    pvals = (grid.p[:, None]) * np.ones((1, grid.q.size))
    f_vals = [grid.values(f) for f in chain.fs]
    df_vals = [grid.values(apply_lower(f)) for f in chain.fs]
    phi_vals = [grid.values(p) for p in chain.phis]

    sigma = np.zeros((K, K))
    xi = np.zeros((K, K))
    for ell in range(1, K):
        for n in range(1, ell + 1):
            sigma[n - 1, ell - 1] = grid.integrate(pvals * phi_vals[ell - n] * f_vals[n])
            xi[n - 1, ell - 1] = grid.integrate(phi_vals[ell - n] * df_vals[n]) / beta
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(xi))):
        raise SolverError("non-finite Sigma/Xi coefficient in the equilibrium chain")

    d_full = np.zeros(K)
    d_naive = np.zeros(K)
    for ell in range(K):
        d_full[ell] = chain.v[ell + 1] / beta + sigma[:, ell - 1].sum() if ell >= 1 \
            else chain.v[1] / beta
        d_naive[ell] = (ell + 1) * chain.v[ell + 1] / beta
    return ExpansionTable(order=K, beta=beta, v=chain.v.copy(),
                          sigma=sigma, xi=xi,
                          d_series_full=d_full, d_series_naive=d_naive)


def partial_sum_U(source, force: float, order: int) -> float:
    """sum_{l=1}^{order} F^l V_l from a chain or a table."""
    v = source.v
    if order >= len(v):
        raise ValueError(f"order {order} exceeds available {len(v) - 1}")
    ell = np.arange(1, order + 1)
    return float(np.sum(force ** ell * v[1 : order + 1]))


def partial_sum_D(table: ExpansionTable, force: float, order: int,
                  mode: str = "full") -> float:
    """Diffusion partial sum to the given order in F.

    ``mode="full"`` uses the complete coefficients; ``mode="naive_einstein"``
    deliberately evaluates the (false beyond linear response) hypothesis
    D_l = (l+1) V_{l+1}/beta, i.e. D(F) = dU/dF / beta, for comparison plots.
    """
    if order > table.order - 1:
        raise ValueError(f"order {order} exceeds {table.order - 1}")
    if mode == "full":
        coeffs = table.d_series_full
    elif mode == "naive_einstein":
        coeffs = table.d_series_naive
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ell = np.arange(order + 1)
    return float(np.sum(force ** ell * coeffs[: order + 1]))


def series_radius_estimate(v: np.ndarray) -> float:
    """Empirical convergence-radius estimate by the ratio test on the last
    nonzero coefficients (symmetric potentials carry odd orders only)."""
    idx = [l for l in range(1, len(v)) if abs(v[l]) > 1e-9 * np.abs(v[1:]).max()]
    if len(idx) < 2:
        return np.inf
    j, k = idx[-2], idx[-1]
    return float(abs(v[j] / v[k]) ** (1.0 / (k - j)))
