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

Row n of the nonperturbative solver's cell hierarchy is -sqrt(beta) times
row n of -L0, so each Poisson problem -L0 psi = u is one
:func:`~washboard.transport.solve_levels` with right-hand side -sqrt(beta) u
on :func:`~washboard.transport.factor_hierarchy` at F = 0; the mean
<psi, 1>_beta = 0 fixes the constant it leaves free.  Both chains share one
factorization:
the adjoint is the momentum-flip conjugate -Lhat0 = J (-L0) J with
J = diag((-1)^m) over the Hermite levels.

Every integral against the equilibrium density is one pairing
<g, h>_beta = sum_n g_n . G h_n through the Gibbs Gram matrix G of
:func:`~washboard.basis.gibbs_gram`: V_j = <p, f_j>, its phi-form
beta <p, phi_{j-1}>, the side conditions <f_r, phi_{j-r}>,
Sigma_nl = <p phi_{l-n}, f_n> and Xi_nl = <phi_{l-n}, a- f_n>/beta; the
mean <psi, 1>_beta is G's column 0 on level 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams
from .basis import (
    HermiteFourierField,
    TruncationSpec,
    apply_lower,
    apply_momentum,
    apply_raise,
    gibbs_gram,
    gibbs_inner,
    packed_dq_matrix,
    packed_mult_matrix,
)
from .transport import SolverError, _level_ratios, factor_hierarchy, solve_levels

__all__ = [
    "EquilibriumChain",
    "ExpansionTable",
    "assemble_generator",
    "EquilibriumPoissonSolver",
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

def assemble_generator(params: ModelParams, trunc: TruncationSpec):
    """Sparse CSR matrix of -L on stacked level coefficients.

    Level m couples to m-1 and m+1 through d/dq and the tilt drift; the
    Ornstein-Uhlenbeck part contributes +gamma*m on the diagonal of -L.  In
    the basis centred at p = 0, with d_q the packed d/dq matrix and T the
    packed multiplication by F - V'(q), the blocks of level m are

        sub-diagonal    -sqrt(m/beta) d_q
        diagonal        gamma m I
        super-diagonal  -sqrt((m+1)/beta) d_q - sqrt(beta (m+1)) T

    No solver uses it: it is the assembled reference the level recursion of
    :mod:`~washboard.transport` is checked against.  All levels are
    assembled in one COO pass.  Every diagonal entry is stored, level 0's
    zeros included, and an off-diagonal entry is stored exactly when its
    value is nonzero, so a super-diagonal entry whose two terms cancel is
    not.  Each value is the same floating-point expression, evaluated in the
    same order, as in a block-by-block build, so ``indptr``, ``indices`` and
    ``data`` equal that build's bit for bit (for finite level factors, i.e.
    beta (N+1) below the float range).  ``scipy.sparse`` is imported here,
    so that importing the package does not load it.
    """
    import scipy.sparse as sp

    trunc.check_potential(params.potential)
    N, M, L = trunc.n_hermite, trunc.n_fourier, params.potential.period
    d_q = packed_dq_matrix(M, L)
    tilt = packed_mult_matrix(params.potential.tilt_drift_coeffs(params.force), M, L)
    size = d_q.shape[0]
    n = (N + 1) * size
    beta = params.beta
    lower = size * np.arange(N)[:, None]   # first row of levels 0..N-1
    upper = lower + size                   # first row of levels 1..N
    up = np.arange(1, N + 1)
    # a[m-1] scales d_q in the sub-block of level m and the super-block of m-1
    a = (-np.sqrt(up / beta))[:, None]
    b = np.sqrt(beta * up)[:, None]
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


# Largest |<1, rhs>_beta| a Poisson right-hand side may carry, relative to
# max(max|rhs|, 1).
_SOLVABILITY_TOL = 1e-9


class EquilibriumPoissonSolver:
    """Solver for -L0 psi = u with <psi, 1>_beta = 0, reusing one factorization.

    The bottom block's left null vector is column 0 of the Gibbs Gram matrix
    ``gram`` (:func:`~washboard.basis.gibbs_gram`); its coefficient absorbs
    the (spectrally small) discrete solvability defect and is returned as
    ``lam``.  A shift of psi_0^0 then fixes the mean.
    """

    def __init__(self, params: ModelParams, trunc: TruncationSpec):
        if params.force != 0.0:
            raise ValueError("equilibrium Poisson solver requires force = 0")
        self.params = params
        self.trunc = trunc
        self.gram = gibbs_gram(params, trunc.n_fourier)
        self._factors = factor_hierarchy(params, trunc)

    def mean(self, v: HermiteFourierField) -> float:
        """<v, 1>_beta from the Gram matrix's column 0 (exact in the basis)."""
        return float(self.gram[:, 0] @ v.coeffs[0])

    def solve(self, rhs: HermiteFourierField) -> tuple[HermiteFourierField, float, float]:
        """Mean-zero solution psi plus (lam, residual) diagnostics.

        ``residual`` is the largest entry of -L0 psi - u, from the hierarchy
        rows.  Raises if the right-hand side violates the solvability
        condition <1, rhs>_beta = 0 beyond ``_SOLVABILITY_TOL`` (relative to
        its size).
        """
        defect = abs(self.mean(rhs))
        if defect > _SOLVABILITY_TOL * max(float(np.abs(rhs.coeffs).max()), 1.0):
            raise SolverError(
                f"right-hand side violates solvability: <1, rhs> = {defect:.3e}"
            )
        t = self.gram[:, 0]
        r = -np.sqrt(self.params.beta) * rhs.coeffs
        psi, lam, _ = solve_levels(self._factors, r, t)
        psi[0, 0] -= (t @ psi[0]) / t[0]

        # hierarchy row n minus r_n: sqrt(n) d_q psi_{n-1} - gamma sqrt(beta) n
        # psi_n + sqrt(n+1) drift psi_{n+1} - r_n, nothing above level N
        blocks = self._factors.blocks
        m = np.arange(psi.shape[0])[:, None]
        rows = -blocks.friction * m * psi - r
        rows[1:] += np.sqrt(m[1:]) * (psi[:-1] @ blocks.d_q.T)
        rows[:-1] += np.sqrt(m[1:]) * (psi[1:] @ blocks.drift.T)
        residual = float(np.abs(rows).max()) / np.sqrt(self.params.beta)
        fld = HermiteFourierField(psi, self.params.potential.period, self.params.beta)
        return fld, lam, residual


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

def _flip_momentum(field: HermiteFourierField) -> HermiteFourierField:
    """J field with J = diag((-1)^m) over the Hermite levels (p -> -p)."""
    signs = np.where(np.arange(field.n_hermite + 1) % 2, -1.0, 1.0)
    return field.with_coeffs(signs[:, None] * field.coeffs)


@dataclass(frozen=True)
class EquilibriumChain:
    """Solutions f_0..f_K and phi_0..phi_{K-1} of the equilibrium chain,
    the drift coefficients V_1..V_K, and the Gibbs Gram matrix every pairing
    of the chain's fields goes through.  ``diagnostics`` holds, per field,
    the solve's ``lambda``, ``residual`` and ``top_level_ratio``
    (max |level N| / max |solution|), and the phi right-hand sides'
    ``solvability``."""

    params: ModelParams
    trunc: TruncationSpec
    order: int
    fs: tuple[HermiteFourierField, ...]
    phis: tuple[HermiteFourierField, ...]
    v: np.ndarray                       # v[j] = V_j, v[0] = 0
    v_phi_form: np.ndarray              # beta <p, phi_{j-1}>_beta
    gram: np.ndarray = field(repr=False)
    diagnostics: dict = field(default_factory=dict, repr=False)

    def inner(self, g: HermiteFourierField, h: HermiteFourierField) -> float:
        """<g, h>_beta = int g h rho_bar dp dq."""
        return gibbs_inner(self.gram, g, h)


def build_chain(params: ModelParams, trunc: TruncationSpec, order: int
                ) -> EquilibriumChain:
    """Solve the equilibrium chain up to the given order (default figure runs
    use order 9).

    f_j is produced by repeated adjoint-solve of the raised previous member.
    The adjoint needs no factorization of its own: with J = diag((-1)^m),
    -Lhat0 = J (-L0) J, so f_j = J psi where -L0 psi = J a+ f_{j-1} is solved
    on the factorization that also serves the phi chain.  V_j is needed on
    the fly because it enters the phi_j right-hand side.
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

    solver = EquilibriumPoissonSolver(params, trunc)
    gram = solver.gram
    p_field = HermiteFourierField.momentum(N, M, L, beta)

    diagnostics = {"lambda": {}, "residual": {}, "solvability": {}, "top_level_ratio": {}}

    def solve(name: str, rhs: HermiteFourierField) -> HermiteFourierField:
        psi, lam, res = solver.solve(rhs)
        diagnostics["lambda"][name] = lam
        diagnostics["residual"][name] = res
        diagnostics["top_level_ratio"][name] = float(_level_ratios(psi.coeffs)[-1])
        return psi

    fs = [HermiteFourierField.constant(1.0, N, M, L, beta)]
    for j in range(1, order + 1):
        rhs = apply_raise(fs[j - 1])
        try:
            fs.append(_flip_momentum(solve(f"f{j}", _flip_momentum(rhs))))
        except SolverError as exc:
            raise SolverError(f"f-chain solve failed at j={j}: {exc}") from exc

    v = np.zeros(order + 1)
    for j in range(1, order + 1):
        v[j] = gibbs_inner(gram, p_field, fs[j])

    phis = [solve("phi0", p_field)]
    for j in range(1, order):
        lowered = apply_lower(phis[j - 1])
        mean_lowered = solver.mean(lowered)
        diagnostics["solvability"][f"phi{j}"] = abs(mean_lowered - v[j])
        rhs = lowered.plus(
            HermiteFourierField.constant(-v[j], N, M, L, beta))
        try:
            phi = solve(f"phi{j}", rhs)
        except SolverError as exc:
            raise SolverError(
                f"phi-chain solvability failed at j={j}: "
                f"<a- phi_{j-1}, 1> - V_{j} = {mean_lowered - v[j]:.3e}"
            ) from exc
        target = -sum(gibbs_inner(gram, fs[r], phis[j - r]) for r in range(1, j + 1))
        coeffs = phi.coeffs.copy()
        coeffs[0, 0] += target
        phis.append(phi.with_coeffs(coeffs))

    v_phi = np.zeros(order + 1)
    for j in range(1, min(order, len(phis)) + 1):
        v_phi[j] = beta * gibbs_inner(gram, p_field, phis[j - 1])

    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(v_phi))):
        raise SolverError("non-finite drift coefficient in the equilibrium chain")
    return EquilibriumChain(
        params=params, trunc=trunc, order=order,
        fs=tuple(fs), phis=tuple(phis), v=v, v_phi_form=v_phi,
        gram=gram, diagnostics=diagnostics,
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
    """Sigma/Xi tables by Gibbs pairings of the chain fields,
    Sigma_nl = <p phi_{l-n}, f_n> and Xi_nl = <phi_{l-n}, a- f_n>/beta, and the
    assembled D-series coefficients."""
    K = chain.order
    beta = chain.params.beta
    p_phis = [apply_momentum(phi) for phi in chain.phis]
    lowered = [apply_lower(f) for f in chain.fs]

    sigma = np.zeros((K, K))
    xi = np.zeros((K, K))
    for ell in range(1, K):
        for n in range(1, ell + 1):
            sigma[n - 1, ell - 1] = chain.inner(p_phis[ell - n], chain.fs[n])
            xi[n - 1, ell - 1] = chain.inner(chain.phis[ell - n], lowered[n]) / beta
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
