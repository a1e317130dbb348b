"""Nonperturbative drift and diffusion from the truncated kinetic hierarchy.

Projecting the cell problem -L phi = p - U onto the Hermite-Fourier basis
yields a block-tridiagonal hierarchy over the Hermite index, with
(2M+1)-sized blocks acting on packed Fourier vectors,

    Q_n^+ Phi_{n-1} + Q_n Phi_n + Q_n^- Phi_{n+1} = rhs_n,

closed by a boundary condition at the top level N.  Eliminating it from the
top is a block LU factorization: the Schur complements

    G_N = Q_N + Q_N^- S_N,    G_n = Q_n - Q_n^- G_{n+1}^{-1} Q_{n+1}^+,

(S_N = 0 for the Dirichlet closure, the identity for the Neumann one) are
inverted once each, and every level follows from the one below it,
Phi_n = G_n^{-1} (rhs_n - Q_n^+ Phi_{n-1}).

The stationary Fokker-Planck hierarchy is the negative adjoint of the cell
hierarchy in the packed metric W = diag(1, 2, .., 2) of (1/L) int f g dq.
Its Schur complements are therefore -W^{-1} G_n^T W, and the same inverses,
applied transposed, give the density level by level.  One factorization per
truncation serves both problems.  The drift is read off the stationary
density, the diffusion coefficient from pairing the density with the cell
solution, cross-checked against the gradient-squared form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrf, dgetri, dgetri_lwork
from scipy.special import roots_hermitenorm

from .model import ModelParams
from .basis import (
    HermiteFourierField,
    TruncationSpec,
    _fourier_table,
    hermite_table,
    packed_dq_matrix,
    packed_mult_matrix,
)

__all__ = [
    "HierarchyBlocks",
    "HierarchyFactors",
    "StationaryDensity",
    "TransportResult",
    "hierarchy_blocks",
    "factor_hierarchy",
    "solve_stationary_fp",
    "solve_cell_problem",
    "compute_diffusion",
    "solve_transport",
]


class SolverError(RuntimeError):
    """A linear-algebra failure that indicates an inadequate truncation."""


def _check_info(info: int, message: str) -> None:
    if info > 0:
        raise SolverError(message)
    if info < 0:
        raise ValueError(f"LAPACK argument {-info} is invalid")


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyBlocks:
    """The n-independent blocks of both level hierarchies.

    ``d_q`` is the packed d/dq matrix and ``tilt`` T the packed multiplication
    by (F - V'(q)).  Row n of the cell hierarchy for phi is

        sqrt(n) d_q Phi_{n-1} - gamma sqrt(beta) n Phi_n
            + sqrt(n+1) drift Phi_{n+1},        drift = d_q + beta T,

    and row n of the stationary-density hierarchy is

        sqrt(n) lift R_{n-1} + gamma sqrt(beta) n R_n
            + sqrt(n+1) d_q R_{n+1},            lift = d_q - beta T.

    ``friction`` is gamma sqrt(beta) and ``metric`` the diagonal of
    W = diag(1, 2, .., 2).
    """

    friction: float
    d_q: np.ndarray
    tilt: np.ndarray
    drift: np.ndarray
    lift: np.ndarray
    metric: np.ndarray

    @property
    def size(self) -> int:
        return self.d_q.shape[0]


def hierarchy_blocks(params: ModelParams, trunc: TruncationSpec) -> HierarchyBlocks:
    """Assemble the n-independent blocks for the given problem."""
    trunc.check_potential(params.potential)
    M = trunc.n_fourier
    L = params.potential.period
    d_q = packed_dq_matrix(M, L)
    tilt = packed_mult_matrix(params.potential.tilt_drift_coeffs(params.force), M, L)
    metric = np.full(2 * M + 1, 2.0)
    metric[0] = 1.0
    return HierarchyBlocks(friction=params.gamma * np.sqrt(params.beta), d_q=d_q,
                           tilt=tilt, drift=d_q + params.beta * tilt,
                           lift=d_q - params.beta * tilt, metric=metric)


# ---------------------------------------------------------------------------
# One factorization for both hierarchies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyFactors:
    """Inverses of the cell hierarchy's Schur complements G_1..G_N.

    ``bottom`` is the level-0 block Q_0^- S_0 left after the elimination; it
    is singular (constants solve the homogeneous problem).  ``params`` and
    ``trunc`` record the problem the factors belong to.
    """

    params: ModelParams
    trunc: TruncationSpec
    blocks: HierarchyBlocks = field(repr=False)
    inverses: np.ndarray = field(repr=False)    # [n] = G_n^{-1}, n = 1..N; [0] unused
    bottom: np.ndarray = field(repr=False)

    def solve(self, n: int, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """G_n^{-1} b, or G_n^{-T} b with ``transpose``."""
        inv = self.inverses[n]
        return (inv.T if transpose else inv) @ b


def factor_hierarchy(params: ModelParams, trunc: TruncationSpec,
                     blocks: HierarchyBlocks | None = None) -> HierarchyFactors:
    """Invert the Schur complements G_N..G_1 of the cell hierarchy.

    With Q_n^+ = sqrt(n) d_q and Q_n^- = sqrt(n+1) drift, the elimination step
    is Q_{n-1}^- S_{n-1} = -n drift G_n^{-1} d_q, and G_{n-1} adds the scalar
    diagonal -gamma sqrt(beta) (n-1).
    """
    if blocks is None:
        blocks = hierarchy_blocks(params, trunc)
    N = trunc.n_hermite
    size = blocks.size
    friction = blocks.friction
    lwork = int(dgetri_lwork(size)[0])
    inverses = np.empty((N + 1, size, size))
    # Q_N^- S_N: nothing above level N (dirichlet), or Phi_{N+1} = Phi_N
    g = (np.zeros((size, size)) if trunc.closure == "dirichlet"
         else np.sqrt(N + 1) * blocks.drift)
    diag = np.arange(size)
    for n in range(N, 0, -1):
        g[diag, diag] -= friction * n
        lu, piv, info = dgetrf(g, overwrite_a=1)
        _check_info(info, f"singular closure block at hermite level n={n}; "
                          "raise n_hermite or check parameters")
        inv, info = dgetri(lu, piv, lwork=lwork, overwrite_lu=1)
        _check_info(info, f"singular closure block at hermite level n={n}")
        inverses[n] = inv
        g = blocks.drift @ (inv @ blocks.d_q)
        g *= -n
    return HierarchyFactors(params=params, trunc=trunc, blocks=blocks,
                            inverses=inverses, bottom=g)


# ---------------------------------------------------------------------------
# Stationary Fokker-Planck equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryDensity:
    """Hermite-Fourier coefficients R_n of rho(q,p) = rho_hat(p) sum R_n(q) H_n(p),
    the drift U = <p>, solve diagnostics, and the hierarchy factors the
    density was solved with (reused by :func:`solve_cell_problem`)."""

    field: HermiteFourierField
    drift: float
    factors: HierarchyFactors = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    @property
    def params(self) -> ModelParams:
        return self.factors.params

    @property
    def trunc(self) -> TruncationSpec:
        return self.factors.trunc


def _density_residual(levels: np.ndarray, blocks: HierarchyBlocks, closure: str) -> float:
    """Largest residual of the density hierarchy rows n = 1..N as solved.

    The top row carries the W-adjoint of the cell closure: nothing for
    Dirichlet, sqrt(N+1) lift R_N for Neumann.
    """
    N = levels.shape[0] - 1
    n = np.arange(1, N + 1)[:, None]
    up = levels @ blocks.lift.T                  # lift R_n
    above = np.zeros_like(levels[1:])            # d_q R_{n+1}, closed at the top
    above[:-1] = levels[2:] @ blocks.d_q.T
    if closure == "neumann":
        above[-1] = up[N]
    res = (np.sqrt(n) * up[:-1] + blocks.friction * n * levels[1:]
           + np.sqrt(n + 1) * above)
    return float(np.abs(res).max())


def solve_stationary_fp(params: ModelParams, trunc: TruncationSpec,
                        blocks: HierarchyBlocks | None = None) -> StationaryDensity:
    """Stationary density and effective drift.

    Factors the cell hierarchy (:func:`factor_hierarchy`) and runs the
    density hierarchy through the transposed inverses,
    R_n = W^{-1} G_n^{-T} W sqrt(n) lift R_{n-1}.  The n = 0 row (constant
    probability flux) together with the normalization  L * R_0^0 = 1  closes
    the remaining one-dimensional freedom.  ``blocks`` lets a caller that
    solves several truncations of one problem build them once.
    """
    factors = factor_hierarchy(params, trunc, blocks)
    blocks = factors.blocks
    N = trunc.n_hermite
    L = params.potential.period
    w = blocks.metric
    w_lift = w[:, None] * blocks.lift

    S0 = factors.solve(1, w_lift, transpose=True) / w[:, None]   # R_1 = S0 R_0
    K = blocks.d_q @ S0
    K[0, :] = 0.0
    K[0, 0] = 1.0
    rhs = np.zeros((blocks.size, 1))
    rhs[0] = 1.0 / L
    _, _, R0, info = dgesv(K, rhs, overwrite_a=1)
    _check_info(info, "stationary solve is singular; raise n_hermite")

    levels = np.empty((N + 1, blocks.size))
    levels[0] = R0[:, 0]
    levels[1] = S0 @ levels[0]
    for n in range(2, N + 1):
        b = w_lift @ levels[n - 1]
        b *= np.sqrt(n)
        levels[n] = factors.solve(n, b, transpose=True) / w

    drift = L * levels[1, 0] / np.sqrt(params.beta)
    scale = max(float(np.abs(levels).max()), 1e-300)
    diagnostics = {
        "top_level_ratio": float(np.abs(levels[N]).max()) / scale,
        "hierarchy_residual": _density_residual(levels, blocks, trunc.closure) / scale,
        "normalization_residual": abs(L * levels[0, 0] - 1.0),
        "flux_residual": float(np.abs(blocks.d_q @ levels[1]).max()) / scale,
    }
    fld = HermiteFourierField(levels, L, params.beta)
    return StationaryDensity(field=fld, drift=drift, factors=factors,
                             diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Cell problem
# ---------------------------------------------------------------------------

def solve_cell_problem(params: ModelParams, trunc: TruncationSpec,
                       density: StationaryDensity) -> HermiteFourierField:
    """Solve -L phi = p - U with the centering  int phi rho dp dq = 0.

    The bottom block satisfies  Q_0^- S_0 Phi_0 = B - Q_0^- G_1^{-1} A,
    a rank-deficient system whose one-dimensional null direction is fixed by the
    discretized centering condition  sum_n (2 R_n.Phi_n - [R_n.Phi_n]_1) = 0.
    The factors come from ``density``, which must be solved for the same
    params and truncation.
    """
    phi, _ = _solve_cell(params, trunc, density)
    return phi


def _solve_cell(params: ModelParams, trunc: TruncationSpec,
                density: StationaryDensity) -> tuple[HermiteFourierField, dict]:
    if density.trunc != trunc:
        raise ValueError("density truncation does not match trunc")
    if density.params != params:
        raise ValueError("density was solved for other params")
    factors = density.factors
    blocks = factors.blocks
    N = trunc.n_hermite
    L = params.potential.period
    beta = params.beta

    size = blocks.size
    e0 = np.zeros(size)
    e0[0] = 1.0
    # rows 0 and 1 carry the right-hand side: B on row 0, A = -e0 on row 1
    B = np.sqrt(beta) * density.drift * e0
    A = -e0
    M0 = factors.bottom
    rhs0 = B - blocks.drift @ factors.solve(1, A)       # Q_0^- = drift

    Um, sv, Vt = np.linalg.svd(M0)
    rank_tol = sv[0] * 1e-10
    nullity = int(np.sum(sv < rank_tol))
    if nullity != 1:
        raise SolverError(
            f"bottom-block null space has dimension {nullity}, expected 1; "
            "truncation failure"
        )
    defect = abs(float(Um[:, -1] @ rhs0))
    rhs_scale = max(float(np.linalg.norm(rhs0)), 1e-300)
    # The left-null component must vanish in exact arithmetic; the min-norm
    # solve projects it out, so a small defect (roundoff amplified by the
    # recursion in the deep-underdamped transition region) is recorded rather
    # than fatal.  A large one means the truncation genuinely failed.
    if defect > 1e-3 * rhs_scale:
        raise SolverError(
            f"solvability violated: left-null component {defect:.3e} "
            f"exceeds 1e-3 of |rhs| = {rhs_scale:.3e}"
        )
    inv_sv = np.where(sv > rank_tol, 1.0 / np.where(sv > rank_tol, sv, 1.0), 0.0)
    phi0_min = Vt.T @ (inv_sv * (Um.T @ rhs0))
    null_dir = Vt[-1]

    # Phi_n = G_n^{-1} (rhs_n - Q_n^+ Phi_{n-1}) level by level: column 0
    # grows the particular solution from phi0_min (rhs_1 = A), column 1 the
    # homogeneous one from the null direction
    lev = np.empty((N + 1, size, 2))
    lev[0, :, 0] = phi0_min
    lev[0, :, 1] = null_dir
    for n in range(1, N + 1):
        b = blocks.d_q @ lev[n - 1]
        b *= -np.sqrt(n)
        if n == 1:
            b[:, 0] += A
        lev[n] = factors.solve(n, b)

    R = density.field.coeffs
    c_star, c_null = np.einsum("ns,nsk->k", R * blocks.metric, lev)
    if abs(c_null) < 1e-14 * max(abs(c_star), 1.0):
        raise SolverError("centering condition degenerate along the null direction")
    levels = lev[:, :, 0] - (c_star / c_null) * lev[:, :, 1]

    diag = {"nullity": nullity, "solvability_defect": defect / rhs_scale}
    return HermiteFourierField(levels, L, beta), diag


# ---------------------------------------------------------------------------
# Diffusion coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportResult:
    """Effective drift and diffusion with dual-formula cross-check.

    ``d_primary`` comes from the coefficient pairing of the density with the
    cell solution; ``d_ibp`` from the gradient-squared quadrature
    gamma/beta * int (d_p phi)^2 rho.  ``d_ibp_stability`` is the plateau
    spread of the quadrature's momentum cutoff scan: when it is not small
    relative to d_primary the quadrature (not the solve) lost accuracy.
    """

    drift: float
    d_primary: float
    d_ibp: float
    d_ibp_stability: float
    n_hermite: int
    n_fourier: int
    closure: str
    diagnostics: dict = field(default_factory=dict)


def _trim_levels(coeffs: np.ndarray, rel: float = 1e-14) -> int:
    """Number of leading levels carrying coefficients above rel * max."""
    mags = np.abs(coeffs).max(axis=1)
    floor = rel * max(mags.max(), 1e-300)
    keep = np.nonzero(mags > floor)[0]
    return int(keep[-1]) + 1 if keep.size else 1


_IBP_CUTOFFS = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)


def _gradient_squared_quadrature(density: StationaryDensity,
                                 phi: HermiteFourierField,
                                 params: ModelParams) -> tuple[float, float]:
    """gamma/beta * int (d_p phi)^2 rho dp dq with an automatic momentum cutoff.

    Hermite series evaluated far outside their oscillatory region amplify
    coefficient noise catastrophically, so the Gauss rule is restricted to
    |x| <= mu + c where mu covers the density's momentum support.  The cutoff
    c is scanned and the value read off the stability plateau; the plateau
    spread is returned as a quality measure.  The integrand is tabulated once,
    on the widest cutoff, and each narrower one sums a subset of its rows.
    """
    beta, gamma = params.beta, params.gamma
    L = params.potential.period
    R = density.field.coeffs
    n = np.arange(1, phi.coeffs.shape[0])
    dphi = np.zeros_like(phi.coeffs)                            # levels of d_p phi
    dphi[:-1] = np.sqrt(beta * n)[:, None] * phi.coeffs[1:]

    n_eff = min(max(_trim_levels(dphi), _trim_levels(R), 8), R.shape[0])
    dphi = dphi[:n_eff]
    Rt = R[:n_eff]
    M = phi.n_fourier
    n_q = max(64, 8 * M)
    n_p = 2 * n_eff + 8
    x, wp = roots_hermitenorm(n_p)
    wp = wp / np.sqrt(2.0 * np.pi)
    q = np.arange(n_q) * L / n_q
    ftab = _fourier_table(M, L, q)
    wq = np.full(n_q, L / n_q)

    mu = np.sqrt(beta) * max(abs(density.drift), abs(params.force) / gamma)
    widest = np.abs(x) <= mu + _IBP_CUTOFFS[-1]
    x, wp = x[widest], wp[widest]
    H = hermite_table(n_eff - 1, x)
    vd = H @ dphi @ ftab
    vr = H @ Rt @ ftab
    integrand = vd * vd * vr
    vals = []
    for c in _IBP_CUTOFFS:
        keep = np.abs(x) <= mu + c
        vals.append(gamma / beta * float((wp[keep] @ integrand[keep]) @ wq))
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    best = int(np.argmin(diffs))
    return vals[best + 1], diffs[best]


def _level_pairs(x: np.ndarray, y: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """(1/L) int x_n y_n dq for each level n of packed level stacks."""
    return np.einsum("ns,ns->n", x * metric, y)


def compute_diffusion(density: StationaryDensity, phi: HermiteFourierField,
                      params: ModelParams) -> TransportResult:
    """Diffusion coefficient from the level-pairing formula plus the
    gradient-squared cross-check.

    D = L sum_n sqrt((n+1)/beta) (2 R_{n+1}.Phi_n - [R_{n+1}.Phi_n]_1
                                  + 2 R_n.Phi_{n+1} - [R_n.Phi_{n+1}]_1)
    """
    if density.field.coeffs.shape != phi.coeffs.shape:
        raise ValueError("density and cell solution truncations differ")
    beta = params.beta
    L = params.potential.period
    R, P = density.field.coeffs, phi.coeffs
    N = R.shape[0] - 1
    metric = density.factors.blocks.metric
    pairs = _level_pairs(R[1:], P[:-1], metric) + _level_pairs(R[:-1], P[1:], metric)
    d_primary = L * float(np.sqrt(np.arange(1, N + 1) / beta) @ pairs)

    d_ibp, stability = _gradient_squared_quadrature(density, phi, params)

    diagnostics = dict(density.diagnostics)
    pscale = max(float(np.abs(P).max()), 1e-300)
    diagnostics["top_level_ratio_phi"] = float(np.abs(P[N]).max()) / pscale
    return TransportResult(
        drift=density.drift,
        d_primary=d_primary,
        d_ibp=d_ibp,
        d_ibp_stability=stability,
        n_hermite=N,
        n_fourier=phi.n_fourier,
        closure=density.trunc.closure,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------

def solve_transport(params: ModelParams, trunc: TruncationSpec,
                    adaptive: bool = False, adapt_tol: float = 1e-8,
                    n_hermite_max: int = 8192) -> TransportResult:
    """Stationary density + cell problem + diffusion in one call.

    With ``adaptive=True`` the Hermite truncation is doubled until the top
    level of both the density and the cell solution falls below ``adapt_tol``
    relative to the field norm (needed in the small-friction regime, where the
    hierarchy decays slowly).
    """
    blocks = hierarchy_blocks(params, trunc)
    cur = trunc
    while True:
        try:
            density = solve_stationary_fp(params, cur, blocks=blocks)
            phi, cell_diag = _solve_cell(params, cur, density)
        except SolverError:
            # below a working truncation the hierarchy closure is often
            # singular or loses solvability; retry larger before giving up
            if adaptive and 2 * cur.n_hermite <= n_hermite_max:
                cur = cur.with_n_hermite(2 * cur.n_hermite)
                continue
            raise
        pscale = max(float(np.abs(phi.coeffs).max()), 1e-300)
        top_phi = float(np.abs(phi.coeffs[cur.n_hermite]).max()) / pscale
        converged = (
            density.diagnostics["top_level_ratio"] <= adapt_tol
            and top_phi <= adapt_tol
        )
        if not adaptive or converged or 2 * cur.n_hermite > n_hermite_max:
            result = compute_diffusion(density, phi, params)
            diagnostics = dict(result.diagnostics)
            diagnostics.update(cell_diag)
            if adaptive and not converged:
                diagnostics["adaptive_cap_hit"] = True
            return TransportResult(
                drift=result.drift, d_primary=result.d_primary, d_ibp=result.d_ibp,
                d_ibp_stability=result.d_ibp_stability, n_hermite=cur.n_hermite,
                n_fourier=cur.n_fourier, closure=cur.closure,
                diagnostics=diagnostics,
            )
        cur = cur.with_n_hermite(2 * cur.n_hermite)
