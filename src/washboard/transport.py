"""Nonperturbative drift and diffusion from the truncated kinetic hierarchy.

Both hierarchies are solved in the displaced Hermite basis H_n(p - p0),
centred at the free drift p0 = F/gamma (computed from the parameters).  In the
Maxwellian basis centred at p = 0 the coefficients of a running state grow
like exp(beta p0^2 / 2) with the level, and no affordable truncation converges
past the critical tilt; centred on the drift they stay of order one (the
translated Hermite basis of T. Tang, SIAM J. Sci. Comput. 14 (1993) 594).
Since F - gamma p0 = 0, the displaced hierarchy has the blocks of the untilted
problem, plus sqrt(beta) p0 d_q on every diagonal block, level 0 included.
Every field returned here (density, cell solution) is in that basis and
carries its centre as ``HermiteFourierField.p0``.

Projecting the cell problem -L phi = p - U onto the Hermite-Fourier basis
yields a block-tridiagonal hierarchy over the Hermite index, with
(2M+1)-sized blocks acting on packed Fourier vectors,

    Q_n^+ Phi_{n-1} + Q_n Phi_n + Q_n^- Phi_{n+1} = rhs_n,

with nothing above level N.  Eliminating it from the top is a block LU
factorization: the Schur complements

    G_N = Q_N,    G_n = Q_n - Q_n^- G_{n+1}^{-1} Q_{n+1}^+,

are inverted once each, and every level follows from the one below it,
Phi_n = G_n^{-1} (rhs_n - Q_n^+ Phi_{n-1}).

The stationary Fokker-Planck hierarchy is the negative adjoint of the cell
hierarchy in the packed metric W = diag(1, 2, .., 2) of (1/L) int f g dq
(d_q is skew in W, so the shift sqrt(beta) p0 d_q is its own negative
adjoint).  Its Schur complements are therefore -W^{-1} G_n^T W, and the same
inverses, applied transposed, give the density level by level.  One factorization per
truncation serves the density, the cell problem and, at F = 0, the tilt-series
chain of :mod:`washboard.expansion` (row n of the cell hierarchy is
-sqrt(beta) times row n of -L).  The drift is read off the stationary
density, the diffusion coefficient from pairing the density with the cell
solution, cross-checked against the gradient-squared form.  The singular
level-0 block left by the elimination has the exact kernels e0 (right) and
W R_0 (left); :func:`solve_levels` uses them directly, and flags a failed
truncation by a LAPACK reciprocal condition estimate below 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dgecon, dgesv, dgetrf, dgetri, dgetri_lwork, dgetrs

from .blas import one_thread
from .model import ModelParams
from .basis import (
    HermiteFourierField,
    TruncationSpec,
    fourier_table,
    gauss_maxwell_nodes,
    hermite_table,
    packed_dq_matrix,
    packed_metric,
    packed_mult_matrix,
)

__all__ = [
    "HierarchyBlocks",
    "HierarchyFactors",
    "StationaryDensity",
    "TransportResult",
    "hierarchy_blocks",
    "displaced_blocks",
    "factor_hierarchy",
    "solve_levels",
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
    by (F - gamma p0 - V'(q)) in the Hermite basis centred at ``p0``.  Row n
    of the cell hierarchy for phi is

        sqrt(n) d_q Phi_{n-1} + (shift d_q - gamma sqrt(beta) n) Phi_n
            + sqrt(n+1) drift Phi_{n+1},        drift = d_q + beta T,

    and row n of the stationary-density hierarchy is

        sqrt(n) lift R_{n-1} + (shift d_q + gamma sqrt(beta) n) R_n
            + sqrt(n+1) d_q R_{n+1},            lift = d_q - beta T,

    with ``shift`` = sqrt(beta) p0.  ``friction`` is gamma sqrt(beta) and
    ``metric`` the diagonal of W = diag(1, 2, .., 2).
    """

    friction: float
    d_q: np.ndarray
    tilt: np.ndarray
    drift: np.ndarray
    lift: np.ndarray
    metric: np.ndarray
    p0: float = 0.0
    shift: float = 0.0

    @property
    def size(self) -> int:
        return self.d_q.shape[0]

    @cached_property
    def _shift_block(self) -> np.ndarray:
        return self.shift * self.d_q

    def add_shift(self, g: np.ndarray) -> np.ndarray:
        """g += shift d_q in place, one dense add (g is left as it is at
        p0 = 0)."""
        if self.shift:
            g += self._shift_block
        return g


def hierarchy_blocks(params: ModelParams, trunc: TruncationSpec) -> HierarchyBlocks:
    """Assemble the n-independent blocks in the Maxwellian basis centred at p = 0."""
    trunc.check_potential(params.potential)
    M = trunc.n_fourier
    L = params.potential.period
    d_q = packed_dq_matrix(M, L)
    tilt = packed_mult_matrix(params.potential.tilt_drift_coeffs(params.force), M, L)
    return HierarchyBlocks(friction=params.gamma * np.sqrt(params.beta), d_q=d_q,
                           tilt=tilt, drift=d_q + params.beta * tilt,
                           lift=d_q - params.beta * tilt, metric=packed_metric(M))


def displaced_blocks(params: ModelParams, trunc: TruncationSpec) -> HierarchyBlocks:
    """The blocks the solvers use: basis centred at the free drift p0 = F/gamma.

    The tilt F - gamma p0 is exactly 0, so these are the blocks of the
    untilted problem with the diagonal shift sqrt(beta) p0 d_q; at F = 0 they
    equal :func:`hierarchy_blocks`.
    """
    p0 = params.force / params.gamma
    blocks = hierarchy_blocks(params.with_force(0.0), trunc)
    return replace(blocks, p0=p0, shift=np.sqrt(params.beta) * p0)


# ---------------------------------------------------------------------------
# One factorization for both hierarchies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyFactors:
    """Inverses of the cell hierarchy's Schur complements G_1..G_N.

    The hierarchy has nothing above level N = ``trunc.n_hermite``, so
    G_N = Q_N.  ``bottom`` is the level-0 block
    G_0 = Q_0 - Q_0^- G_1^{-1} Q_1^+ left after the elimination,
    Q_0 = sqrt(beta) p0 d_q; it is singular, with column 0
    exactly zero (constants solve the homogeneous problem).  It is a copy
    of ``inverses[0]``, the scratch slot G_0 was built in, so dropping
    ``inverses`` frees the whole stack.  ``params`` and ``trunc`` record the
    problem the factors belong to, ``blocks`` the basis.  ``inverses`` is
    None in the factors :func:`solve_transport` keeps past the cell solve.
    """

    params: ModelParams
    trunc: TruncationSpec
    blocks: HierarchyBlocks = field(repr=False)
    inverses: np.ndarray | None = field(repr=False)   # [n] = G_n^{-1}, n = 1..N; [0] G_0
    bottom: np.ndarray = field(repr=False)

    def solve(self, n: int, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """G_n^{-1} b, or G_n^{-T} b with ``transpose``."""
        inv = self.inverses[n]
        return (inv.T if transpose else inv) @ b


@one_thread()
def factor_hierarchy(params: ModelParams, trunc: TruncationSpec,
                     blocks: HierarchyBlocks | None = None) -> HierarchyFactors:
    """Invert the Schur complements G_N..G_1 of the cell hierarchy.

    With Q_n^+ = sqrt(n) d_q and Q_n^- = sqrt(n+1) drift, the elimination step
    is G_{n-1} = Q_{n-1} - n drift G_n^{-1} d_q, starting from G_N = Q_N, with
    the diagonal block Q_n = shift d_q - gamma sqrt(beta) n.  Each G_n is
    built in slot n of the returned stack and inverted there without a copy:
    the slot's transpose is an F-ordered view, so LAPACK factors G_n^T in
    place (getrf) and overwrites it with G_n^{-T} (getri), which read in C
    order is G_n^{-1}.  The next step's product is written into slot n-1,
    so slot 0 ends as scratch holding G_0, of which ``bottom`` is a copy.
    ``blocks`` defaults to :func:`displaced_blocks`; blocks centred elsewhere
    than F/gamma raise ValueError.  Runs on one BLAS thread
    (:mod:`washboard.blas`): threading kernels on blocks this small costs
    more than it gains.
    """
    if blocks is None:
        blocks = displaced_blocks(params, trunc)
    elif blocks.p0 != params.force / params.gamma:
        raise ValueError(f"blocks are centred at p0={blocks.p0}, the solver's basis "
                         f"at F/gamma={params.force / params.gamma}")
    N = trunc.n_hermite
    size = blocks.size
    friction = blocks.friction
    lwork = int(dgetri_lwork(size)[0])
    inverses = np.empty((N + 1, size, size))
    inverses[N] = 0.0
    blocks.add_shift(inverses[N])
    for n in range(N, 0, -1):
        g = inverses[n]
        g.reshape(-1)[:: size + 1] -= friction * n     # a view of the diagonal
        lu, piv, info = dgetrf(g.T, overwrite_a=1)
        _check_info(info, f"singular Schur complement at hermite level n={n}; "
                          "raise n_hermite or check parameters")
        _, info = dgetri(lu, piv, lwork=lwork, overwrite_lu=1)
        _check_info(info, f"singular Schur complement at hermite level n={n}")
        below = np.matmul(blocks.drift, g @ blocks.d_q, out=inverses[n - 1])
        below *= -n
        blocks.add_shift(below)
    return HierarchyFactors(params=params, trunc=trunc, blocks=blocks,
                            inverses=inverses, bottom=inverses[0].copy())


# ---------------------------------------------------------------------------
# Stationary Fokker-Planck equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryDensity:
    """Hermite-Fourier coefficients R_n of
    rho(q,p) = rho_hat(p - p0) sum R_n(q) H_n(p - p0) in the basis centred at
    p0 = F/gamma (``field.p0``), the drift U = <p>, solve diagnostics, and the
    hierarchy factors the density was solved with (reused by
    :func:`solve_cell_problem`)."""

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


def _density_residual(levels: np.ndarray, blocks: HierarchyBlocks) -> float:
    """Largest residual of the density hierarchy rows n = 1..N as solved.

    Nothing lies above level N; every row has the diagonal shift d_q R_n of
    the displaced basis.
    """
    N = levels.shape[0] - 1
    n = np.arange(1, N + 1)[:, None]
    up = levels @ blocks.lift.T                  # lift R_n
    above = np.zeros_like(levels[1:])            # d_q R_{n+1}, closed at the top
    above[:-1] = levels[2:] @ blocks.d_q.T
    res = (np.sqrt(n) * up[:-1] + blocks.friction * n * levels[1:]
           + np.sqrt(n + 1) * above)
    if blocks.shift:
        res += blocks.shift * (levels[1:] @ blocks.d_q.T)
    return float(np.abs(res).max())


@one_thread()
def solve_stationary_fp(params: ModelParams, trunc: TruncationSpec,
                        blocks: HierarchyBlocks | None = None) -> StationaryDensity:
    """Stationary density and effective drift.

    Factors the cell hierarchy (:func:`factor_hierarchy`) and runs the
    density hierarchy through the transposed inverses,
    R_n = W^{-1} G_n^{-T} W sqrt(n) lift R_{n-1}.  The n = 0 row (constant
    probability flux), d_q (R_1 + sqrt(beta) p0 R_0) = 0, together with the
    normalization  L * R_0^0 = 1  closes the remaining one-dimensional
    freedom, and U = p0 + L R_1^0 / sqrt(beta).  The returned coefficients
    are in the basis centred at p0 = F/gamma.  ``blocks`` lets a caller that
    solves several truncations of one problem build them once; they must be
    :func:`displaced_blocks` of the same problem.
    """
    factors = factor_hierarchy(params, trunc, blocks)
    blocks = factors.blocks
    N = trunc.n_hermite
    L = params.potential.period
    w = blocks.metric
    w_lift = w[:, None] * blocks.lift

    S0 = factors.solve(1, w_lift, transpose=True) / w[:, None]   # R_1 = S0 R_0
    K = blocks.add_shift(blocks.d_q @ S0)
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

    drift = blocks.p0 + L * levels[1, 0] / np.sqrt(params.beta)
    scale = max(float(np.abs(levels).max()), 1e-300)
    flux = blocks.d_q @ (levels[1] + blocks.shift * levels[0])    # the n = 0 row
    diagnostics = {
        "top_level_ratio": float(np.abs(levels[N]).max()) / scale,
        "hierarchy_residual": _density_residual(levels, blocks) / scale,
        "normalization_residual": abs(L * levels[0, 0] - 1.0),
        "flux_residual": float(np.abs(flux).max()) / scale,
    }
    fld = HermiteFourierField(levels, L, params.beta, blocks.p0)
    return StationaryDensity(field=fld, drift=drift, factors=factors,
                             diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Cell problem
# ---------------------------------------------------------------------------

def solve_cell_problem(params: ModelParams, trunc: TruncationSpec,
                       density: StationaryDensity) -> HermiteFourierField:
    """Solve -L phi = p - U with the centering  int phi rho dp dq = 0.

    The coefficients are in the basis of ``density``, centred at
    p0 = F/gamma, where p - U = (p0 - U) + H_1(p - p0) / sqrt(beta).
    :func:`solve_levels` solves the hierarchy with left null vector W R_0,
    and the discretized centering condition
    sum_n (2 R_n.Phi_n - [R_n.Phi_n]_1) = 0  then fixes Phi_0^0.  The factors
    come from ``density``, which must be solved for the same params and
    truncation.
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
    R = density.field.coeffs

    rhs = np.zeros((2, blocks.size))     # sqrt(beta) (U - p0) e0 and -e0
    rhs[:, 0] = np.sqrt(params.beta) * (density.drift - blocks.p0), -1.0
    levels, _, defect = solve_levels(factors, rhs, blocks.metric * R[0])
    # The left-null component must vanish in exact arithmetic; the solve
    # absorbs it, so a small defect (roundoff amplified by the recursion in
    # the deep-underdamped transition region) is recorded rather than fatal.
    # A large one means the truncation genuinely failed.
    if defect > 1e-3:
        raise SolverError(f"solvability violated: left-null component {defect:.3e} "
                          "exceeds 1e-3 of |W R_0| |rhs|")
    # centering: the null vector e0 pairs with R_0^0 alone
    levels[0, 0] -= np.einsum("ns,ns->", R * blocks.metric, levels) / R[0, 0]
    return (HermiteFourierField(levels, params.potential.period, params.beta, blocks.p0),
            {"solvability_defect": defect})


@one_thread()
def solve_levels(factors: HierarchyFactors, rhs: np.ndarray, left_null: np.ndarray
                 ) -> tuple[np.ndarray, float, float]:
    """Solve the cell hierarchy for right-hand side levels 0..K-1, K <= N+1.

    The down-sweep y_n = r_n - sqrt(n+1) drift G_{n+1}^{-1} y_{n+1} starts at
    level K-1, the highest level ``rhs`` holds; the bottom block, with column 0
    (its right null vector e0) replaced by its left null vector
    ``left_null``, gives Phi_0 from y_0 (SolverError below a reciprocal
    condition estimate of 1e-10); the up-sweep is
    Phi_n = G_n^{-1} (y_n - sqrt(n) d_q Phi_{n-1}).  Returns the levels with
    Phi_0^0 = 0, the coefficient of ``left_null`` and the solvability defect
    |left_null . y_0| / (|left_null| |y_0|).
    """
    blocks = factors.blocks
    N = factors.trunc.n_hermite
    top = rhs.shape[0] - 1
    y = np.array(rhs, dtype=float)
    for n in range(top - 1, -1, -1):
        t = blocks.drift @ factors.solve(n + 1, y[n + 1])
        t *= -np.sqrt(n + 1)
        y[n] += t

    defect = abs(float(left_null @ y[0]))
    scale = max(float(np.linalg.norm(left_null) * np.linalg.norm(y[0])), 1e-300)
    K = factors.bottom.copy()
    K[:, 0] = left_null
    lu, piv, info = dgetrf(K)
    _check_info(info, "cell bottom block is singular; truncation failure")
    rcond, _ = dgecon(lu, np.abs(K).sum(axis=0).max(), norm="1")
    if rcond < 1e-10:
        raise SolverError(f"cell bottom block is ill-conditioned (rcond {rcond:.2e}); "
                          "truncation failure")

    levels = np.empty((N + 1, blocks.size))
    levels[0] = dgetrs(lu, piv, y[0])[0]
    coefficient = float(levels[0, 0])
    levels[0, 0] = 0.0
    for n in range(1, N + 1):
        b = blocks.d_q @ levels[n - 1]
        b *= -np.sqrt(n)
        if n <= top:
            b += y[n]
        levels[n] = factors.solve(n, b)
    return levels, coefficient, defect / scale


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

    ``diagnostics`` holds the density's solve diagnostics, the top-level
    ratio of the cell solution, the basis centre ``p0`` = F/gamma and the
    coefficient growth ``log10_growth_R`` = log10(max_n |R_n| / |R_0|) and
    ``log10_growth_phi`` = log10(max_n |Phi_n| / |Phi_0|), with |.| the
    largest packed coefficient of a level.
    """

    drift: float
    d_primary: float
    d_ibp: float
    d_ibp_stability: float
    n_hermite: int
    n_fourier: int
    diagnostics: dict = field(default_factory=dict)


def _trim_levels(coeffs: np.ndarray, rel: float = 1e-14) -> int:
    """Number of leading levels carrying coefficients above rel * max."""
    mags = np.abs(coeffs).max(axis=1)
    floor = rel * max(mags.max(), 1e-300)
    keep = np.nonzero(mags > floor)[0]
    return int(keep[-1]) + 1 if keep.size else 1


_IBP_CUTOFFS = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)


@lru_cache(maxsize=32)
def _gauss_maxwell_rule(n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n_p-point Gauss rule for the unit
    Maxwellian, computed once per node count (sweeps repeat it)."""
    x, wp = gauss_maxwell_nodes(n_p, 1.0)
    x.flags.writeable = False
    wp.flags.writeable = False
    return x, wp


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
    The rule runs in x = sqrt(beta) (p - p0), the variable of the fields'
    basis, so mu = sqrt(beta) max(|U - p0|, |F/gamma - p0|).
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
    x, wp = _gauss_maxwell_rule(2 * n_eff + 8)
    q = np.arange(n_q) * L / n_q
    ftab = fourier_table(M, L, q)
    wq = np.full(n_q, L / n_q)

    p0 = density.field.p0
    mu = np.sqrt(beta) * max(abs(density.drift - p0), abs(params.force / gamma - p0))
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


def _level_ratios(coeffs: np.ndarray) -> np.ndarray:
    """max |level n| relative to max |all levels|, for every level n."""
    mags = np.abs(coeffs).max(axis=1)
    return mags / max(float(mags.max()), 1e-300)


def _log10_growth(coeffs: np.ndarray) -> float:
    """log10 of the largest level over level 0 (max |coefficient| per level)."""
    return -float(np.log10(max(_level_ratios(coeffs)[0], 1e-300)))


def _level_pairs(x: np.ndarray, y: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """(1/L) int x_n y_n dq for each level n of packed level stacks."""
    return np.einsum("ns,ns->n", x * metric, y)


@one_thread()
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
    diagnostics.update(p0=density.field.p0, log10_growth_R=_log10_growth(R),
                       log10_growth_phi=_log10_growth(P))
    return TransportResult(
        drift=density.drift,
        d_primary=d_primary,
        d_ibp=d_ibp,
        d_ibp_stability=stability,
        n_hermite=N,
        n_fourier=phi.n_fourier,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------

# Adaptive truncation: climb the half-octave rungs of _ladder until both
# top-level ratios are at most _ADAPT_TOL, but never past _N_HERMITE_MAX
# levels.  A rung skipped by sweep continuation counts as failed when every
# level of the converged solution up to it exceeds _CERT_FACTOR * _ADAPT_TOL.
_ADAPT_TOL = 1e-8
_CERT_FACTOR = 2.0
_N_HERMITE_MAX = 8192


def _ladder(n0: int) -> list[int]:
    """The adaptive rungs n0, 3 n0/2, 2 n0, 3 n0, 4 n0, 6 n0, .. up to
    ``_N_HERMITE_MAX``: half octaves, rounded down, strictly increasing (a
    rung that rounds onto the one before it is dropped); [n0] alone when n0
    is above the cap."""
    rungs, octave = [n0], n0
    while True:
        for n in (3 * octave // 2, 2 * octave):
            if n > _N_HERMITE_MAX:
                return rungs
            if n > rungs[-1]:
                rungs.append(n)
        octave *= 2


@dataclass(frozen=True)
class _Rung:
    """One solved truncation of :func:`solve_transport`'s ladder."""

    density: StationaryDensity
    phi: HermiteFourierField
    cell_diag: dict

    @cached_property
    def _envelopes(self) -> np.ndarray:
        return np.maximum(_level_ratios(self.density.field.coeffs),
                          _level_ratios(self.phi.coeffs))

    def envelope(self, n: int) -> float:
        """The larger level-n ratio of the density and the cell solution."""
        return float(self._envelopes[n])

    def floor(self, n: int) -> float:
        """The smallest envelope over levels 0..n."""
        return float(self._envelopes[: n + 1].min())

    @property
    def converged(self) -> bool:
        return (self.density.diagnostics["top_level_ratio"] <= _ADAPT_TOL
                and _level_ratios(self.phi.coeffs)[-1] <= _ADAPT_TOL)


def solve_transport(params: ModelParams, trunc: TruncationSpec,
                    adaptive: bool = False, start: int | None = None) -> TransportResult:
    """Stationary density + cell problem + diffusion in one call.

    With ``adaptive=True`` the Hermite truncation climbs the half-octave
    ladder n0, 3 n0/2, 2 n0, 3 n0, 4 n0, 6 n0, .. (n0 = ``trunc.n_hermite``,
    rungs rounded down and up to ``_N_HERMITE_MAX``, see :func:`_ladder`) and
    stops at the first rung where the top level of both the density and the
    cell solution is at most ``_ADAPT_TOL`` relative to the field's largest
    level (needed in the small-friction regime, where the hierarchy decays
    slowly).  Consecutive rungs differ by a factor of at most 3/2 (n0 >= 2),
    so an answer overshoots the truncation it needs by less than that.  A rung
    whose solve raises :class:`SolverError` counts as failed; at the last
    rung the error, or an unconverged result flagged ``adaptive_cap_hit``, is
    returned.

    ``start`` (adaptive only) is sweep continuation: a rung above n0, usually
    the one the previous sweep point converged at.  The ladder then climbs
    from ``start``, and once it converges at rung N every untried rung r below
    ``start`` is certified from the converged fields alone: r counts as
    failed when the envelope max(|R_n|/max|R|, |Phi_n|/max|Phi|) exceeds
    ``_CERT_FACTOR`` * ``_ADAPT_TOL`` at every level n = 0..r.  (In the
    displaced basis a metastable locked state can show as a bump of levels far
    above a running state's decay; a truncation below the bump does not see
    it and converges, so a dip of the envelope below the bar voids the
    certificate.)  Rungs that do not certify are solved for real in
    ascending order, and the lowest one that converges is the answer.  Every
    other case climbs the ladder from n0 as without ``start``: a ``start``
    off the ladder or at most n0, a SolverError, or the cap reached
    unconverged.

    Exactness: the answer is the rung, and so the result bit for bit, that the
    ladder from n0 gives whenever a rung the certificate marks as failed would
    really fail when solved.  That is one empirical premise: a truncation at
    r does not converge when the converged solution's levels 0..r all sit
    more than ``_CERT_FACTOR`` times above the tolerance.
    ``tests/test_transport.py`` guards it on the fig1 sweeps, and the
    continuation tests compare continued and fresh rows on fig3's gamma=0.5
    sweep.

    ``diagnostics`` records the ladder: ``ladder_start`` (the rung the
    returned answer's climb began at), ``rungs_solved`` (truncations solved
    in this call), ``rungs_tried`` (their N, in the order solved) and
    ``rungs_certified`` (rungs below the answer skipped as certified
    failures).
    """
    blocks = displaced_blocks(params, trunc)
    n0 = trunc.n_hermite
    rungs = _ladder(n0) if adaptive else [n0]
    tried = []

    def solve(n: int) -> _Rung:
        tried.append(n)
        cur = trunc.with_n_hermite(n)
        density = solve_stationary_fp(params, cur, blocks=blocks)
        phi, cell_diag = _solve_cell(params, cur, density)
        # N+1 inverses (30 MB at N = 1536, M = 24) are not needed past the
        # cell solve; a rung kept through the next rung's solve and through
        # compute_diffusion would otherwise hold them
        density = replace(density, factors=replace(density.factors, inverses=None))
        return _Rung(density, phi, cell_diag)

    def climb(ladder: list[int]) -> _Rung | None:
        """First converged rung, or None on a SolverError or at the cap."""
        for n in ladder:
            try:
                rung = solve(n)
            except SolverError:
                return None
            if rung.converged:
                return rung
        return None

    answer, certified = None, 0
    if start in rungs[1:]:
        below = rungs[:rungs.index(start)]
        answer = climb(rungs[rungs.index(start):])
        if answer is not None:
            ladder_start, top = start, answer
            for n in below:   # ascending: `certified` counts the rungs below n
                if top.floor(n) > _CERT_FACTOR * _ADAPT_TOL:
                    certified += 1
                    continue
                try:
                    rung = solve(n)
                except SolverError:
                    continue
                if rung.converged:
                    answer = rung
                    break
    if answer is None:
        ladder_start, certified = n0, 0
        for i, n in enumerate(rungs):
            try:
                answer = solve(n)
            except SolverError:
                # below a working truncation a Schur complement is often
                # singular or solvability is lost; retry larger before giving up
                if i + 1 < len(rungs):
                    continue
                raise
            if answer.converged:
                break

    result = compute_diffusion(answer.density, answer.phi, params)
    diagnostics = dict(result.diagnostics)
    diagnostics.update(answer.cell_diag)
    if adaptive and not answer.converged:
        diagnostics["adaptive_cap_hit"] = True
    diagnostics.update(ladder_start=ladder_start, rungs_solved=len(tried),
                       rungs_certified=certified, rungs_tried=tried)
    return replace(result, diagnostics=diagnostics)
