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

from .blas import inverter, lu_solve, one_thread
from .model import ModelParams
from .basis import (
    HermiteFourierField,
    TruncationSpec,
    fourier_table,
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
    by F - gamma p0 - V'(q) = -V'(q) in the Hermite basis centred at ``p0`` =
    F/gamma.  Row n of the cell hierarchy for phi is

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
    p0: float
    shift: float

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
    """The n-independent blocks in the basis centred at the free drift
    p0 = F/gamma.

    They are the blocks of the untilted problem with the diagonal shift
    sqrt(beta) p0 d_q.  The tilt is read from the untilted drift coefficients,
    not from F - gamma p0: that is 0 in exact arithmetic but not always in
    floating point (-1.1e-16 at F = 0.7, gamma = 0.3), and the solutions'
    bits would move with it.
    """
    trunc.check_potential(params.potential)
    M = trunc.n_fourier
    L = params.potential.period
    p0 = params.force / params.gamma
    d_q = packed_dq_matrix(M, L)
    tilt = packed_mult_matrix(params.potential.tilt_drift_coeffs(0.0), M, L)
    return HierarchyBlocks(friction=params.gamma * np.sqrt(params.beta), d_q=d_q,
                           tilt=tilt, drift=d_q + params.beta * tilt,
                           lift=d_q - params.beta * tilt, metric=packed_metric(M),
                           p0=p0, shift=np.sqrt(params.beta) * p0)


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
    problem the factors belong to, ``blocks`` its blocks.  ``inverses`` is
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
def factor_hierarchy(params: ModelParams, trunc: TruncationSpec) -> HierarchyFactors:
    """Invert the Schur complements G_N..G_1 of the cell hierarchy.

    With Q_n^+ = sqrt(n) d_q and Q_n^- = sqrt(n+1) drift, the elimination step
    is G_{n-1} = Q_{n-1} - n drift G_n^{-1} d_q, starting from G_N = Q_N, with
    the diagonal block Q_n = shift d_q - gamma sqrt(beta) n.  Each G_n is
    built in slot n of the returned stack and inverted there without a copy
    (:func:`washboard.blas.inverter`, whose pointers into the stack are made
    once per factorization).  The next step's product is written into slot
    n-1, so slot 0 ends as scratch holding G_0, of which ``bottom`` is a copy.
    The blocks are :func:`hierarchy_blocks`.  Runs on one BLAS thread
    (:mod:`washboard.blas`): threading kernels on blocks this small costs
    more than it gains.
    """
    blocks = hierarchy_blocks(params, trunc)
    N = trunc.n_hermite
    size = blocks.size
    friction = blocks.friction
    inverses = np.empty((N + 1, size, size))
    invert = inverter(inverses)
    inverses[N] = 0.0
    blocks.add_shift(inverses[N])
    for n in range(N, 0, -1):
        g = inverses[n]
        g.reshape(-1)[:: size + 1] -= friction * n     # a view of the diagonal
        info = invert(n)
        if info:
            _check_info(info, f"singular Schur complement at hermite level n={n}; "
                              "raise n_hermite or check parameters")
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
    the displaced basis.  The terms are summed in place, in the order
    sqrt(n) lift R_{n-1} + gamma sqrt(beta) n R_n + sqrt(n+1) d_q R_{n+1}
    + shift d_q R_n, so that no more than two level stacks are held besides
    ``levels`` (at N = 1536 the factors' 30 MB are held alongside).
    """
    N = levels.shape[0] - 1
    n = np.arange(1, N + 1)[:, None]
    res = (levels @ blocks.lift.T)[:-1]          # lift R_{n-1}
    res *= np.sqrt(n)
    res += blocks.friction * n * levels[1:]
    above = levels[2:] @ blocks.d_q.T            # d_q R_{n+1}, none above N
    above *= np.sqrt(n[:-1] + 1)
    res[:-1] += above
    del above
    if blocks.shift:
        shifted = levels[1:] @ blocks.d_q.T
        shifted *= blocks.shift
        res += shifted
    return float(np.abs(res).max())


@one_thread()
def solve_stationary_fp(params: ModelParams, trunc: TruncationSpec) -> StationaryDensity:
    """Stationary density and effective drift.

    Factors the cell hierarchy (:func:`factor_hierarchy`) and runs the
    density hierarchy through the transposed inverses,
    R_n = W^{-1} G_n^{-T} W sqrt(n) lift R_{n-1}.  The n = 0 row (constant
    probability flux), d_q (R_1 + sqrt(beta) p0 R_0) = 0, together with the
    normalization  L * R_0^0 = 1  closes the remaining one-dimensional
    freedom, and U = p0 + L R_1^0 / sqrt(beta).  The returned coefficients
    are in the basis centred at p0 = F/gamma.
    """
    factors = factor_hierarchy(params, trunc)
    blocks = factors.blocks
    N = trunc.n_hermite
    L = params.potential.period
    w = blocks.metric
    w_lift = w[:, None] * blocks.lift

    S0 = factors.solve(1, w_lift, transpose=True) / w[:, None]   # R_1 = S0 R_0
    K = blocks.add_shift(blocks.d_q @ S0)
    K[0, :] = 0.0
    K[0, 0] = 1.0
    rhs = np.zeros(blocks.size)
    rhs[0] = 1.0 / L
    R0, _, info = lu_solve(K, rhs)
    _check_info(info, "stationary solve is singular; raise n_hermite")

    levels = np.empty((N + 1, blocks.size))
    levels[0] = R0
    levels[1] = S0 @ levels[0]
    root = np.sqrt(np.arange(N + 1))
    inverses_t = factors.inverses.transpose(0, 2, 1)          # G_n^{-T}, views
    b = np.empty(blocks.size)
    for n in range(2, N + 1):
        np.dot(w_lift, levels[n - 1], out=b)
        b *= root[n]
        np.dot(inverses_t[n], b, out=levels[n])
        levels[n] /= w

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

def solve_cell_problem(density: StationaryDensity) -> HermiteFourierField:
    """Solve -L phi = p - U with the centering  int phi rho dp dq = 0.

    The problem, its truncation and the factors are those ``density`` was
    solved with, and the coefficients are in its basis, centred at
    p0 = F/gamma, where p - U = (p0 - U) + H_1(p - p0) / sqrt(beta).
    :func:`solve_levels` solves the hierarchy with left null vector W R_0,
    and the discretized centering condition
    sum_n (2 R_n.Phi_n - [R_n.Phi_n]_1) = 0  then fixes Phi_0^0.
    """
    phi, _ = _solve_cell(density)
    return phi


def _solve_cell(density: StationaryDensity) -> tuple[HermiteFourierField, dict]:
    params = density.params
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

    Each level is two 49x49 matvecs at M = 24, so the loops keep Python's
    share small: the square roots come from one table, each product is
    written by ``np.dot(..., out=)`` into a buffer made once, and the
    inverses are indexed directly.  The arithmetic, and so every bit, is
    the plain level-by-level expression's.
    """
    blocks = factors.blocks
    inverses, drift, d_q = factors.inverses, blocks.drift, blocks.d_q
    N = factors.trunc.n_hermite
    top = rhs.shape[0] - 1
    root = np.sqrt(np.arange(N + 1))
    u, t = np.empty(blocks.size), np.empty(blocks.size)
    y = np.array(rhs, dtype=float)
    for n in range(top - 1, -1, -1):
        np.dot(inverses[n + 1], y[n + 1], out=u)
        np.dot(drift, u, out=t)
        t *= -root[n + 1]
        y[n] += t

    defect = abs(float(left_null @ y[0]))
    scale = max(float(np.linalg.norm(left_null) * np.linalg.norm(y[0])), 1e-300)
    K = factors.bottom.copy()
    K[:, 0] = left_null
    bottom, rcond, info = lu_solve(K, y[0])
    _check_info(info, "cell bottom block is singular; truncation failure")
    if rcond < 1e-10:
        raise SolverError(f"cell bottom block is ill-conditioned (rcond {rcond:.2e}); "
                          "truncation failure")

    levels = np.empty((N + 1, blocks.size))
    levels[0] = bottom
    coefficient = float(levels[0, 0])
    levels[0, 0] = 0.0
    for n in range(1, N + 1):
        np.dot(d_q, levels[n - 1], out=t)
        t *= -root[n]
        if n <= top:
            t += y[n]
        np.dot(inverses[n], t, out=levels[n])
    return levels, coefficient, defect / scale


# ---------------------------------------------------------------------------
# Diffusion coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportResult:
    """Effective drift and diffusion with dual-formula cross-check.

    ``d_primary`` comes from the coefficient pairing of the density with the
    cell solution.  ``mobility`` is dU/dF = int rho d_p phi, the
    nonequilibrium response identity (G. S. Agarwal, Z. Phys. 252 (1972) 25;
    M. Baiesi, C. Maes and B. Wynants, PRL 103 (2009) 010602): another
    pairing of the same two fields, so it needs no second solve.  At F = 0
    the Einstein relation D = mobility/beta holds to roundoff.  ``d_ibp``
    comes from the gradient-squared quadrature
    gamma/beta * int (d_p phi)^2 rho.  ``d_ibp_stability`` is the plateau
    spread of the quadrature's momentum cutoff scan: when it is not small
    relative to d_primary the quadrature (not the solve) lost accuracy.

    ``diagnostics`` holds, with |.| the largest packed coefficient of a level
    and max |R| that of all levels, from :func:`compute_diffusion`:

    - the density's, from :func:`solve_stationary_fp`: ``top_level_ratio``
      |R_N| / max |R|; ``hierarchy_residual``, the largest residual of the
      density rows n = 1..N over max |R|; ``normalization_residual``
      |L R_0^0 - 1|; ``flux_residual``, the n = 0 row (constant probability
      flux) over max |R|;
    - ``top_level_ratio_phi`` |Phi_N| / max |Phi|;
    - ``p0``, the basis centre F/gamma;
    - ``log10_growth_R`` = log10(max_n |R_n| / |R_0|) and
      ``log10_growth_phi`` = log10(max_n |Phi_n| / |Phi_0|);
    - at F = 0 only, ``einstein_gap`` = d_primary beta / mobility - 1, which
      the Einstein relation makes zero up to roundoff in a converged solve
      (inf when the mobility is 0);

    and from :func:`solve_transport`:

    - ``solvability_defect``, the cell solve's left-null component
      (:func:`solve_levels`), recorded up to 1e-3 and a SolverError above;
    - ``adaptive_cap_hit``, True when no rung of an adaptive ladder
      converged (absent otherwise);
    - the ladder: ``ladder_start`` (the rung the returned answer's climb
      began at: n0 on the plain ladder, else the ``start`` given or, on a
      fresh climb, the predicted one), ``rungs_solved`` (truncations solved
      in the call), ``rungs_tried`` (their N, in the order solved; a fresh
      climb solves n0 first) and ``rungs_certified`` (rungs below the
      climb's start skipped unsolved as certified failures; the n0 rung a
      fresh climb solved is not among them).
    """

    drift: float
    d_primary: float
    mobility: float
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


def _airy_zeros(k: np.ndarray) -> np.ndarray:
    """The k-th zeros a_k < 0 of Ai from their asymptotic series
    (DLMF 9.9.6, 9.9.18); a_1 is off by 1e-3 relative, a_4 by 2e-11."""
    t = 3.0 * np.pi / 8.0 * (4.0 * k - 1.0)
    s = t ** -2.0
    series = 1.0 + s * (5.0 / 48.0 + s * (-5.0 / 36.0 + s * (
        77125.0 / 82944.0 + s * (-108056875.0 / 6967296.0
                                 + s * 162375596875.0 / 334430208.0))))
    return -t ** (2.0 / 3.0) * series


def _hermite_initial_nodes(m: int) -> np.ndarray:
    """t_k = x_k^2 / 2 of the m positive roots x_k of He_{2m}, ascending, to
    4e-4 relative or better: Tricomi's interior and Gatteschi's edge formulas
    (Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36 (2016) 337, lemmas
    3.1 and 3.2, with their linear fit of where one gets better than the
    other)."""
    nu = 4.0 * m + 1.0
    k = np.arange(1, m + 1)
    split = max(int(np.around(0.98164006 * m - 4.37859653)), 0) + 1
    c = (4.0 * m - 4.0 * k[:split] + 3.0) * np.pi / nu
    tau = np.full(c.shape, 0.5 * np.pi)          # tau - sin(tau) = c
    for _ in range(5):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sigma = np.cos(0.5 * tau) ** 2
    interior = nu * sigma - (1.25 / (1.0 - sigma) ** 2 - 1.0 / (1.0 - sigma)
                             - 0.25) / (3.0 * nu)
    a = _airy_zeros(k[: m - split][::-1])
    edge = (nu + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0)
            + 0.2 * 2.0 ** (4.0 / 3.0) * a ** 2 * nu ** (-1.0 / 3.0)
            + (9.0 / 140.0 - 12.0 / 175.0 * a ** 3) / nu
            + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4) * 2.0 ** (2.0 / 3.0)
            * nu ** (-5.0 / 3.0)
            - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a ** 2)
            * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0))
    return np.concatenate([interior, edge])


def _rescale(p: np.ndarray, prev: np.ndarray, exponent: np.ndarray) -> None:
    """Scale each node's pair by a power of two, exactly, so that the larger
    of |p|, |prev| lies in [1/2, 1); the powers are added to ``exponent``."""
    e = np.frexp(np.maximum(np.abs(p), np.abs(prev)))[1]
    exponent += e
    np.negative(e, out=e)
    np.ldexp(p, e, out=p)
    np.ldexp(prev, e, out=prev)


def _monic_recurrence(z: np.ndarray, b: list[float], a: list[float] | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_K(z), p_{K-1}(z) and e for the monic polynomials
    p_{k+1} = (z - a_k) p_k - b_k p_{k-1}, p_0 = 1, k < K = len(b), a_k = 0
    when ``a`` is None.  The true values are the returned ones times 2**e per
    node: the pair is rescaled every 16 steps, as the values outgrow the
    float range long before K."""
    p, prev = np.ones_like(z), np.zeros_like(z)
    exponent = np.zeros(z.shape, dtype=np.int64)
    zp = np.empty_like(z)
    for k, bk in enumerate(b):   # (p, prev) = (p_k, p_{k-1}) -> (p_{k+1}, p_k)
        if a is None:
            np.multiply(z, p, out=zp)
        else:
            np.subtract(z, a[k], out=zp)
            zp *= p
        prev *= bk
        np.subtract(zp, prev, out=prev)
        p, prev = prev, p
        if k % 16 == 15:
            _rescale(p, prev, exponent)
    _rescale(p, prev, exponent)
    return p, prev, exponent


@lru_cache(maxsize=32)
def _gauss_maxwell_rule(n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n_p-point Gauss rule for the unit
    Maxwellian (the roots of He_{n_p}, ascending, and weights summing to 1),
    computed once per node count (sweeps repeat it).  Below 24 points (from
    truncations with n_hermite <= 6) numpy's ``hermegauss`` (Golub-Welsch)
    gives the rule, from 24 on :func:`_hermite_rule`."""
    if n_p < 24:
        from numpy.polynomial.hermite_e import hermegauss
        x, w = hermegauss(n_p)
    else:
        x, w = _hermite_rule(n_p)
    w = w / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=32)
def _ibp_fourier_table(n_fourier: int, period: float) -> np.ndarray:
    """Read-only :func:`fourier_table` on the gradient-squared quadrature's q
    grid, max(64, 8 n_fourier) equispaced points of the period, built once
    per (n_fourier, period) (sweeps repeat it)."""
    n_q = max(64, 8 * n_fourier)
    table = fourier_table(n_fourier, period, np.arange(n_q) * period / n_q)
    table.flags.writeable = False
    return table


def _hermite_rule(n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots of He_{n_p}, ascending, and their Gauss weights up to a
    common factor, for even n_p >= 24.

    The asymptotic initial nodes (:func:`_hermite_initial_nodes`) take one
    Halley step on the half-degree form He_{2m}(x) ~ L_m^{(-1/2)}(x^2/2),
    whose recurrence is half as long, then one on He_{n_p} in x itself,
    where the nodes near 0 keep their absolute accuracy (t = x^2/2 loses it).
    The weights 1/He_{n_p-1}(x)^2 are read off the last step, moved to first
    order to the node it lands on.  Against scipy's ``roots_hermitenorm``
    for n_p = 24 .. 16394 the nodes agree to 3e-13 and the normalized
    weights to 7e-12 relative wherever they exceed 1e-200; below 24 points
    the weights lose accuracy (4e-11 at n_p = 8).
    """
    if n_p < 24 or n_p % 2:
        raise ValueError(f"n_p must be even and at least 24, not {n_p}")
    m = n_p // 2
    # Halley on L_m^(-1/2) in t: t L' = m L + m (m - 1/2) L_{m-1} (monic),
    # t L'' = (t - 1/2) L' - m L
    t = _hermite_initial_nodes(m)
    k = np.arange(m)
    p, prev, _ = _monic_recurrence(t, (k * (k - 0.5)).tolist(), (2.0 * k + 0.5).tolist())
    r = t * p / (m * p + m * (m - 0.5) * prev)
    t -= r / (1.0 - 0.5 * r * ((t - 0.5) - m * r) / t)
    # Halley on He_n in x: He_n' = n He_{n-1}, He_n'' = x He_n' - n He_n
    x = np.sqrt(2.0 * t)
    p, prev, exponent = _monic_recurrence(x, list(range(n_p)))
    r = p / (n_p * prev)
    step = r / (1.0 - 0.5 * r * (x - n_p * r))
    # d log w / dx = -2 He_{n-1}' / He_{n-1} = 2 He_n / He_{n-1} - 2 x
    w = np.ldexp(np.exp(2.0 * step * (x - p / prev)) / (prev * prev),
                 -2 * (exponent - exponent.min()))
    x -= step
    x = np.concatenate([-x[::-1], x])
    w = np.concatenate([w[::-1], w])
    return x, w


def _gradient_squared_quadrature(density: StationaryDensity,
                                 phi: HermiteFourierField) -> tuple[float, float]:
    """gamma/beta * int (d_p phi)^2 rho dp dq with an automatic momentum cutoff.

    Hermite series evaluated far outside their oscillatory region amplify
    coefficient noise catastrophically, so the Gauss rule is restricted to
    |x| <= mu + c where mu covers the density's momentum support.  The cutoff
    c is scanned and the value read off the stability plateau; the plateau
    spread is returned as a quality measure.  Only cutoffs that keep
    different node sets are compared: two that keep the same nodes give the
    same value, and their zero difference would read as a perfect plateau.
    With fewer than two distinct node sets the spread is inf.  The integrand
    is tabulated once, on the widest cutoff, and each narrower one sums a
    subset of its rows.
    The rule runs in x = sqrt(beta) (p - p0), the variable of the fields'
    basis, so mu = sqrt(beta) max(|U - p0|, |F/gamma - p0|).
    """
    params = density.params
    beta, gamma = params.beta, params.gamma
    L = params.potential.period
    R = density.field.coeffs
    n = np.arange(1, phi.coeffs.shape[0])
    dphi = np.zeros_like(phi.coeffs)                            # levels of d_p phi
    dphi[:-1] = np.sqrt(beta * n)[:, None] * phi.coeffs[1:]

    n_eff = min(max(_trim_levels(dphi), _trim_levels(R), 8), R.shape[0])
    dphi = dphi[:n_eff]
    Rt = R[:n_eff]
    x, wp = _gauss_maxwell_rule(2 * n_eff + 8)
    ftab = _ibp_fourier_table(phi.n_fourier, L)
    n_q = ftab.shape[1]
    wq = np.full(n_q, L / n_q)

    p0 = density.field.p0
    mu = np.sqrt(beta) * max(abs(density.drift - p0), abs(params.force / gamma - p0))
    widest = np.abs(x) <= mu + _IBP_CUTOFFS[-1]
    x, wp = x[widest], wp[widest]
    H = hermite_table(n_eff - 1, x)
    vd = H @ dphi @ ftab
    vr = H @ Rt @ ftab
    integrand = vd * vd * vr
    vals, kept = [], -1
    for c in _IBP_CUTOFFS:
        keep = np.abs(x) <= mu + c
        if np.count_nonzero(keep) == kept:
            continue                    # the same nodes as the narrower cutoff
        kept = np.count_nonzero(keep)
        vals.append(gamma / beta * float((wp[keep] @ integrand[keep]) @ wq))
    if len(vals) < 2:
        return vals[-1], np.inf
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
def compute_diffusion(density: StationaryDensity, phi: HermiteFourierField
                      ) -> TransportResult:
    """Diffusion coefficient from the level-pairing formula plus the
    gradient-squared cross-check, and the mobility dU/dF.

    D = L sum_n sqrt((n+1)/beta) (2 R_{n+1}.Phi_n - [R_{n+1}.Phi_n]_1
                                  + 2 R_n.Phi_{n+1} - [R_n.Phi_{n+1}]_1)

    The mobility is the response identity dU/dF = int rho d_p phi (Agarwal
    1972; Baiesi, Maes and Wynants 2009): differentiating L_F* rho = 0 in F,
    with L_F = L_0 + F d_p, gives L_F* d_F rho = d_p rho, and pairing that
    with -L phi = p - U leaves int rho d_p phi.  With d_p H_n = sqrt(beta n)
    H_{n-1} in the basis,

        dU/dF = L sum_{n>=1} sqrt(beta n) (2 R_{n-1}.Phi_n - [R_{n-1}.Phi_n]_1),

    the second of D's two level pairings, weighted by sqrt(beta n) in place
    of sqrt(n/beta).  It is the derivative of the converged U: at a
    truncation whose cell solution is not converged it carries that
    truncation error, as D does.

    Raises SolverError when D is not positive: only a truncation too small
    for the problem gives that.
    """
    if density.field.coeffs.shape != phi.coeffs.shape:
        raise ValueError("density and cell solution truncations differ")
    beta, L = density.params.beta, density.params.potential.period
    R, P = density.field.coeffs, phi.coeffs
    N = R.shape[0] - 1
    metric = density.factors.blocks.metric
    up = _level_pairs(R[:-1], P[1:], metric)            # R_{n-1}.Phi_n, n = 1..N
    pairs = _level_pairs(R[1:], P[:-1], metric) + up
    d_primary = L * float(np.sqrt(np.arange(1, N + 1) / beta) @ pairs)
    mobility = L * float(np.sqrt(beta * np.arange(1, N + 1)) @ up)
    if not d_primary > 0:
        raise SolverError(f"D = {d_primary:.3e} is not positive at N = {N}, "
                          f"M = {phi.n_fourier}: the truncation is too small")

    d_ibp, stability = _gradient_squared_quadrature(density, phi)

    diagnostics = dict(density.diagnostics)
    pscale = max(float(np.abs(P).max()), 1e-300)
    diagnostics["top_level_ratio_phi"] = float(np.abs(P[N]).max()) / pscale
    diagnostics.update(p0=density.field.p0, log10_growth_R=_log10_growth(R),
                       log10_growth_phi=_log10_growth(P))
    if density.params.force == 0.0:
        diagnostics["einstein_gap"] = (d_primary * beta / mobility - 1.0
                                       if mobility else np.inf)
    return TransportResult(
        drift=density.drift,
        d_primary=d_primary,
        mobility=mobility,
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
# levels.  A rung skipped by sweep continuation or a predicted start counts
# as failed when every level of the converged solution up to it exceeds
# _CERT_FACTOR * _ADAPT_TOL.  No factor certifies more without solving: on
# fig1's gamma=0.1 sweep the N=256 envelope at level 192 reads 1.04e-8 at
# F/F_c = 0.291, where rung 192 converges (its density's top ratio is
# 7.04e-9), and 8.33e-9 at 1.627, where it fails (1.48e-8), so continuation
# solves rung 192 below a 256 answer at most of that sweep's points.
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
    """One solved truncation of :func:`solve_transport`'s ladder; ``phi`` is
    None when the cell problem was not solved."""

    density: StationaryDensity
    phi: HermiteFourierField | None
    cell_diag: dict

    @cached_property
    def _envelopes(self) -> np.ndarray:
        return np.maximum(_level_ratios(self.density.field.coeffs),
                          _level_ratios(self.phi.coeffs))

    def envelope(self, n: int) -> float:
        """The larger level-n ratio of the density and the cell solution."""
        return float(self._envelopes[n])

    def floor(self, n: int) -> float:
        """The smallest envelope over levels 0..n; it never rises with n."""
        return float(self._envelopes[: n + 1].min())

    @property
    def converged(self) -> bool:
        return (self.phi is not None
                and self.density.diagnostics["top_level_ratio"] <= _ADAPT_TOL
                and _level_ratios(self.phi.coeffs)[-1] <= _ADAPT_TOL)


def _predicted_start(density: StationaryDensity, rungs: list[int]) -> int | None:
    """The rung a fresh climb starts at when the density at n0 = ``rungs[0]``
    misses the tolerance, or None for no prediction.

    log10 of the density's level envelope is fitted by a line in sqrt(n)
    over levels n0/4..3n0/4 (the top levels bend towards the truncation) and
    extrapolated to ``_ADAPT_TOL``, at most to 8 n0, the highest start
    ``tests/test_transport.py`` checks the certificate from.  On fig1's
    gamma = 0.01 and 0.1 sweeps the extrapolation is 0.61 to 1.21 times the
    rung the ladder converges at (median 0.89), so rounding it to the nearest
    rung lands on the answer or below it, and rarely one rung above, which
    costs a solve of a rung larger than the answer.  A non-decaying envelope
    predicts nothing.
    """
    n0 = rungs[0]
    n = np.arange(n0 // 4, 3 * n0 // 4 + 1)
    if n.size < 3:
        return None
    x = np.sqrt(n)
    y = np.log10(np.maximum(_level_ratios(density.field.coeffs)[n], 1e-300))
    # the least-squares line through the means, in closed form: np.polyfit's
    # first call maps LAPACK's least-squares code, 1.2 MB of resident memory
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean())) / float(dx @ dx)
    if not slope < 0:
        return None
    root = x.mean() + (np.log10(_ADAPT_TOL) - y.mean()) / slope
    guess = min(max(root, 0.0) ** 2, 8.0 * n0)
    return min(rungs, key=lambda r: abs(r - guess))


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
    returned.  Below the last rung, a rung whose density already misses the
    tolerance fails without its cell problem being solved.

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
    ascending order, and the lowest one that converges is the answer.

    Without ``start`` (a fresh climb) the n0 rung is solved first, and is the
    answer when it converges.  When its density misses the tolerance, the
    climb goes on from the rung :func:`_predicted_start` extrapolates that
    density's level envelope to, as from a ``start``, with n0 counted as
    failed: most fig1 points at gamma = 0.01 solve 256 and 1536, or 256,
    1024 and 1536, where the ladder solves six rungs.  Every other case climbs
    the plain ladder from n0 (above n0 when n0 was solved and failed): a
    ``start`` off the ladder or at most n0, no prediction above the second
    rung, a SolverError from the start up, or the cap reached unconverged.

    Exactness: the answer is the rung, and so the result bit for bit, that the
    plain ladder from n0 gives whenever a rung the certificate marks as
    failed would really fail when solved; the predicted start rests on this
    premise as continuation does.  It is one empirical premise: a truncation
    at r does not converge when the converged solution's levels 0..r all sit
    more than ``_CERT_FACTOR`` times above the tolerance.
    ``tests/test_transport.py`` guards it on the fig1 sweeps from starts up
    to 8 n0 (the bound on a predicted start), compares fresh rows with the
    plain ladder's on fig1 and fig3's gamma=0.5 sweep, and continued rows
    with fresh ones on the latter.  ``diagnostics`` records the ladder (see
    :class:`TransportResult`).
    """
    n0 = trunc.n_hermite
    rungs = _ladder(n0) if adaptive else [n0]
    tried = []

    def solve(n: int) -> _Rung:
        """The rung at n.  Below the top rung, a rung whose density misses
        _ADAPT_TOL is never the answer, so its cell problem is not solved."""
        tried.append(n)
        density = solve_stationary_fp(params, trunc.with_n_hermite(n))
        phi, cell_diag = None, {}
        if n == rungs[-1] or density.diagnostics["top_level_ratio"] <= _ADAPT_TOL:
            phi, cell_diag = _solve_cell(density)
        # N+1 inverses (30 MB at N = 1536, M = 24) are not needed past the
        # cell solve; a rung kept through the next rung's solve and through
        # compute_diffusion would otherwise hold them
        density = replace(density, factors=replace(density.factors, inverses=None))
        return _Rung(density, phi, cell_diag)

    def first_converged(ns: list[int], stop_at_error: bool = False) -> _Rung | None:
        """The first rung of ``ns`` that converges; None when none does, or
        with ``stop_at_error`` at the first SolverError.  Without it the walk
        goes on past the error: below a working truncation a Schur complement
        is often singular or solvability is lost."""
        for n in ns:
            try:
                rung = solve(n)
            except SolverError:
                if stop_at_error:
                    return None
                continue
            if rung.converged:
                return rung
        return None

    answer, lo = None, 0                 # lo: the lowest rungs, solved and failed
    if adaptive and start is None and len(rungs) > 1:
        lo = 1
        try:
            first = solve(n0)
        except SolverError:
            first = None
        if first is not None and first.converged:
            answer = first
        elif first is not None and first.phi is None:
            start = _predicted_start(first.density, rungs)
        del first                        # its levels are not needed in the climb
    ladder_start, certified = n0, 0
    if answer is None and start in rungs[lo + 1:]:
        i = rungs.index(start)
        answer = first_converged(rungs[i:], stop_at_error=True)
        if answer is not None:
            # floor(n) never rises with n, so the certified rungs are the lowest
            ladder_start = start
            certified = sum(answer.floor(n) > _CERT_FACTOR * _ADAPT_TOL
                            for n in rungs[lo:i])
            answer = first_converged(rungs[lo + certified:i]) or answer
    if answer is None:
        answer = first_converged(rungs[lo:-1]) or solve(rungs[-1])

    result = compute_diffusion(answer.density, answer.phi)
    diagnostics = dict(result.diagnostics)
    diagnostics.update(answer.cell_diag)
    if adaptive and not answer.converged:
        diagnostics["adaptive_cap_hit"] = True
    diagnostics.update(ladder_start=ladder_start, rungs_solved=len(tried),
                       rungs_certified=certified, rungs_tried=tried)
    return replace(result, diagnostics=diagnostics)
