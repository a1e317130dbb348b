import math
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import roots_hermitenorm

from washboard import transport
from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import TruncationSpec, fourier_table, packed_dq_matrix
from washboard.expansion import assemble_generator, build_chain
from washboard.transport import (SolverError, compute_diffusion, factor_hierarchy,
                                 hierarchy_blocks, solve_cell_problem,
                                 solve_stationary_fp, solve_transport)


def _params(gamma=1.0, beta=5.0, force=0.0, v0=1.0, period=1.0):
    return ModelParams(gamma=gamma, beta=beta, force=force,
                       potential=PeriodicPotential.cosine(v0, period))


def _free(gamma=1.0, beta=1.0, force=1.0, period=2 * np.pi):
    return ModelParams(gamma=gamma, beta=beta, force=force,
                       potential=PeriodicPotential(period=period))


def _displaced_generator(params, trunc):
    """-L in the Hermite basis centred at p0 = F/gamma, natural scaling,
    assembled independently of the level recursion: the untilted sparse
    assembly plus -p0 d_q on every diagonal block."""
    p0 = params.force / params.gamma
    d_q = packed_dq_matrix(trunc.n_fourier, params.potential.period)
    return (assemble_generator(params.with_force(0.0), trunc)
            - p0 * sp.kron(sp.identity(trunc.n_hermite + 1), d_q)).tocsr()


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_diag_block_values():
    # with nothing above level N the top Schur complement is the bare level-N
    # diagonal block -gamma sqrt(beta) N; level 0 has none, so the bottom
    # block annihilates constants
    trunc = TruncationSpec(8, 1)
    factors = factor_hierarchy(_params(gamma=1.0, beta=1.0), trunc)
    eye = np.eye(3)
    assert factors.solve(8, eye) == pytest.approx(-eye / 8.0, abs=1e-15)
    assert np.abs(factors.bottom[:, 0]).max() == 0.0


def test_free_particle_blocks_lose_potential_terms():
    blocks = hierarchy_blocks(_free(force=0.0), TruncationSpec(8, 2))
    # only the +-w_j rotation survives in the off-diagonal blocks
    assert blocks.drift == pytest.approx(blocks.d_q)
    assert blocks.lift == pytest.approx(blocks.d_q)
    # q_aa / q_bb corners (xi-xi and eta-eta) vanish without F and V0
    M = 2
    T = blocks.drift
    assert np.abs(T[: M + 1, : M + 1]).max() == 0.0
    assert np.abs(T[M + 1 :, M + 1 :]).max() == 0.0


def test_single_cosine_block_entries():
    # layout of the packed (xi, eta) coupling for V = V0 cos(w1 q) plus tilt,
    # on the assembled reference centred at p = 0, whose level-0
    # super-diagonal block is -(d_q + beta T) / sqrt(beta)
    beta, v0, F, L, M = 5.0, 1.0, 0.7, 1.0, 3
    params = _params(beta=beta, force=F, v0=v0, period=L)
    trunc = TruncationSpec(8, M)
    size = 2 * M + 1
    A = assemble_generator(params, trunc).toarray()
    w1 = 2 * np.pi / L
    c = beta * v0 * w1 / 2.0
    T = -np.sqrt(beta) * A[:size, size:2 * size]  # Q_n^- / sqrt(n+1)
    w = [w1, 2 * w1, 3 * w1]
    expected_ab = np.array([
        [-2 * c, 0.0, 0.0],
        [-w[0], -c, 0.0],
        [c, -w[1], -c],
        [0.0, c, -w[2]],
    ])
    expected_ba = np.array([
        [-c, w[0], c, 0.0],
        [0.0, -c, w[1], c],
        [0.0, 0.0, -c, w[2]],
    ])
    assert T[: M + 1, M + 1 :] == pytest.approx(expected_ab, abs=1e-12)
    assert T[M + 1 :, : M + 1] == pytest.approx(expected_ba, abs=1e-12)
    assert np.diag(T)[: M + 1] == pytest.approx(np.full(M + 1, beta * F))
    assert np.diag(T)[M + 1 :] == pytest.approx(np.full(M, beta * F))
    # the solver's blocks, centred at F/gamma, have the same coupling untilted
    blocks = hierarchy_blocks(params, trunc)
    assert blocks.drift == pytest.approx(T - beta * F * np.eye(size), abs=1e-12)
    assert blocks.lift == pytest.approx(2 * blocks.d_q - blocks.drift, abs=1e-12)


def test_block_n_scaling():
    # every n-dependence is an exact sqrt(n) / sqrt(n+1) / n scaling of the
    # n-independent blocks: they rebuild the assembled -L row by row
    params = _params(force=0.4)
    trunc = TruncationSpec(8, 2)
    blocks = hierarchy_blocks(params, trunc)
    A = _displaced_generator(params, trunc).toarray() * -np.sqrt(params.beta)
    size = blocks.size

    def block(m, n):
        return A[m * size:(m + 1) * size, n * size:(n + 1) * size]

    for n in (1, 4, 8):
        assert block(n, n - 1) == pytest.approx(np.sqrt(n) * blocks.d_q, abs=1e-12)
    for n in (0, 1, 4, 8):
        assert block(n, n) == pytest.approx(-blocks.friction * n * np.eye(size)
                                            + blocks.shift * blocks.d_q, abs=1e-12)
    for n in (0, 3, 7):
        assert block(n, n + 1) == pytest.approx(np.sqrt(n + 1) * blocks.drift,
                                                abs=1e-12)


def test_displaced_blocks_are_the_untilted_blocks_plus_a_shift():
    # F - gamma (F/gamma) rounds to -1.1e-16 here, not 0; a tilt built from
    # it would move the solutions' bits, so the blocks take the untilted one
    params = _params(force=0.7, gamma=0.3)
    assert params.force - params.gamma * (params.force / params.gamma) != 0.0
    trunc = TruncationSpec(8, 3)
    blocks = hierarchy_blocks(params, trunc)
    untilted = hierarchy_blocks(params.with_force(0.0), trunc)
    assert blocks.p0 == 0.7 / 0.3
    assert blocks.shift == np.sqrt(params.beta) * blocks.p0
    for name in ("d_q", "tilt", "drift", "lift", "metric"):
        assert np.array_equal(getattr(blocks, name), getattr(untilted, name))
    assert not np.diag(blocks.tilt).any()
    g = np.zeros((7, 7))
    assert np.array_equal(blocks.add_shift(g), blocks.shift * blocks.d_q)
    assert untilted.p0 == 0.0 and untilted.shift == 0.0


def test_potential_above_truncation_errors():
    pot = PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.0, 0.3))
    params = ModelParams(gamma=1.0, beta=1.0, force=0.0, potential=pot)
    with pytest.raises(ValueError):
        hierarchy_blocks(params, TruncationSpec(8, 2))
    with pytest.raises(ValueError):
        solve_stationary_fp(params, TruncationSpec(8, 2))


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

def _elimination(factors, n):
    """S_n with Phi_{n+1} = S_n Phi_n: -sqrt(n+1) G_{n+1}^{-1} d_q."""
    return -np.sqrt(n + 1) * factors.solve(n + 1, factors.blocks.d_q)


def test_recursion_base_is_minus_qinv_qplus():
    params = _params(force=0.5)
    trunc = TruncationSpec(12, 3)
    factors = factor_hierarchy(params, trunc)
    blocks = factors.blocks
    N = trunc.n_hermite
    q_diag = -blocks.friction * N * np.eye(blocks.size) + blocks.shift * blocks.d_q
    base = -np.linalg.solve(q_diag, np.sqrt(N) * blocks.d_q)
    assert _elimination(factors, N - 1) == pytest.approx(base, abs=1e-12)


def test_recursion_base_free_particle_structure():
    # V0 = 0, F = 0: S_{N-1} = d_q / (gamma sqrt(beta N)); first row/col vanish
    params = _free(gamma=1.0, beta=1.0, force=0.0)
    trunc = TruncationSpec(16, 1)
    factors = factor_hierarchy(params, trunc)
    N = trunc.n_hermite
    S = _elimination(factors, N - 1)
    assert S == pytest.approx(packed_dq_matrix(1, 2 * np.pi) / np.sqrt(N), abs=1e-13)
    assert np.abs(S[0, :]).max() == 0.0
    assert np.abs(S[:, 0]).max() == 0.0


def test_recursion_truncation_consistency():
    # S_0 is insensitive to adding 20 more levels once the tail has converged
    params = _params(gamma=1.0, beta=5.0, force=0.5, v0=1.0, period=1.0)
    S1 = _elimination(factor_hierarchy(params, TruncationSpec(160, 16)), 0)
    S2 = _elimination(factor_hierarchy(params, TruncationSpec(180, 16)), 0)
    assert np.linalg.norm(S1 - S2) < 1e-10


# ---------------------------------------------------------------------------
# Stationary Fokker-Planck
# ---------------------------------------------------------------------------

def test_stationary_free_particle_levels():
    # the Maxwellian shifted to F/gamma is level 0 of the basis centred there:
    # R_0 = 1/L, every other coefficient 0
    gamma, beta, F, L = 1.0, 1.0, 1.0, 2 * np.pi
    density = solve_stationary_fp(_free(gamma, beta, F, L), TruncationSpec(40, 1))
    assert density.field.p0 == F / gamma
    R = density.field.coeffs.copy()
    assert R[0, 0] == pytest.approx(1.0 / L, rel=1e-12)
    R[0, 0] = 0.0
    assert np.abs(R).max() < 1e-14
    assert density.drift == pytest.approx(F / gamma, rel=1e-12)


def test_stationary_gibbs_at_zero_tilt():
    params = _params(gamma=1.0, beta=5.0, force=0.0)
    density = solve_stationary_fp(params, TruncationSpec(120, 24))
    assert abs(density.drift) < 1e-10
    R = density.field.coeffs
    assert np.abs(R[1:]).max() <= 1e-8 * np.abs(R[0]).max()
    # level-0 profile is e^{-beta V}/Z: compare Fourier coefficients
    n = 4096
    q = np.arange(n) / n
    w = np.exp(-5.0 * np.cos(2 * np.pi * q))
    w /= w.mean()
    ck = np.fft.rfft(w) / n
    assert R[0, 0] == pytest.approx(ck[0].real, rel=1e-12)
    for k in range(1, 8):
        assert R[0, k] == pytest.approx(ck[k].real, rel=1e-10, abs=1e-12)
    assert abs(density.diagnostics["normalization_residual"]) < 1e-12


def test_tilted_density_is_w_adjoint_null_vector():
    # the density hierarchy is -(cell hierarchy)^dagger in W = diag(1, 2, .., 2):
    # A^T W R = 0 for A the assembled -L, in the basis centred at F/gamma
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    trunc = TruncationSpec(160, 16)
    R = solve_stationary_fp(params, trunc).field.coeffs
    A = _displaced_generator(params, trunc)
    metric = np.full(2 * trunc.n_fourier + 1, 2.0)
    metric[0] = 1.0
    res = A.T @ (R * metric).reshape(-1)
    assert np.abs(res).max() <= 1e-10 * np.abs(R).max()


def test_density_residual_is_for_the_solved_hierarchy():
    # N = 12 leaves the top levels large, so a residual taken with another
    # top row than the one solved would read about 2e-2
    density = solve_stationary_fp(_params(force=0.5), TruncationSpec(12, 16))
    assert density.diagnostics["top_level_ratio"] > 1e-4
    assert density.diagnostics["hierarchy_residual"] <= 1e-12


def test_stationary_mc_cross_check():
    from washboard.montecarlo import McConfig, simulate
    params = _params(gamma=1.0, beta=5.0, force=2.0)
    density = solve_stationary_fp(params, TruncationSpec(200, 24))
    est = simulate(McConfig(dt=0.01, n_steps=60000, n_burnin=2000, n_traj=400,
                            seed=3, params=params))
    assert abs(est.u_hat - density.drift) <= 3.0 * est.stderr_u


# ---------------------------------------------------------------------------
# Cell problem
# ---------------------------------------------------------------------------

def test_cell_free_particle():
    # phi = (p - U)/gamma exactly; U = p0, so phi = H_1(p - p0)/(gamma sqrt(beta))
    gamma, beta, F = 1.0, 1.0, 1.0
    params = _free(gamma, beta, F)
    trunc = TruncationSpec(40, 1)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(density)
    assert phi.p0 == F / gamma
    assert phi.coeffs[1, 0] == pytest.approx(1.0, rel=1e-11)     # 1/(gamma sqrt(beta))
    assert abs(phi.coeffs[0, 0]) < 1e-11                         # (p0 - U)/gamma
    assert np.abs(phi.coeffs[2:]).max() < 1e-11
    assert phi.evaluate(0.3, 2.5) == pytest.approx((2.5 - F / gamma) / gamma, rel=1e-11)


def test_cell_parity_at_equilibrium():
    # symmetric V, F = 0: even levels odd in q (pure sine), odd levels even
    params = _params(gamma=1.0, beta=5.0, force=0.0)
    trunc = TruncationSpec(120, 16)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(density)
    M = trunc.n_fourier
    scale = np.abs(phi.coeffs).max()
    for n in range(0, trunc.n_hermite + 1, 7):
        if n % 2 == 0:
            assert np.abs(phi.coeffs[n, : M + 1]).max() <= 1e-10 * scale
        else:
            assert np.abs(phi.coeffs[n, M + 1 :]).max() <= 1e-10 * scale


def test_cell_residual_against_assembled_operator():
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    trunc = TruncationSpec(160, 16)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(density)
    A = _displaced_generator(params, trunc)        # -L, natural scaling
    rhs = np.zeros((trunc.n_hermite + 1) * (2 * trunc.n_fourier + 1))
    rhs[0] = density.field.p0 - density.drift      # p - U = (p0 - U) + H_1 / sqrt(beta)
    rhs[2 * trunc.n_fourier + 1] = 1.0 / math.sqrt(params.beta)   # p on level 1
    res = A @ phi.coeffs.reshape(-1) - rhs
    assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


_MIXED = PeriodicPotential(period=2.0, cos_coeffs=(0.8, 0.0, -0.3),
                           sin_coeffs=(0.0, 0.25), offset=1.5)


@pytest.mark.parametrize("top", ["dirichlet"])   # nothing above level N
@pytest.mark.parametrize("force", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("gamma", [0.1, 1.0, 50.0])
@pytest.mark.parametrize("potential", [PeriodicPotential.cosine(1.0, 1.0), _MIXED],
                         ids=["cosine", "mixed"])
def test_cell_bottom_block_kernels_are_exact(potential, gamma, force, top):
    # the premises of the cell solve: e0 is an exact right null vector of the
    # bottom block (d_q kills constants) and W R_0 a left one to roundoff
    params = ModelParams(gamma=gamma, beta=5.0, force=force, potential=potential)
    trunc = TruncationSpec(64, 12)
    density = solve_stationary_fp(params, trunc)
    bottom = density.factors.bottom
    assert not bottom[:, 0].any()
    left = density.factors.blocks.metric * density.field.coeffs[0]
    defect = np.abs(left @ bottom).max()
    assert defect <= 1e-14 * np.linalg.norm(left) * np.abs(bottom).max()


def test_ill_conditioned_cell_block_is_a_solver_error():
    # deep wells and too few levels: the truncation fails, and says so
    # (rcond 2.8e-15 at rest and 1.1e-11 under a tilt)
    for gamma, beta, force, n in ((0.05, 20.0, 0.0, 16), (0.5, 50.0, 0.5, 64)):
        params = _params(gamma=gamma, beta=beta, force=force)
        with pytest.raises(SolverError, match="ill-conditioned"):
            solve_transport(params, TruncationSpec(n, 24))


@pytest.mark.parametrize("force", [2.5, 3.0, 4.0])
def test_fig3_running_rows_are_right(force):
    # fig3's gamma=0.5 sweep past the bistable range: in a basis centred at
    # p = 0 these rows came out with U < 0 under a positive tilt and D_ibp of
    # 1e14 .. 1e33, and nothing flagged them
    params = _params(gamma=0.5, beta=5.0, force=force)
    res = solve_transport(params, TruncationSpec(64, 24), adaptive=True)
    twice = solve_transport(params, TruncationSpec(2 * res.n_hermite, 24))
    d_l = 1.0 / (params.beta * params.gamma)
    assert res.drift > 0.0
    assert abs(res.d_primary - res.d_ibp) <= 1e-6 * d_l
    assert res.drift == pytest.approx(twice.drift, rel=1e-6)
    assert res.d_primary == pytest.approx(twice.d_primary, rel=1e-6)


def test_einstein_relation_at_large_friction():
    # at F=0, D = V_1/beta from the equilibrium chain; the cell solve keeps
    # the agreement at roundoff (7e-14 measured)
    params = _params(gamma=50.0, beta=5.0)
    trunc = TruncationSpec(64, 24)
    d0 = build_chain(params, trunc, 1).v[1] / params.beta
    assert solve_transport(params, trunc).d_primary == pytest.approx(d0, rel=3e-13)


# ---------------------------------------------------------------------------
# Diffusion
# ---------------------------------------------------------------------------

def test_free_particle_diffusion_exact():
    for gamma, beta, F in [(0.1, 1.0, 0.5), (1.0, 1.0, 2.0), (10.0, 0.5, 0.0)]:
        params = _free(gamma, beta, F)
        res = solve_transport(params, TruncationSpec(40, 1))
        assert res.drift == pytest.approx(F / gamma, rel=1e-10, abs=1e-12)
        assert res.d_primary == pytest.approx(1.0 / (beta * gamma), rel=1e-10)
        assert res.d_ibp == pytest.approx(1.0 / (beta * gamma), rel=1e-9)


def test_free_particle_dl_value():
    res = solve_transport(_free(2.0, 5.0, 1.0), TruncationSpec(40, 1))
    assert res.d_primary == pytest.approx(0.1, rel=1e-10)


def test_pairing_matches_level_loop():
    # reference: the pairing formula summed level by level
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    trunc = TruncationSpec(120, 16)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(density)
    R, P = density.field.coeffs, phi.coeffs

    def pair(x, y):
        return 2.0 * float(x @ y) - float(x[0] * y[0])

    d = sum(math.sqrt((n + 1) / params.beta) * (pair(R[n + 1], P[n]) + pair(R[n], P[n + 1]))
            for n in range(trunc.n_hermite))
    res = compute_diffusion(density, phi)
    assert res.d_primary == pytest.approx(params.potential.period * d, rel=1e-12)


def test_diagnostics_report_the_basis_and_its_growth():
    params = _params(gamma=0.5, beta=5.0, force=3.0)
    trunc = TruncationSpec(64, 16)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(density)
    diag = compute_diffusion(density, phi).diagnostics
    assert diag["p0"] == 6.0
    for key, coeffs in (("log10_growth_R", density.field.coeffs),
                        ("log10_growth_phi", phi.coeffs)):
        levels = np.abs(coeffs).max(axis=1)
        assert diag[key] == pytest.approx(np.log10(levels.max() / levels[0]), rel=1e-12)
    # centred at p = 0, the same density grows like exp(beta p0^2 / 2) = 1e39
    assert diag["log10_growth_R"] < 1.0
    assert solve_transport(params.with_force(0.0), trunc).diagnostics["p0"] == 0.0


def _assert_rule_matches_scipy(x, w, n):
    # scipy's Golub-Welsch (n <= 150) or asymptotic (n > 150) rule is the
    # oracle: nodes to 1e-12 absolute, normalized weights to 1e-11 relative
    # wherever scipy's weight is at least 1e-200
    rx, rw = roots_hermitenorm(n)
    rw = rw / rw.sum()
    assert np.abs(x - rx).max() <= 1e-12
    big = rw >= 1e-200
    assert np.abs(w[big] / rw[big] - 1.0).max() <= 1e-11


def test_gauss_rule_is_computed_once_and_read_only():
    x, w = transport._gauss_maxwell_rule(40)
    _assert_rule_matches_scipy(x, w, 40)
    assert transport._gauss_maxwell_rule(40)[0] is x
    assert not x.flags.writeable and not w.flags.writeable


def test_ibp_fourier_table_is_built_once_and_read_only():
    table = transport._ibp_fourier_table(24, 1.0)
    q = np.arange(192) / 192.0
    assert np.array_equal(table, fourier_table(24, 1.0, q))
    assert transport._ibp_fourier_table(24, 1.0) is table
    assert not table.flags.writeable
    assert transport._ibp_fourier_table(4, 2.0).shape == (9, 64)


@pytest.mark.parametrize("n", [24, 40, 136, 150, 152, 394, 522, 3082, 16394])
def test_gauss_rule_matches_scipy(n):
    # the sizes straddle scipy's switch of method at 150 and reach past the
    # 2 n_eff + 8 = 3082 of fig1's gamma = 0.01 rows
    x, w = transport._gauss_maxwell_rule.__wrapped__(n)
    assert x.shape == w.shape == (n,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    assert abs(w.sum() - 1.0) <= 1e-14
    _assert_rule_matches_scipy(x, w, n)


@pytest.mark.parametrize("n", [1, 2, 13, 14, 22, 23])
def test_small_gauss_rules_match_scipy(n):
    # below 24 points numpy's Golub-Welsch rule serves
    x, w = transport._gauss_maxwell_rule.__wrapped__(n)
    assert x.shape == w.shape == (n,)
    assert abs(w.sum() - 1.0) <= 1e-14
    _assert_rule_matches_scipy(x, w, n)


@pytest.mark.parametrize("n", [22, 25, 37])
def test_asymptotic_rule_rejects_sizes_it_is_not_made_for(n):
    with pytest.raises(ValueError):
        transport._hermite_rule(n)


@pytest.mark.parametrize("n_hermite", [2, 3, 4, 5, 6, 7])
def test_smallest_truncations_solve(n_hermite):
    # their IBP quadratures take fewer than 24 nodes
    params = _params(gamma=1.0, beta=1.0, force=0.5)
    res = solve_transport(params, TruncationSpec(n_hermite, 4))
    assert np.isfinite(res.d_ibp) and np.isfinite(res.d_primary)


def test_dual_formula_agreement():
    pot = PeriodicPotential.cosine(0.25, 2 * np.pi)
    for gamma, n in ((1.0, 120), (0.1, 240)):
        params = ModelParams(gamma=gamma, beta=2.0, force=0.3, potential=pot)
        res = solve_transport(params, TruncationSpec(n, 12))
        d_l = 1.0 / (params.beta * gamma)
        assert abs(res.d_primary - res.d_ibp) <= 1e-6 * d_l


def test_ibp_stability_compares_distinct_node_sets(monkeypatch):
    # N=16, M=4, not adaptive: the 40-node rule keeps all 40 nodes inside
    # both of the two widest cutoffs, whose equal values read as a plateau
    # of spread exactly 0 (D_primary 0.0053 against D_ibp 5.06)
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    res = solve_transport(params, TruncationSpec(16, 4), adaptive=False)
    assert res.d_ibp_stability > 0.0
    monkeypatch.setattr(transport, "_IBP_CUTOFFS", (11.0, 12.0))   # one node set
    res = solve_transport(params, TruncationSpec(16, 4), adaptive=False)
    assert res.d_ibp_stability == np.inf


def _translated(potential, a):
    """V(q - a): the complex coefficient of harmonic k picks up exp(-i k w1 a)."""
    v = potential.complex_coeffs()[1:]
    v = v * np.exp(-1j * np.arange(1, len(v) + 1) * potential.omega1 * a)
    return replace(potential, cos_coeffs=tuple(2.0 * v.real),
                   sin_coeffs=tuple(-2.0 * v.imag))


def _assert_invariant(params, trunc):
    """The mirror image (F, V(q)) -> (-F, V(-q)) gives -U and the same D and
    mobility, and V + 1.5 the same three, to the bit; V(q - a) at a = 0.37 L
    and 0.5 L gives them within 1e-9 relative (exact in exact arithmetic, but
    the rounding changes).  A SolverError on one side must be one on all."""
    pot = params.potential
    images = [(1.0, params), (-1.0, params.reflected()),
              (1.0, replace(params, potential=replace(pot, offset=1.5)))]
    images += [(1.0, replace(params, potential=_translated(pot, f * pot.period)))
               for f in (0.37, 0.5)]
    out = []
    for sign, p in images:
        try:
            res = solve_transport(p, trunc)
        except SolverError as exc:
            out.append(str(exc))
        else:
            out.append((sign * res.drift, res.d_primary, res.mobility))
    plain, mirror, offset, *shifted = out
    assert mirror == plain and offset == plain
    for other in shifted:
        if isinstance(plain, str):
            assert isinstance(other, str)
        else:
            assert other == pytest.approx(plain, rel=1e-9)
    return plain


def test_transport_reflection_symmetry():
    # for the cosine, and for 25 drawn mixed potentials (two of which fail
    # alike, with a negative D at M = 12)
    _assert_invariant(_params(gamma=1.0, beta=5.0, force=0.7), TruncationSpec(160, 24))
    rng = np.random.default_rng(7)
    failed = 0
    for _ in range(25):
        k = int(rng.integers(1, 4))
        potential = PeriodicPotential(period=float(rng.uniform(0.5, 2 * np.pi)),
                                      cos_coeffs=tuple(rng.uniform(-1, 1, k)),
                                      sin_coeffs=tuple(rng.uniform(-1, 1, k)))
        params = ModelParams(gamma=float(rng.uniform(0.2, 20)), beta=float(rng.uniform(1, 5)),
                             force=float(rng.uniform(0, 2)), potential=potential)
        failed += isinstance(_assert_invariant(params, TruncationSpec(64, 12)), str)
    assert failed == 2


def _five_point(params, trunc, h):
    """dU/dF by the centred five-point difference of step h."""
    u = {k: solve_transport(params.with_force(params.force + k * h), trunc).drift
         for k in (-2, -1, 1, 2)}
    return (8.0 * (u[1] - u[-1]) - (u[2] - u[-2])) / (12.0 * h)


@pytest.mark.parametrize("gamma, force", [(1.0, 0.0), (1.0, 0.3), (1.0, 0.8), (1.0, 1.2),
                                          (50.0, 0.5)])
def test_mobility_is_the_derivative_of_the_drift(gamma, force):
    # the difference's error is c h^4 + roundoff/h.  At h = 0.01 the h^4 term
    # rules (h = 0.001 leaves roundoff of 1e-9 of mu), so the step h/2 has the
    # error (FD_h - FD_h/2)/15, and mu must sit within that distance of the
    # Richardson value FD_h/2 - (FD_h - FD_h/2)/15: 2e-9 of mu at F = 0,
    # 2e-8 at F = 1.2.  N = 256: at N = 128 the gamma = 1 cell solution is
    # converged only to 1e-6..6e-8, and so is mu (8e-8 off at F = 1.2)
    params = _params(gamma=gamma, beta=5.0, force=force)
    trunc = TruncationSpec(256, 24)
    mu = solve_transport(params, trunc).mobility
    coarse, fine = _five_point(params, trunc, 0.01), _five_point(params, trunc, 0.005)
    error = abs(coarse - fine) / 15.0
    assert abs(mu - (fine - (coarse - fine) / 15.0)) <= error


@pytest.mark.parametrize("gamma", [0.3, 1.0, 50.0])
def test_einstein_relation_from_the_mobility(gamma):
    # at F = 0, D = mu/beta: the fluctuation-dissipation theorem, which the
    # two pairings of one adaptive solve meet at roundoff (5e-13 measured)
    params = _params(gamma=gamma, beta=5.0)
    res = solve_transport(params, TruncationSpec(64, 24), adaptive=True)
    assert abs(res.d_primary * params.beta / res.mobility - 1.0) <= 1e-10


def test_einstein_gap_is_recorded_at_zero_tilt_only():
    params = _params(gamma=1.0, beta=5.0)
    res = solve_transport(params, TruncationSpec(64, 24), adaptive=True)
    assert abs(res.diagnostics["einstein_gap"]) <= 1e-10       # -1.3e-13 measured
    # M = 16 is too few Fourier modes for this draw: the ladder stops at its
    # first rung, both top levels small, with D beta / mu - 1 = 0.58
    draw = ModelParams(gamma=1.317, beta=4.311, force=0.0,
                       potential=PeriodicPotential(period=2.948,
                                                   cos_coeffs=(0.901, -0.712),
                                                   sin_coeffs=(0.897, -0.376)))
    res = solve_transport(draw, TruncationSpec(64, 16), adaptive=True)
    assert res.n_hermite == 64 and "adaptive_cap_hit" not in res.diagnostics
    assert res.diagnostics["einstein_gap"] > 0.1
    tilted = solve_transport(params.with_force(0.3), TruncationSpec(64, 24), adaptive=True)
    assert "einstein_gap" not in tilted.diagnostics


def test_transport_truncation_convergence():
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    a = solve_transport(params, TruncationSpec(120, 24))
    b = solve_transport(params, TruncationSpec(136, 32))
    assert abs(a.drift - b.drift) <= 1e-8 * abs(b.drift)
    assert abs(a.d_primary - b.d_primary) <= 1e-8 * b.d_primary


def test_diffusion_positive():
    for force in (0.0, 0.5, 1.5):
        res = solve_transport(_params(force=force), TruncationSpec(160, 24))
        assert res.d_ibp >= 0.0
        assert res.d_primary > 0.0


def test_adaptive_raises_levels_at_small_friction():
    params = _params(gamma=0.05, beta=5.0, force=0.1)
    res = solve_transport(params, TruncationSpec(64, 16), adaptive=True)
    assert res.n_hermite > 64
    assert res.diagnostics["top_level_ratio"] <= 1e-8
    assert res.diagnostics["top_level_ratio_phi"] <= 1e-8


def test_mismatched_shapes_in_diffusion():
    params = _params()
    density = solve_stationary_fp(params, TruncationSpec(24, 8))
    phi = solve_cell_problem(density)
    density2 = solve_stationary_fp(params, TruncationSpec(32, 8))
    with pytest.raises(ValueError):
        compute_diffusion(density2, phi)


# ---------------------------------------------------------------------------
# Sweep continuation of the adaptive ladder
# ---------------------------------------------------------------------------

_LADDER_KEYS = ("ladder_start", "rungs_solved", "rungs_certified", "rungs_tried")


def _fig1_sweep(gamma):
    """fig1's parameters at one friction: params at F=0, n0 (256 below
    gamma = 0.05, else 64), and the twelve forces 0.1 .. 2.2 F_c in sweep
    order."""
    v0 = np.pi ** 2 / 16.0
    params = ModelParams(gamma=gamma, beta=1.2 / v0, force=0.0,
                         potential=PeriodicPotential.cosine(v0, 2 * np.pi))
    fc = 3.36 * gamma * np.sqrt(v0)
    n0 = 256 if gamma < 0.05 else 64
    return params, TruncationSpec(n0, 24), np.linspace(0.1 * fc, 2.2 * fc, 12)


def _fig3_sweep():
    """fig3's gamma=0.5 sweep: params at F=0, n0 = 64, and the seventeen
    forces 0 .. 4 in sweep order.  The needed N changes along it: 384 at
    F = 2.5, 256 at 2.75, 64 from 3.0 up."""
    params = _params(gamma=0.5, beta=5.0)
    return params, TruncationSpec(64, 24), np.linspace(0.0, 4.0, 17)


def _same_result(a, b):
    assert (a.drift, a.d_primary, a.d_ibp, a.d_ibp_stability, a.n_hermite) == \
        (b.drift, b.d_primary, b.d_ibp, b.d_ibp_stability, b.n_hermite)
    strip = lambda d: {k: v for k, v in d.items() if k not in _LADDER_KEYS}
    assert strip(a.diagnostics) == strip(b.diagnostics)


def _count_solves(monkeypatch):
    calls = []
    original = transport.solve_stationary_fp

    def counted(params, trunc):
        calls.append(trunc.n_hermite)
        return original(params, trunc)

    monkeypatch.setattr(transport, "solve_stationary_fp", counted)
    return calls


def test_continuation_down_a_sweep_matches_fresh_solves():
    # fig3 at gamma=0.5 from F=2.25 up: the needed N falls 384 -> 64, so the
    # start rung lies above the answer and the lower rungs are solved
    params, trunc, forces = _fig3_sweep()
    start, trail = None, []
    for F in forces[9:]:
        p = params.with_force(F)
        res = solve_transport(p, trunc, adaptive=True, start=start)
        _same_result(res, solve_transport(p, trunc, adaptive=True))
        trail.append((res.n_hermite, res.diagnostics["ladder_start"]))
        start = res.n_hermite
    assert trail[0] == (384, 64) and trail[-1] == (64, 64)
    assert (256, 384) in trail and (64, 256) in trail


def test_continuation_up_a_sweep_certifies_rungs(monkeypatch):
    # every fig1 point at gamma=0.01 converges at 1536, five rungs above n0;
    # the fresh first point starts at the rung its n0 density predicts, 1024
    params, trunc, forces = _fig1_sweep(0.01)
    calls = _count_solves(monkeypatch)
    first = solve_transport(params.with_force(forces[0]), trunc, adaptive=True)
    assert calls == [256, 1024, 1536]
    assert first.diagnostics["rungs_tried"] == calls
    p = params.with_force(forces[1])
    del calls[:]
    res = solve_transport(p, trunc, adaptive=True, start=first.n_hermite)
    assert calls == [1536]
    assert {k: res.diagnostics[k] for k in _LADDER_KEYS} == \
        {"ladder_start": 1536, "rungs_solved": 1, "rungs_certified": 5,
         "rungs_tried": [1536]}
    _same_result(res, solve_transport(p, trunc, adaptive=True))


def test_failed_densities_skip_the_cell_solve(monkeypatch):
    # a fresh fig1 gamma=0.01 climb: the densities at 256 .. 1024 miss the
    # tolerance, so only the answer's cell problem is solved (the climb solves
    # 256, then 1024 as predicted), and the row is the one solving every rung
    # in full gives
    params, trunc, forces = _fig1_sweep(0.01)
    p = params.with_force(forces[0])
    for n in (256, 384, 512, 768, 1024):
        density = solve_stationary_fp(p, trunc.with_n_hermite(n))
        assert density.diagnostics["top_level_ratio"] > transport._ADAPT_TOL
        rung = transport._Rung(density, solve_cell_problem(density), {})
        assert not rung.converged
    full = solve_transport(p, trunc.with_n_hermite(1536))
    cells = []
    original = transport._solve_cell

    def counted(density):
        cells.append(density.trunc.n_hermite)
        return original(density)

    monkeypatch.setattr(transport, "_solve_cell", counted)
    res = solve_transport(p, trunc, adaptive=True)
    assert cells == [1536]
    assert res.diagnostics["rungs_tried"] == [256, 1024, 1536]
    assert res.diagnostics["rungs_solved"] == 3
    _same_result(res, full)


def _no_prediction(monkeypatch):
    """Turn the fresh climb's predicted start off: it climbs the plain ladder."""
    monkeypatch.setattr(transport, "_predicted_start", lambda density, rungs: None)


@pytest.mark.parametrize("sweep", ["fig1 gamma=0.01", "fig1 gamma=0.1", "fig1 gamma=1",
                                   "fig3 gamma=0.5"])
def test_predicted_start_returns_the_plain_ladder_answer(monkeypatch, sweep):
    # A fresh climb starts at the rung its n0 density predicts and certifies
    # the rungs it skips, as continuation does.  At every point of these
    # sweeps the row is the plain ladder's, bit for bit: fig1 covers the
    # starts above the answer's 1536 and 192 .. 256, and fig3's gamma=0.5,
    # where N falls 384 -> 64, the overshoots certified down.
    figure, gamma = sweep.split(" gamma=")
    params, trunc, forces = (_fig3_sweep() if figure == "fig3"
                             else _fig1_sweep(float(gamma)))
    n0, predicted = trunc.n_hermite, 0
    for F in forces:
        p = params.with_force(F)
        res = solve_transport(p, trunc, adaptive=True)
        with monkeypatch.context() as m:
            _no_prediction(m)
            ladder = solve_transport(p, trunc, adaptive=True)
        _same_result(res, ladder)
        assert ladder.diagnostics["ladder_start"] == n0
        predicted += res.diagnostics["ladder_start"] != n0
    assert predicted >= (0 if gamma == "1" else 4)


def test_a_point_converging_at_n0_solves_n0_alone(monkeypatch):
    # fig1 at gamma=1 converges at n0 = 64 everywhere, as most tilt-series
    # points do: the fresh climb costs the one rung the plain ladder solves
    params, trunc, forces = _fig1_sweep(1.0)
    calls = _count_solves(monkeypatch)
    for F in forces:
        del calls[:]
        res = solve_transport(params.with_force(F), trunc, adaptive=True)
        assert calls == res.diagnostics["rungs_tried"] == [64]
        assert res.n_hermite == 64 and res.diagnostics["ladder_start"] == 64


def _density_with_levels(ratios):
    """A stand-in density whose level n has largest coefficient ratios[n]."""
    coeffs = np.zeros((len(ratios), 3))
    coeffs[:, 1] = ratios
    return types.SimpleNamespace(field=types.SimpleNamespace(coeffs=coeffs))


def test_predicted_start_extrapolates_the_envelope_in_sqrt_n():
    rungs = transport._ladder(64)
    n = np.arange(65)
    # log10 envelope = -8 sqrt(n) / sqrt(150): the tolerance is reached at
    # n = 150, nearest to the rung 128
    decay = 10.0 ** (-8.0 * np.sqrt(n / 150.0))
    assert transport._predicted_start(_density_with_levels(decay), rungs) == 128
    # at n = 4000 it would be 4096 or 6144; the start is bounded at 8 n0
    slow = 10.0 ** (-8.0 * np.sqrt(n / 4000.0))
    assert transport._predicted_start(_density_with_levels(slow), rungs) == 512
    # levels already below the tolerance over the fit (the top missed it for
    # a bump above them) extrapolate back past n = 0: the start is n0 itself
    low = 10.0 ** (-10.0 - np.sqrt(n) / 10.0)
    low[0] = 1.0
    assert transport._predicted_start(_density_with_levels(low), rungs) == 64
    # an envelope that does not decay predicts nothing
    rising = 10.0 ** (-8.0 + np.sqrt(n / 8.0))
    assert transport._predicted_start(_density_with_levels(rising), rungs) is None
    # nor do fewer than three fitted levels (n0 = 2 fits levels 0 and 1)
    assert transport._predicted_start(_density_with_levels(decay[:3]),
                                      transport._ladder(2)) is None


@pytest.mark.parametrize("start", [100, 80, 64, 32, 0])
def test_start_off_the_ladder_is_ignored(monkeypatch, start):
    params, trunc, forces = _fig3_sweep()
    p = params.with_force(forces[11])                    # F = 2.75 needs N = 256
    fresh = solve_transport(p, trunc, adaptive=True)
    calls = _count_solves(monkeypatch)
    res = solve_transport(p, trunc, adaptive=True, start=start)
    assert calls == [64, 96, 128, 192, 256]
    assert res.diagnostics["ladder_start"] == 64
    _same_result(res, fresh)


def test_start_is_ignored_without_adaptive(monkeypatch):
    params, trunc, forces = _fig1_sweep(1.0)
    p = params.with_force(forces[-1])
    calls = _count_solves(monkeypatch)
    res = solve_transport(p, trunc, start=128)
    assert calls == [64] and res.n_hermite == 64


def test_solver_error_at_start_falls_back_to_the_ladder(monkeypatch):
    params, trunc, forces = _fig1_sweep(1.0)
    p = params.with_force(forces[0])                     # converges at n0 = 64
    fresh = solve_transport(p, trunc, adaptive=True)
    original = transport.solve_stationary_fp
    calls = []

    def failing(params, trunc):
        calls.append(trunc.n_hermite)
        if trunc.n_hermite == 256:
            raise SolverError("singular Schur complement")
        return original(params, trunc)

    monkeypatch.setattr(transport, "solve_stationary_fp", failing)
    res = solve_transport(p, trunc, adaptive=True, start=256)
    assert calls == [256, 64]
    assert res.diagnostics["ladder_start"] == 64
    assert res.diagnostics["rungs_solved"] == 2
    assert res.diagnostics["rungs_tried"] == [256, 64]
    _same_result(res, fresh)


def test_cap_hit_from_start_falls_back_to_the_ladder(monkeypatch):
    # fig3's F = 2.75 needs N = 256; with the cap at 128 no rung converges
    monkeypatch.setattr(transport, "_N_HERMITE_MAX", 128)
    params, trunc, forces = _fig3_sweep()
    p = params.with_force(forces[11])
    fresh = solve_transport(p, trunc, adaptive=True)
    assert fresh.diagnostics["adaptive_cap_hit"] and fresh.n_hermite == 128
    calls = _count_solves(monkeypatch)
    res = solve_transport(p, trunc, adaptive=True, start=128)
    assert calls == [128, 64, 96, 128]
    assert res.diagnostics["ladder_start"] == 64
    _same_result(res, fresh)


@pytest.mark.parametrize("gamma", [0.1, 0.01])
def test_certified_rungs_really_fail(gamma):
    # The one premise of continuation's exactness: a rung below which every
    # level of a converged solution exceeds _CERT_FACTOR * _ADAPT_TOL does not
    # converge when solved.  Checked at every fig1 point of this friction,
    # from the solution at every converged rung up to 8 n0 (the sweeps need
    # at most 4 n0 at gamma=0.1 and 6 n0 at gamma=0.01, so this covers every
    # start continuation can carry in); a basis or ladder change that breaks
    # the premise fails here.  gamma=1 converges at n0 everywhere and certifies
    # nothing.
    params, trunc, forces = _fig1_sweep(gamma)
    tol = transport._ADAPT_TOL
    margins = []
    for F in forces:
        p = params.with_force(F)
        rungs = {}
        for n in (trunc.n_hermite * k // 2 for k in (2, 3, 4, 6, 8, 12, 16)):
            try:
                density = solve_stationary_fp(p, trunc.with_n_hermite(n))
                phi = solve_cell_problem(density)
                rungs[n] = transport._Rung(density, phi, {})
            except SolverError:
                rungs[n] = None
        for N, top in rungs.items():
            if top is None or not top.converged:
                continue
            for r, rung in rungs.items():
                if r < N and top.floor(r) > transport._CERT_FACTOR * tol:
                    margins.append(np.inf if rung is None else rung.envelope(r) / tol)
    assert len(margins) >= 12
    assert min(margins) > 1.0


# ---------------------------------------------------------------------------
# The half-octave ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n0", [1, 2, 3, 64, 256])
def test_ladder_rungs(n0):
    rungs = transport._ladder(n0)
    assert rungs[0] == n0
    assert all(a < b for a, b in zip(rungs, rungs[1:]))
    assert rungs[-1] <= transport._N_HERMITE_MAX
    assert all(isinstance(n, int) for n in rungs)
    # every half octave above n0 is on it: 2^k n0 and 3 2^(k-1) n0 rounded down
    expected = {n0 << k for k in range(14)} | {(3 * n0 << k) // 2 for k in range(14)}
    assert rungs == sorted(n for n in expected if n <= transport._N_HERMITE_MAX)


def test_ladder_above_the_cap_is_n0_alone():
    n0 = transport._N_HERMITE_MAX + 1
    assert transport._ladder(n0) == [n0]
    assert transport._ladder(transport._N_HERMITE_MAX) == [transport._N_HERMITE_MAX]


def test_factors_equal_the_dense_schur_step():
    # the in-place step (a strided view of the diagonal, the product written
    # into the next slot, LAPACK on the slot's transpose) builds
    # G_{n-1} = Q_{n-1} - n drift G_n^{-1} d_q as the dense expression does,
    # and the bottom block bit for bit
    params = _params(gamma=0.3, beta=2.0, force=0.4)
    trunc = TruncationSpec(12, 6)
    f = factor_hierarchy(params, trunc)
    b = f.blocks
    g = np.zeros_like(b.d_q)
    for n in range(12, 0, -1):
        g = g - b.friction * n * np.eye(b.size) + b.shift * b.d_q
        assert np.allclose(np.linalg.inv(g), f.inverses[n], rtol=1e-12, atol=1e-14)
        g = -n * (b.drift @ (f.inverses[n] @ b.d_q))
    assert np.array_equal(b.add_shift(g), f.bottom)


@pytest.mark.parametrize("frac", [0.1, 1.05, 2.2])
def test_fig1_small_friction_answers_at_1536_are_converged(frac):
    # The half-octave ladder returns fig1's gamma=0.01 points at N = 1536:
    # the answer must agree with the N=2048 solve and give the same dual-D
    # verdict.
    params, trunc, _ = _fig1_sweep(0.01)
    p = params.with_force(frac * 3.36 * 0.01 * np.sqrt(np.pi ** 2 / 16.0))
    res = solve_transport(p, trunc, adaptive=True)
    ref = solve_transport(p, trunc.with_n_hermite(2048))
    assert res.n_hermite == 1536
    assert res.drift == pytest.approx(ref.drift, rel=1e-10)
    assert res.d_primary == pytest.approx(ref.d_primary, rel=1e-10)
    d_l = 1.0 / (p.beta * p.gamma)
    verdict = lambda r: abs(r.d_primary - r.d_ibp) <= 1e-6 * d_l
    assert verdict(res) == verdict(ref)


def test_levels_are_factored_in_the_returned_stack(monkeypatch):
    # each G_n is factored and inverted inside slot n of the stack it is
    # returned in, with no copy, and bottom is a copy, so dropping the stack
    # frees all of it
    calls = []
    make = transport.inverter

    def recorded(stack):
        invert = make(stack)

        def call(k):
            before = stack[k].copy()
            info = invert(k)
            calls.append((stack, k, before))
            return info
        return call

    monkeypatch.setattr(transport, "inverter", recorded)
    f = factor_hierarchy(_params(gamma=0.3, beta=2.0, force=0.4), TruncationSpec(12, 6))
    assert [k for _, k, _ in calls] == list(range(12, 0, -1))
    eye = np.eye(f.blocks.size)
    for stack, n, g in calls:
        assert stack is f.inverses
        assert np.abs(f.inverses[n] @ g - eye).max() < 1e-12
    assert not np.shares_memory(f.bottom, f.inverses)
    assert np.array_equal(f.bottom, f.inverses[0])
