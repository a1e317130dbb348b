import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import roots_hermitenorm

from washboard import transport
from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import TruncationSpec, packed_dq_matrix
from washboard.expansion import assemble_generator, build_chain
from washboard.transport import (SolverError, compute_diffusion, displaced_blocks,
                                 factor_hierarchy, hierarchy_blocks, solve_cell_problem,
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
    # layout of the packed (xi, eta) coupling for V = V0 cos(w1 q) plus tilt
    beta, v0, F, L, M = 5.0, 1.0, 0.7, 1.0, 3
    blocks = hierarchy_blocks(_params(beta=beta, force=F, v0=v0, period=L),
                              TruncationSpec(8, M))
    w1 = 2 * np.pi / L
    c = beta * v0 * w1 / 2.0
    T = blocks.drift                              # Q_n^- / sqrt(n+1)
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
    assert blocks.lift == pytest.approx(2 * blocks.d_q - T, abs=1e-12)


def test_block_n_scaling():
    # every n-dependence is an exact sqrt(n) / sqrt(n+1) / n scaling of the
    # n-independent blocks: they rebuild the assembled -L row by row
    params = _params(force=0.4)
    trunc = TruncationSpec(8, 2)
    blocks = hierarchy_blocks(params, trunc)
    A = assemble_generator(params, trunc).toarray() * -np.sqrt(params.beta)
    size = blocks.size

    def block(m, n):
        return A[m * size:(m + 1) * size, n * size:(n + 1) * size]

    for n in (1, 4, 8):
        assert block(n, n - 1) == pytest.approx(np.sqrt(n) * blocks.d_q, abs=1e-12)
        assert block(n, n) == pytest.approx(-blocks.friction * n * np.eye(size))
    for n in (0, 3, 7):
        assert block(n, n + 1) == pytest.approx(np.sqrt(n + 1) * blocks.drift,
                                                abs=1e-12)


def test_displaced_blocks_are_the_untilted_blocks_plus_a_shift():
    params = _params(force=0.7, gamma=0.5)
    trunc = TruncationSpec(8, 3)
    blocks = displaced_blocks(params, trunc)
    untilted = hierarchy_blocks(params.with_force(0.0), trunc)
    assert blocks.p0 == 0.7 / 0.5
    assert blocks.shift == np.sqrt(params.beta) * blocks.p0
    for name in ("d_q", "tilt", "drift", "lift", "metric"):
        assert np.array_equal(getattr(blocks, name), getattr(untilted, name))
    g = np.zeros((7, 7))
    assert np.array_equal(blocks.add_shift(g), blocks.shift * blocks.d_q)
    # at F = 0 the two bases coincide, bit for bit
    at_rest = displaced_blocks(params.with_force(0.0), trunc)
    assert at_rest.p0 == 0.0 and at_rest.shift == 0.0
    assert np.array_equal(at_rest.drift, untilted.drift)


def test_blocks_for_another_centre_are_rejected():
    params = _params(force=0.5)
    trunc = TruncationSpec(16, 4)
    with pytest.raises(ValueError, match="centred"):
        solve_stationary_fp(params, trunc, blocks=hierarchy_blocks(params, trunc))
    with pytest.raises(ValueError, match="centred"):
        factor_hierarchy(params, trunc, displaced_blocks(params.with_force(0.6), trunc))
    # at F = 0 the centred blocks are the solver's own
    rest = params.with_force(0.0)
    a = solve_stationary_fp(rest, trunc, blocks=hierarchy_blocks(rest, trunc))
    b = solve_stationary_fp(rest, trunc)
    assert np.array_equal(a.field.coeffs, b.field.coeffs)


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
    phi = solve_cell_problem(params, trunc, density)
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
    phi = solve_cell_problem(params, trunc, density)
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
    phi = solve_cell_problem(params, trunc, density)
    A = _displaced_generator(params, trunc)        # -L, natural scaling
    rhs = np.zeros((trunc.n_hermite + 1) * (2 * trunc.n_fourier + 1))
    rhs[0] = density.field.p0 - density.drift      # p - U = (p0 - U) + H_1 / sqrt(beta)
    rhs[2 * trunc.n_fourier + 1] = 1.0 / math.sqrt(params.beta)   # p on level 1
    res = A @ phi.coeffs.reshape(-1) - rhs
    assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


def test_density_mismatch_rejected():
    params = _params()
    density = solve_stationary_fp(params, TruncationSpec(24, 8))
    with pytest.raises(ValueError):
        solve_cell_problem(params, TruncationSpec(32, 8), density)
    with pytest.raises(ValueError):
        solve_cell_problem(params, TruncationSpec(24, 12), density)


def test_density_for_other_params_rejected():
    trunc = TruncationSpec(24, 8)
    density = solve_stationary_fp(_params(force=0.3), trunc)
    with pytest.raises(ValueError, match="other params"):
        solve_cell_problem(_params(force=0.4), trunc, density)


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
    phi = solve_cell_problem(params, trunc, density)
    R, P = density.field.coeffs, phi.coeffs

    def pair(x, y):
        return 2.0 * float(x @ y) - float(x[0] * y[0])

    d = sum(math.sqrt((n + 1) / params.beta) * (pair(R[n + 1], P[n]) + pair(R[n], P[n + 1]))
            for n in range(trunc.n_hermite))
    res = compute_diffusion(density, phi, params)
    assert res.d_primary == pytest.approx(params.potential.period * d, rel=1e-12)


def test_diagnostics_report_the_basis_and_its_growth():
    params = _params(gamma=0.5, beta=5.0, force=3.0)
    trunc = TruncationSpec(64, 16)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(params, trunc, density)
    diag = compute_diffusion(density, phi, params).diagnostics
    assert diag["p0"] == 6.0
    for key, coeffs in (("log10_growth_R", density.field.coeffs),
                        ("log10_growth_phi", phi.coeffs)):
        levels = np.abs(coeffs).max(axis=1)
        assert diag[key] == pytest.approx(np.log10(levels.max() / levels[0]), rel=1e-12)
    # centred at p = 0, the same density grows like exp(beta p0^2 / 2) = 1e39
    assert diag["log10_growth_R"] < 1.0
    assert solve_transport(params.with_force(0.0), trunc).diagnostics["p0"] == 0.0


def test_gauss_rule_is_computed_once_and_read_only():
    x, w = transport._gauss_maxwell_rule(37)
    rx, rw = roots_hermitenorm(37)
    assert np.array_equal(x, rx)
    assert np.array_equal(w, rw / np.sqrt(2.0 * np.pi))
    assert transport._gauss_maxwell_rule(37)[0] is x
    assert not x.flags.writeable and not w.flags.writeable


def test_dual_formula_agreement():
    pot = PeriodicPotential.cosine(0.25, 2 * np.pi)
    for gamma, n in ((1.0, 120), (0.1, 240)):
        params = ModelParams(gamma=gamma, beta=2.0, force=0.3, potential=pot)
        res = solve_transport(params, TruncationSpec(n, 12))
        d_l = 1.0 / (params.beta * gamma)
        assert abs(res.d_primary - res.d_ibp) <= 1e-6 * d_l


def test_transport_reflection_symmetry():
    params = _params(gamma=1.0, beta=5.0, force=0.7)
    trunc = TruncationSpec(160, 24)
    plus = solve_transport(params, trunc)
    minus = solve_transport(params.reflected(), trunc)
    assert abs(plus.drift + minus.drift) <= 1e-9 * max(abs(plus.drift), 1e-12)
    assert abs(plus.d_primary - minus.d_primary) <= 1e-9 * plus.d_primary


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
    phi = solve_cell_problem(params, TruncationSpec(24, 8), density)
    density2 = solve_stationary_fp(params, TruncationSpec(32, 8))
    with pytest.raises(ValueError):
        compute_diffusion(density2, phi, params)


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

    def counted(params, trunc, blocks=None):
        calls.append(trunc.n_hermite)
        return original(params, trunc, blocks=blocks)

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
    # every fig1 point at gamma=0.01 converges at 1536, five rungs above n0
    params, trunc, forces = _fig1_sweep(0.01)
    calls = _count_solves(monkeypatch)
    first = solve_transport(params.with_force(forces[0]), trunc, adaptive=True)
    assert calls == [256, 384, 512, 768, 1024, 1536]
    assert first.diagnostics["rungs_tried"] == calls
    p = params.with_force(forces[1])
    del calls[:]
    res = solve_transport(p, trunc, adaptive=True, start=first.n_hermite)
    assert calls == [1536]
    assert {k: res.diagnostics[k] for k in _LADDER_KEYS} == \
        {"ladder_start": 1536, "rungs_solved": 1, "rungs_certified": 5,
         "rungs_tried": [1536]}
    _same_result(res, solve_transport(p, trunc, adaptive=True))


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

    def failing(params, trunc, blocks=None):
        calls.append(trunc.n_hermite)
        if trunc.n_hermite == 256:
            raise SolverError("singular Schur complement")
        return original(params, trunc, blocks=blocks)

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
        blocks = displaced_blocks(p, trunc)
        rungs = {}
        for n in (trunc.n_hermite * k // 2 for k in (2, 3, 4, 6, 8, 12, 16)):
            cur = trunc.with_n_hermite(n)
            try:
                density = solve_stationary_fp(p, cur, blocks=blocks)
                phi = solve_cell_problem(p, cur, density)
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
    # returned in (f2py would copy a view that is not F-ordered), and
    # bottom is a copy, so dropping the stack frees all of it
    calls = []
    getrf, getri = transport.dgetrf, transport.dgetri

    def recorded(lapack, name):
        def call(a, *args, **kwargs):
            out = lapack(a, *args, **kwargs)
            calls.append((name, a, out[0]))
            return out
        return call

    monkeypatch.setattr(transport, "dgetrf", recorded(getrf, "getrf"))
    monkeypatch.setattr(transport, "dgetri", recorded(getri, "getri"))
    f = factor_hierarchy(_params(gamma=0.3, beta=2.0, force=0.4), TruncationSpec(12, 6))
    assert [name for name, _, _ in calls] == ["getrf", "getri"] * 12
    for n, i in zip(range(12, 0, -1), range(0, 24, 2)):
        for _, a, out in calls[i : i + 2]:
            assert np.shares_memory(a, f.inverses[n])
            assert np.shares_memory(out, f.inverses[n])
    assert not np.shares_memory(f.bottom, f.inverses)
    assert np.array_equal(f.bottom, f.inverses[0])
