import math

import numpy as np
import pytest

from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import TruncationSpec, packed_dq_matrix
from washboard.expansion import assemble_generator
from washboard.transport import (SolverError, compute_diffusion, factor_hierarchy,
                                 hierarchy_blocks, solve_cell_problem,
                                 solve_stationary_fp, solve_transport)


def _params(gamma=1.0, beta=5.0, force=0.0, v0=1.0, period=1.0):
    return ModelParams(gamma=gamma, beta=beta, force=force,
                       potential=PeriodicPotential.cosine(v0, period))


def _free(gamma=1.0, beta=1.0, force=1.0, period=2 * np.pi):
    return ModelParams(gamma=gamma, beta=beta, force=force,
                       potential=PeriodicPotential(period=period))


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_diag_block_values():
    # with the dirichlet closure the top Schur complement is the bare level-N
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
    q_diag = -blocks.friction * N * np.eye(blocks.size)
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
    # shifted Maxwellian: R_n^0 = (1/L) (sqrt(beta) F / gamma)^n / sqrt(n!)
    gamma, beta, F, L = 1.0, 1.0, 1.0, 2 * np.pi
    density = solve_stationary_fp(_free(gamma, beta, F, L), TruncationSpec(40, 1))
    mu = math.sqrt(beta) * F / gamma
    for n in range(10):
        expect = mu ** n / math.sqrt(math.factorial(n)) / L
        assert density.field.coeffs[n, 0] == pytest.approx(expect, rel=1e-12)
        assert np.abs(density.field.coeffs[n, 1:]).max() < 1e-14
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
    # A^T W R = 0 for A the assembled -L
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    trunc = TruncationSpec(160, 16)
    R = solve_stationary_fp(params, trunc).field.coeffs
    A = assemble_generator(params, trunc)
    metric = np.full(2 * trunc.n_fourier + 1, 2.0)
    metric[0] = 1.0
    res = A.T @ (R * metric).reshape(-1)
    assert np.abs(res).max() <= 1e-10 * np.abs(R).max()


@pytest.mark.parametrize("closure", ["dirichlet", "neumann"])
def test_density_residual_is_for_the_solved_closure(closure):
    # N = 12 leaves the top levels large, so a residual taken with another
    # top row than the one solved would read about 2e-2
    density = solve_stationary_fp(_params(force=0.5), TruncationSpec(12, 16, closure))
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
    # phi = (p - U)/gamma exactly
    gamma, beta, F = 1.0, 1.0, 1.0
    params = _free(gamma, beta, F)
    trunc = TruncationSpec(40, 1)
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(params, trunc, density)
    assert phi.coeffs[1, 0] == pytest.approx(1.0, rel=1e-11)     # 1/(gamma sqrt(beta))
    assert phi.coeffs[0, 0] == pytest.approx(-1.0, rel=1e-11)    # -U/gamma
    assert np.abs(phi.coeffs[2:]).max() < 1e-11


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
    A = assemble_generator(params, trunc)          # -L, natural scaling
    rhs = np.zeros((trunc.n_hermite + 1) * (2 * trunc.n_fourier + 1))
    rhs[0] = -density.drift
    rhs[2 * trunc.n_fourier + 1] = 1.0 / math.sqrt(params.beta)   # p on level 1
    res = A @ phi.coeffs.reshape(-1) - rhs
    assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


def test_density_mismatch_rejected():
    params = _params()
    density = solve_stationary_fp(params, TruncationSpec(24, 8))
    with pytest.raises(ValueError):
        solve_cell_problem(params, TruncationSpec(32, 8), density)
    with pytest.raises(ValueError):
        solve_cell_problem(params, TruncationSpec(24, 8, "neumann"), density)


def test_density_for_other_params_rejected():
    trunc = TruncationSpec(24, 8)
    density = solve_stationary_fp(_params(force=0.3), trunc)
    with pytest.raises(ValueError, match="other params"):
        solve_cell_problem(_params(force=0.4), trunc, density)


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


def test_compute_diffusion_reports_solved_closure():
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    trunc = TruncationSpec(64, 16, "neumann")
    density = solve_stationary_fp(params, trunc)
    phi = solve_cell_problem(params, trunc, density)
    assert compute_diffusion(density, phi, params).closure == "neumann"


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


def test_transport_closure_insensitivity():
    params = _params(gamma=1.0, beta=5.0, force=0.5)
    dir_res = solve_transport(params, TruncationSpec(160, 24, "dirichlet"))
    neu_res = solve_transport(params, TruncationSpec(160, 24, "neumann"))
    assert abs(dir_res.drift - neu_res.drift) <= 1e-8 * max(abs(dir_res.drift), 1e-10)
    assert abs(dir_res.d_primary - neu_res.d_primary) <= 1e-8 * dir_res.d_primary


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
