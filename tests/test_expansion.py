import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import (HermiteFourierField, TruncationSpec, apply_lower,
                             apply_raise, gibbs_gram, gibbs_inner)
from washboard.expansion import (EquilibriumPoissonSolver,
                                 assemble_generator, build_chain,
                                 diffusion_coefficients, partial_sum_D,
                                 partial_sum_U, series_radius_estimate)
from washboard.transport import SolverError, hierarchy_blocks, solve_transport

from packed_reference import (GibbsTensorQuadrature, reference_dq_matrix,
                              reference_mult_matrix)


def _params(gamma=1.0, beta=5.0, v0=1.0, period=1.0):
    return ModelParams(gamma=gamma, beta=beta, force=0.0,
                       potential=PeriodicPotential.cosine(v0, period))


def _free(gamma=1.0, beta=1.0, period=2 * np.pi):
    return ModelParams(gamma=gamma, beta=beta, force=0.0,
                       potential=PeriodicPotential(period=period))


def _reflect(field: HermiteFourierField) -> HermiteFourierField:
    """(q, p) -> (-q, -p): level n picks (-1)^n on cosines, -(-1)^n on sines."""
    c = field.coeffs.copy()
    M = field.n_fourier
    for n in range(c.shape[0]):
        sign = (-1.0) ** n
        c[n, : M + 1] *= sign
        c[n, M + 1 :] *= -sign
    return field.with_coeffs(c)


@pytest.fixture(scope="module")
def chain151():
    """Workhorse chain at gamma=1, V0=1, beta=5, L=1, order 9."""
    return build_chain(_params(), TruncationSpec(120, 24), 9)


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

def _block_generator(params, trunc, adjoint=False):
    """Reference -L built level block by level block and glued by sp.bmat."""
    N, M = trunc.n_hermite, trunc.n_fourier
    L = params.potential.period
    beta, gamma = params.beta, params.gamma
    d_q = reference_dq_matrix(M, L)
    W = reference_mult_matrix(params.potential.tilt_drift_coeffs(params.force), M, L)
    sgn = -1.0 if adjoint else 1.0
    eye = sp.identity(2 * M + 1, format="csr")
    rows = []
    for m in range(N + 1):
        row = [None] * (N + 1)
        row[m] = gamma * m * eye
        if m >= 1:
            row[m - 1] = sp.csr_matrix(-sgn * np.sqrt(m / beta) * d_q)
        if m < N:
            row[m + 1] = sp.csr_matrix(-sgn * np.sqrt((m + 1) / beta) * d_q
                                       - sgn * np.sqrt(beta * (m + 1)) * W)
        rows.append(row)
    return sp.bmat(rows, format="csr")


def _momentum_conjugate(A, size):
    """J A J with J = diag((-1)^m) over the levels: each stored entry of A
    flipped by (-1)^(m_row + m_col), the stored structure kept."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)) // size
    cols = A.indices // size
    B = A.copy()
    B.data = np.where((rows + cols) % 2, -A.data, A.data)
    return B


def _assert_same_csr(A, B):
    assert type(A) is type(B)
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


_MIXED = PeriodicPotential(period=2.0, cos_coeffs=(0.8, 0.0, -0.3),
                           sin_coeffs=(0.0, 0.25), offset=1.5)


@pytest.mark.parametrize("n_hermite", [2, 8, 64])
@pytest.mark.parametrize("force,adjoint", [(0.0, False), (0.0, True), (0.7, False)])
@pytest.mark.parametrize("gamma,potential,n_fourier", [
    (1.0, PeriodicPotential.cosine(1.0, 1.0), 24),
    (50.0, PeriodicPotential.cosine(1.0, 1.0), 24),
    (1.0, _MIXED, 6),
])
def test_generator_matches_block_assembly(gamma, potential, n_fourier, force,
                                          adjoint, n_hermite):
    # the adjoint -Lhat0 the chain solves through is J (-L0) J, bit for bit
    params = ModelParams(gamma=gamma, beta=5.0, force=force, potential=potential)
    trunc = TruncationSpec(n_hermite, n_fourier)
    A = assemble_generator(params, trunc)
    if adjoint:
        A = _momentum_conjugate(A, 2 * n_fourier + 1)
    _assert_same_csr(A, _block_generator(params, trunc, adjoint))


@pytest.mark.parametrize("adjoint", [False, True])
def test_generator_drops_cancelled_entries(adjoint):
    # V = cos(2q), L = 2 pi, beta = 1: one super-diagonal entry per level is
    # a d_q term minus an equal tilt term, exactly 0, and is not stored
    params = ModelParams(gamma=1.0, beta=1.0, force=0.0,
                         potential=PeriodicPotential(period=2 * np.pi,
                                                     cos_coeffs=(0.0, 1.0)))
    trunc = TruncationSpec(4, 3)
    size = 2 * trunc.n_fourier + 1
    A = assemble_generator(params, trunc)
    if adjoint:
        A = _momentum_conjugate(A, size)
    _assert_same_csr(A, _block_generator(params, trunc, adjoint))
    # level 0's diagonal block gamma*0*I keeps its zeros stored
    level0 = A[:size, :size]
    assert level0.nnz == size and not level0.data.any()
    # every super-diagonal block stores one entry fewer than its pattern
    blocks = hierarchy_blocks(params, trunc)
    pattern = np.count_nonzero((blocks.d_q != 0) | (blocks.tilt != 0))
    for m in range(trunc.n_hermite):
        sup = A[m * size:(m + 1) * size, (m + 1) * size:(m + 2) * size]
        assert sup.nnz == pattern - 1


@pytest.mark.parametrize("potential,n_fourier", [
    (PeriodicPotential.cosine(1.0, 1.0), 24),
    (_MIXED, 6),
    (PeriodicPotential.cosine(np.pi ** 2 / 16.0, 2.0 * np.pi), 24),   # fig1's
])
def test_mean_functional_matches_hand_packing(potential, n_fourier):
    # the border row <., 1>_beta as first written: the Gibbs weight's rfft
    # packed slot by slot, weighted 1 on the mean and 2 on every other slot;
    # it is the Gibbs Gram matrix's column 0 on level 0, bit for bit, and
    # the Gram matrix is exactly symmetric
    params = ModelParams(gamma=1.0, beta=5.0, force=0.0, potential=potential)
    trunc = TruncationSpec(4, n_fourier)
    L, M = potential.period, n_fourier
    n = max(1024, 16 * M)
    w = np.exp(-params.beta * potential.evaluate(np.arange(n) * L / n))
    ck = np.fft.rfft(w / (w.mean() * L)) / n
    xw = np.zeros(2 * M + 1)
    xw[0] = ck[0].real
    xw[1 : M + 1] = ck[1 : M + 1].real
    xw[M + 1 :] = ck[1 : M + 1].imag
    ref = 2.0 * L * xw
    ref[0] = L * xw[0]
    gram = gibbs_gram(params, M)
    assert np.array_equal(gram[:, 0], ref)
    assert np.array_equal(gram, gram.T)
    solver = EquilibriumPoissonSolver(params, trunc)
    assert np.array_equal(solver.gram, gram)
    field = HermiteFourierField(np.eye(trunc.n_hermite + 1, 2 * M + 1), L, 5.0)
    assert solver.mean(field) == ref[0]


def test_chain_bits_at_gamma1_n64():
    # V_j = <p, f_j> and the phi-form beta <p, phi_{j-1}> at gamma=1, beta=5,
    # V0=1, L=1, N=64, M=24, order 9, read out through the Gibbs Gram matrix
    # from f_j and phi_j solved on the level recursion of factor_hierarchy
    # (float.hex, OpenBLAS on x86-64)
    chain = build_chain(_params(), TruncationSpec(64, 24), 9)
    v = ["0x0.0p+0", "0x1.ec6e526ede539p-13", "-0x1.eab061790f646p-66",
         "0x1.51a14e98d7c16p-12", "-0x1.56b7b302ae193p-65",
         "0x1.8da6bfe06205fp-13", "-0x1.9f7f39baf044cp-66",
         "0x1.4c8fa926e5ae6p-14", "-0x1.65a3fb6d7716ap-67",
         "0x1.c19e1de2ab6d6p-16"]
    v_phi = ["0x0.0p+0", "0x1.ec6e526eded7ep-13", "0x1.36baab6722d8bp-61",
             "0x1.51a14e98d9cc5p-12", "0x1.40443e156193fp-62",
             "0x1.8da6bfe065e9dp-13", "0x1.15643764ccaa2p-63",
             "0x1.4c8fa926e59a1p-14", "0x1.6cecf57639acep-65",
             "0x1.c19e1de2a830ep-16"]
    assert [x.hex() for x in chain.v.tolist()] == v
    assert [x.hex() for x in chain.v_phi_form.tolist()] == v_phi


# ---------------------------------------------------------------------------
# Single Poisson solves
# ---------------------------------------------------------------------------

def test_poisson_free_particle_momentum():
    params = _free(gamma=2.0, beta=1.0)
    trunc = TruncationSpec(20, 1)
    rhs = HermiteFourierField.momentum(20, 1, 2 * np.pi, 1.0)
    psi, _, _ = EquilibriumPoissonSolver(params, trunc).solve(rhs)
    # -L0 (p/gamma) = p for the free particle
    assert psi.coeffs[1, 0] == pytest.approx(0.5, rel=1e-12)
    mask = np.ones_like(psi.coeffs, bool)
    mask[1, 0] = False
    assert np.abs(psi.coeffs[mask]).max() < 1e-12


def test_poisson_zero_rhs():
    params = _params(beta=2.0)
    rhs = HermiteFourierField.zeros(16, 8, 1.0, 2.0)
    psi, _, _ = EquilibriumPoissonSolver(params, TruncationSpec(16, 8)).solve(rhs)
    assert np.abs(psi.coeffs).max() < 1e-14


def test_poisson_solvability_guard():
    params = _params(beta=2.0)
    rhs = HermiteFourierField.constant(1.0, 16, 8, 1.0, 2.0)
    with pytest.raises(SolverError):
        EquilibriumPoissonSolver(params, TruncationSpec(16, 8)).solve(rhs)


def _flip_p(field: HermiteFourierField) -> HermiteFourierField:
    """p -> -p: level n picks (-1)^n."""
    signs = (-1.0) ** np.arange(field.coeffs.shape[0])
    return field.with_coeffs(signs[:, None] * field.coeffs)


def _flip_q(field: HermiteFourierField) -> HermiteFourierField:
    """q -> -q: sine components negate."""
    c = field.coeffs.copy()
    c[:, field.n_fourier + 1 :] *= -1.0
    return field.with_coeffs(c)


def _solvable_rhs(solver):
    params, trunc = solver.params, solver.trunc
    c = np.zeros((trunc.n_hermite + 1, 2 * trunc.n_fourier + 1))
    c[1, 1] = 0.4
    c[2, 9] = -0.3
    c[3, 0] = 0.7
    rhs = HermiteFourierField(c, params.potential.period, params.beta)
    c[0, 0] -= solver.mean(rhs)
    return HermiteFourierField(c, params.potential.period, params.beta)


@pytest.mark.parametrize("gamma,potential,trunc", [
    (1.0, PeriodicPotential.cosine(0.8, 1.0), TruncationSpec(24, 8)),
    (50.0, PeriodicPotential.cosine(0.8, 1.0), TruncationSpec(24, 8)),
    # at M=8 the mixed potential's phi_2 right-hand side misses the
    # solvability bar by 4e-4; at M=24 it meets it to 8e-12
    (1.0, _MIXED, TruncationSpec(32, 24)),
], ids=["gamma1", "gamma50", "mixed"])
def test_adjoint_solve_is_momentum_flip_conjugate(gamma, potential, trunc):
    # the chain's f_j solve -Lhat0 through the p -> -p conjugate of the direct
    # operator, and its phi_j solve -L0, both on the level recursion; check
    # them against the block-built operators, bordered by the same mean
    # functional and solved on their own
    params = ModelParams(gamma=gamma, beta=2.0, force=0.0, potential=potential)
    order = 3
    chain = build_chain(params, trunc, order)
    gram = gibbs_gram(params, trunc.n_fourier)
    shape = chain.fs[0].coeffs.shape
    n = shape[0] * shape[1]
    t = np.zeros(n)
    t[: shape[1]] = gram[:, 0]
    e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(n, 1))
    border = sp.csr_matrix(t[None, :])

    def solver(adjoint):
        A = _block_generator(params, trunc, adjoint=adjoint)
        bordered = sp.bmat([[A, e0], [border, None]], format="csc")
        return lambda rhs: chain.fs[0].with_coeffs(spla.spsolve(
            bordered, np.concatenate([rhs.coeffs.reshape(-1), [0.0]]))[:n].reshape(shape))

    adjoint_solve, direct_solve = solver(True), solver(False)
    fs = [chain.fs[0]]
    for j in range(1, order + 1):
        fs.append(adjoint_solve(apply_raise(fs[j - 1])))
        assert chain.fs[j].coeffs == pytest.approx(fs[j].coeffs, abs=1e-11)
    p = HermiteFourierField.momentum(trunc.n_hermite, trunc.n_fourier,
                                     potential.period, params.beta)
    v = [0.0] + [gibbs_inner(gram, p, f) for f in fs[1:]]
    phis = [direct_solve(p)]
    for j in range(1, order):
        c = apply_lower(phis[j - 1]).coeffs.copy()
        c[0, 0] -= v[j]
        phi = direct_solve(chain.fs[0].with_coeffs(c))
        c = phi.coeffs.copy()
        c[0, 0] -= sum(gibbs_inner(gram, fs[r], phis[j - r]) for r in range(1, j + 1))
        phis.append(phi.with_coeffs(c))
    for j in range(order):
        assert chain.phis[j].coeffs == pytest.approx(phis[j].coeffs, abs=1e-11)


def test_adjoint_solve_is_q_flip_conjugate_for_symmetric_v():
    # with V(q) = V(-q), flipping q alone also conjugates -L0 to the adjoint,
    # so the p-flip and the q-flip conjugates of one direct solve agree
    params = _params(beta=2.0, v0=0.8)
    solver = EquilibriumPoissonSolver(params, TruncationSpec(24, 8))
    rhs = _solvable_rhs(solver)
    psi_p = _flip_p(solver.solve(_flip_p(rhs))[0])
    psi_q = _flip_q(solver.solve(_flip_q(rhs))[0])
    assert psi_p.coeffs == pytest.approx(psi_q.coeffs, abs=1e-11)
    # and the conjugate is no plain copy of the direct solve
    assert np.abs(psi_p.coeffs - solver.solve(rhs)[0].coeffs).max() > 1e-3


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------

def test_chain_free_particle():
    chain = build_chain(_free(gamma=2.0, beta=1.0), TruncationSpec(24, 1), 3)
    # f1 = beta p / gamma -> level-1 coefficient sqrt(beta)/gamma
    assert chain.fs[1].coeffs[1, 0] == pytest.approx(0.5, rel=1e-11)
    assert chain.v[1] == pytest.approx(0.5, rel=1e-11)
    # phi_0 = p / gamma
    assert chain.phis[0].coeffs[1, 0] == pytest.approx(0.5, rel=1e-11)
    # higher orders vanish identically for V = 0
    assert abs(chain.v[2]) < 1e-12
    assert abs(chain.v[3]) < 1e-12


def test_chain_side_conditions(chain151):
    chain = chain151
    one = HermiteFourierField.constant(1.0, 120, 24, 1.0, 5.0)
    # <f_j, 1> = 0, <f_0, 1> = 1
    assert chain.inner(chain.fs[0], one) == pytest.approx(1.0, abs=1e-13)
    for j in range(1, chain.order + 1):
        assert abs(chain.inner(chain.fs[j], one)) < 1e-10
    # <phi_j, 1> = -sum_r <f_r, phi_{j-r}>
    for j in range(len(chain.phis)):
        lhs = chain.inner(chain.phis[j], one)
        rhs = -sum(chain.inner(chain.fs[r], chain.phis[j - r])
                   for r in range(1, j + 1))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_chain_solve_quality(chain151):
    d = chain151.diagnostics
    assert max(abs(v) for v in d["lambda"].values()) < 1e-10
    assert max(d["residual"].values()) < 1e-8
    assert max(d["solvability"].values()) < 1e-7


@pytest.mark.parametrize("gamma,lo,hi", [(1.0, 1e-4, 1.0), (50.0, 0.0, 1e-8)])
def test_chain_reports_top_level_ratios(gamma, lo, hi):
    # the chain runs at the truncation it is given: at gamma=1, N=64 its top
    # levels are not resolved (2.2e-3), at gamma=50 they are (1e-50)
    chain = build_chain(_params(gamma=gamma), TruncationSpec(64, 24), 9)
    ratios = chain.diagnostics["top_level_ratio"]
    assert set(ratios) == {f"f{j}" for j in range(1, 10)} | {f"phi{j}" for j in range(9)}
    assert lo < max(ratios.values()) <= hi


def test_chain_f1_parity(chain151):
    # symmetric potential: f_1 has odd reflection parity
    f1 = chain151.fs[1]
    ref = _reflect(f1)
    assert ref.coeffs == pytest.approx(-f1.coeffs, abs=1e-10 * np.abs(f1.coeffs).max())


def test_chain_requires_zero_force():
    params = _params().with_force(0.3)
    with pytest.raises(ValueError):
        build_chain(params, TruncationSpec(16, 8), 2)


# ---------------------------------------------------------------------------
# Velocity coefficients
# ---------------------------------------------------------------------------

def test_velocity_even_orders_vanish(chain151):
    v = chain151.v
    for even in (2, 4, 6, 8):
        assert abs(v[even]) <= 1e-8 * abs(v[1])


def test_velocity_forms_agree(chain151):
    # V_j = <p, f_j> and its phi-form beta <p, phi_{j-1}> agree to 1e-6
    v, v_phi = chain151.v, chain151.v_phi_form
    assert len(v) == len(v_phi) == 10
    floor = 1e-6 * np.abs(v[1:]).max()
    for j in range(1, 10):
        assert abs(v[j] - v_phi[j]) <= 1e-6 * max(abs(v[j]), abs(v_phi[j]), floor)


def test_einstein_identity_vs_transport(chain151):
    res = solve_transport(_params(), TruncationSpec(120, 24))
    d0 = chain151.v[1] / 5.0
    assert abs(res.d_primary - d0) <= 1e-6 * abs(res.d_primary)


# ---------------------------------------------------------------------------
# Sigma / Xi tables and the two D series
# ---------------------------------------------------------------------------

def test_sigma11_free_particle():
    chain = build_chain(_free(), TruncationSpec(24, 1), 3)
    table = diffusion_coefficients(chain)
    # int p phi0 f1 rho is an odd Gaussian moment
    assert abs(table.sigma[0, 0]) < 1e-12


def test_tables_parity(chain151):
    table = diffusion_coefficients(chain151)
    scale = max(abs(table.v[1]) / 5.0, np.abs(table.sigma).max())
    for odd in (1, 3, 5, 7):
        assert abs(table.sigma_column_sum(odd)) <= 1e-8 * scale
        assert abs(table.xi_column_sum(odd)) <= 1e-8 * scale


def test_consistency_identity(chain151):
    # (l+1) V_{l+1}/beta + sum Xi = V_{l+1}/beta + sum Sigma, each l
    table = diffusion_coefficients(chain151)
    beta = 5.0
    base = abs(table.v[1]) / beta
    for ell in range(1, 9):
        lhs = (ell + 1) * table.v[ell + 1] / beta + table.xi_column_sum(ell)
        rhs = table.v[ell + 1] / beta + table.sigma_column_sum(ell)
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), base)


def test_shift_identity(chain151):
    # <a- phi_0, f_k> = <a- phi_m, f_{k-m}> for 0 <= m <= k
    chain = chain151
    for k in range(0, 5):
        ref = chain.inner(apply_lower(chain.phis[0]), chain.fs[k])
        for m in range(0, k + 1):
            val = chain.inner(apply_lower(chain.phis[m]), chain.fs[k - m])
            assert abs(val - ref) <= 1e-7


def test_phi_solvability_equals_velocity(chain151):
    chain = chain151
    one = HermiteFourierField.constant(1.0, 120, 24, 1.0, 5.0)
    for j in range(1, len(chain.phis)):
        mean_lowered = chain.inner(apply_lower(chain.phis[j - 1]), one)
        assert abs(mean_lowered - chain.v[j]) <= 1e-7


def test_partial_sum_u(chain151):
    assert partial_sum_U(chain151, 0.0, 9) == 0.0
    chain = build_chain(_free(gamma=2.0, beta=1.0), TruncationSpec(24, 1), 3)
    assert partial_sum_U(chain, 0.8, 1) == pytest.approx(0.4, rel=1e-11)
    assert partial_sum_U(chain, 0.8, 3) == pytest.approx(0.4, rel=1e-10)
    with pytest.raises(ValueError):
        partial_sum_U(chain151, 0.5, 10)


def test_partial_sums_track_spectral(chain151):
    for F in (0.1, 0.3, 0.5):
        res = solve_transport(_params().with_force(F), TruncationSpec(120, 24))
        ps = partial_sum_U(chain151, F, 9)
        assert abs(ps - res.drift) <= 3e-4 * abs(res.drift) + 1e-12


def test_partial_sum_d_modes(chain151):
    table = diffusion_coefficients(chain151)
    d0 = table.v[1] / 5.0
    assert partial_sum_D(table, 0.0, 8, "full") == pytest.approx(d0, rel=1e-12)
    assert partial_sum_D(table, 0.0, 8, "naive_einstein") == pytest.approx(d0, rel=1e-12)
    with pytest.raises(ValueError):
        partial_sum_D(table, 0.1, 9)
    with pytest.raises(ValueError):
        partial_sum_D(table, 0.1, 2, "bogus")


def test_second_order_d_matches_direct_integrals(chain151):
    # F^2 truncation of the full series against its defining integrals
    # (the integrals by the brute tensor quadrature, not the chain's pairing)
    chain = chain151
    table = diffusion_coefficients(chain)
    ref = GibbsTensorQuadrature(chain.params, n_p=chain.trunc.n_hermite + 8, n_q=256)
    beta = 5.0
    pvals = ref.p[:, None]
    i1 = ref.integrate(pvals * ref.values(chain.phis[0]) * ref.values(chain.fs[1]))
    i2a = ref.integrate(pvals * ref.values(chain.phis[1]) * ref.values(chain.fs[1]))
    i2b = ref.integrate(pvals * ref.values(chain.phis[0]) * ref.values(chain.fs[2]))
    for F in (0.2, 0.7):
        direct = (chain.v[1] / beta
                  + F * (chain.v[2] / beta + i1)
                  + F ** 2 * (chain.v[3] / beta + i2a + i2b))
        assert partial_sum_D(table, F, 2, "full") == pytest.approx(direct, rel=1e-10)


def test_naive_full_gap_is_xi_series(chain151):
    table = diffusion_coefficients(chain151)
    F = 0.5
    gap = partial_sum_D(table, F, 8, "full") - partial_sum_D(table, F, 8, "naive_einstein")
    xi_series = sum(F ** ell * table.xi_column_sum(ell) for ell in range(1, 9))
    assert gap == pytest.approx(xi_series, rel=1e-10)
    assert gap != 0.0


def test_series_radius_estimate(chain151):
    v = chain151.v
    expect = abs(v[7] / v[9]) ** 0.5
    assert series_radius_estimate(v) == pytest.approx(expect, rel=1e-12)
    assert series_radius_estimate(np.array([0.0, 1.0])) == np.inf
