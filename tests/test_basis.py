import numpy as np
import pytest

from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import (FourierVector, GibbsQuadrature, HermiteFourierField,
                             TruncationSpec, apply_lower, apply_momentum,
                             apply_q_derivative, apply_raise, gauss_maxwell_nodes,
                             hermite_eval, pack_complex, packed_mult_matrix,
                             unpack_complex, weighted_inner_product)


def _random_field(rng, n_hermite=12, n_fourier=3, period=1.0, beta=2.0, headroom=2):
    c = rng.uniform(-1, 1, size=(n_hermite + 1, 2 * n_fourier + 1))
    if headroom:
        c[-headroom:] = 0.0
    return HermiteFourierField(c, period, beta)


def _params(v0=1.0, beta=2.0, period=1.0, gamma=1.0, force=0.0):
    return ModelParams(gamma=gamma, beta=beta, force=force,
                       potential=PeriodicPotential.cosine(v0, period))


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_eval_values():
    assert hermite_eval(0, 3.7, 2.0) == pytest.approx(1.0)
    assert hermite_eval(1, 1.0, 4.0) == pytest.approx(2.0)
    assert hermite_eval(2, 0.0, 1.0) == pytest.approx(-1.0 / np.sqrt(2.0))


def test_hermite_orthonormality_by_quadrature():
    beta = 3.0
    p, w = gauss_maxwell_nodes(40, beta)
    for n in range(0, 13, 3):
        for m in range(0, 13, 4):
            val = np.sum(w * hermite_eval(n, p, beta) * hermite_eval(m, p, beta))
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-13)


def test_gibbs_hermite_table_finite_and_orthonormal_at_512():
    # 1032 Gauss nodes: the bare polynomials overflow at the outer nodes and
    # the weights underflow there
    grid = GibbsQuadrature(_params(beta=5.0), 512, 4)
    H = grid.hermite
    assert np.all(np.isfinite(H))
    assert np.abs(H.T @ H - np.eye(513)).max() <= 1e-12


def test_hermite_eval_rejects_negative():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------

def test_apply_raise_on_constant():
    f = HermiteFourierField.constant(1.0, 5, 2, 1.0, 1.0)
    out = apply_raise(f)
    assert out.coeffs[1, 0] == pytest.approx(1.0)   # a+ 1 = beta p = sqrt(beta) H1
    assert np.abs(out.coeffs[[0, 2, 3, 4, 5]]).max() == 0.0


def test_apply_raise_zero_and_scaling():
    z = HermiteFourierField.zeros(4, 1, 1.0, 1.0)
    assert np.abs(apply_raise(z).coeffs).max() == 0.0
    f = HermiteFourierField.zeros(4, 1, 1.0, 4.0).coeffs.copy()
    f[1, 0] = 1.0
    out = apply_raise(HermiteFourierField(f, 1.0, 4.0))
    assert out.coeffs[2, 0] == pytest.approx(2.0 * np.sqrt(2.0))  # sqrt(beta*2)


def test_apply_lower():
    f = HermiteFourierField.zeros(4, 1, 1.0, 1.0).coeffs.copy()
    f[1, 0] = 1.0
    out = apply_lower(HermiteFourierField(f, 1.0, 1.0))
    assert out.coeffs[0, 0] == pytest.approx(1.0)   # d_p H1 = sqrt(beta)
    const = HermiteFourierField.constant(2.0, 4, 1, 1.0, 1.0)
    assert np.abs(apply_lower(const).coeffs).max() == 0.0


def test_lower_raise_composition_is_beta():
    beta = 3.5
    one = HermiteFourierField.constant(1.0, 5, 2, 1.0, beta)
    out = apply_lower(apply_raise(one))
    assert out.coeffs[0, 0] == pytest.approx(beta)


def test_commutator_is_beta_identity():
    rng = np.random.default_rng(7)
    beta = 2.5
    g = _random_field(rng, beta=beta)
    lhs = apply_lower(apply_raise(g)).coeffs - apply_raise(apply_lower(g)).coeffs
    # identity holds on levels with raise/lower headroom
    assert lhs[:-1] == pytest.approx(beta * g.coeffs[:-1], abs=1e-12)


def test_apply_momentum():
    f = HermiteFourierField.constant(1.0, 4, 1, 1.0, 1.0)
    out = apply_momentum(f)
    assert out.coeffs[1, 0] == pytest.approx(1.0)
    h1 = HermiteFourierField.zeros(4, 1, 1.0, 1.0).coeffs.copy()
    h1[1, 0] = 1.0
    out = apply_momentum(HermiteFourierField(h1, 1.0, 1.0))
    assert out.coeffs[0, 0] == pytest.approx(1.0)
    assert out.coeffs[2, 0] == pytest.approx(np.sqrt(2.0))
    f4 = HermiteFourierField.constant(1.0, 4, 1, 1.0, 4.0)
    assert apply_momentum(f4).coeffs[1, 0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Fourier vectors
# ---------------------------------------------------------------------------

def test_q_derivative_cases():
    const = FourierVector(np.array([1.0, 0, 0, 0, 0]), 2 * np.pi)
    assert np.abs(apply_q_derivative(const).values).max() == 0.0

    # cos(w1 q): xi_1 = 1/2 in the doubled-pair convention
    cosv = FourierVector(np.array([0.0, 0.5, 0, 0, 0]), 2 * np.pi)
    q = np.linspace(0, 2 * np.pi, 17)
    assert cosv.evaluate(q) == pytest.approx(np.cos(q), abs=1e-12)
    assert apply_q_derivative(cosv).evaluate(q) == pytest.approx(-np.sin(q), abs=1e-12)

    sinv = FourierVector(np.array([0.0, 0.0, 0, -0.5, 0]), 2 * np.pi)
    assert sinv.evaluate(q) == pytest.approx(np.sin(q), abs=1e-12)
    assert sinv.derivative().evaluate(q) == pytest.approx(np.cos(q), abs=1e-12)


def test_fourier_vector_periodicity_and_reality():
    rng = np.random.default_rng(3)
    v = FourierVector(rng.standard_normal(9), 1.7)
    q = np.linspace(-2, 2, 23)
    assert v.evaluate(q + 1.7) == pytest.approx(v.evaluate(q), abs=1e-12)
    assert np.isrealobj(v.evaluate(q))


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c[0] = c[0].real
    packed = pack_complex(c)
    assert unpack_complex(packed) == pytest.approx(c)


def test_packed_mult_matrix_vs_pointwise():
    pot = PeriodicPotential(period=1.3, cos_coeffs=(0.8,), sin_coeffs=(0.4,))
    M = 4
    A = packed_mult_matrix(pot.tilt_drift_coeffs(0.9), M, 1.3)
    rng = np.random.default_rng(11)
    g = FourierVector(np.concatenate([rng.standard_normal(3), [0, 0],
                                      rng.standard_normal(2), [0, 0]]), 1.3)
    out = FourierVector(A @ g.values, 1.3)
    q = np.linspace(0, 1.3, 31)
    exact = (-pot.derivative(q) + 0.9) * g.evaluate(q)
    assert out.evaluate(q) == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def test_field_evaluate_matches_contraction():
    rng = np.random.default_rng(13)
    f = _random_field(rng, n_hermite=6, n_fourier=2, period=2.0, beta=3.0,
                      headroom=0)
    q, p = 0.37, -0.81
    w1 = np.pi
    total = 0.0
    M = 2
    for n in range(7):
        lvl = f.coeffs[n, 0]
        for k in range(1, M + 1):
            lvl += 2 * (f.coeffs[n, k] * np.cos(k * w1 * q)
                        - f.coeffs[n, M + k] * np.sin(k * w1 * q))
        total += lvl * hermite_eval(n, p, 3.0)
    assert f.evaluate(q, p) == pytest.approx(total, abs=1e-12)


def test_field_immutable():
    f = HermiteFourierField.constant(1.0, 3, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Weighted inner product
# ---------------------------------------------------------------------------

def test_inner_product_normalization_and_orthogonality():
    params = _params(v0=1.0, beta=2.0)
    one = HermiteFourierField.constant(1.0, 10, 4, 1.0, 2.0)
    assert weighted_inner_product(one, one, params) == pytest.approx(1.0, abs=1e-14)

    flat = _params(v0=0.0, beta=2.0)
    h1 = HermiteFourierField.zeros(10, 4, 1.0, 2.0).coeffs.copy()
    h1[1, 0] = 1.0
    h1f = HermiteFourierField(h1, 1.0, 2.0)
    assert weighted_inner_product(h1f, h1f, flat) == pytest.approx(1.0, abs=1e-13)
    h2 = HermiteFourierField.zeros(10, 4, 1.0, 2.0).coeffs.copy()
    h2[2, 0] = 1.0
    h2f = HermiteFourierField(h2, 1.0, 2.0)
    assert weighted_inner_product(h1f, h2f, _params(v0=1.0, beta=2.0)) == \
        pytest.approx(0.0, abs=1e-13)


def test_gaussian_moment():
    params = _params(v0=0.7, beta=3.0)
    p_field = HermiteFourierField.momentum(10, 4, 1.0, 3.0)
    assert weighted_inner_product(p_field, p_field, params) == \
        pytest.approx(1.0 / 3.0, abs=1e-12)


def test_adjointness_of_ladder_pair():
    params = _params(v0=1.0, beta=2.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        g = _random_field(rng, n_hermite=12, n_fourier=3, beta=2.0)
        h = _random_field(rng, n_hermite=12, n_fourier=3, beta=2.0)
        lhs = weighted_inner_product(apply_raise(g), h, params)
        rhs = weighted_inner_product(g, apply_lower(h), params)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_inner_product_symmetric_bilinear():
    params = _params(v0=0.5, beta=1.5)
    rng = np.random.default_rng(2)
    g = _random_field(rng, beta=1.5)
    h = _random_field(rng, beta=1.5)
    k = _random_field(rng, beta=1.5)
    grid = GibbsQuadrature(params, 12, 3)
    assert grid.inner(g, h) == pytest.approx(grid.inner(h, g), rel=1e-13, abs=1e-15)
    gh = g.with_coeffs(2.5 * g.coeffs + k.coeffs)
    assert grid.inner(gh, h) == pytest.approx(
        2.5 * grid.inner(g, h) + grid.inner(k, h), rel=1e-12, abs=1e-13)


def test_quadrature_order_guard():
    params = _params()
    with pytest.raises(ValueError):
        GibbsQuadrature(params, 10, 4, n_p=20, n_q=64)   # n_p < 2N+2
    with pytest.raises(ValueError):
        GibbsQuadrature(params, 10, 4, n_p=40, n_q=15)   # n_q < 4M


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(1, 4)
    with pytest.raises(ValueError):
        TruncationSpec(4, 0)
    with pytest.raises(ValueError):
        TruncationSpec(4, 4, closure="robin")
    spec = TruncationSpec(8, 1)
    with pytest.raises(ValueError):
        spec.check_potential(PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.5)))
