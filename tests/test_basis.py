import math

import numpy as np
import pytest

from washboard import transport
from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import (FourierVector, HermiteFourierField,
                             TruncationSpec, apply_lower, apply_momentum,
                             apply_q_derivative, apply_raise, fourier_table,
                             gibbs_gram, gibbs_inner, hermite_table,
                             pack_complex, packed_dq_matrix, packed_metric,
                             packed_mult_matrix, unpack_complex)

from packed_reference import (GibbsTensorQuadrature, reference_dq_matrix,
                              reference_mult_matrix)


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

def _hermite(n, p, beta):
    """H_n(p) = He_n(p sqrt(beta)) / sqrt(n!) at the points p."""
    return hermite_table(n, np.asarray(p) * np.sqrt(beta))[:, n]


def test_hermite_table_values():
    assert _hermite(0, 3.7, 2.0) == pytest.approx([1.0])
    assert _hermite(1, 1.0, 4.0) == pytest.approx([2.0])
    assert _hermite(2, 0.0, 1.0) == pytest.approx([-1.0 / np.sqrt(2.0)])
    # He_3(x) = x^3 - 3x
    x = np.array([-1.5, 0.2, 2.0])
    assert hermite_table(3, x)[:, 3] == pytest.approx((x ** 3 - 3 * x) / np.sqrt(6.0))


def _hermite_table_expression(n_max, x):
    # the recurrence as one array expression per level
    T = np.empty((n_max + 1, x.size))
    T[0] = 1.0
    if n_max >= 1:
        T[1] = x
    for n in range(1, n_max):
        T[n + 1] = (x * T[n] - np.sqrt(n) * T[n - 1]) / np.sqrt(n + 1)
    return T.T


@pytest.mark.parametrize("n_max", [0, 1, 2, 64, 1536])
def test_hermite_table_bits_match_the_expression(n_max):
    # 448 nodes, as in the IBP table of a gamma = 0.01 fig1 point at
    # n_max = 1536, with signed zeros and, for the low orders, values far
    # outside the oscillatory region
    x = np.concatenate([np.linspace(-40.0, 40.0, 446), [0.0, -0.0]])
    table, expected = hermite_table(n_max, x), _hermite_table_expression(n_max, x)
    assert np.array_equal(table, expected)
    assert np.array_equal(np.signbit(table), np.signbit(expected))


def test_hermite_orthonormality_by_quadrature():
    beta = 3.0
    x, w = transport._gauss_maxwell_rule(40)    # the unit Maxwellian's rule
    p = x / np.sqrt(beta)
    for n in range(0, 13, 3):
        for m in range(0, 13, 4):
            val = np.sum(w * _hermite(n, p, beta) * _hermite(m, p, beta))
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-13)


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


def test_pack_unpack_along_leading_axis():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    c[0] = c[0].real
    packed = pack_complex(c)
    assert packed.shape == (9, 3)
    for col in range(3):
        assert np.array_equal(packed[:, col], pack_complex(c[:, col]))
    assert np.array_equal(unpack_complex(packed), c)


def test_packed_metric_is_the_mean_of_products():
    rng = np.random.default_rng(8)
    f, g = rng.standard_normal(7), rng.standard_normal(7)
    q = np.arange(64) * 2.5 / 64
    table = fourier_table(3, 2.5, q)
    mean = np.mean((f @ table) * (g @ table))
    assert f @ (packed_metric(3) * g) == pytest.approx(mean, rel=1e-13)
    assert np.array_equal(packed_metric(2), [1.0, 2.0, 2.0, 2.0, 2.0])


_GRID_POTENTIALS = [
    PeriodicPotential(period=1.0),
    PeriodicPotential.cosine(1.0, 1.0),
    PeriodicPotential.cosine(np.pi ** 2 / 16.0, 2 * np.pi),
    PeriodicPotential(period=1.3, cos_coeffs=(0.8,), sin_coeffs=(0.4,)),
    PeriodicPotential(period=2.0, cos_coeffs=(0.8, 0.0, -0.3),
                      sin_coeffs=(0.0, 0.25), offset=1.5),
    PeriodicPotential(period=2 * np.pi, cos_coeffs=(0.0, 1.0)),
]
_GRID_M = (1, 2, 4, 6, 16, 24, 64)


@pytest.mark.parametrize("potential", _GRID_POTENTIALS)
def test_packed_mult_matrix_bits_match_reference(potential):
    # values and zero pattern of the loop-built P C U, harmonics of the
    # function above M (Galerkin-truncated) included
    L = potential.period
    for force in (0.0, 0.5, 3.0, -1.2, 0.7):
        coeffs = potential.tilt_drift_coeffs(force)
        for M in _GRID_M:
            A = packed_mult_matrix(coeffs, M, L)
            ref = reference_mult_matrix(coeffs, M, L)
            assert np.array_equal(A, ref), (force, M)
            assert np.array_equal(A == 0, ref == 0), (force, M)


def test_packed_dq_matrix_bits_match_reference():
    for L in (1.0, 1.3, 2.0, 2 * np.pi):
        for M in _GRID_M:
            D, ref = packed_dq_matrix(M, L), reference_dq_matrix(M, L)
            assert np.array_equal(D, ref) and np.array_equal(D == 0, ref == 0)


def test_packed_mult_matrix_rejects_complex_mean():
    coeffs = np.array([1.0 + 1e-9j, 0.5 - 0.25j])
    with pytest.raises(ValueError, match="mean coefficient"):
        packed_mult_matrix(coeffs, 3, 1.0)


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
        total += lvl * _hermite(n, p, 3.0)[0]
    assert f.evaluate(q, p) == pytest.approx(total, abs=1e-12)


def test_field_immutable():
    f = HermiteFourierField.constant(1.0, 3, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 2.0


def test_displaced_field_evaluates_in_its_basis():
    # the Maxwellian shifted to p0 is level 0 of the basis centred at p0 and
    # (1/L) mu^n / sqrt(n!), mu = sqrt(beta) p0, in the basis centred at 0;
    # each times its own Maxwellian, the two fields are one density
    beta, p0, L, N = 2.0, 1.3, 1.0, 60
    mu = np.sqrt(beta) * p0
    centred = np.zeros((N + 1, 3))
    centred[:, 0] = [mu ** n / math.sqrt(math.factorial(n)) / L for n in range(N + 1)]
    displaced = np.zeros((N + 1, 3))
    displaced[0, 0] = 1.0 / L
    p = np.linspace(-2.0, 4.0, 13)
    a = np.exp(-beta * p ** 2 / 2) * HermiteFourierField(centred, L, beta).evaluate(0.3, p)
    b = (np.exp(-beta * (p - p0) ** 2 / 2)
         * HermiteFourierField(displaced, L, beta, p0).evaluate(0.3, p))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_displaced_field_operators():
    # p and -d_p + beta p act on a field in the basis centred at p0 through
    # (p - p0) + p0; the top level is empty, so nothing is truncated
    rng = np.random.default_rng(5)
    beta, p0 = 2.0, -0.7
    c = _random_field(rng, beta=beta).coeffs
    g = HermiteFourierField(c, 1.0, beta, p0)
    q, p = np.meshgrid(np.linspace(0, 1, 5), np.linspace(-3, 2, 7))
    assert apply_momentum(g).evaluate(q, p) == pytest.approx(p * g.evaluate(q, p),
                                                            abs=1e-12)
    assert apply_raise(g).p0 == p0
    assert apply_raise(g).coeffs == pytest.approx(
        beta * apply_momentum(g).coeffs - apply_lower(g).coeffs, abs=1e-12)
    with pytest.raises(ValueError, match="centred"):
        g.plus(HermiteFourierField(c, 1.0, beta))
    gram = gibbs_gram(_params(beta=beta), 3)
    centred = HermiteFourierField(c, 1.0, beta)
    with pytest.raises(ValueError, match="centred"):
        gibbs_inner(gram, g, centred)
    with pytest.raises(ValueError, match="centred"):
        gibbs_inner(gram, centred, g)


# ---------------------------------------------------------------------------
# Gibbs pairing
# ---------------------------------------------------------------------------

def _inner(g, h, params):
    return gibbs_inner(gibbs_gram(params, g.n_fourier), g, h)


def test_inner_product_normalization_and_orthogonality():
    params = _params(v0=1.0, beta=2.0)
    one = HermiteFourierField.constant(1.0, 10, 4, 1.0, 2.0)
    assert _inner(one, one, params) == pytest.approx(1.0, abs=1e-14)

    flat = _params(v0=0.0, beta=2.0)
    h1 = HermiteFourierField.zeros(10, 4, 1.0, 2.0).coeffs.copy()
    h1[1, 0] = 1.0
    h1f = HermiteFourierField(h1, 1.0, 2.0)
    assert _inner(h1f, h1f, flat) == pytest.approx(1.0, abs=1e-13)
    h2 = HermiteFourierField.zeros(10, 4, 1.0, 2.0).coeffs.copy()
    h2[2, 0] = 1.0
    h2f = HermiteFourierField(h2, 1.0, 2.0)
    assert _inner(h1f, h2f, _params(v0=1.0, beta=2.0)) == \
        pytest.approx(0.0, abs=1e-13)


def test_gaussian_moment():
    params = _params(v0=0.7, beta=3.0)
    p_field = HermiteFourierField.momentum(10, 4, 1.0, 3.0)
    assert _inner(p_field, p_field, params) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_adjointness_of_ladder_pair():
    params = _params(v0=1.0, beta=2.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        g = _random_field(rng, n_hermite=12, n_fourier=3, beta=2.0)
        h = _random_field(rng, n_hermite=12, n_fourier=3, beta=2.0)
        lhs = _inner(apply_raise(g), h, params)
        rhs = _inner(g, apply_lower(h), params)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_inner_product_symmetric_bilinear():
    params = _params(v0=0.5, beta=1.5)
    rng = np.random.default_rng(2)
    g = _random_field(rng, beta=1.5)
    h = _random_field(rng, beta=1.5)
    k = _random_field(rng, beta=1.5)
    gram = gibbs_gram(params, 3)
    assert np.array_equal(gram, gram.T)
    assert gibbs_inner(gram, g, h) == pytest.approx(gibbs_inner(gram, h, g),
                                                    rel=1e-13, abs=1e-15)
    gh = g.with_coeffs(2.5 * g.coeffs + k.coeffs)
    assert gibbs_inner(gram, gh, h) == pytest.approx(
        2.5 * gibbs_inner(gram, g, h) + gibbs_inner(gram, k, h), rel=1e-12, abs=1e-13)


_MIXED = PeriodicPotential(period=2.0, cos_coeffs=(0.8, 0.0, -0.3),
                           sin_coeffs=(0.0, 0.25), offset=1.5)


@pytest.mark.parametrize("potential,n_fourier,beta", [
    (PeriodicPotential.cosine(1.0, 1.0), 24, 5.0),
    (PeriodicPotential.cosine(1.0, 1.0), 3, 2.0),
    (_MIXED, 6, 5.0),
])
def test_gibbs_pairing_matches_tensor_quadrature(potential, n_fourier, beta):
    # every level filled, the top one included: the pairing is exact in the
    # truncated basis, not only for fields with headroom
    params = ModelParams(gamma=1.0, beta=beta, force=0.0, potential=potential)
    ref = GibbsTensorQuadrature(params, n_p=40, n_q=512)
    gram = gibbs_gram(params, n_fourier)
    rng = np.random.default_rng(11)
    for _ in range(4):
        g, h = (_random_field(rng, 12, n_fourier, potential.period, beta, headroom=0)
                for _ in range(2))
        scale = np.sqrt(ref.inner(g, g) * ref.inner(h, h))
        assert abs(gibbs_inner(gram, g, h) - ref.inner(g, h)) <= 1e-12 * scale
        assert abs(gibbs_inner(gram, g, g) - ref.inner(g, g)) <= 1e-12 * ref.inner(g, g)


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(1, 4)
    with pytest.raises(ValueError):
        TruncationSpec(4, 0)
    spec = TruncationSpec(8, 1)
    with pytest.raises(ValueError):
        spec.check_potential(PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.5)))
