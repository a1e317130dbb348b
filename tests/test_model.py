import math
from dataclasses import replace

import numpy as np
import pytest

from washboard.model import ModelParams, PeriodicPotential, reference_scales
from packed_reference import effective_potential


def test_cosine_values():
    pot = PeriodicPotential.cosine(1.0, 2 * np.pi)
    assert pot.evaluate(0.0) == pytest.approx(1.0, abs=1e-15)
    assert pot.evaluate(np.pi) == pytest.approx(-1.0, abs=1e-15)
    pot2 = PeriodicPotential.cosine(np.pi ** 2 / 16, 2 * np.pi)
    assert pot2.evaluate(np.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_effective_potential():
    pot = PeriodicPotential.cosine(1.0, 2 * np.pi)
    assert effective_potential(pot, 0.0, np.pi) == pytest.approx(-1.0)
    flat = PeriodicPotential(period=2 * np.pi)
    assert effective_potential(flat, 2.0, 3.0) == pytest.approx(-6.0)
    assert effective_potential(pot, 1.0, 0.0) == pytest.approx(1.0)


def test_reference_scales():
    pot = PeriodicPotential.cosine(np.pi ** 2 / 16, 2 * np.pi)
    scales = reference_scales(ModelParams(gamma=0.01, beta=1.0, force=0.0, potential=pot))
    assert scales.critical_force == pytest.approx(3.36 * 0.01 * np.pi / 4.0, rel=1e-12)
    assert scales.critical_force == pytest.approx(0.0264, abs=2e-5)

    p = ModelParams(gamma=1.0, beta=1.0, force=0.0,
                    potential=PeriodicPotential.cosine(1.0, 1.0))
    assert reference_scales(p).free_diffusion == pytest.approx(1.0)
    p = ModelParams(gamma=2.0, beta=1.0, force=4.0,
                    potential=PeriodicPotential.cosine(1.0, 1.0))
    assert reference_scales(p).free_drift == pytest.approx(2.0)


def test_critical_force_undefined_off_cosine():
    two_harm = PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.3))
    p = ModelParams(gamma=1.0, beta=1.0, force=0.0, potential=two_harm)
    assert reference_scales(p).critical_force is None
    tilted = PeriodicPotential(period=1.0, cos_coeffs=(1.0,), sin_coeffs=(0.2,))
    p = ModelParams(gamma=1.0, beta=1.0, force=0.0, potential=tilted)
    assert reference_scales(p).critical_force is None


def test_derivative_matches_finite_differences():
    pot = PeriodicPotential(period=3.0, cos_coeffs=(0.7, -0.2, 0.05),
                            sin_coeffs=(0.3, 0.1))
    q = np.linspace(0.0, 3.0, 64, endpoint=False)
    # derivative of the FD error is O(h^2) with constant ~ max|V'''|/6
    w1 = pot.omega1
    c3 = sum(abs(c) * (k * w1) ** 3 for k, c in enumerate(pot.cos_coeffs, 1))
    c3 += sum(abs(s) * (k * w1) ** 3 for k, s in enumerate(pot.sin_coeffs, 1))
    for h in (1e-3, 1e-4):
        fd = (pot.evaluate(q + h) - pot.evaluate(q - h)) / (2 * h)
        assert np.abs(pot.derivative(q) - fd).max() <= 0.5 * c3 * h ** 2 + 1e-10


def test_periodicity_exact():
    pot = PeriodicPotential(period=2.5, cos_coeffs=(1.0, 0.4), sin_coeffs=(0.2,))
    q = np.linspace(-5.0, 5.0, 64)
    assert np.abs(pot.evaluate(q + 2.5) - pot.evaluate(q)).max() < 1e-12


def test_reflection_involution():
    pot = PeriodicPotential(period=1.0, cos_coeffs=(1.0,), sin_coeffs=(0.5, -0.2))
    p = ModelParams(gamma=1.0, beta=2.0, force=0.7, potential=pot)
    assert p.reflected().reflected() == p
    assert not pot.is_symmetric()
    assert PeriodicPotential.cosine(1.0, 1.0).is_symmetric()
    # reflected potential evaluates to V(-q)
    q = np.linspace(0, 1, 17)
    assert pot.reflected().evaluate(q) == pytest.approx(pot.evaluate(-q))


def test_validation_errors():
    with pytest.raises(ValueError):
        PeriodicPotential(period=-1.0)
    with pytest.raises(ValueError):
        PeriodicPotential(period=1.0, cos_coeffs=(np.nan,))
    pot = PeriodicPotential.cosine(1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=0.0, beta=1.0, force=0.0, potential=pot)
    with pytest.raises(ValueError):
        ModelParams(gamma=1.0, beta=-2.0, force=0.0, potential=pot)
    with pytest.raises(ValueError):
        ModelParams(gamma=1.0, beta=1.0, force=np.inf, potential=pot)


def test_complex_coeffs_roundtrip():
    pot = PeriodicPotential(period=2.0, cos_coeffs=(0.5, 0.1), sin_coeffs=(0.3,),
                            offset=0.2)
    v = pot.complex_coeffs()
    q = np.linspace(0, 2, 33)
    k = np.arange(len(v))
    rebuilt = 2.0 * np.real(np.exp(1j * np.outer(q, k * pot.omega1)) @ v) - v[0].real
    assert rebuilt == pytest.approx(pot.evaluate(q), abs=1e-12)


def test_tilt_drift_coeffs():
    pot = PeriodicPotential.cosine(2.0, 1.0)
    u = pot.tilt_drift_coeffs(0.7)
    assert u[0] == pytest.approx(0.7)
    # -V' = 2 w1 sin(w1 q) -> coefficient at +1 harmonic is -i * 2 * w1 / 2
    assert u[1] == pytest.approx(-1j * pot.omega1, abs=1e-14)


def test_single_cosine_amplitude():
    assert PeriodicPotential.cosine(0.3, 1.0).single_cosine_amplitude() == 0.3
    assert PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.1)).single_cosine_amplitude() is None
    assert PeriodicPotential(period=1.0, cos_coeffs=(1.0,), sin_coeffs=(0.1,)).single_cosine_amplitude() is None


def test_offset_ignored_by_derivative():
    a = PeriodicPotential.cosine(1.0, 1.0)
    b = PeriodicPotential(period=1.0, cos_coeffs=(1.0,), offset=5.0)
    q = np.linspace(0, 1, 9)
    assert b.derivative(q) == pytest.approx(a.derivative(q))
    assert b.evaluate(0.0) == pytest.approx(6.0)


def _reference_evaluate(pot, q):
    # term-by-term loop over the coefficients, summed in the library's order
    out = np.full_like(q, pot.offset)
    w1 = pot.omega1
    for k, c in enumerate(pot.cos_coeffs, start=1):
        if c != 0.0:
            out = out + c * np.cos(k * w1 * q)
    for k, s in enumerate(pot.sin_coeffs, start=1):
        if s != 0.0:
            out = out + s * np.sin(k * w1 * q)
    return out


def _reference_derivative(pot, q):
    out = np.zeros_like(q)
    w1 = pot.omega1
    for k, c in enumerate(pot.cos_coeffs, start=1):
        if c != 0.0:
            out = out - c * k * w1 * np.sin(k * w1 * q)
    for k, s in enumerate(pot.sin_coeffs, start=1):
        if s != 0.0:
            out = out + s * k * w1 * np.cos(k * w1 * q)
    return out


@pytest.mark.parametrize("pot", [
    PeriodicPotential(period=1.7, cos_coeffs=(0.7, 0.0, 0.0, -0.2, 0.0, 0.05),
                      sin_coeffs=(0.0, 0.3, 0.0, 0.1), offset=-2.25),
    PeriodicPotential(period=2 * np.pi, sin_coeffs=(0.0, 1.3, 0.0, 0.4)),
    PeriodicPotential(period=0.9, cos_coeffs=(0.0, 0.0), sin_coeffs=(0.0,),
                      offset=0.5),
    PeriodicPotential(period=3.0),
])
def test_harmonic_table_bit_identical_to_term_loop(pot):
    q = np.linspace(-7.3, 11.1, 257)
    assert np.array_equal(pot.evaluate(q), _reference_evaluate(pot, q))
    assert np.array_equal(pot.derivative(q), _reference_derivative(pot, q))
    out, work = np.full_like(q, np.nan), np.full_like(q, np.nan)
    assert pot.derivative(q, out=out, work=work) is out
    assert np.array_equal(out, _reference_derivative(pot, q))
    cos_terms, sin_terms = pot.harmonics
    nonzero = [c for c in (*pot.cos_coeffs, *pot.sin_coeffs) if c != 0.0]
    assert [h.coeff for h in (*cos_terms, *sin_terms)] == nonzero
    if not nonzero:
        assert np.array_equal(pot.derivative(q), np.zeros_like(q))
        assert np.array_equal(pot.evaluate(q), np.full_like(q, pot.offset))


@pytest.mark.parametrize("pot", [
    PeriodicPotential.cosine(1.0, 1.0),
    PeriodicPotential(period=2.0, cos_coeffs=(0.0, -0.4), sin_coeffs=(0.3,)),
    PeriodicPotential(period=1.5, sin_coeffs=(0.6, 0.0, -0.2)),
])
@pytest.mark.parametrize("force", [0.0, 0.7, -1.3])
def test_tilted_drift_keeps_its_bits(pot, force):
    # V' may read -0.0 where the sum from zero read +0.0 (at q = 0 for a
    # cosine), but F - V', all the step loop uses, has the same bits
    q = np.concatenate([np.linspace(-3.1, 4.7, 101), [0.0, -0.0]])
    out, work = np.empty_like(q), np.empty_like(q)
    drift = force - pot.derivative(q, out, work)
    expected = force - _reference_derivative(pot, q)
    assert np.array_equal(drift, expected)
    assert np.array_equal(np.signbit(drift), np.signbit(expected))


def test_harmonic_table_outside_dataclass_identity():
    a = PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.0, 0.2), sin_coeffs=(0.3,))
    b = PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.0, 0.2), sin_coeffs=(0.3,))
    text = repr(a)
    assert a.harmonics is a.harmonics            # built once per instance
    assert a == b and hash(a) == hash(b)         # b has built no table yet
    assert repr(a) == text == repr(b)
    assert "harmonics" not in text
    c = replace(a, cos_coeffs=(2.0,))
    assert c != a
    assert [h.coeff for h in c.harmonics[0]] == [2.0]
    assert c.harmonics[1] == a.harmonics[1]
    q = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(c.derivative(q), _reference_derivative(c, q))
