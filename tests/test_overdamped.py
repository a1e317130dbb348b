import numpy as np
import pytest

from washboard.model import PeriodicPotential
from washboard.basis import TruncationSpec
from washboard.overdamped import (lifson_jackson_diffusion, solve_overdamped,
                                  stratonovich_drift)
from packed_reference import check_overdamped_asymptotics


COS151 = PeriodicPotential.cosine(1.0, 1.0)


def test_flat_potential_exact():
    flat = PeriodicPotential(period=1.0)
    res = solve_overdamped(flat, beta=2.0, force=3.0)
    assert res.drift == pytest.approx(3.0, rel=1e-12)
    assert res.diffusion == pytest.approx(0.5, rel=1e-12)
    assert res.diffusion_linear_form == pytest.approx(0.5, rel=1e-12)


def test_zero_tilt_drift_vanishes():
    res = solve_overdamped(COS151, beta=5.0, force=0.0)
    assert abs(res.drift) < 1e-12
    assert stratonovich_drift(COS151, 5.0, 0.0) == 0.0


def test_lifson_jackson_value():
    # V0=1, beta=1, L=2pi: D_O = 1/I_0(1)^2
    from scipy.special import i0
    pot = PeriodicPotential.cosine(1.0, 2 * np.pi)
    expect = 1.0 / i0(1.0) ** 2
    assert expect == pytest.approx(0.62386, abs=1e-5)
    assert lifson_jackson_diffusion(pot, 1.0) == pytest.approx(expect, rel=1e-10)


def test_galerkin_diffusion_matches_lifson_jackson():
    for v0, beta in ((0.5, 1.0), (1.0, 5.0)):
        pot = PeriodicPotential.cosine(v0, 1.0)
        res = solve_overdamped(pot, beta, 0.0)
        lj = lifson_jackson_diffusion(pot, beta)
        assert abs(res.diffusion - lj) <= 1e-8 * lj
        assert abs(res.diffusion_linear_form - lj) <= 1e-8 * lj


def test_drift_oracle_agreement():
    for v0 in (0.5, 1.0):
        for beta in (1.0, 5.0):
            pot = PeriodicPotential.cosine(v0, 1.0)
            for F in (0.5, 1.0, 2.0, 4.0):
                gal = solve_overdamped(pot, beta, F).drift
                strat = stratonovich_drift(pot, beta, F)
                assert abs(gal - strat) <= 1e-6 * abs(strat)


def test_drift_oracle_flat_is_force():
    flat = PeriodicPotential(period=1.0)
    for F in (0.3, 2.0):
        assert stratonovich_drift(flat, 2.0, F) == pytest.approx(F, rel=1e-10)


def test_stratonovich_overflow_guard():
    # large beta*V0 and beta*L*F exponents stay finite via the shifted form
    pot = PeriodicPotential.cosine(5.0, 2 * np.pi)
    val = stratonovich_drift(pot, 10.0, 4.0)
    assert np.isfinite(val) and val > 0.0
    neg = stratonovich_drift(pot, 10.0, -4.0)
    assert neg == pytest.approx(-val, rel=1e-8)


def test_positivity_and_tilt_alignment():
    for F in (-2.0, -0.5, 0.0, 0.5, 2.0):
        res = solve_overdamped(COS151, 5.0, F)
        assert res.diffusion > 0.0
        assert res.drift * F >= 0.0


def test_form_gap_zero_at_equilibrium_nonzero_tilted():
    eq = solve_overdamped(COS151, 5.0, 0.0)
    assert eq.residuals["form_gap"] <= 1e-10 * max(eq.diffusion, 1e-300)
    tilted = solve_overdamped(COS151, 5.0, 1.0)
    assert tilted.residuals["form_gap"] > 1e-2 * tilted.diffusion


def test_residuals_small():
    res = solve_overdamped(COS151, 5.0, 1.5)
    assert res.residuals["stationary"] < 1e-10
    assert res.residuals["corrector"] < 1e-10


_MIXED = PeriodicPotential(period=2.0, cos_coeffs=(0.8, 0.0, -0.3),
                           sin_coeffs=(0.0, 0.25), offset=1.5)


@pytest.mark.parametrize("potential,beta,force,expected", [
    # (U_O, D_O, D_O linear form) from the two-sided complex Galerkin solve
    # this packed solve replaced, at the default n_fourier = 64
    (COS151, 5.0, 0.5,
     (0.0008330192303030726, 0.0004908790552083848, 0.0004669818973049633)),
    (COS151, 5.0, 3.0,
     (0.12567372767394103, 0.06011298291652867, 0.03907462241580477)),
    (_MIXED, 2.0, 0.5,
     (0.15183442993067342, 0.18455001790323294, 0.1861812761416234)),
    (_MIXED, 2.0, 3.0,
     (2.10032179470662, 0.602862348555495, 0.5010087737783117)),
])
def test_pinned_against_complex_solve(potential, beta, force, expected):
    res = solve_overdamped(potential, beta, force)
    got = (res.drift, res.diffusion, res.diffusion_linear_form)
    assert got == pytest.approx(expected, rel=1e-11, abs=0)


def test_truncation_guard():
    pot = PeriodicPotential(period=1.0, cos_coeffs=(1.0, 0.2))
    with pytest.raises(ValueError):
        solve_overdamped(pot, 1.0, 0.0, n_fourier=1)


def test_asymptotic_convergence_rate():
    report = check_overdamped_asymptotics(COS151, beta=5.0, force=0.5,
                                          gammas=(10.0, 20.0),
                                          trunc=TruncationSpec(64, 20))
    assert 0.15 <= report["ratios_drift"][0] <= 0.4
    assert 0.15 <= report["ratios_diffusion"][0] <= 0.4


def test_asymptotics_flat_potential_error_free():
    flat = PeriodicPotential(period=1.0)
    report = check_overdamped_asymptotics(flat, beta=1.0, force=1.0,
                                          gammas=(5.0, 10.0),
                                          trunc=TruncationSpec(24, 1))
    assert max(report["e_drift"]) < 1e-9
    assert max(report["e_diffusion"]) < 1e-9
