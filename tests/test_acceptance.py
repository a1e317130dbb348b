"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  The criteria cover: exact free-particle transport, the equilibrium
Gibbs state, the fluctuation-dissipation identity at zero tilt, dual diffusion
formulas, the tilt-series identities and parity structure, figure-level
reproduction of the series overlays and their deliberate naive-extrapolation
mismatch, overdamped-limit convergence and oracles, Monte Carlo agreement,
the small-friction figure presets, and convergence past the critical tilt.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from washboard.model import ModelParams, PeriodicPotential, reference_scales
from washboard.basis import TruncationSpec, apply_lower, fourier_table
from washboard.expansion import (build_chain, diffusion_coefficients,
                                 partial_sum_D, partial_sum_U,
                                 series_radius_estimate)
from washboard.montecarlo import McConfig, simulate
from washboard.overdamped import (lifson_jackson_diffusion, solve_overdamped,
                                  stratonovich_drift)
from washboard.transport import solve_stationary_fp, solve_transport
from washboard.cli import parse_report
from packed_reference import check_overdamped_asymptotics


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _cos(v0: float, period: float) -> PeriodicPotential:
    return PeriodicPotential.cosine(v0, period)


PARAMS_151 = ModelParams(gamma=1.0, beta=5.0, force=0.0, potential=_cos(1.0, 1.0))


@pytest.fixture(scope="module")
def chain151():
    return build_chain(PARAMS_151, TruncationSpec(120, 24), 9)


@pytest.fixture(scope="module")
def table151(chain151):
    return diffusion_coefficients(chain151)


def test_criterion_01_free_particle_exactness():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            for force in (0.0, 0.5, 1.0):
                params = ModelParams(gamma=gamma, beta=beta, force=force,
                                     potential=PeriodicPotential(period=2 * np.pi))
                res = solve_transport(params, TruncationSpec(40, 1))
                u_exact = force / gamma
                d_exact = 1.0 / (beta * gamma)
                worst = max(worst,
                            abs(res.drift - u_exact) / max(abs(u_exact), 1.0),
                            abs(res.d_primary - d_exact) / d_exact)
    elapsed = time.perf_counter() - start
    _report(1, "free-particle exactness", worst <= 1e-10 and elapsed < 1.0,
            f"worst rel {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_equilibrium_gibbs_state():
    density = solve_stationary_fp(PARAMS_151, TruncationSpec(120, 24))
    R = density.field.coeffs
    tail = np.abs(R[1:]).max() / np.abs(R[0]).max()
    n = 4096
    q = np.arange(n) / n
    w = np.exp(-5.0 * np.cos(2 * np.pi * q))
    w /= w.mean()                       # e^{-beta V}/Z with L = 1
    profile = R[0] @ fourier_table(24, 1.0, q)
    prof_err = np.abs(profile - w).max() / w.max()
    ok = tail <= 1e-8 and prof_err <= 1e-8 and abs(density.drift) <= 1e-10
    _report(2, "equilibrium Gibbs state", ok,
            f"levels>=1 {tail:.1e}, profile {prof_err:.1e}, U {density.drift:.1e}")


def test_criterion_03_einstein_relation_at_origin(chain151):
    errs = []
    d0 = solve_transport(PARAMS_151, TruncationSpec(120, 24)).d_primary
    errs.append(abs(d0 - chain151.v[1] / 5.0) / d0)

    params50 = ModelParams(gamma=50.0, beta=5.0, force=0.0, potential=_cos(1.0, 1.0))
    chain50 = build_chain(params50, TruncationSpec(64, 24), 5)
    d0_50 = solve_transport(params50, TruncationSpec(64, 24)).d_primary
    errs.append(abs(d0_50 - chain50.v[1] / 5.0) / d0_50)
    _report(3, "Einstein relation at origin", max(errs) <= 1e-6,
            f"rel errors {errs[0]:.1e}, {errs[1]:.1e}")


def test_criterion_04_dual_diffusion_formulas():
    pot = _cos(0.25, 2 * np.pi)
    worst = 0.0
    for gamma, n_h in ((1.0, 120), (0.1, 240)):
        fc = reference_scales(ModelParams(gamma=gamma, beta=2.0, force=0.0,
                                          potential=pot)).critical_force
        d_l = 1.0 / (2.0 * gamma)
        for frac in (0.0, 0.5, 1.0, 2.0):
            params = ModelParams(gamma=gamma, beta=2.0, force=frac * fc,
                                 potential=pot)
            res = solve_transport(params, TruncationSpec(n_h, 12))
            worst = max(worst, abs(res.d_primary - res.d_ibp) / d_l)
    _report(4, "dual diffusion formulas", worst <= 1e-6, f"worst gap/D_L {worst:.1e}")


def test_criterion_05_expansion_identity(table151):
    beta = 5.0
    base = abs(table151.v[1]) / beta
    worst = 0.0
    for ell in range(1, 5):
        lhs = (ell + 1) * table151.v[ell + 1] / beta + table151.xi_column_sum(ell)
        rhs = table151.v[ell + 1] / beta + table151.sigma_column_sum(ell)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), base))
    _report(5, "series consistency identity", worst <= 1e-6, f"worst rel {worst:.1e}")


def test_criterion_06_symmetry_vanishing(chain151, table151):
    v = chain151.v
    v_ok = max(abs(v[2]), abs(v[4])) <= 1e-8 * abs(v[1])
    scale = max(abs(v[1]) / 5.0, np.abs(table151.sigma).max(),
                np.abs(table151.xi).max())
    odd_ok = all(
        abs(table151.sigma_column_sum(ell)) <= 1e-8 * scale
        and abs(table151.xi_column_sum(ell)) <= 1e-8 * scale
        for ell in (1, 3, 5, 7)
    )
    _report(6, "parity vanishing for cosine potential", v_ok and odd_ok,
            f"|V2|/|V1| {abs(v[2]) / abs(v[1]):.1e}")


def test_criterion_07_shift_identity(chain151):
    worst = 0.0
    for k in range(0, 5):
        ref = chain151.inner(apply_lower(chain151.phis[0]), chain151.fs[k])
        for m in range(0, k + 1):
            val = chain151.inner(apply_lower(chain151.phis[m]), chain151.fs[k - m])
            worst = max(worst, abs(val - ref))
    _report(7, "ladder shift identity", worst <= 1e-7, f"worst {worst:.1e}")


def test_criterion_08_drift_series_overlay(chain151):
    start = time.perf_counter()
    radius = series_radius_estimate(chain151.v)
    t9 = abs(chain151.v[9])
    checked, worst9, depart1 = 0, 0.0, 0.0
    top_f = 0.0
    for force in np.linspace(0.1, 1.2, 12):
        u9 = partial_sum_U(chain151, force, 9)
        rho = force / radius
        if rho >= 1.0:
            continue
        tail = t9 * force ** 9 * rho ** 2 / (1.0 - rho ** 2)
        if tail > 0.005 * abs(u9):
            continue
        res = solve_transport(PARAMS_151.with_force(force),
                              TruncationSpec(96, 24), adaptive=True)
        checked += 1
        top_f = force
        worst9 = max(worst9, abs(u9 - res.drift) / abs(res.drift))
        depart1 = abs(partial_sum_U(chain151, force, 1) - res.drift) / abs(res.drift)
    elapsed = time.perf_counter() - start
    ok = checked >= 5 and worst9 <= 0.01 and depart1 >= 0.05 and elapsed < 60.0
    _report(8, "ninth-order drift series overlays the solver", ok,
            f"{checked} points to F={top_f:.2f}, worst {worst9:.1e}, "
            f"linear departs {depart1:.0%}, {elapsed:.0f}s")


def test_criterion_09_naive_series_mismatch(table151):
    # the false extrapolation D_l = V_{l+1}/beta drifts away from the solver
    gaps = {}
    for gamma, order, trunc in ((1.0, 8, TruncationSpec(96, 24)),
                                (50.0, 4, TruncationSpec(64, 24))):
        params = ModelParams(gamma=gamma, beta=5.0, force=0.0,
                             potential=_cos(1.0, 1.0))
        if gamma == 1.0:
            table = table151
        else:
            table = diffusion_coefficients(build_chain(params, trunc, order + 1))
        rel = []
        for force in (0.0, 0.25, 0.5, 0.75, 1.0):
            res = solve_transport(params.with_force(force), trunc, adaptive=True)
            naive = partial_sum_D(table, force, order, "naive_einstein")
            rel.append(abs(res.d_primary - naive) / res.d_primary)
        gaps[gamma] = rel
    growing = all(b > a for a, b in zip(gaps[1.0][1:], gaps[1.0][2:]))
    ok = (gaps[1.0][0] <= 1e-6 and gaps[50.0][0] <= 1e-6
          and growing and gaps[1.0][-1] > 0.05
          and gaps[50.0][-1] < gaps[1.0][-1])
    _report(9, "naive Einstein extrapolation mismatch", ok,
            f"gap(F=1): {gaps[1.0][-1]:.2f} at gamma=1, {gaps[50.0][-1]:.1e} at gamma=50")


def test_criterion_10_overdamped_asymptotics():
    ok = True
    details = []
    for force in (0.5, 1.0):
        report = check_overdamped_asymptotics(_cos(1.0, 1.0), beta=5.0,
                                              force=force, gammas=(10.0, 20.0),
                                              trunc=TruncationSpec(64, 20))
        ru = report["ratios_drift"][0]
        rd = report["ratios_diffusion"][0]
        details.append(f"F={force}: {ru:.2f}/{rd:.2f}")
        ok = ok and 0.15 <= ru <= 0.4 and 0.15 <= rd <= 0.4
    _report(10, "overdamped limit convergence rate", ok, ", ".join(details))


def test_criterion_11_overdamped_oracles():
    worst = 0.0
    for v0 in (0.5, 1.0):
        for beta in (1.0, 5.0):
            pot = _cos(v0, 1.0)
            for force in (0.0, 1.0, 2.0, 3.0, 4.0):
                gal = solve_overdamped(pot, beta, force).drift
                strat = stratonovich_drift(pot, beta, force)
                if force == 0.0:
                    worst = max(worst, abs(gal - strat))
                else:
                    worst = max(worst, abs(gal - strat) / abs(strat))
    lj_worst = 0.0
    for v0, beta in ((0.5, 1.0), (1.0, 5.0)):
        pot = _cos(v0, 1.0)
        lj = lifson_jackson_diffusion(pot, beta)
        lj_worst = max(lj_worst, abs(solve_overdamped(pot, beta, 0.0).diffusion - lj) / lj)
    ok = worst <= 1e-6 and lj_worst <= 1e-8
    _report(11, "overdamped drift/diffusion oracles", ok,
            f"drift {worst:.1e}, Lifson-Jackson {lj_worst:.1e}")


def test_criterion_12_monte_carlo_vs_spectral():
    start = time.perf_counter()
    ok = True
    details = []
    for force in (0.5, 1.0, 2.0):
        params = PARAMS_151.with_force(force)
        spectral = solve_transport(params, TruncationSpec(128, 24), adaptive=True)
        est = simulate(McConfig(dt=0.01, n_steps=100000, n_burnin=2000,
                                n_traj=500, seed=20240901, params=params))
        zu = abs(est.u_hat - spectral.drift) / est.stderr_u
        zd = abs(est.d_hat - spectral.d_primary) / est.stderr_d
        details.append(f"F={force}: {zu:.1f}/{zd:.1f} sigma")
        ok = ok and zu <= 4.0 and zd <= 4.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(12, "Monte Carlo within four standard errors", ok,
            ", ".join(details) + f", {elapsed:.0f}s")


def test_criterion_13_figure_presets(figures):
    folder, codes = figures
    ok = codes["fig1"] == 0
    details = []
    for gamma in ("0.01", "0.1", "1.0"):
        rows = parse_report(str(folder / f"fig1_gamma{gamma}.csv"))
        clean = all(not r["error"] for r in rows)
        top = max(max(r["top_level_ratio"], r["top_level_ratio_phi"])
                  for r in rows if not r["error"])
        # qualitative shapes over the whole sweep, 0.1 .. 2.2 F_c
        sub = [r for r in rows if not r["error"]]
        dd = [r["D_over_DL"] for r in sub]
        peak = max(dd) > dd[0] and max(dd) > dd[-1]
        u_tail_ok = all(r["U_over_UL"] >= 0.99 for r in sub
                        if r["F_over_Fc"] >= 1.5)
        line_ok = clean and top < 1e-6 and peak and u_tail_ok
        if gamma == "0.01":
            arg = sub[int(np.argmax(dd))]["F_over_Fc"]
            line_ok = line_ok and 0.5 <= arg <= 1.5
            details.append(f"peak at {arg:.2f} Fc, top {top:.0e}")
        ok = ok and line_ok
    _report(13, "small-friction figure presets", ok, ", ".join(details))


def test_criterion_14_large_tilt_convergence():
    # fig1 past the critical tilt, where the coefficients of a Hermite basis
    # centred at p = 0 grow like exp(beta p0^2 / 2), p0 = F/gamma: the solves
    # converge in N, both D formulas agree, and MC confirms one point
    v0 = math.pi ** 2 / 16.0
    base = ModelParams(gamma=1.0, beta=1.2 / v0, force=0.0,
                       potential=_cos(v0, 2.0 * math.pi))
    worst_rel = worst_gap = worst_growth = 0.0
    ok = True
    for gamma in (0.1, 0.01):
        params = replace(base, gamma=gamma)
        fc = 3.36 * gamma * math.sqrt(v0)
        n0 = 256 if gamma < 0.05 else 64
        d_l = 1.0 / (params.beta * gamma)
        for force in np.linspace(0.1 * fc, 2.2 * fc, 12)[-3:]:    # 1.82, 2.01, 2.2 F_c
            p = params.with_force(force)
            res = solve_transport(p, TruncationSpec(n0, 24), adaptive=True)
            twice = solve_transport(p, TruncationSpec(2 * res.n_hermite, 24))
            rel = max(abs(res.drift - twice.drift) / abs(twice.drift),
                      abs(res.d_primary - twice.d_primary) / twice.d_primary)
            gap = abs(res.d_primary - res.d_ibp) / d_l
            growth = max(res.diagnostics["log10_growth_R"],
                         res.diagnostics["log10_growth_phi"])
            worst_rel, worst_gap = max(worst_rel, rel), max(worst_gap, gap)
            worst_growth = max(worst_growth, growth)
            ok = (ok and rel <= 1e-6 and gap <= 1e-6 and growth <= 2.0
                  and res.diagnostics["p0"] == force / gamma)
    p = replace(base, gamma=0.1, force=2.2 * (3.36 * 0.1 * math.sqrt(v0)))   # 2.2 F_c
    spectral = solve_transport(p, TruncationSpec(64, 24), adaptive=True)
    est = simulate(McConfig(dt=0.02, n_steps=50000, n_burnin=2000, n_traj=400,
                            seed=20240902, params=p))
    zu = abs(est.u_hat - spectral.drift) / est.stderr_u
    zd = abs(est.d_hat - spectral.d_primary) / est.stderr_d
    ok = ok and zu <= 4.0 and zd <= 4.0
    _report(14, "large-tilt convergence in the displaced basis", ok,
            f"N/2N {worst_rel:.1e}, dual-D gap/D_L {worst_gap:.1e}, "
            f"log10 growth {worst_growth:.2f}, MC {zu:.1f}/{zd:.1f} sigma")
