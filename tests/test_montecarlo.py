from dataclasses import replace

import numpy as np
import pytest

from washboard import montecarlo
from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import TruncationSpec
from washboard.montecarlo import (McConfig, estimate_with_error_target, simulate)
from washboard.transport import solve_transport


def _free(gamma=1.0, beta=1.0, force=2.0):
    return ModelParams(gamma=gamma, beta=beta, force=force,
                       potential=PeriodicPotential(period=2 * np.pi))


def _cos151(force):
    return ModelParams(gamma=1.0, beta=5.0, force=force,
                       potential=PeriodicPotential.cosine(1.0, 1.0))


def test_config_validation():
    params = _free()
    with pytest.raises(ValueError):
        McConfig(dt=-0.1, n_steps=100, n_burnin=10, n_traj=10, seed=0, params=params)
    with pytest.raises(ValueError):
        McConfig(dt=0.6, n_steps=100, n_burnin=10, n_traj=10, seed=0, params=params)
    with pytest.raises(ValueError):
        McConfig(dt=0.01, n_steps=10, n_burnin=10, n_traj=10, seed=0, params=params)
    with pytest.raises(ValueError):
        McConfig(dt=0.01, n_steps=100, n_burnin=10, n_traj=1, seed=0, params=params)


def test_bit_reproducibility():
    config = McConfig(dt=0.01, n_steps=4000, n_burnin=100, n_traj=64, seed=99,
                      params=_cos151(1.0))
    a = simulate(config)
    b = simulate(config)
    assert a == b
    c = simulate(replace(config, seed=100))
    assert c != a


def test_free_particle_statistics_many_seeds():
    # U = F/gamma and D = 1/(beta gamma) within 4 standard errors, every seed
    params = _free(gamma=1.0, beta=1.0, force=2.0)
    for seed in range(20):
        est = simulate(McConfig(dt=0.01, n_steps=20000, n_burnin=500,
                                n_traj=100, seed=seed, params=params))
        assert abs(est.u_hat - 2.0) <= 4.0 * est.stderr_u
        assert abs(est.d_hat - 1.0) <= 4.0 * est.stderr_d
        assert est.stderr_u > 0.0 and est.stderr_d > 0.0


def test_drift_symmetry_paired_seeds():
    plus = simulate(McConfig(dt=0.01, n_steps=30000, n_burnin=1000, n_traj=200,
                             seed=5, params=_cos151(0.8)))
    minus = simulate(McConfig(dt=0.01, n_steps=30000, n_burnin=1000, n_traj=200,
                              seed=5, params=_cos151(-0.8)))
    sigma = np.hypot(plus.stderr_u, minus.stderr_u)
    assert abs(plus.u_hat + minus.u_hat) <= 3.0 * sigma

    eq = simulate(McConfig(dt=0.01, n_steps=30000, n_burnin=1000, n_traj=200,
                           seed=6, params=_cos151(0.0)))
    assert abs(eq.u_hat) <= 3.0 * eq.stderr_u


def test_spectral_agreement():
    params = _cos151(1.0)
    spectral = solve_transport(params, TruncationSpec(128, 24), adaptive=True)
    est = simulate(McConfig(dt=0.01, n_steps=100000, n_burnin=2000, n_traj=500,
                            seed=1234, params=params))
    assert abs(est.u_hat - spectral.drift) <= 4.0 * est.stderr_u
    assert abs(est.d_hat - spectral.d_primary) <= 4.0 * est.stderr_d


def test_timestep_bias_shrinks():
    # Euler-Maruyama bias against the spectral value decays when dt halves.
    # (Measured where bias >> stderr; for this configuration the decay is
    # faster than the nominal first-order rate, so only the direction and a
    # generous contraction window are asserted.)
    params = ModelParams(gamma=1.0, beta=1.0, force=1.0,
                         potential=PeriodicPotential.cosine(1.0, 1.0))
    spectral = solve_transport(params, TruncationSpec(128, 16))
    biases = []
    for dt, steps in ((0.2, 10000), (0.1, 20000)):
        est = simulate(McConfig(dt=dt, n_steps=steps, n_burnin=steps // 10,
                                n_traj=2000, seed=42, params=params))
        bias = est.u_hat - spectral.drift
        assert abs(bias) > 10.0 * est.stderr_u     # bias-dominated regime
        biases.append(abs(bias))
    assert 0.03 * biases[0] <= biases[1] <= 0.7 * biases[0]


def test_divergence_reports_trajectory():
    # A real overflow, not a mocked force: under the suite's
    # error::RuntimeWarning filter it must still surface as the documented error.
    params = ModelParams(gamma=0.5, beta=1.0, force=1e308,
                         potential=PeriodicPotential(period=2 * np.pi))
    config = McConfig(dt=0.01, n_steps=2000, n_burnin=0, n_traj=4, seed=0,
                      params=params)
    with pytest.raises(FloatingPointError, match="trajectory 0"):
        simulate(config)


def _multi(force):
    return ModelParams(gamma=0.7, beta=2.0, force=force,
                       potential=PeriodicPotential(period=2.0,
                                                   cos_coeffs=(0.8, 0.0, -0.3),
                                                   sin_coeffs=(0.0, 0.25, 0.1),
                                                   offset=1.5))


# Exact estimates of the step loop as it summed before the harmonic table and
# the in-place kernel (n_steps=5000 is not a multiple of the noise chunk).
_GOLDEN = [
    (_cos151(1.0), 0,
     (0.005381204064844809, 0.015708601091201792, 0.006266697912617496,
      0.011173725497915439, 16)),
    (_cos151(1.0), 300,
     (0.0026924897776085107, 0.0017732482067112127, 0.0021716550499899477,
      0.0013977395604911802, 16)),
    (_multi(0.6), 0,
     (0.1010138171592515, 0.21395686706321915, 0.023127735895630764,
      0.0693842232220525, 16)),
    (_multi(-0.4), 123,
     (-0.020179258768436317, 0.09213197935431597, 0.01536681381983051,
      0.06458117788837009, 16)),
    (_free(gamma=0.5, force=2.0), 0,
     (3.8032655511635163, 1.7648638771538456, 0.06642408970309352,
      0.44831184124028595, 16)),
    (_free(gamma=0.5, force=2.0), 77,
     (3.8514979091449555, 1.8312528891463147, 0.0681889887812343,
      0.47465607203479526, 16)),
]


@pytest.mark.parametrize("params, burnin, expected", _GOLDEN)
def test_estimates_bit_pinned(params, burnin, expected):
    est = simulate(McConfig(dt=0.01, n_steps=5000, n_burnin=burnin, n_traj=16,
                            seed=7, params=params))
    assert (est.u_hat, est.d_hat, est.stderr_u, est.stderr_d,
            est.n_traj_used) == expected


@pytest.mark.parametrize("params", [_cos151(1.0), _multi(0.6)])
def test_chunk_size_has_no_effect(monkeypatch, params):
    config = McConfig(dt=0.01, n_steps=600, n_burnin=50, n_traj=10, seed=3,
                      params=params)
    reference = simulate(config)
    for size in (1, 7, 4096):
        monkeypatch.setattr(montecarlo, "_CHUNK", size)
        monkeypatch.setattr(montecarlo, "_BLOCK", size)
        assert simulate(config) == reference


def test_error_target_free_particle():
    params = _free(gamma=1.0, beta=1.0, force=2.0)
    base = McConfig(dt=0.01, n_steps=10000, n_burnin=500, n_traj=50, seed=3,
                    params=params)
    est = estimate_with_error_target(params, 0.05, base=base)
    assert est.target_met
    assert est.stderr_u / abs(est.u_hat) <= 0.05


def test_error_target_cap_flagged():
    params = _cos151(0.05)    # tiny drift: impossible target at tiny cap
    base = McConfig(dt=0.02, n_steps=2000, n_burnin=100, n_traj=8, seed=3,
                    params=params)
    est = estimate_with_error_target(params, 1e-4, base=base, max_n_traj=32)
    assert not est.target_met
    assert est.n_traj_used == 32
