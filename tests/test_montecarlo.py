import errno
import os
import signal
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

from washboard import montecarlo
from washboard.model import ModelParams, PeriodicPotential
from washboard.basis import TruncationSpec
from washboard.montecarlo import McConfig, NoiseHelperError, simulate
from washboard.transport import solve_transport

from mc_reference import simulate_p_form


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
    with pytest.raises(ValueError, match="seed"):
        McConfig(dt=0.01, n_steps=100, n_burnin=10, n_traj=10, seed=-1, params=params)


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


def _diverging():
    params = ModelParams(gamma=0.5, beta=1.0, force=1e308,
                         potential=PeriodicPotential(period=2 * np.pi))
    return McConfig(dt=0.01, n_steps=2000, n_burnin=0, n_traj=4, seed=0,
                    params=params)


def test_divergence_reports_trajectory():
    # A real overflow, not a mocked force: under the suite's
    # error::RuntimeWarning filter it must still surface as the documented error.
    with pytest.raises(FloatingPointError, match="trajectory 0"):
        simulate(_diverging())


_FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_FORK
def test_noise_helper_is_reaped():
    simulate(McConfig(dt=0.01, n_steps=3000, n_burnin=100, n_traj=8, seed=1,
                      params=_cos151(1.0)))
    _assert_no_child()
    # the traceback held here keeps simulate's frame, and its noise source, alive
    with pytest.raises(FloatingPointError) as diverged:
        simulate(_diverging())
    _assert_no_child()
    assert diverged.tb is not None


@_FORK
def test_noise_helper_failure_raises(monkeypatch, capfd):
    fill = montecarlo._fill
    filled = []

    def fill_once(*args):
        if filled:
            raise RuntimeError("injected fill failure")
        filled.append(True)
        fill(*args)

    def hung(signum, frame):
        raise TimeoutError("simulate waited on a dead noise helper")

    monkeypatch.setattr(montecarlo, "_fill", fill_once)
    monkeypatch.setattr(montecarlo, "_CHUNK", 100)
    config = McConfig(dt=0.01, n_steps=1000, n_burnin=0, n_traj=4, seed=0,
                      params=_cos151(1.0))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(NoiseHelperError, match="before chunk 1 of 10"):
            simulate(config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "injected fill failure" in capfd.readouterr().err
    _assert_no_child()


@_FORK
def test_noise_helper_gone_before_the_slot_is_freed(monkeypatch, capfd):
    # a caller slower than the failing helper frees chunk 0's slot into a
    # pipe nobody reads; that is the helper's failure, not a broken pipe
    fill = montecarlo._fill
    filled = []

    def fill_once(*args):
        if filled:
            raise RuntimeError("injected fill failure")
        filled.append(True)
        fill(*args)

    chunks = montecarlo._noise_chunks

    def slow_caller(*args):
        with closing(chunks(*args)) as inner:
            for noise in inner:
                yield noise
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)   # helper exited

    monkeypatch.setattr(montecarlo, "_fill", fill_once)
    monkeypatch.setattr(montecarlo, "_noise_chunks", slow_caller)
    monkeypatch.setattr(montecarlo, "_CHUNK", 100)
    config = McConfig(dt=0.01, n_steps=1000, n_burnin=0, n_traj=4, seed=0,
                      params=_cos151(1.0))
    with pytest.raises(NoiseHelperError, match="before chunk 1 of 10"):
        simulate(config)
    assert "injected fill failure" in capfd.readouterr().err
    _assert_no_child()


@pytest.fixture(params=["fork", "inline"])
def noise_path(request, monkeypatch):
    """Noise from the forked helper, or filled inline as where os.fork is missing."""
    if request.param == "inline":
        monkeypatch.delattr(os, "fork")
    elif not hasattr(os, "fork"):
        pytest.skip("no os.fork here")
    return request.param


def _multi(force):
    return ModelParams(gamma=0.7, beta=2.0, force=force,
                       potential=PeriodicPotential(period=2.0,
                                                   cos_coeffs=(0.8, 0.0, -0.3),
                                                   sin_coeffs=(0.0, 0.25, 0.1),
                                                   offset=1.5))


def _sine(force):
    # its first nonzero term is a sine term, which V' writes straight into out
    return ModelParams(gamma=0.8, beta=3.0, force=force,
                       potential=PeriodicPotential(period=1.5,
                                                   sin_coeffs=(0.6, 0.0, -0.2)))


# The pinned cases: n_steps=5000 is not a multiple of the noise chunk, and
# the burn-in mark falls before the first step (0), inside the first chunk
# (77..300) or on a chunk boundary (512, with _CHUNK = 512).
# tests/regen_mc_goldens.py prints their estimates.
GOLDEN_CASES = [
    (_cos151(1.0), 0), (_cos151(1.0), 300), (_multi(0.6), 0), (_multi(-0.4), 123),
    (_free(gamma=0.5, force=2.0), 0), (_free(gamma=0.5, force=2.0), 77),
    (_sine(0.4), 0), (_cos151(1.0), 512),
]


def golden_config(params, burnin, n_steps=5000):
    return McConfig(dt=0.01, n_steps=n_steps, n_burnin=burnin, n_traj=16, seed=7,
                    params=params)


# Exact estimates (u_hat, d_hat, stderr_u, stderr_d, n_traj_used) of the
# velocity-form step loop.  They differ from the momentum form's by
# roundoff grown over 5000 steps, at most 6.9e-7 relative (the sine case;
# the others by at most 1.8e-8); test_velocity_form_is_the_momentum_form
# holds the two forms together at 1000 steps.
_GOLDEN_VALUES = [
    (0.005381204064844809, 0.01570860109120179, 0.0062666979126174945,
     0.011173725497915432, 16),
    (0.0026924897776085125, 0.0017732482067112153, 0.0021716550499899494,
     0.001397739560491183, 16),
    (0.10101381900634981, 0.2139568635854822, 0.023127735707667223,
     0.06938422243893784, 16),
    (-0.020179258706588345, 0.09213197960820421, 0.015366813841003685,
     0.064581177931899, 16),
    (3.8032655511634936, 1.7648638771538563, 0.06642408970309371,
     0.4483118412402953, 16),
    (3.8514979091449315, 1.8312528891463264, 0.06818898878123453,
     0.47465607203480364, 16),
    (0.015536531009386585, 0.045525736252127844, 0.010668380412711183,
     0.019795273407685818, 16),
    (0.000558437946410724, 0.00014591478959659438, 0.0006374971374507452,
     4.4759632327233776e-05, 16),
]
_GOLDEN = [(params, burnin, expected)
           for (params, burnin), expected in zip(GOLDEN_CASES, _GOLDEN_VALUES)]


@pytest.mark.parametrize("params, burnin, expected", _GOLDEN)
def test_estimates_bit_pinned(params, burnin, expected):
    est = simulate(golden_config(params, burnin))
    assert (est.u_hat, est.d_hat, est.stderr_u, est.stderr_d,
            est.n_traj_used) == expected


@pytest.mark.parametrize("params, burnin", GOLDEN_CASES)
def test_velocity_form_is_the_momentum_form(params, burnin):
    # the same scheme as the momentum-form loop it replaced, up to roundoff
    config = golden_config(params, min(burnin, 500), n_steps=1000)
    est, ref = simulate(config), simulate_p_form(config)
    got = (est.u_hat, est.d_hat, est.stderr_u, est.stderr_d)
    want = (ref.u_hat, ref.d_hat, ref.stderr_u, ref.stderr_d)
    assert est.n_traj_used == ref.n_traj_used
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("params, burnin, expected", _GOLDEN)
def test_estimates_bit_pinned_without_fork(monkeypatch, params, burnin, expected):
    monkeypatch.delattr(os, "fork")
    test_estimates_bit_pinned(params, burnin, expected)


@_FORK
@pytest.mark.parametrize("call, err", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork", "pipe"])
@pytest.mark.parametrize("params, burnin, expected", _GOLDEN)
def test_estimates_bit_pinned_when_no_helper_starts(monkeypatch, call, err, params,
                                                    burnin, expected):
    # no helper process can be made: the caller fills the noise itself
    def fail():
        raise OSError(err, os.strerror(err))

    monkeypatch.setattr(os, call, fail)
    test_estimates_bit_pinned(params, burnin, expected)
    _assert_no_child()


@pytest.mark.parametrize("params", [_cos151(1.0), _multi(0.6)])
def test_chunk_size_has_no_effect(monkeypatch, params, noise_path):
    config = McConfig(dt=0.01, n_steps=600, n_burnin=50, n_traj=10, seed=3,
                      params=params)
    reference = simulate(config)
    for size in (1, 7, 4096):
        monkeypatch.setattr(montecarlo, "_CHUNK", size)
        monkeypatch.setattr(montecarlo, "_BLOCK", size)
        assert simulate(config) == reference



@pytest.mark.parametrize("burnin", [0, 512, 700])
def test_one_derivative_call_per_step(monkeypatch, burnin):
    # the step loop evaluates V' once a step, however the burn-in mark
    # splits the noise chunks
    derivative = PeriodicPotential.derivative
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(None)
        return derivative(self, *args, **kwargs)

    monkeypatch.setattr(PeriodicPotential, "derivative", counted)
    simulate(McConfig(dt=0.01, n_steps=1234, n_burnin=burnin, n_traj=4, seed=0,
                      params=_cos151(1.0)))
    assert len(calls) == 1234
