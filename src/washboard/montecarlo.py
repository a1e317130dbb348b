"""Euler-Maruyama ensemble estimation of the drift and diffusion coefficients.

Integrates  dq = p dt,  dp = (-V'(q) + F - gamma p) dt + sqrt(2 gamma/beta) dW
for an ensemble of trajectories with the semi-implicit (symplectic)
Euler-Maruyama scheme: each step updates p first and then q with the new p,

    p <- p + ((-V'(q) + F) - gamma p) dt + sqrt(2 gamma dt/beta) xi,
    q <- q + p dt,

and estimates

    U ~ mean_k[q_k(T) - q_k(T0)] / (T - T0)
    D ~ var_k [q_k(T) - q_k(T0)] / (2 (T - T0))

from the post-burn-in displacement.  Every trajectory owns a counter-based
random stream keyed by (seed, k), so results are bit-reproducible and
independent of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams

__all__ = ["McConfig", "McEstimate", "simulate", "estimate_with_error_target"]

_CHUNK = 1024   # steps of noise drawn at a time; no effect on results
_BLOCK = 64     # trajectories per block of the noise transpose; no effect either


@dataclass(frozen=True)
class McConfig:
    """Ensemble run configuration."""

    dt: float
    n_steps: int
    n_burnin: int
    n_traj: int
    seed: int
    params: ModelParams

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt * self.params.gamma >= 0.5:
            raise ValueError(
                f"dt*gamma = {self.dt * self.params.gamma:.3g} >= 0.5: unstable"
            )
        if not (self.n_steps > self.n_burnin >= 0):
            raise ValueError("need n_steps > n_burnin >= 0")
        if self.n_traj < 2:
            raise ValueError("need n_traj >= 2 for error bars")


@dataclass(frozen=True)
class McEstimate:
    """Ensemble estimates with across-trajectory standard errors."""

    u_hat: float
    d_hat: float
    stderr_u: float
    stderr_d: float
    n_traj_used: int
    target_met: bool = True


def _streams(seed: int, n_traj: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        for k in range(n_traj)
    ]


def simulate(config: McConfig) -> McEstimate:
    """Run the ensemble and estimate (U, D) from endpoint displacements.

    Initial conditions are q ~ uniform[0, L), p ~ N(0, 1/beta), drawn from the
    per-trajectory streams before any path noise.  A non-finite state aborts
    with the offending trajectory index (the usual cause is dt too large).
    """
    params = config.params
    pot = params.potential
    gamma, beta, force = params.gamma, params.beta, params.force
    L = pot.period
    dt = config.dt
    noise_amp = math.sqrt(2.0 * gamma / beta * dt)

    gens = _streams(config.seed, config.n_traj)
    q = np.array([g.uniform(0.0, L) for g in gens])
    p = np.array([g.normal(0.0, 1.0 / math.sqrt(beta)) for g in gens])

    # Scalars go in as 0-d arrays, which ufuncs take faster than Python
    # floats (same bits).
    force_, gamma_, dt_ = np.array(force), np.array(gamma), np.array(dt)

    n = config.n_traj
    q_mark = np.empty(n)
    acc = np.empty(n)
    work = np.empty(n)
    draws = np.empty((min(_BLOCK, n), _CHUNK))
    noise = np.empty((_CHUNK, n))     # step-major: row t holds step t's kicks
    step = 0
    # A diverging path overflows mid-chunk; the check after the chunk names it.
    with np.errstate(over="ignore", invalid="ignore"):
        while step < config.n_steps:
            span = min(_CHUNK, config.n_steps - step)
            for k0 in range(0, n, _BLOCK):
                block = draws[:min(_BLOCK, n - k0), :span]
                for row, g in zip(block, gens[k0:k0 + _BLOCK]):
                    g.standard_normal(out=row)
                np.multiply(block.T, noise_amp, out=noise[:span, k0:k0 + _BLOCK])
            mark = config.n_burnin - step
            for t in range(span):
                if t == mark:
                    q_mark[:] = q
                # p += ((-V'(q) + F) - gamma p) dt + amp xi;  q += p dt
                pot.derivative(q, out=acc, work=work)
                np.subtract(force_, acc, out=acc)     # F - V' == -V' + F
                np.multiply(p, gamma_, out=work)
                acc -= work
                acc *= dt_
                acc += noise[t]
                p += acc
                np.multiply(p, dt_, out=work)
                q += work
            step += span
            if not np.all(np.isfinite(q)):
                bad = int(np.nonzero(~np.isfinite(q))[0][0])
                raise FloatingPointError(
                    f"trajectory {bad} diverged (non-finite q); reduce dt"
                )

    horizon = (config.n_steps - config.n_burnin) * dt
    disp = q - q_mark
    u_hat = float(disp.mean() / horizon)
    var = float(disp.var(ddof=1))
    d_hat = var / (2.0 * horizon)
    n = config.n_traj
    stderr_u = math.sqrt(var / n) / horizon
    m4 = float(np.mean((disp - disp.mean()) ** 4))
    var_of_var = max((m4 - var * var * (n - 3) / (n - 1)) / n, 0.0)
    stderr_d = math.sqrt(var_of_var) / (2.0 * horizon)
    return McEstimate(u_hat=u_hat, d_hat=d_hat, stderr_u=stderr_u,
                      stderr_d=stderr_d, n_traj_used=n)


def estimate_with_error_target(params: ModelParams, target_rel_stderr: float,
                               base: McConfig | None = None,
                               max_n_traj: int = 32000) -> McEstimate:
    """Double the ensemble size until stderr_U/|U| meets the target.

    Returns the last estimate with ``target_met=False`` if the trajectory cap
    is reached first.  Streams are keyed by trajectory index, so growing the
    ensemble only appends trajectories.
    """
    if not 0.0 < target_rel_stderr < 1.0:
        raise ValueError("target must be in (0, 1)")
    if base is None:
        base = McConfig(dt=0.01, n_steps=50000, n_burnin=1000, n_traj=250,
                        seed=0, params=params)
    else:
        base = replace(base, params=params)
    config = base
    while True:
        est = simulate(config)
        if abs(est.u_hat) > 0 and est.stderr_u / abs(est.u_hat) <= target_rel_stderr:
            return est
        if 2 * config.n_traj > max_n_traj:
            return replace(est, target_met=False)
        config = replace(config, n_traj=2 * config.n_traj)
