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

Who runs which trajectories.  :func:`washboard._fork.fanned_out` cuts the
trajectories 0..n_traj-1 into one contiguous block per CPU of its budget,
steps the first block in this process and each other one in a forked
helper.  Inside a helper of a split sweep (:func:`washboard.cli.run_sweep`),
or in the sweep process beside one on 2 CPUs, that budget is one CPU and the
ensemble is stepped as one block, to the same bits.  A
block draws its own initial conditions, then fills its path noise inline,
chunk by chunk, from its own streams and steps through each chunk, so the
fill and the steps of each block sit on that block's CPU.  Each trajectory's
stream and steps are its own (every step is elementwise), so its bits, and
the estimates, are the same at any block count, and where no helper can be
started the block is stepped here.  It is processes and not threads because
the step loop's ufuncs on a few hundred trajectories never release the GIL:
a thread producer of the noise made the ``mc`` benchmark workload slower
(2.39-2.43 s against 2.29 s on one thread).  :mod:`washboard._fork` states
the caveats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _fork
from .model import ModelParams, _scalar

__all__ = ["McConfig", "McEstimate", "simulate"]

# Steps of noise per chunk, filled and then stepped through.  No effect on
# results.
_CHUNK = 512
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Ensemble estimates with across-trajectory standard errors."""

    u_hat: float
    d_hat: float
    stderr_u: float
    stderr_d: float
    n_traj_used: int


def _streams(seed: int, ks: range) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        for k in ks
    ]


def _fill(gens: list[np.random.Generator], noise: np.ndarray, draws: np.ndarray,
          noise_amp: float) -> None:
    """Fill ``noise`` (steps x trajectories) with every stream's next kicks.

    Each stream draws its steps in one call into a row of ``draws``; a block
    of rows is then scaled and transposed into step-major order.
    """
    span, n = noise.shape
    for k0 in range(0, n, _BLOCK):
        block = draws[:min(_BLOCK, n - k0), :span]
        for row, g in zip(block, gens[k0:k0 + _BLOCK]):
            g.standard_normal(out=row)
        np.multiply(block.T, noise_amp, out=noise[:, k0:k0 + _BLOCK])


def _estimate(disp: np.ndarray, horizon: float) -> McEstimate:
    """(U, D) and their standard errors from the displacements over ``horizon``."""
    n = len(disp)
    u_hat = float(disp.mean() / horizon)
    var = float(disp.var(ddof=1))
    d_hat = var / (2.0 * horizon)
    stderr_u = math.sqrt(var / n) / horizon
    m4 = float(np.mean((disp - disp.mean()) ** 4))
    var_of_var = max((m4 - var * var * (n - 3) / (n - 1)) / n, 0.0)
    stderr_d = math.sqrt(var_of_var) / (2.0 * horizon)
    return McEstimate(u_hat=u_hat, d_hat=d_hat, stderr_u=stderr_u,
                      stderr_d=stderr_d, n_traj_used=n)


def simulate(config: McConfig) -> McEstimate:
    """Run the ensemble and estimate (U, D) from endpoint displacements.

    Initial conditions are q ~ uniform[0, L), p ~ N(0, 1/beta), drawn from the
    per-trajectory streams before any path noise.  The loop carries the
    velocity increment v = p dt, from v_0 = p_0 dt, and steps

        v <- (1 - gamma dt) v - dt^2 V'(q) + F dt^2 + sqrt(2 gamma dt/beta) dt xi,
        q <- q + v,

    the scheme of the module docstring in exact arithmetic, in fewer
    operations; its estimates differ from the momentum form's by roundoff.
    A non-finite state raises ``FloatingPointError`` naming the offending
    trajectory by its index in the ensemble (the usual cause is dt too
    large); when it happens in a helper's block, the helper's traceback is
    on standard error and the block is stepped again here to raise it.
    The blocks are the module docstring's: one per CPU of the fan-out
    budget, so one block inside a split sweep on 2 CPUs.
    """
    with _fork.fanned_out(functools.partial(_displacements, config),
                          range(config.n_traj)) as gather:
        disp = np.concatenate(gather())
    return _estimate(disp, (config.n_steps - config.n_burnin) * config.dt)


def _displacements(config: McConfig, ks: range) -> np.ndarray:
    """q(T) - q(T0) of the trajectories ``ks``, stepped as :func:`simulate`
    says, with the noise filled and stepped through chunk by chunk."""
    params = config.params
    pot = params.potential
    gamma, beta, force = params.gamma, params.beta, params.force
    dt = config.dt
    dt2 = dt * dt
    noise_amp = math.sqrt(2.0 * gamma / beta * dt)

    gens = _streams(config.seed, ks)
    q = np.array([g.uniform(0.0, pot.period) for g in gens])
    v = np.array([g.normal(0.0, 1.0 / math.sqrt(beta)) for g in gens]) * dt

    # -dt^2 V' is V' of the potential with its coefficients scaled by -dt^2.
    # Scalars go in as read-only 0-d arrays, which ufuncs take faster than
    # Python floats (same bits).  V' and the ufuncs are looked up once and
    # take ``out`` positionally, which they also parse faster.
    kick = replace(pot, cos_coeffs=[-dt2 * c for c in pot.cos_coeffs],
                   sin_coeffs=[-dt2 * s for s in pot.sin_coeffs]).derivative
    damp_, drift_ = _scalar(1.0 - gamma * dt), _scalar(force * dt2)
    mul, add = np.multiply, np.add

    n = len(ks)
    q_mark = np.empty(n)
    acc = np.empty(n)
    work = np.empty(n)
    chunk = np.empty((_CHUNK, n))
    draws = np.empty((min(_BLOCK, n), _CHUNK))

    def advance(rows):
        """One step of every trajectory per row of noise."""
        for xi in rows:
            # v = (1 - gamma dt) v + (-dt^2 V'(q) + F dt^2) + amp dt xi;  q += v
            kick(q, acc, work)
            add(acc, drift_, acc)
            mul(v, damp_, v)
            add(v, acc, v)
            add(v, xi, v)
            add(q, v, q)

    # A diverging path overflows mid-chunk; the check after the chunk names it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(0, config.n_steps, _CHUNK):
            noise = chunk[:min(_CHUNK, config.n_steps - step)]
            _fill(gens, noise, draws, noise_amp * dt)
            mark = config.n_burnin - step
            if 0 <= mark < len(noise):      # the burn-in ends in this chunk
                advance(noise[:mark])
                q_mark[:] = q
                noise = noise[mark:]
            advance(noise)
            if not np.all(np.isfinite(q)):
                bad = ks[int(np.nonzero(~np.isfinite(q))[0][0])]
                raise FloatingPointError(
                    f"trajectory {bad} diverged (non-finite q); reduce dt"
                )

    return q - q_mark
