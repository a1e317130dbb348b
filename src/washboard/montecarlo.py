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

Who draws the noise.  The caller draws the initial conditions, then forks
one helper process that owns the streams from there on and fills the path
noise chunk by chunk, while the caller steps through the chunk before.  The
two chunks live in an anonymous shared ``mmap`` and are handed over through
a pipe each way; their 2 x ``_CHUNK`` steps take 4 MB at 500 trajectories.
On one thread, a force of the ``mc`` benchmark workload (500 trajectories x
5e4 steps, 2-vCPU Xeon) spends 0.41 s on Philox fills, 0.05 s on the
transposed scaling and about 0.55 s on the step arithmetic.  With the
helper the two sides overlap and nearly balance: the workload's three forces
took 2.04 s, and 1.90 s with no step arithmetic at all (medians of 6), so
the helper's fill is what bounds a cut on the step side.  It is a process
and not a thread because the step loop's ufuncs on a few hundred
trajectories never release the GIL: a thread producer made the workload
slower (2.39-2.43 s against 2.29 s on one thread), the helper faster
(1.32 s).  The helper fills exactly as the caller would, so results are the
same bits with or without it; where no helper can be started the caller
fills each chunk itself.  :mod:`washboard._fork` forks the helper and states
the caveats.
"""

from __future__ import annotations

import math
import mmap
import os
from contextlib import closing, suppress
from dataclasses import dataclass, replace

import numpy as np

from ._fork import forked
from .model import ModelParams, _scalar

__all__ = ["McConfig", "McEstimate", "NoiseHelperError", "simulate"]

# Steps of noise per chunk; the helper fills one chunk while the step loop
# reads the other.  No effect on results.  1024 halves the helper's
# standard_normal calls, but its transposed scaling then runs slower than
# the calls save, and the whole ran about 2% slower with 4 MB more of slots.
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


def _streams(seed: int, n_traj: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
        for k in range(n_traj)
    ]


class NoiseHelperError(RuntimeError):
    """The process filling the path noise ended before its last chunk."""


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


def _noise_chunks(gens: list[np.random.Generator], n_steps: int, noise_amp: float):
    """Yield the path noise of ``n_steps`` steps in step-major chunks.

    A chunk stays valid until the next one is asked for.  Close the generator
    when done with it early: that stops the helper process.
    """
    n = len(gens)
    spans = [min(_CHUNK, n_steps - s) for s in range(0, n_steps, _CHUNK)]
    slots = np.frombuffer(mmap.mmap(-1, 2 * _CHUNK * n * 8)).reshape(2, _CHUNK, n)
    draws = np.empty((min(_BLOCK, n), _CHUNK))

    def helper(free_r, ready_w):
        # chunk c goes into slot c % 2, once the caller has freed that slot
        for c, span in enumerate(spans):
            if c >= 2 and not os.read(free_r, 1):
                return              # the caller has gone
            _fill(gens, slots[c % 2, :span], draws, noise_amp)
            os.write(ready_w, b"\0")

    with forked(helper) as ends:
        for c, span in enumerate(spans):
            if ends is None:        # no helper: fill each chunk here
                _fill(gens, slots[c % 2, :span], draws, noise_amp)
            elif not os.read(ends[0], 1):
                raise NoiseHelperError(
                    f"noise helper exited before chunk {c} of {len(spans)}")
            yield slots[c % 2, :span]
            if ends is not None and c + 2 < len(spans):
                with suppress(BrokenPipeError):     # the next read says it died
                    os.write(ends[1], b"\0")


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
    A non-finite state aborts with the offending trajectory index (the usual
    cause is dt too large).  ``NoiseHelperError`` means the process filling
    the noise died; its traceback is on standard error.
    """
    params = config.params
    pot = params.potential
    gamma, beta, force = params.gamma, params.beta, params.force
    dt = config.dt
    dt2 = dt * dt
    noise_amp = math.sqrt(2.0 * gamma / beta * dt)

    gens = _streams(config.seed, config.n_traj)
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

    n = config.n_traj
    q_mark = np.empty(n)
    acc = np.empty(n)
    work = np.empty(n)

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

    step = 0
    # A diverging path overflows mid-chunk; the check after the chunk names it.
    with closing(_noise_chunks(gens, config.n_steps, noise_amp * dt)) as chunks, \
            np.errstate(over="ignore", invalid="ignore"):
        for noise in chunks:
            mark = config.n_burnin - step
            step += len(noise)
            if 0 <= mark < len(noise):      # the burn-in ends in this chunk
                advance(noise[:mark])
                q_mark[:] = q
                noise = noise[mark:]
            advance(noise)
            if not np.all(np.isfinite(q)):
                bad = int(np.nonzero(~np.isfinite(q))[0][0])
                raise FloatingPointError(
                    f"trajectory {bad} diverged (non-finite q); reduce dt"
                )

    return _estimate(q - q_mark, (config.n_steps - config.n_burnin) * dt)
