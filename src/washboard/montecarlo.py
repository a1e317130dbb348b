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
a pipe each way; their 2 x ``_CHUNK`` steps take the memory one chunk of
twice that length used to.  On one thread, a force of the ``mc`` benchmark
workload (500 trajectories x 5e4 steps, 2-core Xeon) spends 0.30 s on
Philox fills, 0.04 s on the transposed scaling and 0.48 s on the step
arithmetic; with the helper only the last blocks.  It is a process and not
a thread because the step loop's ufuncs on a few hundred trajectories never
release the GIL: a thread producer made the workload slower (2.55 s
against 2.40 s on one thread), the helper faster (1.45 s).  The helper
fills exactly as the caller would, so results are the same bits with or
without it; where ``os.fork`` does not exist the caller fills each chunk
itself.  Python 3.12 and later warn when a process with threads forks, and
OpenBLAS starts threads at import; that warning was not seen, as only
Python 3.11 was tried.  The same holds for the sweep helpers of
:func:`washboard.cli.run_sweep`: they fork with BLAS pinned to one thread,
but the pin leaves OpenBLAS's idle threads in place.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["McConfig", "McEstimate", "NoiseHelperError", "simulate"]

# Steps of noise per chunk; the helper fills one chunk while the step loop
# reads the other, so the two hold what one chunk of 1024 steps did.  No
# effect on results.
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
    draws_shape = (min(_BLOCK, n), _CHUNK)
    if not hasattr(os, "fork"):
        noise, draws = np.empty((_CHUNK, n)), np.empty(draws_shape)
        for span in spans:
            _fill(gens, noise[:span], draws, noise_amp)
            yield noise[:span]
        return

    slots = np.frombuffer(mmap.mmap(-1, 2 * _CHUNK * n * 8)).reshape(2, _CHUNK, n)
    ready_r, ready_w = os.pipe()    # helper -> caller: chunk c is in slot c % 2
    free_r, free_w = os.pipe()      # caller -> helper: that slot may be refilled
    try:
        pid = os.fork()
    except OSError:
        for fd in (ready_r, ready_w, free_r, free_w):
            os.close(fd)
        raise
    if pid == 0:                    # the helper; it never returns
        status = 1
        try:
            os.close(ready_r)
            os.close(free_w)
            draws = np.empty(draws_shape)
            for c, span in enumerate(spans):
                if c >= 2 and not os.read(free_r, 1):
                    break           # the caller has gone
                _fill(gens, slots[c % 2, :span], draws, noise_amp)
                os.write(ready_w, b"\0")
            status = 0
        except BaseException:
            import sys
            import traceback
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)

    # Without its own copy of ready_w, a helper's exit reads here as EOF.
    os.close(ready_w)
    os.close(free_r)
    try:
        for c, span in enumerate(spans):
            if not os.read(ready_r, 1):
                raise NoiseHelperError(
                    f"noise helper exited before chunk {c} of {len(spans)}")
            yield slots[c % 2, :span]
            if c + 2 < len(spans):
                try:
                    os.write(free_w, b"\0")
                except BrokenPipeError:
                    pass        # the helper has exited; the next read says so
    finally:
        # After the last chunk the helper is exiting anyway; after an error it
        # may be mid-fill, so it is stopped rather than waited for.
        os.kill(pid, signal.SIGKILL)
        os.close(ready_r)
        os.close(free_w)
        os.waitpid(pid, 0)


def simulate(config: McConfig) -> McEstimate:
    """Run the ensemble and estimate (U, D) from endpoint displacements.

    Initial conditions are q ~ uniform[0, L), p ~ N(0, 1/beta), drawn from the
    per-trajectory streams before any path noise.  A non-finite state aborts
    with the offending trajectory index (the usual cause is dt too large).
    ``NoiseHelperError`` means the process filling the noise died; its
    traceback is on standard error.
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
    step = 0
    # A diverging path overflows mid-chunk; the check after the chunk names it.
    with closing(_noise_chunks(gens, config.n_steps, noise_amp)) as chunks, \
            np.errstate(over="ignore", invalid="ignore"):
        for noise in chunks:
            mark = config.n_burnin - step
            for t in range(len(noise)):
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
            step += len(noise)
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
