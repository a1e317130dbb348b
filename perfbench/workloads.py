"""Inputs of the benchmark workloads, generated from the seed.

Every parameter is written out here instead of being read from the CLI's
figure presets, so a later edit to a preset cannot change a workload.  At
seed 0 the sweeps equal the presets they reproduce (fig1; fig4/fig5).

The seed moves each sweep's force grid by a fraction f in [0, 1/10) of one
grid step, drawn per sweep (f = 0 at seed 0).  One end of the sweep comes in
by f steps and the points between move in proportion; the other end, which
holds the point the workload is built around, stays: F = 0 in ``series``
(the Einstein check) and 2.2 F_c in ``underdamped`` (the large-tilt end of
fig1, where moving the point by a hundredth of F_c decides whether the
gamma=0.01 solve returns at N=2048 or fails at N=4096).
The seed also keys the Monte Carlo streams.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("underdamped", "series", "mc")

# Largest seeded grid move, in grid steps.  Some rows sit on the edge of a
# check (the dual-D bar at gamma=0.1 near 0.9 F_c and at gamma=1 near
# 2.01 F_c): a move of half a step flips them and swings ok_points_per_s by
# 7% from seed to seed.
MAX_FRAC = 0.1


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, JSON config, and what the checker needs."""

    name: str
    command: str                   # transport | expand | mc
    config: dict
    forces: tuple[float, ...]      # forces the rows must carry, in order
    meta: dict = field(default_factory=dict)


def _grid(lo: float, hi: float, count: int, frac: float,
          keep: str) -> tuple[float, float, list[float]]:
    """Sweep bounds with the end other than ``keep`` pulled in by ``frac`` steps."""
    pull = frac * (hi - lo) / (count - 1)
    if keep == "lo":
        hi -= pull
    else:
        lo += pull
    step = (hi - lo) / (count - 1)
    return lo, hi, [lo + i * step for i in range(count - 1)] + [hi]


def _underdamped(rng: random.Random, seed: int) -> list[Call]:
    v0 = math.pi ** 2 / 16.0
    beta = 1.2 / v0
    calls = []
    for gamma in (0.01, 0.1, 1.0):
        fc = 3.36 * gamma * math.sqrt(v0)
        frac = 0.0 if seed == 0 else rng.uniform(0.0, MAX_FRAC)
        lo, hi, forces = _grid(0.1 * fc, 2.2 * fc, 12, frac, keep="hi")
        cfg = {
            "gamma": gamma, "beta": beta, "force": 0.0,
            "potential": {"L": 2.0 * math.pi, "cos": [v0], "sin": []},
            "trunc": {"n_hermite": 256 if gamma < 0.05 else 64, "n_fourier": 24},
            "sweep": {"variable": "force", "min": lo, "max": hi, "count": 12},
            "scale": True, "adaptive": True,
        }
        calls.append(Call(f"gamma{gamma}", "transport", cfg, tuple(forces),
                          {"gamma": gamma, "beta": beta, "fc": fc}))
    return calls


def _series(rng: random.Random, seed: int) -> list[Call]:
    calls = []
    for gamma, order, orders in ((1.0, 9, [1, 5, 9]), (50.0, 5, [1, 3, 5]),
                                 (50.0, 7, [3, 7])):
        frac = 0.0 if seed == 0 else rng.uniform(0.0, MAX_FRAC)
        lo, hi, forces = _grid(0.0, 1.2, 13, frac, keep="lo")
        cfg = {
            "gamma": gamma, "beta": 5.0, "force": 0.0,
            "potential": {"L": 1.0, "cos": [1.0], "sin": []},
            "trunc": {"n_hermite": 64, "n_fourier": 24},
            "sweep": {"variable": "force", "min": lo, "max": hi, "count": 13},
            "order": order, "orders": orders, "adaptive": True,
        }
        calls.append(Call(f"gamma{gamma:g}_order{order}", "expand", cfg,
                          tuple(forces), {"gamma": gamma, "beta": 5.0}))
    return calls


# Criterion 12's model with half its steps: about 2.5 s per force.  At 2e4
# steps after a 1e3-step burn-in, F=0.5's D (carried by a few barrier hops)
# missed 4 standard errors at one seed in five and F=2's U sat about 2
# standard errors high; at 5e4 after 2e3 no |z| exceeded 2.4 over 8 seeds.
MC_STEPS = 50000
MC_BURNIN = 2000


def _mc(rng: random.Random, seed: int) -> list[Call]:
    calls = []
    for force in (0.5, 1.0, 2.0):
        cfg = {
            "gamma": 1.0, "beta": 5.0, "force": 0.0,
            "potential": {"L": 1.0, "cos": [1.0], "sin": []},
            "sweep": {"variable": "force", "min": force, "max": force, "count": 1},
            "mc": {"dt": 0.01, "n_steps": MC_STEPS, "n_burnin": MC_BURNIN,
                   "n_traj": 500, "seed": seed},
        }
        calls.append(Call(f"F{force:g}", "mc", cfg, (force,),
                          {"gamma": 1.0, "beta": 5.0, "L": 1.0, "cos": [1.0]}))
    return calls


_PLANS = {"underdamped": _underdamped, "series": _series, "mc": _mc}


def plan(workload: str, seed: int) -> list[Call]:
    """The calls of one workload; the same seed gives the same calls."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return _PLANS[workload](random.Random(seed), seed)
