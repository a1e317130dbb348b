"""The Monte Carlo step loop in momentum form, the reference for ``simulate``.

``washboard.montecarlo.simulate`` carries the velocity increment v = p dt.
This is the semi-implicit Euler-Maruyama loop it replaced, which carries p:

    p <- p + ((-V'(q) + F) - gamma p) dt + sqrt(2 gamma dt/beta) xi,
    q <- q + p dt.

It draws the initial conditions and the path noise from the same
per-trajectory streams, all steps at once, and steps every trajectory
through the whole path in one loop.  In exact arithmetic the two loops are
the same scheme, so their estimates agree up to roundoff.
"""

import math

import numpy as np

from washboard.montecarlo import McConfig, McEstimate, _estimate, _streams


def simulate_p_form(config: McConfig) -> McEstimate:
    """``simulate``'s estimates from the momentum-form step loop."""
    params = config.params
    pot = params.potential
    gamma, beta, force, dt = params.gamma, params.beta, params.force, config.dt
    noise_amp = math.sqrt(2.0 * gamma / beta * dt)

    gens = _streams(config.seed, config.n_traj)
    q = np.array([g.uniform(0.0, pot.period) for g in gens])
    p = np.array([g.normal(0.0, 1.0 / math.sqrt(beta)) for g in gens])
    draws = np.array([g.standard_normal(config.n_steps) for g in gens])
    noise = np.multiply(draws.T, noise_amp)

    q_mark = q.copy()
    for step, xi in enumerate(noise):
        if step == config.n_burnin:
            q_mark = q.copy()
        acc = force - pot.derivative(q)
        acc = acc - p * gamma
        acc = acc * dt
        acc = acc + xi
        p = p + acc
        q = q + p * dt
    return _estimate(q - q_mark, (config.n_steps - config.n_burnin) * dt)
