"""The solver's own Taylor coefficients as an oracle for the tilt-series chain.

The series U = sum_l V_l F^l and D = sum_l D_l F^l are the Taylor
coefficients of the nonperturbative U(F) and D(F).  ``build_chain`` gets
them from equilibrium Poisson problems; here they come from a Chebyshev fit
of ``solve_transport``'s U and D_primary, solved at nodes
F_j = r cos((j + 1/2) pi / K), and each is compared with the chain's.

On the cosine V0=1, L=1, beta=5, gamma=1 at r = 0.8 and K = 24, the fit's
even U coefficients (zero by symmetry) read about 1e-12, and a (128, 24)
chain misses by 1.3e-10, 1.9e-9 and 1.2e-7 relative in V_1, V_3, V_5 and by
1.4e-10, 2.3e-9 and 6.7e-9 in D_0, D_2, D_4.  Orders above 5 reach the
fit's conditioning, so the check stops there.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from washboard.basis import TruncationSpec
from washboard.cli import FIG_PRESETS
from washboard.expansion import build_chain, diffusion_coefficients
from washboard.model import ModelParams, PeriodicPotential
from washboard.transport import solve_transport

PARAMS = ModelParams(gamma=1.0, beta=5.0, force=0.0,
                     potential=PeriodicPotential.cosine(1.0, 1.0))
RADIUS, NODES = 0.8, 24
# order l: relative bar on V_l, and on D_{l-1}
BARS = {1: 1e-9, 3: 1e-8, 5: 1e-6}

[(_, _FIG4, _)] = [e for e in FIG_PRESETS["fig4"] if e[2] == "gamma1"]
FIG4_TRUNC = (_FIG4["trunc"]["n_hermite"], _FIG4["trunc"]["n_fourier"])


@pytest.fixture(scope="module")
def solver_taylor():
    """Taylor coefficients of the solver's U(F) and D_primary(F), from 0."""
    forces = RADIUS * np.cos((np.arange(NODES) + 0.5) * np.pi / NODES)
    results = [solve_transport(PARAMS.with_force(float(f)), TruncationSpec(64, 32),
                               adaptive=True) for f in forces]

    def taylor(values):
        fit = chebyshev.chebfit(forces / RADIUS, values, NODES - 1)
        return chebyshev.cheb2poly(fit) / RADIUS ** np.arange(NODES)

    return (taylor([r.drift for r in results]),
            taylor([r.d_primary for r in results]))


def test_fit_noise_is_below_the_bars(solver_taylor):
    # the even drift coefficients vanish on a symmetric potential, so what
    # the fit gives there is its noise, next to the odd coefficient above
    u, _ = solver_taylor
    for order, bar in BARS.items():
        assert abs(u[order - 1]) <= 0.1 * bar * abs(u[order])


@pytest.mark.parametrize("trunc", [
    (128, 24),
    pytest.param(FIG4_TRUNC, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 4: the chain at the fig4/fig5/series truncation "
               "misses every coefficient by 7e-6 to 1e-5")),
], ids=["128x24", "fig4"])
def test_chain_matches_the_solver_taylor_coefficients(solver_taylor, trunc):
    u, d = solver_taylor
    chain = build_chain(PARAMS, TruncationSpec(*trunc), max(BARS))
    d_chain = diffusion_coefficients(chain).d_series_full
    misses = {}
    for order, bar in BARS.items():
        misses[f"V_{order}"] = abs(chain.v[order] - u[order]) / abs(u[order]), bar
        misses[f"D_{order - 1}"] = \
            abs(d_chain[order - 1] - d[order - 1]) / abs(d[order - 1]), bar
    assert all(miss <= bar for miss, bar in misses.values()), misses
