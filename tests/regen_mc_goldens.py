"""Print the Monte Carlo reference estimates of ``tests/test_montecarlo.py``.

    PYTHONPATH=src python tests/regen_mc_goldens.py

runs ``simulate`` on every case of ``GOLDEN_CASES`` and prints the
``_GOLDEN_VALUES`` list of their exact estimates, to paste over the one in
that file.  A change that moves these estimates reruns this script and
states in CHANGES.md how far each value moved and why.
"""

from __future__ import annotations

from washboard.montecarlo import simulate

from test_montecarlo import GOLDEN_CASES, golden_config


def golden_values() -> list[tuple]:
    """(u_hat, d_hat, stderr_u, stderr_d, n_traj_used) of every golden case."""
    values = []
    for params, burnin in GOLDEN_CASES:
        est = simulate(golden_config(params, burnin))
        values.append((est.u_hat, est.d_hat, est.stderr_u, est.stderr_d,
                       est.n_traj_used))
    return values


if __name__ == "__main__":
    print("_GOLDEN_VALUES = [")
    for u, d, su, sd, n in golden_values():
        print(f"    ({u!r}, {d!r}, {su!r},\n     {sd!r}, {n}),")
    print("]")
