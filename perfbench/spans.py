"""Span recorder that instruments ``washboard`` from outside.

Nothing under ``src/`` knows about it: ``install`` replaces each traced
function with a wrapper in every ``washboard`` module namespace that holds
it (so ``from .transport import solve_transport`` in ``cli`` is patched where
``cli`` looks it up), and each traced method on its class.  Spans stay in
memory and are written once, by ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    point: float | None
    attrs: dict | None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _n_in(args, kwargs, out):
    return {"n_hermite": args[1].n_hermite}


def _n_out(args, kwargs, out):
    return {"n_hermite": out.n_hermite}


def _steps(args, kwargs, out):
    config = args[0]
    return {"particle_steps": config.n_steps * config.n_traj}


# (module, attribute, span name, attribute extractor); a dotted attribute is
# a method on a class of that module.
TARGETS = [
    ("transport", "solve_transport", "transport.solve_transport", _n_out),
    ("transport", "solve_stationary_fp", "transport.solve_stationary_fp", _n_in),
    ("transport", "compute_diffusion", "transport.compute_diffusion", None),
    ("basis", "hermite_table", "basis.hermite_table", None),
    ("expansion", "build_chain", "expansion.build_chain", None),
    ("expansion", "assemble_generator", "expansion.assemble_generator", None),
    ("expansion", "EquilibriumPoissonSolver.solve", "expansion.poisson_solve", None),
    ("expansion", "diffusion_coefficients", "expansion.diffusion_coefficients", None),
    ("montecarlo", "simulate", "montecarlo.simulate", _steps),
    ("model", "PeriodicPotential.derivative", "model.derivative", None),
]


class Recorder:
    """Collects spans (name, start, end, parent, workload, point) in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.point = None
        return self._local.stack

    def wrap(self, name: str, fn, attrs_fn=None, parent: int | None = None,
             point_arg: bool = False):
        """``fn`` recording one span per call.

        ``parent`` overrides the calling thread's current span (for work
        handed to another thread); ``point_arg`` labels the span and its
        children with the call's first argument, the sweep value.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            up = parent if parent is not None else (stack[-1] if stack else None)
            outer_point = self._local.point
            if point_arg:
                self._local.point = float(args[0])
            stack.append(sid)
            out, start = None, time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs_fn(args, kwargs, out) if attrs_fn and out is not None else None
                self.spans.append(Span(sid, name, start, end, up, self.workload,
                                       self._local.point, extra))
                self._local.point = outer_point
        return wrapper

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def install(recorder: Recorder) -> None:
    """Patch every traced function of the imported ``washboard`` package."""
    import washboard.cli as cli

    modules = [m for n, m in list(sys.modules.items())
               if n == "washboard" or n.startswith("washboard.")]
    for mod_name, attr, span_name, attrs_fn in TARGETS:
        mod = sys.modules[f"washboard.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, recorder.wrap(span_name, getattr(cls, meth), attrs_fn))
            continue
        original = getattr(mod, attr)
        wrapper = recorder.wrap(span_name, original, attrs_fn)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapper)

    run_sweep = cli.run_sweep

    def traced_run_sweep(point_fn, values, workers=4):
        sweep = recorder.current()
        point = recorder.wrap("cli.point", point_fn, parent=sweep, point_arg=True)
        return run_sweep(point, values, workers)

    cli.run_sweep = recorder.wrap("cli.run_sweep",
                                  functools.wraps(run_sweep)(traced_run_sweep))


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced repetition
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 11:
        return None
    return int(100 * (n - 10) // n)


def _percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, -(-pct * len(xs) // 100))
    return xs[rank - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Busy seconds and call counts at each traced boundary.

    A layer that did not run reports 0 for its times, counts and ratios.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum((s.dur for s in by_name.get(name, ())), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    solves = by_name.get("transport.solve_transport", [])
    stationary = by_name.get("transport.solve_stationary_fp", [])
    solve_n = {s.id: s.attrs["n_hermite"] for s in solves if s.attrs}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    useful = sum(s.dur for s in stationary
                 if s.attrs and solve_n.get(s.parent) == s.attrs["n_hermite"])
    durs = [s.dur for s in solves]
    tail = tail_percentile(len(durs))
    sweep_s = busy("cli.run_sweep")
    sim_s = busy("montecarlo.simulate")
    steps = sum(s.attrs["particle_steps"] for s in by_name.get("montecarlo.simulate", ())
                if s.attrs)
    return {
        "transport.solve_s": busy("transport.solve_transport"),
        "transport.solve_calls": calls("transport.solve_transport"),
        "transport.point_p50_s": statistics.median(durs) if durs else 0.0,
        "transport.point_tail_s": _percentile(durs, tail) if tail else 0.0,
        "transport.stationary_s": busy("transport.solve_stationary_fp"),
        "transport.cell_s": sum(s.dur - child_time.get(s.id, 0.0) for s in solves),
        "transport.diffusion_s": busy("transport.compute_diffusion"),
        "transport.discarded_truncations": len(stationary) - len(solves),
        "transport.useful_ratio": useful / busy("transport.solve_stationary_fp")
        if stationary else 0.0,
        "basis.hermite_table_s": busy("basis.hermite_table"),
        "basis.hermite_table_calls": calls("basis.hermite_table"),
        "expansion.build_chain_s": busy("expansion.build_chain"),
        "expansion.assemble_s": busy("expansion.assemble_generator"),
        "expansion.assemble_calls": calls("expansion.assemble_generator"),
        "expansion.poisson_solves": calls("expansion.poisson_solve"),
        "expansion.coefficients_s": busy("expansion.diffusion_coefficients"),
        "cli.run_sweep_s": sweep_s,
        "cli.concurrency": busy("cli.point") / sweep_s if sweep_s else 0.0,
        "montecarlo.simulate_s": sim_s,
        "montecarlo.particle_steps": steps,
        "montecarlo.particle_steps_per_s": steps / sim_s if sim_s else 0.0,
        "model.derivative_s": busy("model.derivative"),
        "model.derivative_calls": calls("model.derivative"),
    }


COUNTS = ("transport.solve_calls", "transport.discarded_truncations",
          "basis.hermite_table_calls", "expansion.assemble_calls",
          "expansion.poisson_solves", "montecarlo.particle_steps",
          "model.derivative_calls")
