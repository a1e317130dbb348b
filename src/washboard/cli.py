"""Batch front-end: parameter sweeps to CSV for the standard figure layouts.

Subcommands
-----------
transport       sweep F or gamma, nonperturbative U and D
expand          spectral U/D against truncated tilt-series overlays
overdamped      overdamped solver vs the drift quadrature oracle
mc              Euler-Maruyama ensemble estimates
einstein-check  D vs (1/beta) dU/dF, with dU/dF the exact mobility of each solve
fig             presets encoding the standard figure parameter sets

Configuration is a JSON file (``--config``) with flat keys overridable by
flags; all quantities are in the problem's nondimensional units, and a key
the config does not know inside ``potential``, ``trunc``, ``sweep`` or ``mc``
is a config error.  The points of a sweep are shared out to one forked
process per CPU (:func:`run_sweep`), and the CSV rows come out in sweep
order.  Every float prints with 17 significant digits, and :func:`main` runs
BLAS on one thread, so a rerun is byte-identical whatever the CPU count or
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) of the caller.

An adaptive sweep (``transport``, ``expand``, ``einstein-check``) climbs the
half-octave Hermite ladder N = n0, 3 n0/2, 2 n0, 3 n0, .. and carries the
truncation from point to point: each solve starts at the N the previous one
converged at (``solve_transport``'s ``start``) and certifies the smaller
rungs from its converged solution instead of solving them.  A point's
row is the one a solve from the configured N gives, so it does not depend on
the points before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import sys
from contextlib import ExitStack
from dataclasses import replace

import numpy as np

from ._fork import forked
from .blas import one_thread, single_threaded
from .model import ModelParams, PeriodicPotential, reference_scales
from .basis import TruncationSpec
from .transport import solve_transport
from .expansion import (build_chain, diffusion_coefficients, partial_sum_D,
                        partial_sum_U, series_radius_estimate)
from .overdamped import solve_overdamped, stratonovich_drift
from .montecarlo import McConfig, simulate

__all__ = ["main", "run_sweep", "emit_report", "FIG_PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "gamma": 1.0,
    "beta": 5.0,
    "force": 0.0,
    "potential": {"L": 1.0, "cos": [1.0], "sin": [], "offset": 0.0},
    "trunc": {"n_hermite": 64, "n_fourier": 16},
    "sweep": {"variable": "force", "min": 0.0, "max": 2.0, "count": 9},
    "order": 9,
    "orders": None,
    "adaptive": True,
    "scale": False,
    "mc": {"dt": 0.01, "n_steps": 100000, "n_burnin": 2000, "n_traj": 500, "seed": 1},
}


def _merge(base: dict, extra: dict) -> dict:
    """``base`` updated by ``extra``; a nested object takes only known keys."""
    out = dict(base)
    for key, val in extra.items():
        if isinstance(out.get(key), dict) and val is not None:
            if not isinstance(val, dict):
                raise ConfigError(f"{key!r} must be a JSON object, got {val!r}")
            unknown = sorted(set(val) - set(out[key]))
            if unknown:
                raise ConfigError(f"unknown keys {unknown} in {key!r}; "
                                  f"known: {sorted(out[key])}")
            out[key] = _merge(out[key], val)
        elif val is not None:
            out[key] = val
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must hold a JSON object, "
                              f"not a {type(loaded).__name__}")
        cfg = _merge(cfg, loaded)
    cfg = _merge(cfg, overrides)
    for key in ("adaptive", "scale"):   # bool("no") would be true
        if not isinstance(cfg[key], bool):
            raise ConfigError(f"{key} must be true or false, got {cfg[key]!r}")
    return cfg


def _number(kind, value, name: str):
    """kind(value), with a value that is no number reported as a config error.

    A bool is no number here, although int(True) is 1.  An integer key takes
    only an integral value: 64 and 64.0 both read as 64, but 16.9 is a config
    error where int() would truncate it to 16.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return number


def _build_potential(spec: dict) -> PeriodicPotential:
    try:
        return PeriodicPotential(
            period=_number(float, spec["L"], "potential L"),
            cos_coeffs=tuple(_number(float, c, "potential cos entry")
                             for c in spec.get("cos", ())),
            sin_coeffs=tuple(_number(float, c, "potential sin entry")
                             for c in spec.get("sin", ())),
            offset=_number(float, spec.get("offset", 0.0), "potential offset"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc


def _build_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(gamma=_number(float, cfg["gamma"], "gamma"),
                           beta=_number(float, cfg["beta"], "beta"),
                           force=_number(float, cfg["force"], "force"),
                           potential=_build_potential(cfg["potential"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_trunc(cfg: dict) -> TruncationSpec:
    t = cfg["trunc"]
    try:
        return TruncationSpec(n_hermite=_number(int, t["n_hermite"], "n_hermite"),
                              n_fourier=_number(int, t["n_fourier"], "n_fourier"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad truncation spec: {exc}") from exc


def _sweep_values(cfg: dict) -> tuple[str, np.ndarray]:
    s = cfg["sweep"]
    var = s.get("variable", "force")
    if var not in ("force", "gamma"):
        raise ConfigError(f"sweep variable must be force or gamma, got {var!r}")
    count = _number(int, s.get("count", 9), "sweep count")
    if count < 1:
        raise ConfigError("sweep count must be >= 1")
    lo = _number(float, s.get("min", 0.0), "sweep min")
    hi = _number(float, s.get("max", 1.0), "sweep max")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError("sweep range must be finite")
    vals = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
    return var, vals


def _point_params(params: ModelParams, var: str, value) -> ModelParams:
    """``params`` at one sweep point: the force or the friction set to ``value``."""
    if var == "force":
        return params.with_force(float(value))
    return replace(params, gamma=float(value))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_report(rows: list[dict], path: str, columns: list[str] | None = None) -> None:
    """Write rows as CSV with a full header; deterministic formatting."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in columns))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def parse_report(path: str) -> list[dict]:
    """Read back a CSV written by emit_report (floats where possible).

    Fields are not quoted, so an error message holding commas spills into the
    fields after it; those tokens are joined back into ``error``.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    err = header.index("error") if "error" in header else None
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        extra = len(toks) - len(header)
        if extra > 0 and err is not None:
            toks[err : err + extra + 1] = [",".join(toks[err : err + extra + 1])]
        row = {}
        for key, tok in zip(header, toks):
            if tok == "":
                row[key] = ""
            else:
                try:
                    row[key] = int(tok)
                except ValueError:
                    try:
                        row[key] = float(tok)
                    except ValueError:
                        row[key] = tok
        rows.append(row)
    return rows


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _point_row(point_fn, value, column: str) -> dict:
    try:
        row = point_fn(value)
        row.setdefault("error", "")
    except Exception as exc:   # per-point isolation
        row = {"error": f"{type(exc).__name__}: {exc}"}
    row.setdefault(column, float(value))
    return row


def _send_rows(point_fn, chunk: list, column: str, _, write_fd: int) -> None:
    """A sweep helper's work: solve ``chunk``, then write its pickled rows."""
    with open(write_fd, "wb", closefd=False) as fh:
        pickle.dump([_point_row(point_fn, v, column) for v in chunk], fh)


def _helper_rows(read_fd: int, count: int) -> list[dict] | None:
    """The ``count`` rows a helper wrote, or None if it ended without them."""
    with open(read_fd, "rb", closefd=False) as fh:
        payload = fh.read()
    try:
        rows = pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):   # died before or while writing
        return None
    if isinstance(rows, list) and len(rows) == count \
            and all(isinstance(r, dict) for r in rows):
        return rows
    return None


def run_sweep(point_fn, values, column: str) -> list[dict]:
    """Evaluate point_fn at each sweep value, one row per point, in sweep order.

    A failing point contributes a row with the 'error' column set and its
    swept value under ``column`` (the column a successful row reports it in);
    the sweep continues.

    The points are independent, so with three points or more, two CPUs or
    more and every OpenBLAS copy on one thread (as :func:`main` sets it;
    forked BLAS thread pools lose), they are shared out to processes that
    :mod:`washboard._fork` forks (see there for the caveats).  The values
    are cut into one contiguous chunk per CPU, because neighbouring points
    need about the same truncation and the adaptive engines' point functions
    carry their converged truncation to the next point (``_Continuation``).
    The helpers are forked before this process solves anything, so every
    chunk climbs the ladder from n0 at its own first point.  Each chunk
    after the first costs one more climb of CPU time (0.19 s at
    gamma = 0.01 for fig1's climb from N = 256 to 1536, against 0.07 s for a
    continued point at N = 1536, on a 2-core Xeon).  That is cheaper in wall
    time than solving one first point before the fork, which leaves the
    other CPUs idle for a whole climb: it saves about one point per sweep.
    Continued rows are the rows a fresh ladder gives, so the split does not
    change them.  This process solves the first chunk, the smallest, and
    forked helpers the others; each helper sends its rows back pickled
    through a pipe.  A helper that cannot be started,
    dies or sends no valid rows has its chunk solved here, to the same rows.
    Helpers are killed and reaped on every way out, also when
    ``point_fn.alongside`` raises.

    ``point_fn.alongside``, when the point function has it, is a callable
    this process calls once with no arguments: after forking the helpers
    and before its own first point, or, serially, before the first point.
    It is work the rows do not wait on but the caller needs after the sweep
    (``cmd_expand``'s tilt-series chain), run on the CPU the helpers leave
    this process; what it raises, ``run_sweep`` raises.  It is an attribute
    and not a parameter because wrappers of ``run_sweep`` forward exactly
    (point_fn, values, column), and one that wraps the point function with
    ``functools.wraps`` copies the attribute along.
    """
    values = list(values)
    alongside = getattr(point_fn, "alongside", None)
    n = min(_cpu_count(), len(values))
    if len(values) < 3 or n < 2 or not single_threaded():
        if alongside is not None:
            alongside()
        return [_point_row(point_fn, v, column) for v in values]

    chunks = [values[len(values) * i // n : len(values) * (i + 1) // n]
              for i in range(n)]
    with ExitStack() as stack:
        helpers = [stack.enter_context(
                       forked(functools.partial(_send_rows, point_fn, chunk, column)))
                   for chunk in chunks[1:]]
        if alongside is not None:
            alongside()
        rows = [_point_row(point_fn, v, column) for v in chunks[0]]
        for chunk, ends in zip(chunks[1:], helpers):
            got = _helper_rows(ends[0], len(chunk)) if ends else None
            rows += got if got is not None else \
                [_point_row(point_fn, v, column) for v in chunk]
    return rows


# ---------------------------------------------------------------------------
# Subcommand engines
# ---------------------------------------------------------------------------

class _Continuation:
    """``solve_transport`` for the points of one sweep, each solve started at
    the Hermite truncation the previous converged solve ended at."""

    def __init__(self, trunc: TruncationSpec, adaptive: bool):
        self.trunc = trunc
        self.adaptive = adaptive
        self.start = None

    def __call__(self, params: ModelParams):
        res = solve_transport(params, self.trunc, adaptive=self.adaptive,
                              start=self.start)
        if not res.diagnostics.get("adaptive_cap_hit"):
            self.start = res.n_hermite
        return res


def _transport_point(solve: _Continuation, params: ModelParams, scale: bool) -> dict:
    res = solve(params)
    row = {
        "gamma": params.gamma,
        "F": params.force,
        "U": res.drift,
        "D_primary": res.d_primary,
        "D_ibp": res.d_ibp,
        "d_ibp_stability": res.d_ibp_stability,
        "top_level_ratio": res.diagnostics.get("top_level_ratio", np.nan),
        "top_level_ratio_phi": res.diagnostics.get("top_level_ratio_phi", np.nan),
        "hierarchy_residual": res.diagnostics.get("hierarchy_residual", np.nan),
        "solvability_defect": res.diagnostics.get("solvability_defect", np.nan),
        "n_hermite": res.n_hermite,
    }
    if scale:
        scales = reference_scales(params)
        row["F_over_Fc"] = params.force / scales.critical_force
        row["U_over_UL"] = (res.drift / scales.free_drift
                            if scales.free_drift != 0.0 else np.nan)
        row["D_over_DL"] = res.d_primary / scales.free_diffusion
    return row


_TRANSPORT_COLS = ["gamma", "F", "U", "D_primary", "D_ibp", "d_ibp_stability",
                   "top_level_ratio", "top_level_ratio_phi", "hierarchy_residual",
                   "solvability_defect", "n_hermite", "error"]
_SCALED_COLS = ["F_over_Fc", "U_over_UL", "D_over_DL"]


def cmd_transport(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    trunc = _build_trunc(cfg)
    var, values = _sweep_values(cfg)
    scale = cfg["scale"]
    if scale and reference_scales(params).critical_force is None:
        raise ConfigError("--scale requires a single-cosine potential")
    solve = _Continuation(trunc, cfg["adaptive"])

    def point(v):
        return _transport_point(solve, _point_params(params, var, v), scale)

    rows = run_sweep(point, values, "F" if var == "force" else "gamma")
    cols = _TRANSPORT_COLS + (_SCALED_COLS if scale else [])
    emit_report(rows, out, cols)
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_expand(cfg: dict, out: str) -> int:
    """Spectral U and D over a force sweep, with the tilt-series partial sums.

    The sweep rows carry F, U_spectral and D_spectral.  The series come from
    one equilibrium chain (``build_chain``, ``diffusion_coefficients``,
    ``series_radius_estimate``), built once: as the sweep's
    ``alongside`` work, while the forked helpers solve their chunks and
    before this process solves its own, so the chain costs no wall time on
    two CPUs or more.  It is memoized, and built after the sweep when no
    sweep ran it (a wrapper of ``run_sweep`` that drops the attribute), so
    no row depends on the hook.  The series columns are then filled in here
    for every row without an error; a failed point's row has none.
    """
    params = _build_params(cfg)
    trunc = _build_trunc(cfg)
    order = _number(int, cfg["order"], "order")
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    orders = cfg["orders"] or sorted({1, (order + 1) // 2, order})
    if not isinstance(orders, list):
        raise ConfigError(f"orders must be a list of integers, got {orders!r}")
    orders = [_number(int, o, "orders entry") for o in orders]
    if min(orders) < 1 or max(orders) > order:
        raise ConfigError(f"orders entries must be in 1..{order} (the order), "
                          f"got {orders}")
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("expand mode sweeps the force")
    solve = _Continuation(trunc, cfg["adaptive"])

    @functools.cache
    def series():
        chain = build_chain(params.with_force(0.0), trunc, order)
        return chain, diffusion_coefficients(chain), series_radius_estimate(chain.v)

    def point(F):
        res = solve(params.with_force(float(F)))
        return {"F": float(F), "U_spectral": res.drift, "D_spectral": res.d_primary}

    point.alongside = series
    rows = run_sweep(point, values, "F")
    chain, table, radius = series()
    d_orders = [min(o, order - 1) for o in orders]
    for row in rows:
        if row["error"]:
            continue
        F = row["F"]
        row["f_radius_est"] = radius
        for o in orders:
            row[f"U_order_{o}"] = partial_sum_U(chain, F, o)
        for od in d_orders:
            row[f"D_full_order_{od}"] = partial_sum_D(table, F, od, "full")
            row[f"D_naive_order_{od}"] = partial_sum_D(table, F, od, "naive_einstein")
    cols = ["F", "U_spectral", "D_spectral", "f_radius_est"]
    cols += [f"U_order_{o}" for o in orders]
    for od in d_orders:
        cols += [f"D_full_order_{od}", f"D_naive_order_{od}"]
    emit_report(rows, out, list(dict.fromkeys(cols)) + ["error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_overdamped(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("overdamped mode sweeps the force")
    n_fourier = max(_number(int, cfg["trunc"]["n_fourier"], "n_fourier"), 64)

    def point(F):
        od = solve_overdamped(params.potential, params.beta, float(F), n_fourier)
        strat = stratonovich_drift(params.potential, params.beta, float(F))
        gap = abs(od.drift - strat) / max(abs(strat), 1e-300) if strat != 0 else abs(od.drift)
        return {"F": float(F), "U_O": od.drift, "U_O_quadrature": strat,
                "drift_rel_gap": gap, "D_O": od.diffusion,
                "D_O_linear_form": od.diffusion_linear_form,
                "form_gap": od.residuals["form_gap"]}

    rows = run_sweep(point, values, "F")
    emit_report(rows, out, ["F", "U_O", "U_O_quadrature", "drift_rel_gap",
                            "D_O", "D_O_linear_form", "form_gap", "error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_mc(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    var, values = _sweep_values(cfg)
    mc = cfg["mc"]
    try:   # checked once, at the first sweep point
        config = McConfig(
            dt=_number(float, mc["dt"], "mc dt"),
            n_steps=_number(int, mc["n_steps"], "mc n_steps"),
            n_burnin=_number(int, mc["n_burnin"], "mc n_burnin"),
            n_traj=_number(int, mc["n_traj"], "mc n_traj"),
            seed=_number(int, mc["seed"], "mc seed"),
            params=_point_params(params, var, values[0]))
    except ValueError as exc:
        raise ConfigError(f"bad mc spec: {exc}") from exc

    def point(v):
        est = simulate(replace(config, params=_point_params(params, var, v)))
        return {var: float(v), "U_hat": est.u_hat, "D_hat": est.d_hat,
                "stderr_U": est.stderr_u, "stderr_D": est.stderr_d,
                "n_traj": est.n_traj_used}

    rows = run_sweep(point, values, var)
    emit_report(rows, out, [var, "U_hat", "D_hat", "stderr_U", "stderr_D",
                            "n_traj", "error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_einstein_check(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    trunc = _build_trunc(cfg)
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("einstein-check sweeps the force")
    solve = _Continuation(trunc, cfg["adaptive"])

    def point(F):
        res = solve(params.with_force(float(F)))
        naive = res.mobility / params.beta
        return {"F": float(F), "D_spectral": res.d_primary, "beta_inv_dUdF": naive,
                "gap": res.d_primary - naive}

    rows = run_sweep(point, values, "F")
    emit_report(rows, out, ["F", "D_spectral", "beta_inv_dUdF", "gap", "error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _fig1_cfg(gamma: float) -> dict:
    v0 = float(np.pi ** 2 / 16.0)
    fc = 3.36 * gamma * np.sqrt(v0)
    n0 = 256 if gamma < 0.05 else 64
    return {
        "gamma": gamma, "beta": 1.2 / v0, "force": 0.0,
        "potential": {"L": float(2.0 * np.pi), "cos": [v0], "sin": []},
        "trunc": {"n_hermite": n0, "n_fourier": 24},
        "sweep": {"variable": "force", "min": 0.1 * fc, "max": 2.2 * fc, "count": 12},
        "scale": True, "adaptive": True,
    }


def _fig345_cfg(gamma: float, mode_order: int | None = None) -> dict:
    cfg = {
        "gamma": gamma, "beta": 5.0, "force": 0.0,
        "potential": {"L": 1.0, "cos": [1.0], "sin": []},
        "trunc": {"n_hermite": 64, "n_fourier": 24},
        "sweep": {"variable": "force", "min": 0.0, "max": 1.2, "count": 13},
        "adaptive": True,
    }
    if mode_order is not None:
        cfg["order"] = mode_order
    return cfg


FIG_PRESETS = {
    "fig1": [("transport", _fig1_cfg(g), f"gamma{g}") for g in (0.01, 0.1, 1.0)],
    "fig3": [("transport", _merge(_fig345_cfg(g), {"sweep": {"max": 4.0, "count": 17}}),
              f"gamma{g}") for g in (0.5, 5.0, 10.0)],
    "fig4": [("expand", _merge(_fig345_cfg(1.0, 9), {"orders": [1, 5, 9]}), "gamma1"),
             ("expand", _merge(_fig345_cfg(50.0, 5), {"orders": [1, 3, 5]}), "gamma50")],
    "fig5": [("expand", _merge(_fig345_cfg(1.0, 9), {"orders": [1, 5, 9]}), "gamma1"),
             ("expand", _merge(_fig345_cfg(50.0, 7), {"orders": [3, 7]}), "gamma50")],
    "fig6": [("einstein-check", _fig345_cfg(1.0), "gamma1"),
             ("einstein-check", _fig345_cfg(50.0), "gamma50")],
    "fig7": [("transport", {
        "gamma": 1.0, "beta": 5.0, "force": F,
        "potential": {"L": 1.0, "cos": [1.0], "sin": []},
        "trunc": {"n_hermite": 64, "n_fourier": 24},
        "sweep": {"variable": "gamma", "min": 5.0, "max": 50.0, "count": 10},
        "adaptive": True,
    }, f"F{F}") for F in (0.5, 1.0)],
}

_MODE_FN = {}   # filled below


def cmd_fig(preset: str, out: str) -> int:
    if preset not in FIG_PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(FIG_PRESETS)}")
    worst = EXIT_OK
    for mode, cfg, tag in FIG_PRESETS[preset]:
        cfg = _merge(dict(_DEFAULTS), cfg)
        path = f"{out.removesuffix('.csv')}_{tag}.csv"
        code = _MODE_FN[mode](cfg, path)
        worst = max(worst, code)
        print(f"{preset} [{tag}] -> {path}")
    return worst


_MODE_FN.update({
    "transport": cmd_transport,
    "expand": cmd_expand,
    "overdamped": cmd_overdamped,
    "mc": cmd_mc,
    "einstein-check": cmd_einstein_check,
})


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--n-hermite", type=int, dest="n_hermite")
    sub.add_argument("--n-fourier", type=int, dest="n_fourier")
    sub.add_argument("--order", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--scale", action="store_true", default=None)
    sub.add_argument("--var", choices=["force", "gamma"])
    sub.add_argument("--min", type=float, dest="sweep_min")
    sub.add_argument("--max", type=float, dest="sweep_max")
    sub.add_argument("--count", type=int, dest="sweep_count")
    sub.add_argument("--no-adaptive", action="store_true")


def _overrides(args: argparse.Namespace) -> dict:
    ov: dict = {"gamma": args.gamma, "beta": args.beta, "order": args.order,
                "scale": args.scale}
    trunc = {}
    if args.n_hermite is not None:
        trunc["n_hermite"] = args.n_hermite
    if args.n_fourier is not None:
        trunc["n_fourier"] = args.n_fourier
    if trunc:
        ov["trunc"] = trunc
    sweep = {}
    if args.var is not None:
        sweep["variable"] = args.var
    if args.sweep_min is not None:
        sweep["min"] = args.sweep_min
    if args.sweep_max is not None:
        sweep["max"] = args.sweep_max
    if args.sweep_count is not None:
        sweep["count"] = args.sweep_count
    if sweep:
        ov["sweep"] = sweep
    if args.seed is not None:
        ov["mc"] = {"seed": args.seed}
    if args.no_adaptive:
        ov["adaptive"] = False
    return {k: v for k, v in ov.items() if v is not None}


@one_thread()
def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with every OpenBLAS copy on one thread (restored on
    return): sweep rows then do not depend on the BLAS thread count, and
    :func:`run_sweep` may fork."""
    parser = argparse.ArgumentParser(
        prog="washboard",
        description="Transport coefficients of a Brownian particle in a "
                    "tilted periodic potential.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("transport", "expand", "overdamped", "mc", "einstein-check"):
        _add_common(subs.add_parser(name))
    fig = subs.add_parser("fig")
    fig.add_argument("preset", choices=sorted(FIG_PRESETS))
    fig.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "fig":
            return cmd_fig(args.preset, args.out)
        cfg = load_config(args.config, _overrides(args))
        return _MODE_FN[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:   # numerical failure outside the per-point guard
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
