"""Batch front-end: parameter sweeps to CSV for the standard figure layouts.

Subcommands
-----------
transport       sweep F or gamma, nonperturbative U and D
expand          spectral U/D against truncated tilt-series overlays
overdamped      overdamped solver vs the drift quadrature oracle
mc              Euler-Maruyama ensemble estimates
einstein-check  D vs (1/beta) dU/dF, with dU/dF the exact mobility of each solve
fig             presets encoding the standard figure parameter sets

Configuration is a JSON file (``--config``), some of whose keys flags
override; all quantities are in the problem's nondimensional units.  One
table, ``_KEYS``, gives every key its default, its kind and its flag, and
every key is checked against it once, before any subcommand runs (a ``fig``
preset too), whether or not that subcommand reads it: a string or a bool
where a number is wanted, 16.9 for an integer, or a key the table does not
know inside ``potential``, ``trunc``, ``sweep`` or ``mc`` is a config error.
JSON ``null`` means the key's default, and an unknown top-level key is
ignored, so a config may carry the keys of other tools.  A range that a
model type enforces (``ModelParams``, ``TruncationSpec``, ``McConfig``) is
checked where the subcommand builds it.

The points of a sweep are shared out to one forked process per CPU
(:func:`run_sweep`), and the CSV rows come out in sweep order.  Every float
prints with 17 significant digits, and :func:`main` runs BLAS on one thread,
so a rerun is byte-identical whatever the CPU count or the BLAS thread
setting (``OPENBLAS_NUM_THREADS``) of the caller.

An adaptive sweep (``transport``, ``expand``, ``einstein-check``) climbs the
half-octave Hermite ladder N = n0, 3 n0/2, 2 n0, 3 n0, .. and carries the
truncation from point to point: each solve starts at the N the previous one
converged at (``solve_transport``'s ``start``) and certifies the smaller
rungs from its converged solution instead of solving them; a first point
starts at the rung predicted from its n0 solve, certified the same way.  A
point's
row is the one a solve from the configured N gives, so it does not depend on
the points before it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import _fork
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

class _Key(NamedTuple):
    kind: object        # float, int, bool, list[float], list[int] or a tuple of choices
    default: object
    flag: str | None = None
    help: str | None = None


# Every config key by its dotted name, in the order of the flags in --help.
# A bool key's flag sets the value that is not its default.
_KEYS = {
    "gamma": _Key(float, 1.0, "--gamma"),
    "beta": _Key(float, 5.0, "--beta"),
    "force": _Key(float, 0.0),
    "potential.L": _Key(float, 1.0),
    "potential.cos": _Key(list[float], [1.0]),
    "potential.sin": _Key(list[float], []),
    "potential.offset": _Key(float, 0.0),
    "trunc.n_hermite": _Key(int, 64, "--n-hermite"),
    "trunc.n_fourier": _Key(int, 16, "--n-fourier",
                            "Fourier harmonics M (overdamped takes at least 64)"),
    "order": _Key(int, 9, "--order"),
    "orders": _Key(list[int], None),   # None: 1, (order + 1) // 2 and order
    "mc.dt": _Key(float, 0.01),
    "mc.n_steps": _Key(int, 100000),
    "mc.n_burnin": _Key(int, 2000),
    "mc.n_traj": _Key(int, 500),
    "mc.seed": _Key(int, 1, "--seed"),
    "scale": _Key(bool, False, "--scale"),
    "sweep.variable": _Key(("force", "gamma"), "force", "--var"),
    "sweep.min": _Key(float, 0.0, "--min"),
    "sweep.max": _Key(float, 2.0, "--max"),
    "sweep.count": _Key(int, 9, "--count"),
    "adaptive": _Key(bool, True, "--no-adaptive"),
}
_SECTIONS = sorted({name.partition(".")[0] for name in _KEYS if "." in name})
_WHAT = {float: "a number", int: "an integer", bool: "true or false",
         list[float]: "a list of numbers", list[int]: "a list of integers"}


def _bad(name: str, what: str, value) -> ConfigError:
    return ConfigError(f"{name} must be {what}, got {value!r}")


def _as_kind(kind, value):
    """JSON ``value`` as a ``kind``, or TypeError: a bool or a string is no
    number, and an integer key takes 64 or 64.0 but not 16.9."""
    if kind in (list[float], list[int]):
        if not isinstance(value, list):
            raise TypeError
        return [_as_kind(kind.__args__[0], v) for v in value]
    if kind is bool:
        ok = isinstance(value, bool)
    elif isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    if not ok:
        raise TypeError
    return kind(value) if kind in (float, int) else value   # float(10**400) overflows


def _fill(given: dict, overrides: dict) -> dict:
    """The config as nested dicts: each key of ``_KEYS`` from ``overrides``
    (by dotted name), else from ``given``, else its default; checked."""
    parts = {"": given}
    for section in _SECTIONS:
        part = given.get(section)
        parts[section] = part = {} if part is None else part
        if not isinstance(part, dict):
            raise _bad(section, "a JSON object", part)
        known = sorted(n.partition(".")[2] for n in _KEYS if n.startswith(section + "."))
        unknown = sorted(set(part) - set(known))
        if unknown:
            raise ConfigError(f"unknown keys {unknown} in {section!r}; known: {known}")
    cfg = {section: {} for section in _SECTIONS}
    for name, key in _KEYS.items():
        section, _, leaf = name.rpartition(".")
        value = overrides.get(name, parts[section].get(leaf))
        if value is not None:
            try:
                value = _as_kind(key.kind, value)
            except (TypeError, OverflowError):
                raise _bad(name, _WHAT.get(key.kind) or " or ".join(key.kind),
                           value) from None
        (cfg[section] if section else cfg)[leaf] = key.default if value is None else value

    sweep, order = cfg["sweep"], cfg["order"]
    if sweep["count"] < 1:
        raise _bad("sweep.count", ">= 1", sweep["count"])
    for end in ("min", "max"):
        if not np.isfinite(sweep[end]):
            raise _bad(f"sweep.{end}", "finite", sweep[end])
    if order < 1:
        raise _bad("order", ">= 1", order)
    if cfg["orders"] is None:
        cfg["orders"] = sorted({1, (order + 1) // 2, order})
    orders = cfg["orders"]
    if not (orders and 1 <= min(orders) and max(orders) <= order):
        raise _bad("orders", f"a non-empty list in 1..{order} (the order)", orders)
    return cfg


def load_config(path: str | None, overrides: dict) -> dict:
    given = {}
    if path is not None:
        try:
            with open(path) as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError(f"config {path} must hold a JSON object, "
                              f"not a {type(given).__name__}")
    return _fill(given, overrides)


@contextmanager
def _range_errors():
    """A model type's ValueError, for a range it enforces, as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_params(cfg: dict) -> ModelParams:
    pot = cfg["potential"]
    with _range_errors():
        return ModelParams(gamma=cfg["gamma"], beta=cfg["beta"], force=cfg["force"],
                           potential=PeriodicPotential(
                               period=pot["L"], cos_coeffs=pot["cos"],
                               sin_coeffs=pot["sin"], offset=pot["offset"]))


def _build_trunc(cfg: dict) -> TruncationSpec:
    with _range_errors():
        return TruncationSpec(**cfg["trunc"])


def _sweep_values(cfg: dict) -> tuple[str, np.ndarray]:
    s = cfg["sweep"]
    values = np.linspace(s["min"], s["max"], s["count"]) if s["count"] > 1 \
        else np.array([s["min"]])
    return s["variable"], values


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


def emit_report(rows: list[dict], path: str, columns: list[str]) -> None:
    """Write rows as CSV with a full header; deterministic formatting.  A field
    holding a comma or a quote (an error message) is quoted."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(row.get(col, "")) for col in columns] for row in rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def parse_report(path: str) -> list[dict]:
    """Read back a CSV written by emit_report (floats where possible)."""
    with open(path, newline="") as fh:
        header, *records = [rec for rec in csv.reader(fh) if rec]
    rows = []
    for toks in records:
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


def _point_row(point_fn, value, column: str) -> dict:
    try:
        row = point_fn(value)
        row.setdefault("error", "")
    except Exception as exc:   # per-point isolation
        row = {"error": f"{type(exc).__name__}: {exc}"}
    row.setdefault(column, float(value))
    return row


def run_sweep(point_fn, values, column: str) -> list[dict]:
    """Evaluate point_fn at each sweep value, one row per point, in sweep order.

    A failing point contributes a row with the 'error' column set and its
    swept value under ``column`` (the column a successful row reports it in);
    the sweep continues.

    The points are independent, so with three points or more and every
    OpenBLAS copy on one thread (as :func:`main` sets it; forked BLAS
    thread pools lose), they are shared out by
    :func:`washboard._fork.fanned_out`, which cuts them into one contiguous
    chunk per CPU of its budget, solves the first chunk here and each other
    one in a forked helper (see there for the budget, for what happens when
    a helper cannot start or dies, and for the caveats).  The chunks are
    contiguous because neighbouring points need about the same truncation
    and the adaptive engines' point functions carry their converged
    truncation to the next point (``_Continuation``).
    The helpers are forked before this process solves anything, so every
    chunk's first point is a fresh climb: n0, then up from the rung its n0
    density predicts.  Each chunk after the first costs one more fresh climb
    of CPU time (0.08 or 0.12 s at gamma = 0.01 in fig1, N = 256 then 1536,
    or 256, 1024 and 1536, against 0.18 s for the six rungs of the plain
    ladder and 0.07 s for a continued point at N = 1536, on a 2-core Xeon).
    That is cheaper in wall time than solving one first point before the
    fork, which leaves the other CPUs idle for that climb.
    Continued rows are the rows a fresh ladder gives, so neither the split
    nor a chunk solved again here changes them.  This process solves the
    first chunk, the smallest.

    ``point_fn.alongside``, when the point function has it, is a callable
    this process calls once with no arguments: after forking the helpers
    and before its own first point, or, serially, before the first point.
    It is work the rows do not wait on but the caller needs after the sweep
    (``cmd_expand``'s tilt-series chain), run on the CPU the helpers leave
    this process; what it raises, ``run_sweep`` raises, once the helpers
    are killed and reaped.  It is an attribute and not a parameter because
    wrappers of ``run_sweep`` forward exactly (point_fn, values, column),
    and one that wraps the point function with ``functools.wraps`` copies
    the attribute along.
    """
    values = list(values)
    alongside = getattr(point_fn, "alongside", None)

    def rows(chunk):
        return [_point_row(point_fn, v, column) for v in chunk]

    split = len(values) >= 3 and single_threaded()
    with _fork.fanned_out(rows, values, split) as gather:
        if alongside is not None:
            alongside()
        return [row for chunk_rows in gather() for row in chunk_rows]


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
    fixed = ("gamma", params.gamma) if var == "force" else ("F", params.force)
    for row in rows:            # a failed point's row names the fixed value too
        row.setdefault(*fixed)
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
    order, orders = cfg["order"], cfg["orders"]
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
    """The overdamped solver against the drift quadrature over a force sweep.

    It resolves at least 64 harmonics: a smaller ``trunc.n_fourier`` is raised
    to 64, silently.
    """
    params = _build_params(cfg)
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("overdamped mode sweeps the force")
    n_fourier = max(cfg["trunc"]["n_fourier"], 64)

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
    with _range_errors():   # here at the first sweep point, then at each as a row
        config = McConfig(**cfg["mc"], params=_point_params(params, var, values[0]))

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


def _fig345_cfg(gamma: float, sweep_max: float = 1.2, count: int = 13, **keys) -> dict:
    return {
        "gamma": gamma, "beta": 5.0, "force": 0.0,
        "potential": {"L": 1.0, "cos": [1.0], "sin": []},
        "trunc": {"n_hermite": 64, "n_fourier": 24},
        "sweep": {"variable": "force", "min": 0.0, "max": sweep_max, "count": count},
        "adaptive": True, **keys,
    }


FIG_PRESETS = {
    "fig1": [("transport", _fig1_cfg(g), f"gamma{g}") for g in (0.01, 0.1, 1.0)],
    "fig3": [("transport", _fig345_cfg(g, sweep_max=4.0, count=17), f"gamma{g}")
             for g in (0.5, 5.0, 10.0)],
    "fig4": [("expand", _fig345_cfg(1.0, order=9, orders=[1, 5, 9]), "gamma1"),
             ("expand", _fig345_cfg(50.0, order=5, orders=[1, 3, 5]), "gamma50")],
    "fig5": [("expand", _fig345_cfg(1.0, order=9, orders=[1, 5, 9]), "gamma1"),
             ("expand", _fig345_cfg(50.0, order=7, orders=[3, 7]), "gamma50")],
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

_MODE_FN = {
    "transport": cmd_transport,
    "expand": cmd_expand,
    "overdamped": cmd_overdamped,
    "mc": cmd_mc,
    "einstein-check": cmd_einstein_check,
}


def cmd_fig(preset: str, out: str) -> int:
    if preset not in FIG_PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(FIG_PRESETS)}")
    worst = EXIT_OK
    for mode, cfg, tag in FIG_PRESETS[preset]:
        cfg = _fill(cfg, {})
        path = f"{out.removesuffix('.csv')}_{tag}.csv"
        code = _MODE_FN[mode](cfg, path)
        worst = max(worst, code)
        print(f"{preset} [{tag}] -> {path}")
    return worst


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_flags(sub: argparse.ArgumentParser) -> None:
    """``--config``, ``--out`` and the flag of each config key that has one."""
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", required=True, help="output CSV path")
    for name, key in _KEYS.items():
        if key.flag is None:
            continue
        if key.kind is bool:
            sub.add_argument(key.flag, dest=name, action="store_const",
                             const=not key.default, help=key.help)
        elif isinstance(key.kind, tuple):
            sub.add_argument(key.flag, dest=name, choices=key.kind, help=key.help)
        else:
            sub.add_argument(key.flag, dest=name, type=key.kind, help=key.help,
                             metavar=name.rpartition(".")[2].upper())


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
        _add_flags(subs.add_parser(name))
    fig = subs.add_parser("fig")
    fig.add_argument("preset", choices=sorted(FIG_PRESETS))
    fig.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "fig":
            return cmd_fig(args.preset, args.out)
        cfg = load_config(args.config, {name: value for name, value in vars(args).items()
                                        if name in _KEYS and value is not None})
        return _MODE_FN[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:   # numerical failure outside the per-point guard
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
