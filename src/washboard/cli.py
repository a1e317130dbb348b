"""Batch front-end: parameter sweeps to CSV for the standard figure layouts.

Subcommands
-----------
transport       sweep F or gamma, nonperturbative U and D
expand          spectral U/D against truncated tilt-series overlays
overdamped      overdamped solver vs the drift quadrature oracle
mc              Euler-Maruyama ensemble estimates
einstein-check  D vs (1/beta) dU/dF with a centered finite difference
fig             presets encoding the standard figure parameter sets

Configuration is a JSON file (``--config``) with flat keys overridable by
flags; all quantities are in the problem's nondimensional units.  Sweep points
run one after another (``"workers": n`` in the config spreads them over n
threads, which only pays when the solves release the interpreter lock); the
CSV rows always come out in sweep order, and every float prints with 17
significant digits, so a rerun is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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
    "trunc": {"n_hermite": 64, "n_fourier": 16, "closure": "dirichlet"},
    "sweep": {"variable": "force", "min": 0.0, "max": 2.0, "count": 9},
    "order": 9,
    "orders": None,
    "adaptive": True,
    "scale": False,
    "mc": {"dt": 0.01, "n_steps": 100000, "n_burnin": 2000, "n_traj": 500, "seed": 1},
    "workers": 1,
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        elif val is not None:
            out[key] = val
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                cfg = _merge(cfg, json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = _merge(cfg, overrides)
    return cfg


def _build_potential(spec: dict) -> PeriodicPotential:
    try:
        return PeriodicPotential(
            period=spec["L"],
            cos_coeffs=tuple(spec.get("cos", ())),
            sin_coeffs=tuple(spec.get("sin", ())),
            offset=spec.get("offset", 0.0),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc


def _build_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(gamma=cfg["gamma"], beta=cfg["beta"], force=cfg["force"],
                           potential=_build_potential(cfg["potential"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_trunc(cfg: dict) -> TruncationSpec:
    t = cfg["trunc"]
    try:
        return TruncationSpec(n_hermite=int(t["n_hermite"]),
                              n_fourier=int(t["n_fourier"]),
                              closure=t.get("closure", "dirichlet"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad truncation spec: {exc}") from exc


def _sweep_values(cfg: dict) -> tuple[str, np.ndarray]:
    s = cfg["sweep"]
    var = s.get("variable", "force")
    if var not in ("force", "gamma"):
        raise ConfigError(f"sweep variable must be force or gamma, got {var!r}")
    count = int(s.get("count", 9))
    if count < 1:
        raise ConfigError("sweep count must be >= 1")
    lo, hi = float(s.get("min", 0.0)), float(s.get("max", 1.0))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError("sweep range must be finite")
    vals = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
    return var, vals


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
    """Read back a CSV written by emit_report (floats where possible)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = {}
        for key, tok in zip(header, ln.split(",")):
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


def run_sweep(point_fn, values, workers: int = 1) -> list[dict]:
    """Evaluate point_fn over the sweep on ``workers`` threads, rows in sweep order.

    A failing point contributes a row with the 'error' column set; the sweep
    continues.
    """
    def safe(iv):
        i, v = iv
        try:
            row = point_fn(v)
            row.setdefault("error", "")
            return i, row
        except Exception as exc:   # per-point isolation
            return i, {"error": f"{type(exc).__name__}: {exc}"}

    indexed = list(enumerate(values))
    if workers > 1 and len(indexed) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(safe, indexed))
    else:
        results = [safe(iv) for iv in indexed]
    results.sort(key=lambda t: t[0])
    return [row for _, row in results]


def _sweep_rows(point_fn, values, workers: int, column: str) -> list[dict]:
    """:func:`run_sweep`, with a failed point's row also carrying its swept
    value under ``column`` (the column a successful row reports it in)."""
    rows = run_sweep(point_fn, values, workers)
    for row, v in zip(rows, values):
        row.setdefault(column, float(v))
    return rows


# ---------------------------------------------------------------------------
# Subcommand engines
# ---------------------------------------------------------------------------

def _transport_point(params: ModelParams, trunc: TruncationSpec, adaptive: bool,
                     scale: bool) -> dict:
    res = solve_transport(params, trunc, adaptive=adaptive)
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
        if scales.critical_force is None:
            raise ConfigError("--scale requires a single-cosine potential")
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
    scale = bool(cfg["scale"])

    def point(v):
        p = (params.with_force(float(v)) if var == "force"
             else ModelParams(gamma=float(v), beta=params.beta, force=params.force,
                              potential=params.potential))
        return _transport_point(p, trunc, bool(cfg["adaptive"]), scale)

    rows = _sweep_rows(point, values, int(cfg["workers"]),
                       "F" if var == "force" else "gamma")
    cols = _TRANSPORT_COLS + (_SCALED_COLS if scale else [])
    emit_report(rows, out, cols)
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_expand(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    trunc = _build_trunc(cfg)
    order = int(cfg["order"])
    orders = cfg["orders"] or sorted({1, max(1, (order + 1) // 2), order})
    orders = [int(o) for o in orders if int(o) <= order]
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("expand mode sweeps the force")

    chain = build_chain(params.with_force(0.0), trunc, order)
    table = diffusion_coefficients(chain)
    radius = series_radius_estimate(chain.v)

    def point(F):
        res = solve_transport(params.with_force(float(F)), trunc,
                              adaptive=bool(cfg["adaptive"]))
        row = {"F": float(F), "U_spectral": res.drift, "D_spectral": res.d_primary,
               "f_radius_est": radius}
        for o in orders:
            row[f"U_order_{o}"] = partial_sum_U(chain, float(F), o)
        for o in orders:
            od = min(o, order - 1)
            row[f"D_full_order_{od}"] = partial_sum_D(table, float(F), od, "full")
            row[f"D_naive_order_{od}"] = partial_sum_D(table, float(F), od,
                                                       "naive_einstein")
        return row

    rows = _sweep_rows(point, values, int(cfg["workers"]), "F")
    cols = ["F", "U_spectral", "D_spectral", "f_radius_est"]
    cols += [f"U_order_{o}" for o in orders]
    for o in orders:
        od = min(o, order - 1)
        cols += [f"D_full_order_{od}", f"D_naive_order_{od}"]
    seen, ordered = set(), []
    for c in cols:
        if c not in seen:
            ordered.append(c)
            seen.add(c)
    emit_report(rows, out, ordered + ["error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_overdamped(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("overdamped mode sweeps the force")
    n_fourier = max(int(cfg["trunc"]["n_fourier"]), 64)

    def point(F):
        od = solve_overdamped(params.potential, params.beta, float(F), n_fourier)
        strat = stratonovich_drift(params.potential, params.beta, float(F))
        gap = abs(od.drift - strat) / max(abs(strat), 1e-300) if strat != 0 else abs(od.drift)
        return {"F": float(F), "U_O": od.drift, "U_O_quadrature": strat,
                "drift_rel_gap": gap, "D_O": od.diffusion,
                "D_O_linear_form": od.diffusion_linear_form,
                "form_gap": od.residuals["form_gap"]}

    rows = _sweep_rows(point, values, int(cfg["workers"]), "F")
    emit_report(rows, out, ["F", "U_O", "U_O_quadrature", "drift_rel_gap",
                            "D_O", "D_O_linear_form", "form_gap", "error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_mc(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    var, values = _sweep_values(cfg)
    mc = cfg["mc"]

    def point(v):
        p = (params.with_force(float(v)) if var == "force"
             else ModelParams(gamma=float(v), beta=params.beta, force=params.force,
                              potential=params.potential))
        config = McConfig(dt=float(mc["dt"]), n_steps=int(mc["n_steps"]),
                          n_burnin=int(mc["n_burnin"]), n_traj=int(mc["n_traj"]),
                          seed=int(mc["seed"]), params=p)
        est = simulate(config)
        return {var: float(v), "U_hat": est.u_hat, "D_hat": est.d_hat,
                "stderr_U": est.stderr_u, "stderr_D": est.stderr_d,
                "n_traj": est.n_traj_used}

    rows = _sweep_rows(point, values, 1, var)   # trajectories already vectorized
    emit_report(rows, out, [var, "U_hat", "D_hat", "stderr_U", "stderr_D",
                            "n_traj", "error"])
    return EXIT_NUMERICAL if any(r.get("error") for r in rows) else EXIT_OK


def cmd_einstein_check(cfg: dict, out: str) -> int:
    params = _build_params(cfg)
    trunc = _build_trunc(cfg)
    var, values = _sweep_values(cfg)
    if var != "force":
        raise ConfigError("einstein-check sweeps the force")
    s = cfg["sweep"]
    h = (float(s["max"]) - float(s["min"])) / 200.0
    if h <= 0:
        raise ConfigError("einstein-check needs a nonempty force range")
    adaptive = bool(cfg["adaptive"])

    def point(F):
        F = float(F)
        res = solve_transport(params.with_force(F), trunc, adaptive=adaptive)
        up = solve_transport(params.with_force(F + h), trunc, adaptive=adaptive)
        dn = solve_transport(params.with_force(F - h), trunc, adaptive=adaptive)
        dudf = (up.drift - dn.drift) / (2.0 * h)
        naive = dudf / params.beta
        return {"F": F, "D_spectral": res.d_primary, "beta_inv_dUdF": naive,
                "gap": res.d_primary - naive}

    rows = _sweep_rows(point, values, int(cfg["workers"]), "F")
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
        path = out.replace(".csv", f"_{tag}.csv") if out.endswith(".csv") \
            else f"{out}_{tag}.csv"
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


def main(argv: list[str] | None = None) -> int:
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
