import csv
import errno
import functools
import inspect
import json
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

import washboard
import washboard._fork as _fork
import washboard.blas as blas
import washboard.cli as cli
import washboard.transport as transport
from test_transport import _count_solves, _no_prediction
from washboard.cli import FIG_PRESETS, emit_report, main, parse_report
from washboard.basis import TruncationSpec
from washboard.model import ModelParams, PeriodicPotential
from washboard.overdamped import stratonovich_drift


@pytest.fixture
def flat_config(tmp_path):
    cfg = {
        "gamma": 2.0, "beta": 1.0,
        "potential": {"L": 6.283185307179586, "cos": [], "sin": []},
        "trunc": {"n_hermite": 32, "n_fourier": 2},
        "adaptive": False,
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def cos_config(tmp_path):
    cfg = {
        "gamma": 1.0, "beta": 5.0,
        "potential": {"L": 1.0, "cos": [1.0], "sin": []},
        "trunc": {"n_hermite": 96, "n_fourier": 20},
        "adaptive": False,
    }
    path = tmp_path / "cos.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_emit_parse_roundtrip(tmp_path):
    rows = [
        {"a": 1.0 / 3.0, "b": 1e-300, "c": 7, "d": "note", "error": ""},
        {"a": -2.5e17, "b": 0.1 + 0.2, "c": -1, "d": "x", "error": "boom"},
    ]
    path = str(tmp_path / "r.csv")
    emit_report(rows, path, ["a", "b", "c", "d", "error"])
    back = parse_report(path)
    assert back == rows


def test_error_with_commas_roundtrip(tmp_path):
    msg = ("SolverError: bottom-block null space has dimension 2, expected 1; "
           "truncation failure")
    rows = [{"F": 0.5, "U": 1.25, "error": ""}, {"F": 1.0, "error": msg},
            {"F": 1.5, "U": 2.0, "error": "a,,b,"}]
    path = str(tmp_path / "e.csv")
    emit_report(rows, path, ["F", "U", "error"])
    # a field holding a comma is quoted, every other field is written as is
    assert open(path).read() == f'F,U,error\n0.5,1.25,\n1,,"{msg}"\n1.5,2,"a,,b,"\n'
    back = parse_report(path)
    assert [r["error"] for r in back] == ["", msg, "a,,b,"]
    assert [r["F"] for r in back] == [0.5, 1, 1.5]


def _cosine_row(tmp_path, n_fourier: int, variable: str = "force",
                value: float = 0.0, force: float = 0.0) -> tuple[int, str]:
    """``washboard transport`` on the cosine (V0=1, L=1, beta=5, gamma=1,
    F=``force``) with ``n_fourier`` harmonics, adaptive from N=64, sweeping
    ``variable`` over the one point ``value``: its exit code and the path of
    its one-row CSV."""
    cfg = {"gamma": 1.0, "beta": 5.0, "force": force,
           "potential": {"L": 1.0, "cos": [1.0]},
           "trunc": {"n_hermite": 64, "n_fourier": n_fourier}, "adaptive": True,
           "sweep": {"variable": variable, "min": value, "max": value, "count": 1}}
    path, out = tmp_path / f"m{n_fourier}.json", str(tmp_path / f"m{n_fourier}.csv")
    path.write_text(json.dumps(cfg))
    return main(["transport", "--config", str(path), "--out", out]), out


def test_error_row_with_commas_reads_back_whole(tmp_path):
    # at M = 3 the solve's D is negative, and the error message names N and M
    # with a comma between them
    code, out = _cosine_row(tmp_path, 3)
    assert code == 2
    [row] = parse_report(out)
    assert len(row) == 12
    assert row["error"].startswith("SolverError: D = ") and ", M = 3: " in row["error"]
    with open(out, newline="") as fh:
        [record] = list(csv.DictReader(fh))
    assert len(record) == 12 and None not in record
    assert record["error"] == row["error"]


@pytest.mark.parametrize("variable, value, force, fixed", [
    ("force", 0.0, 0.0, ("gamma", 1.0)),
    ("gamma", 1.0, 0.5, ("F", 0.5)),
], ids=["force-sweep", "gamma-sweep"])
def test_error_row_keeps_the_fixed_parameter(tmp_path, variable, value, force, fixed):
    # at M = 3 the point fails; its row still says where, in both columns
    code, out = _cosine_row(tmp_path, 3, variable, value, force)
    assert code == 2
    [row] = parse_report(out)
    assert row["error"].startswith("SolverError: D = ")
    swept = "F" if variable == "force" else "gamma"
    key, fixed_value = fixed
    assert (row[swept], row[key]) == (value, fixed_value)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: at M = 2 the solve passes every check it "
                          "makes, and its row is about 1300 times too large with an "
                          "empty error")
def test_m_starved_row_is_right_or_flagged(tmp_path):
    code, out = _cosine_row(tmp_path, 2)
    [row] = parse_report(out)
    params = ModelParams(gamma=1.0, beta=5.0, force=0.0,
                         potential=PeriodicPotential.cosine(1.0, 1.0))
    want = transport.solve_transport(params, TruncationSpec(64, 48),
                                     adaptive=True).d_primary
    assert row["error"] != "" or abs(row["D_primary"] - want) <= 1e-6 * want


def test_emit_empty_rows_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_report([], path, ["x", "y"])
    assert open(path).read() == "x,y\n"


def test_transport_free_particle_column(tmp_path, flat_config):
    out = str(tmp_path / "t.csv")
    code = main(["transport", "--config", flat_config, "--out", out,
                 "--var", "force", "--min", "0", "--max", "2", "--count", "3"])
    assert code == 0
    rows = parse_report(out)
    assert [r["F"] for r in rows] == [0.0, 1.0, 2.0]
    for r in rows:
        assert r["U"] == pytest.approx(r["F"] / 2.0, abs=1e-12)
        assert r["D_primary"] == pytest.approx(0.5, rel=1e-10)
        assert r["error"] == ""


def test_rerun_is_byte_identical(tmp_path, flat_config):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["transport", "--config", flat_config, "--var", "force",
            "--min", "0", "--max", "1", "--count", "3"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_scaled_columns(tmp_path, cos_config):
    out = str(tmp_path / "s.csv")
    code = main(["transport", "--config", cos_config, "--out", out, "--scale",
                 "--var", "force", "--min", "0.5", "--max", "1.5", "--count", "2"])
    assert code == 0
    fc = 3.36 * 1.0 * 1.0
    for r in parse_report(out):
        assert r["F_over_Fc"] == pytest.approx(r["F"] / fc, rel=1e-15)
        assert r["U_over_UL"] == pytest.approx(r["U"] / (r["F"] / 1.0), rel=1e-15)
        assert r["D_over_DL"] == pytest.approx(r["D_primary"] * 5.0, rel=1e-15)


def test_expand_mode_columns_and_overlap(tmp_path, cos_config):
    out = str(tmp_path / "e.csv")
    code = main(["expand", "--config", cos_config, "--out", out, "--order", "9",
                 "--var", "force", "--min", "0.1", "--max", "0.5", "--count", "3"])
    assert code == 0
    rows = parse_report(out)
    for r in rows:
        assert abs(r["U_order_9"] - r["U_spectral"]) <= 0.01 * abs(r["U_spectral"])
        assert r["f_radius_est"] > 1.0
    # linear response departs at the top of the range
    top = rows[-1]
    assert abs(top["U_order_1"] - top["U_spectral"]) > 0.05 * abs(top["U_spectral"])


def test_expand_at_512_levels_is_finite(tmp_path):
    # 513 Hermite levels, where bare Hermite polynomials on a Gauss grid
    # would overflow; the chain's pairings need no Hermite values
    out = str(tmp_path / "e512.csv")
    code = main(["expand", "--gamma", "1", "--n-hermite", "512", "--order", "9",
                 "--count", "2", "--max", "0.2", "--out", out])
    assert code == 0
    rows = parse_report(out)
    series = [k for k in rows[0] if k.startswith(("U_", "D_"))]
    assert series and all(np.isfinite(r[k]) for r in rows for k in series)
    assert rows[0]["D_full_order_1"] == pytest.approx(rows[0]["D_spectral"], rel=1e-9)


def test_einstein_check_is_exact_at_zero_tilt(tmp_path):
    # fig6 at gamma=1, h = 0.006: the three-point difference left gap/D at
    # -4.9e-5 at F = 0, where the Einstein relation is exact
    [(_, cfg, _)] = [e for e in FIG_PRESETS["fig6"] if e[2] == "gamma1"]
    config, out = tmp_path / "fig6.json", str(tmp_path / "fig6.csv")
    config.write_text(json.dumps(cfg))
    assert main(["einstein-check", "--config", str(config), "--out", out,
                 "--min", "0", "--max", "1.2", "--count", "2"]) == 0
    row = parse_report(out)[0]
    assert row["F"] == 0.0
    assert abs(row["gap"]) <= 1e-7 * row["D_spectral"]


def test_einstein_check_takes_a_single_point(tmp_path):
    # dU/dF is the mobility of the one solve: no force range is needed, and
    # at F = 0 the Einstein relation holds to roundoff
    [(_, cfg, _)] = [e for e in FIG_PRESETS["fig6"] if e[2] == "gamma1"]
    config, out = tmp_path / "fig6.json", str(tmp_path / "fig6.csv")
    config.write_text(json.dumps(cfg))
    assert main(["einstein-check", "--config", str(config), "--out", out,
                 "--min", "0", "--max", "0", "--count", "1"]) == 0
    [row] = parse_report(out)
    assert row["F"] == 0 and abs(row["gap"]) <= 1e-10 * row["D_spectral"]


def test_einstein_check_gap(tmp_path, monkeypatch, cos_config):
    solves = []
    _patch_solve(monkeypatch, solves.append)
    monkeypatch.setattr(_fork, "_cpu_count", lambda: 1)    # every solve counted here
    out = str(tmp_path / "g.csv")
    code = main(["einstein-check", "--config", cos_config, "--out", out,
                 "--var", "force", "--min", "0.0", "--max", "1.0", "--count", "3"])
    assert code == 0
    assert [p.force for p in solves] == [0.0, 0.5, 1.0]    # one solve per point
    rows = parse_report(out)
    assert abs(rows[0]["gap"]) <= 1e-8
    assert abs(rows[-1]["gap"]) > 1e-5 * rows[-1]["D_spectral"]
    for r in rows:
        assert r["gap"] == pytest.approx(r["D_spectral"] - r["beta_inv_dUdF"],
                                         rel=1e-12, abs=1e-300)


def test_negative_diffusion_is_a_row_error(tmp_path):
    # at M = 8 this potential converges in N with D_primary -0.0041 at F = 0
    # (M = 48 gives 1.4e-6): a D that is not positive fails its row
    cfg = {"gamma": 20, "beta": 4.54,
           "potential": {"L": 4.364, "cos": [-0.55, 0.073], "sin": [0.874, -0.748]},
           "trunc": {"n_hermite": 16, "n_fourier": 8},
           "sweep": {"min": 0, "max": 0, "count": 1}}
    config, out = tmp_path / "neg.json", str(tmp_path / "neg.csv")
    config.write_text(json.dumps(cfg))
    assert main(["transport", "--config", str(config), "--out", out]) == 2
    [row] = parse_report(out)
    assert row["error"].startswith("SolverError: D = -4.08") and row["D_primary"] == ""


def test_overdamped_mode(tmp_path, cos_config):
    out = str(tmp_path / "o.csv")
    code = main(["overdamped", "--config", cos_config, "--out", out,
                 "--var", "force", "--min", "0", "--max", "2", "--count", "3"])
    assert code == 0
    for r in parse_report(out):
        assert r["drift_rel_gap"] <= 1e-6


def test_mc_mode_deterministic(tmp_path):
    cfg = {
        "gamma": 1.0, "beta": 1.0,
        "potential": {"L": 6.283185307179586, "cos": []},
        "mc": {"dt": 0.01, "n_steps": 2000, "n_burnin": 100, "n_traj": 32,
               "seed": 7},
    }
    path = str(tmp_path / "m.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out1, out2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    args = ["mc", "--config", path, "--var", "force", "--min", "1", "--max", "1",
            "--count", "1"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    row = parse_report(out1)[0]
    assert abs(row["U_hat"] - 1.0) <= 4 * row["stderr_U"]


def test_config_error_exit_code(tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("not json")
    code = main(["transport", "--config", bad, "--out", str(tmp_path / "x.csv")])
    assert code == 1


_MC_SMALL = {"dt": 0.01, "n_steps": 200, "n_burnin": 10, "n_traj": 4, "seed": 0}


@pytest.mark.parametrize("command,cfg", [
    ("transport", {"sweep": {"count": "x"}}),
    ("transport", {"sweep": {"min": [0.0]}}),
    ("transport", {"sweep": 5}),
    ("transport", {"gamma": "x"}),
    ("transport", {"potential": {"L": 1.0, "cos": 5}}),
    ("expand", {"order": "nine"}),
    ("expand", {"orders": 5}),
    ("expand", {"order": 0}),
    ("expand", {"orders": [-1, 0, 1]}),
    ("expand", {"order": 5, "orders": [20]}),
    ("mc", {"mc": {"n_traj": "many"}}),
    ("mc", {"mc": dict(_MC_SMALL, seed=[1])}),
    ("mc", {"mc": dict(_MC_SMALL, n_traj=1)}),
    ("mc", {"mc": dict(_MC_SMALL, dt=-0.01)}),
    ("mc", {"mc": dict(_MC_SMALL, n_burnin=200)}),
    ("mc", {"mc": dict(_MC_SMALL, seed=-1)}),
    ("overdamped", {"trunc": {"n_fourier": "x"}}),
    ("transport", {"potential": {"L": 1.0, "cosine": [0.2]}}),
    ("transport", {"trunc": {"n_hermit": 8, "n_fourier": 4}}),
    ("transport", {"trunc": {"closure": "neumann"}}),
    ("transport", {"sweep": {"cnt": 2}}),
    ("mc", {"mc": dict(_MC_SMALL, n_trajectories=8)}),
    ("transport", {"sweep": {"count": True}}),
    ("transport", {"gamma": True}),
    ("transport", {"potential": {"L": True}}),
    ("transport", {"potential": {"L": 1.0, "cos": [True]}}),
    ("transport", {"trunc": {"n_hermite": 8, "n_fourier": True}}),
    ("mc", {"mc": dict(_MC_SMALL, seed=True)}),
    ("transport", {"trunc": {"n_hermite": 16.9, "n_fourier": 4}, "adaptive": False}),
    ("transport", {"trunc": {"n_hermite": 16, "n_fourier": 4.5}, "adaptive": False}),
    ("transport", {"sweep": {"count": 1.7, "min": 0.5, "max": 0.5}}),
    ("expand", {"order": 5.5}),
    ("expand", {"order": 5, "orders": [1, 2.5]}),
    ("mc", {"mc": dict(_MC_SMALL, n_steps=200.5)}),
    ("mc", {"mc": dict(_MC_SMALL, n_burnin=10.5)}),
    ("mc", {"mc": dict(_MC_SMALL, n_traj=4.5)}),
    ("mc", {"mc": dict(_MC_SMALL, seed=0.5)}),
    ("transport", {"gamma": "2"}),
    ("transport", {"trunc": {"n_hermite": "8"}}),
    ("transport", {"sweep": {"count": "1"}}),
    ("transport", {"potential": {"cos": ["0.3"]}}),
    ("expand", {"orders": []}),
], ids=["sweep-count", "sweep-min", "sweep-not-object", "gamma", "potential-cos",
        "order", "orders", "order-zero", "orders-below-one", "orders-above-order",
        "mc-n-traj",
        "mc-seed", "mc-one-trajectory", "mc-negative-dt", "mc-all-burn-in",
        "mc-negative-seed",
        "overdamped-n-fourier",
        "potential-unknown-key", "trunc-unknown-key", "trunc-closure",
        "sweep-unknown-key", "mc-unknown-key",
        "sweep-count-bool", "gamma-bool", "potential-L-bool", "potential-cos-bool",
        "trunc-n-fourier-bool", "mc-seed-bool",
        "n-hermite-fractional", "n-fourier-fractional", "sweep-count-fractional",
        "order-fractional", "orders-entry-fractional", "mc-n-steps-fractional",
        "mc-n-burnin-fractional", "mc-n-traj-fractional", "mc-seed-fractional",
        "gamma-string", "n-hermite-string", "sweep-count-string", "potential-cos-string",
        "orders-empty"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["transport", "expand", "overdamped", "mc",
                                     "einstein-check"])
@pytest.mark.parametrize("cfg", [{"mc": {"n_traj": "many"}}, {"orders": "x"},
                                 {"order": 0}, {"trunc": {"n_hermite": 8.5}},
                                 {"sweep": {"count": 0}}, {"scale": "yes"}],
                         ids=["mc-n-traj", "orders", "order-zero", "n-hermite",
                              "sweep-count", "scale"])
def test_malformed_key_is_a_config_error_in_every_subcommand(tmp_path, capsys,
                                                             command, cfg):
    # a key is checked whether or not the subcommand reads it
    path, out = tmp_path / "bad.json", tmp_path / "x.csv"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_null_is_the_default(tmp_path, flat_config):
    cfg = json.loads(open(flat_config).read())
    path = tmp_path / "null.json"
    path.write_text(json.dumps(dict(cfg, beta=None, orders=None, mc=None,
                                    sweep={"min": 1.0, "max": 1.0, "count": None})))
    out = tmp_path / "x.csv"
    assert main(["transport", "--config", str(path), "--out", str(out)]) == 0
    rows = parse_report(str(out))
    assert len(rows) == 9    # the default sweep count
    assert all(r["F"] == 1.0 and r["U"] == pytest.approx(0.5, abs=1e-12) for r in rows)


def test_integer_keys_take_integral_values_only(tmp_path, capsys, flat_config):
    # int(16.9) is 16: a fractional integer key must not be truncated silently
    cfg = json.loads(open(flat_config).read())
    path, out = tmp_path / "c.json", tmp_path / "x.csv"
    path.write_text(json.dumps(dict(cfg, trunc={"n_hermite": 16.9, "n_fourier": 2})))
    assert main(["transport", "--config", str(path), "--out", str(out)]) == 1
    assert "n_hermite must be an integer, got 16.9" in capsys.readouterr().err
    path.write_text(json.dumps(dict(cfg, trunc={"n_hermite": 16.0, "n_fourier": 2})))
    assert main(["transport", "--config", str(path), "--out", str(out),
                 "--count", "1"]) == 0
    assert parse_report(str(out))[0]["n_hermite"] == 16


def test_unknown_section_key_is_named(tmp_path, capsys):
    # a misspelt key must not leave its default silently in place
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"potential": {"L": 1.0, "cosine": [0.2]},
                                "trunc": {"n_hermit": 8, "n_fourier": 4},
                                "sweep": {"cnt": 2}}))
    out = tmp_path / "x.csv"
    assert main(["transport", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'cosine'" in err and "'potential'" in err
    assert not out.exists()


def test_unknown_top_level_key_is_ignored(tmp_path, flat_config):
    # top-level keys stay open: a config may carry keys of other tools
    cfg = json.loads(open(flat_config).read())
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(dict(cfg, workers=4)))
    out = tmp_path / "x.csv"
    assert main(["transport", "--config", str(path), "--out", str(out),
                 "--count", "1"]) == 0


@pytest.mark.parametrize("value", ["no", "false", 0, 1, [True]])
@pytest.mark.parametrize("command,key", [("transport", "adaptive"),
                                         ("expand", "adaptive"),
                                         ("einstein-check", "adaptive"),
                                         ("transport", "scale")])
def test_flags_must_be_json_booleans(tmp_path, capsys, command, key, value):
    # bool("no") is True: a string must not switch the adaptive ladder on
    path = tmp_path / "f.json"
    path.write_text(json.dumps({key: value}))
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert f"{key} must be true or false" in capsys.readouterr().err
    assert not out.exists()


def test_scale_needs_a_single_cosine_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(cli, "solve_transport", no_solve)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"potential": {"L": 1.0, "cos": [1.0, 0.3]},
                                "scale": True, "sweep": {"count": 3}}))
    out = tmp_path / "x.csv"
    assert main(["transport", "--config", str(path), "--out", str(out)]) == 1
    assert "single-cosine" in capsys.readouterr().err
    assert not out.exists()


def test_top_level_json_list_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"gamma": 1.0}]))
    code = main(["transport", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "must hold a JSON object" in capsys.readouterr().err


def test_mc_config_checked_per_sweep_point(tmp_path):
    # dt*gamma >= 0.5 at the second gamma only: a row error, not a config error
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "beta": 1.0, "potential": {"L": 6.283185307179586, "cos": []},
        "mc": _MC_SMALL, "sweep": {"variable": "gamma", "min": 1.0, "max": 60.0,
                                   "count": 2}}))
    out = str(tmp_path / "m.csv")
    assert main(["mc", "--config", str(path), "--out", out]) == 2
    first, second = parse_report(out)
    assert first["error"] == "" and first["gamma"] == 1.0
    assert second["gamma"] == 60.0
    assert second["error"].startswith("ValueError: dt*gamma = 0.6 >= 0.5")


def test_numerical_error_exit_code_and_error_column(tmp_path):
    cfg = {
        "gamma": 1.0, "beta": 1.0,
        "potential": {"L": 1.0, "cos": [1.0, 0.5]},   # 2 harmonics
        "trunc": {"n_hermite": 16, "n_fourier": 1},   # M below K_V
        "adaptive": False,
    }
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "x.csv")
    code = main(["transport", "--config", path, "--out", out,
                 "--var", "force", "--min", "0", "--max", "1", "--count", "2"])
    assert code == 2
    rows = parse_report(out)
    assert all(r["error"] for r in rows)
    assert [r["F"] for r in rows] == [0.0, 1.0]


def test_failed_mc_row_keeps_its_force(tmp_path):
    cfg = {
        "gamma": 0.5, "beta": 1.0,
        "potential": {"L": 6.283185307179586, "cos": []},
        "mc": {"dt": 0.01, "n_steps": 2000, "n_burnin": 0, "n_traj": 4, "seed": 0},
    }
    path = str(tmp_path / "m.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "m.csv")
    code = main(["mc", "--config", path, "--out", out, "--var", "force",
                 "--min", "1e308", "--max", "1e308", "--count", "1"])
    assert code == 2
    [row] = parse_report(out)
    assert row["force"] == 1e308
    assert row["error"].startswith("FloatingPointError: trajectory 0 diverged")


def test_fig_preset_smoke(tmp_path):
    out = str(tmp_path / "fig7.csv")
    code = main(["fig", "fig7", "--out", out])
    assert code == 0
    rows = parse_report(str(tmp_path / "fig7_F0.5.csv"))
    assert len(rows) == 10
    gammas = [r["gamma"] for r in rows]
    assert gammas == sorted(gammas)
    # drift decays like U_O/gamma at large friction
    assert rows[-1]["gamma"] == 50.0
    u_o = stratonovich_drift(PeriodicPotential.cosine(1.0, 1.0), 5.0, 0.5)
    assert 50.0 * rows[-1]["U"] == pytest.approx(u_o, rel=0.03)
    assert rows[0]["U"] > rows[-1]["U"] > 0


def test_fig_suffix_is_only_the_trailing_csv(tmp_path, monkeypatch):
    # an earlier ".csv" in the path is a directory name, not the suffix
    monkeypatch.setattr(cli, "FIG_PRESETS", {"tiny": [
        ("overdamped", {"sweep": {"min": 0.0, "max": 1.0, "count": 2}}, "a")]})
    folder = tmp_path / "runs.csv.d"
    folder.mkdir()
    assert main(["fig", "tiny", "--out", str(folder / "fig.csv")]) == 0
    assert len(parse_report(str(folder / "fig_a.csv"))) == 2


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["fig", "fig99", "--out", str(tmp_path / "f.csv")])


def test_fig2_is_not_a_preset(tmp_path):
    # fig2 was a copy of fig1 and computed it a second time
    assert "fig2" not in FIG_PRESETS
    with pytest.raises(SystemExit):
        main(["fig", "fig2", "--out", str(tmp_path / "f.csv")])


def test_console_entry_point(tmp_path, flat_config):
    out = str(tmp_path / "cli.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "washboard.cli", "transport", "--config",
         flat_config, "--out", out, "--var", "force", "--min", "1", "--max",
         "1", "--count", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_report(out)[0]["U"] == pytest.approx(0.5, abs=1e-12)


def _fig3_gamma05(tmp_path):
    """fig3's gamma=0.5 sweep from F = 2 up (9 of its 17 points)."""
    [(_, cfg, _)] = [entry for entry in FIG_PRESETS["fig3"] if entry[2] == "gamma0.5"]
    sweep = dict(cfg["sweep"], min=2.0, count=9)
    path = tmp_path / "fig3_gamma05.json"
    path.write_text(json.dumps(dict(cfg, sweep=sweep)))
    return str(path)


def _transport_bytes(tmp_path, config, name):
    out = tmp_path / name
    assert main(["transport", "--config", config, "--out", str(out)]) == 0
    return out.read_bytes()


def test_continued_sweep_rows_equal_the_full_ladder(tmp_path, monkeypatch):
    # fig3 at gamma=0.5 from F = 2: N falls 384 -> 256 -> 64 along the sweep,
    # and from F = 2.75 up the converged solutions at 384 carry a bump of
    # levels (a metastable locked state) above rungs that converge when solved
    config = _fig3_gamma05(tmp_path)
    monkeypatch.setattr(_fork, "_cpu_count", lambda: 1)   # count every solve here
    calls = _count_solves(monkeypatch)
    continued = _transport_bytes(tmp_path, config, "continued.csv")
    n_continued = len(calls)

    del calls[:]
    with monkeypatch.context() as m:   # no rung certifies: every one is solved
        m.setattr(transport, "_CERT_FACTOR", np.inf)
        uncertified = _transport_bytes(tmp_path, config, "uncertified.csv")
    n_uncertified = len(calls)

    del calls[:]
    solve = cli.solve_transport
    monkeypatch.setattr(cli, "solve_transport",
                        lambda params, trunc, adaptive, start: solve(params, trunc, adaptive))
    with monkeypatch.context() as m:   # and no predicted start: the full ladder
        _no_prediction(m)
        ladder = _transport_bytes(tmp_path, config, "ladder.csv")

    assert continued == uncertified == ladder
    assert (n_continued, n_uncertified, len(calls)) == (20, 30, 28)

    monkeypatch.setattr(cli, "solve_transport", solve)
    monkeypatch.setattr(_fork, "_cpu_count", lambda: 2)
    assert _transport_bytes(tmp_path, config, "split.csv") == continued


# Five forces, 0 .. 1.2, cut into contiguous chunks of 2+3 (two CPUs) or
# 1+2+2 (three), so 1.2 always lies in the last helper's chunk.
_SPLIT_CONFIG = {"gamma": 1.0, "beta": 5.0, "potential": {"L": 1.0, "cos": [1.0]},
                 "trunc": {"n_hermite": 64, "n_fourier": 16},
                 "sweep": {"variable": "force", "min": 0.0, "max": 1.2, "count": 5}}


def _split_main(tmp_path, monkeypatch, command, cpus, name):
    """Exit code and CSV path of ``command`` on _SPLIT_CONFIG at ``cpus``;
    a sweep still waiting on a helper after 30 s fails (exit code 2)."""
    def hung(signum, frame):
        raise TimeoutError("the sweep waited 30 s on its helpers")

    config, out = tmp_path / "split.json", tmp_path / name
    config.write_text(json.dumps(_SPLIT_CONFIG))
    monkeypatch.setattr(_fork, "_cpu_count", lambda: cpus)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code = main([command, "--config", str(config), "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out


def _split_run(tmp_path, monkeypatch, command, cpus, name):
    """Exit code and CSV bytes of :func:`_split_main`."""
    code, out = _split_main(tmp_path, monkeypatch, command, cpus, name)
    return code, out.read_bytes()


def _patch_solve(monkeypatch, action):
    """Run ``action(params)`` before every CLI solve, in whichever process
    solves."""
    solve = cli.solve_transport

    def patched(params, *args, **kwargs):
        action(params)
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_transport", patched)


def _fail_at_top(params):
    if params.force == 1.2:
        raise transport.SolverError("injected at F=1.2")


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.fixture
def pinnable():
    if not blas._controls():
        pytest.skip("no loaded OpenBLAS exports its thread entry points")


@pytest.mark.parametrize("command", ["transport", "expand", "einstein-check"])
def test_split_sweep_csv_equals_serial(tmp_path, monkeypatch, pinnable, command):
    _patch_solve(monkeypatch, _fail_at_top)
    forks = _count_forks(monkeypatch)
    runs = {}
    for cpus in (1, 2, 3):
        del forks[:]
        runs[cpus] = _split_run(tmp_path, monkeypatch, command, cpus, f"{cpus}.csv")
        assert len(forks) == cpus - 1
    assert runs[1] == runs[2] == runs[3]
    code, csv = runs[1]
    assert code == 2 and csv.count(b"SolverError: injected at F=1.2") == 1
    assert csv.count(b"\n") == 6


def test_split_mc_sweep_csv_equals_serial(tmp_path, monkeypatch, pinnable):
    # sweep helpers and trajectory blocks nested: at two CPUs the sweep forks
    # one helper, and each sweep process forks one block helper per point
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "gamma": 1.0, "beta": 5.0, "potential": {"L": 1.0, "cos": [1.0]},
        "mc": {"dt": 0.01, "n_steps": 600, "n_burnin": 50, "n_traj": 9, "seed": 2},
        "sweep": {"variable": "force", "min": 0.0, "max": 1.5, "count": 4}}))
    forks = _count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        del forks[:]
        monkeypatch.setattr(_fork, "_cpu_count", lambda: cpus)
        out = tmp_path / f"{cpus}.csv"
        assert main(["mc", "--config", str(config), "--out", str(out)]) == 0
        runs.append((len(forks), out.read_bytes()))
    assert [n for n, _ in runs] == [0, 3]
    assert runs[0][1] == runs[1][1] and runs[0][1].count(b"\n") == 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dead_helper_chunk_is_solved_again(tmp_path, monkeypatch, pinnable):
    serial = _split_run(tmp_path, monkeypatch, "transport", 1, "serial.csv")
    parent = os.getpid()

    def die_in_helper(params):
        if os.getpid() != parent and params.force == 1.2:
            os._exit(3)             # the helper's third point, chunk 0.6, 0.9, 1.2

    _patch_solve(monkeypatch, die_in_helper)
    forks = _count_forks(monkeypatch)
    split = _split_run(tmp_path, monkeypatch, "transport", 2, "split.csv")
    assert split == serial and serial[0] == 0
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_helpers_are_forked_before_the_first_solve(tmp_path, monkeypatch, pinnable):
    # every chunk climbs the ladder from n0 at its own first point: the
    # helper is forked before this process's first solve returns, and the
    # helper's first solve is given no start rung
    log = tmp_path / "solves.jsonl"
    forks = _count_forks(monkeypatch)
    solve = cli.solve_transport

    def logged(params, trunc, adaptive, start):
        res = solve(params, trunc, adaptive, start)
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), params.force, start, len(forks)]) + "\n")
        return res

    monkeypatch.setattr(cli, "solve_transport", logged)
    code, _ = _split_run(tmp_path, monkeypatch, "transport", 2, "split.csv")
    assert code == 0 and len(forks) == 1
    solves = [json.loads(line) for line in log.read_text().splitlines()]
    here = [s for s in solves if s[0] == os.getpid()]
    helper = [s for s in solves if s[0] == forks[0]]
    assert [s[1] for s in here] == pytest.approx([0.0, 0.3])
    assert [s[1] for s in helper] == pytest.approx([0.6, 0.9, 1.2])
    assert here[0][2] is None and here[0][3] == 1
    assert helper[0][2] is None


def _log_chain(monkeypatch, log, action=lambda: None):
    """Log every ``cli.build_chain`` call as ["chain", pid, forks so far] and
    every CLI solve as ["solve", pid, force] to ``log``; ``action`` runs at
    the chain's start."""
    forks = _count_forks(monkeypatch)
    build = cli.build_chain

    def write(entry):
        with open(log, "a") as fh:
            fh.write(json.dumps(entry) + "\n")

    def logged_chain(*args):
        write(["chain", os.getpid(), len(forks)])
        action()
        return build(*args)

    monkeypatch.setattr(cli, "build_chain", logged_chain)
    _patch_solve(monkeypatch, lambda params: write(["solve", os.getpid(), params.force]))
    return forks


def _entries(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def test_chain_is_built_between_the_fork_and_the_first_solve(
        tmp_path, monkeypatch, pinnable):
    log = tmp_path / "log.jsonl"
    forks = _log_chain(monkeypatch, log)
    code, _ = _split_run(tmp_path, monkeypatch, "expand", 2, "split.csv")
    assert code == 0 and len(forks) == 1
    here = [e for e in _entries(log) if e[1] == os.getpid()]
    helper = [e for e in _entries(log) if e[1] == forks[0]]
    assert here[0] == ["chain", os.getpid(), 1]
    assert [e[0] for e in here[1:]] == ["solve", "solve"]
    assert [e[0] for e in helper] == ["solve"] * 3


def test_chain_failure_after_the_fork_kills_the_helpers(tmp_path, monkeypatch, pinnable):
    def fail():
        raise transport.SolverError("injected chain failure")

    forks = _log_chain(monkeypatch, tmp_path / "log.jsonl", fail)
    code, out = _split_main(tmp_path, monkeypatch, "expand", 2, "split.csv")
    assert code == 2 and not out.exists()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("keeps_hook", [True, False])
def test_expand_through_a_wrapped_run_sweep(tmp_path, monkeypatch, pinnable, keeps_hook):
    # shaped like a tracer's wrapper: three positional arguments forwarded,
    # the point function wrapped with functools.wraps (which copies its
    # attributes) or, when ``keeps_hook`` is false, with a plain lambda
    plain = _split_run(tmp_path, monkeypatch, "expand", 2, "plain.csv")
    log = tmp_path / "log.jsonl"
    forks = _log_chain(monkeypatch, log)
    run_sweep = cli.run_sweep

    def wrapped_run_sweep(point_fn, values, workers=4):
        point = (functools.wraps(point_fn)(lambda v: point_fn(v)) if keeps_hook
                 else lambda v: point_fn(v))
        return run_sweep(point, values, workers)

    monkeypatch.setattr(cli, "run_sweep", functools.wraps(run_sweep)(wrapped_run_sweep))
    assert _split_run(tmp_path, monkeypatch, "expand", 2, "wrapped.csv")[1] == plain[1]
    assert [e for e in _entries(log) if e[0] == "chain"] == [["chain", os.getpid(), 1]]
    here = [e[0] for e in _entries(log) if e[1] == os.getpid()]
    assert here == (["chain", "solve", "solve"] if keeps_hook
                    else ["solve", "solve", "chain"])


def test_run_sweep_takes_three_arguments():
    # wrappers of run_sweep (a benchmark tracer's among them) forward exactly
    # these three; a new argument would make them fail
    assert list(inspect.signature(cli.run_sweep).parameters) == \
        ["point_fn", "values", "column"]


def test_sweep_runs_serially_without_fork(tmp_path, monkeypatch):
    serial = _split_run(tmp_path, monkeypatch, "transport", 1, "serial.csv")
    monkeypatch.delattr(os, "fork")
    assert _split_run(tmp_path, monkeypatch, "transport", 3, "nofork.csv") == serial


@pytest.mark.parametrize("call, err", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork", "pipe"])
def test_sweep_is_solved_here_when_no_helper_starts(tmp_path, monkeypatch, pinnable,
                                                    call, err):
    serial = _split_run(tmp_path, monkeypatch, "transport", 1, "serial.csv")

    def fail():
        raise OSError(err, os.strerror(err))

    monkeypatch.setattr(os, call, fail)
    assert _split_run(tmp_path, monkeypatch, "transport", 3, "failed.csv") == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fig1's gamma=0.01 row at 0.48 F_c (the third): its d_ibp_stability
    # came out differently on one and on two OpenBLAS threads
    [(_, cfg, _)] = [e for e in FIG_PRESETS["fig1"] if e[2] == "gamma0.01"]
    s = cfg["sweep"]
    force = float(np.linspace(s["min"], s["max"], s["count"])[2])
    config = tmp_path / "c.json"
    config.write_text(json.dumps(dict(cfg, sweep=dict(s, min=force, max=force, count=1))))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(pathlib.Path(washboard.__file__).resolve().parents[1])
    csvs = []
    for threads in (None, "1"):
        out = tmp_path / f"threads{threads}.csv"
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "washboard.cli", "transport", "--config",
                        str(config), "--out", str(out)], env=run_env, check=True,
                       timeout=120)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert parse_report(str(tmp_path / "threads1.csv"))[0]["n_hermite"] == 1536

