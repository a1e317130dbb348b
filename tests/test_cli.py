import json
import subprocess
import sys

import numpy as np
import pytest

from washboard.cli import FIG_PRESETS, emit_report, main, parse_report
from washboard.model import PeriodicPotential
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
    # the chain's quadrature uses 2N+8 = 1032 Gauss nodes here, where bare
    # Hermite polynomials overflow
    out = str(tmp_path / "e512.csv")
    code = main(["expand", "--gamma", "1", "--n-hermite", "512", "--order", "9",
                 "--count", "2", "--max", "0.2", "--out", out])
    assert code == 0
    rows = parse_report(out)
    series = [k for k in rows[0] if k.startswith(("U_", "D_"))]
    assert series and all(np.isfinite(r[k]) for r in rows for k in series)
    assert rows[0]["D_full_order_1"] == pytest.approx(rows[0]["D_spectral"], rel=1e-9)


def test_einstein_check_gap(tmp_path, cos_config):
    out = str(tmp_path / "g.csv")
    code = main(["einstein-check", "--config", cos_config, "--out", out,
                 "--var", "force", "--min", "0.0", "--max", "1.0", "--count", "3"])
    assert code == 0
    rows = parse_report(out)
    assert abs(rows[0]["gap"]) <= 1e-8
    assert abs(rows[-1]["gap"]) > 1e-5 * rows[-1]["D_spectral"]
    for r in rows:
        assert r["gap"] == pytest.approx(r["D_spectral"] - r["beta_inv_dUdF"],
                                         rel=1e-12, abs=1e-300)


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
