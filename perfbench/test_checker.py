"""Self-test of the benchmark's checker and span recorder.

    python3 -m pytest perfbench

Each known way a row can be wrong must be counted as a failed row, including
one real case produced by the CLI today.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
from workloads import plan  # noqa: E402

META = {"gamma": 0.1, "beta": 2.0}          # D_L = 5


def _transport_row(F, **over):
    row = {"gamma": 0.1, "F": F, "U": 1.0, "D_primary": 5.0, "D_ibp": 5.0,
           "top_level_ratio": 1e-12, "top_level_ratio_phi": 1e-12, "error": ""}
    row.update(over)
    return row


def _missed(command, rows, meta, oracles=None):
    forces = [r.get("F", r.get("force")) for r in rows]
    return [m for _, m in check.grade(command, rows, forces, meta, oracles)]


def test_transport_defects_are_counted():
    rows = [
        _transport_row(0.1),
        _transport_row(0.2, error="SolverError: singular"),
        _transport_row(0.3, U=math.nan),
        _transport_row(0.4, D_ibp=5.0 + 1e-5),          # gap 2e-6 D_L
        _transport_row(0.5, top_level_ratio_phi=1e-5),
    ]
    assert _missed("transport", rows, META) == [
        [], ["error"], ["finite"], ["dual_D"], ["top_level"]]


def test_point_that_raised_is_a_failed_row():
    text = ("gamma,F,U,D_primary,D_ibp,top_level_ratio,top_level_ratio_phi,error\n"
            ",,,,,,,SolverError: dimension 2, expected 1\n")
    rows = check.parse_csv(text)
    assert rows[0]["error"] == "SolverError: dimension 2, expected 1"
    [(_, missed)] = check.grade("transport", rows, [0.3], META)
    assert missed == ["error", "finite", "dual_D", "top_level"]


def test_missing_or_wrong_rows_fail_inputs():
    rows = [_transport_row(0.1), _transport_row(0.25)]
    verdicts = check.grade("transport", rows, [0.1, 0.2, 0.3], META)
    assert [m for _, m in verdicts] == [[], ["inputs"], ["inputs"]]


def test_series_einstein_and_nan():
    base = {"F": 0.0, "U_spectral": 0.0, "D_spectral": 0.2, "U_order_1": 0.0,
            "D_full_order_1": 0.2, "D_naive_order_1": 0.2, "error": ""}
    off = dict(base, D_spectral=0.2 * (1 + 2e-6))
    nan = dict(base, F=0.5, U_order_1=math.nan)
    assert _missed("expand", [base, off, nan], {}) == [[], ["einstein"], ["finite"]]


def test_mc_five_sigma_miss():
    row = {"force": 1.0, "U_hat": 1.0, "D_hat": 0.1, "stderr_U": 0.01,
           "stderr_D": 0.01, "error": ""}
    near = {"U": 1.0 + 3.9 * 0.01, "D": 0.1}
    far = {"U": 1.0 + 5 * 0.01, "D": 0.1 - 5 * 0.01}
    assert _missed("mc", [row], {}, [near]) == [[]]
    assert _missed("mc", [row], {}, [far]) == [["mc_U", "mc_D"]]


def test_real_case_nan_series_with_empty_error(tmp_path):
    """``washboard expand --gamma 0.1 --n-hermite 512 --order 9`` exits 0 with an
    empty error column, but GibbsQuadrature's Hermite table overflows at
    2N+8 nodes and every series column is NaN."""
    from washboard.cli import main

    out = tmp_path / "expand.csv"
    code = main(["expand", "--gamma", "0.1", "--n-hermite", "512", "--order", "9",
                 "--out", str(out)])
    rows = check.parse_csv(out.read_text())
    assert code == 0 and rows and not any(r["error"] for r in rows)
    verdicts = check.grade("expand", rows, [r["F"] for r in rows], {})
    assert all("finite" in missed for _, missed in verdicts)


def test_seeded_grids_match_sweep_bounds():
    for workload in ("underdamped", "series"):
        for seed in (0, 7):
            for call in plan(workload, seed):
                sweep = call.config["sweep"]
                lo, hi = call.forces[0], call.forces[-1]
                assert sweep["min"] == lo and sweep["max"] == hi
                assert len(call.forces) == sweep["count"]
    assert plan("series", 3) == plan("series", 3)
    assert plan("series", 3) != plan("series", 4)
    assert plan("mc", 5)[0].config["mc"]["seed"] == 5


def _passing_series_csv(call) -> str:
    """A CSV whose rows pass every series check for ``call``'s forces."""
    lines = ["F,U_spectral,D_spectral,D_full_order_0,error"]
    lines += [f"{F!r},0.1,0.2,0.2," for F in call.forces]
    return "\n".join(lines) + "\n"


def test_call_without_fresh_csv_fails(tmp_path, monkeypatch):
    """A call that exits 2 and writes no CSV fails all its rows, and the run
    is not correct, although an earlier run and an earlier repetition left
    passing CSVs with the same names."""
    import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    stale_dir = tmp_path / "series-seed0-trace0"
    stale_dir.mkdir()
    calls = plan("series", 0)
    for call in calls:                               # left by an earlier run
        (stale_dir / f"{call.name}.csv").write_text(_passing_series_csv(call))

    def fake_run(cmd, **kwargs):
        if "--setup" in cmd:
            return subprocess.CompletedProcess(cmd, 0, stdout="ready 0.0\n")
        out = Path(cmd[cmd.index("--out") + 1])
        for call in calls:                           # left by an earlier repetition
            assert not (out.parent / f"{call.name}.csv").exists()
        out.write_text(json.dumps({"wall_s": 1.0, "peak_rss_mb": 1.0,
                                   "codes": [2] * len(calls), "machine": {}}))
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    wl = run.Workload("series", 0, False)
    for call, csv in zip(calls, wl.csvs):
        csv.write_text(_passing_series_csv(call))
    assert all(not missed for _, _, missed in wl.grade())
    rep = wl.repetition(False)
    assert all(missed == ["inputs"] for _, _, missed in rep["verdicts"])

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = run.run_workload("series", 0, 0.0, False, spec)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] == 39


@pytest.mark.parametrize("workers", [1, 4])
def test_traced_worker_counts_repeat(tmp_path, workers):
    """A traced run of a tiny sweep records every boundary, in both the
    serial and the threaded sweep, and its counts repeat exactly."""
    cfg = {"gamma": 1.0, "beta": 5.0, "potential": {"L": 1.0, "cos": [1.0]},
           "trunc": {"n_hermite": 16, "n_fourier": 8}, "workers": workers,
           "adaptive": False,
           "sweep": {"variable": "force", "min": 0.0, "max": 0.5, "count": 3}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    argv = ["transport", "--config", str(tmp_path / "c.json"),
            "--out", str(tmp_path / "t.csv")]
    (tmp_path / "plan.json").write_text(json.dumps(
        {"workload": "tiny", "calls": [{"argv": argv}]}))
    layers = []
    for _ in range(2):
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        "--plan", str(tmp_path / "plan.json"),
                        "--out", str(tmp_path / "r.json"),
                        "--trace", str(tmp_path / "spans.jsonl")],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        layers.append(json.loads((tmp_path / "r.json").read_text())["layers"])
    import spans
    for key in spans.COUNTS:
        assert layers[0][key] == layers[1][key], key
    lay = layers[0]
    assert lay["transport.solve_calls"] == 3
    assert lay["basis.hermite_table_calls"] == 3 * 9     # 9 cutoffs per D
    assert lay["transport.useful_ratio"] == 1.0
    assert lay["cli.concurrency"] > 0.5
    recorded = [json.loads(ln) for ln in open(tmp_path / "spans.jsonl")]
    by_id = {s["id"]: s for s in recorded}
    for s in recorded:
        if s["name"] == "transport.solve_transport":
            assert by_id[s["parent"]]["name"] == "cli.point"
            assert s["point"] in (0.0, 0.25, 0.5)
        if s["name"] == "cli.point":
            assert by_id[s["parent"]]["name"] == "cli.run_sweep"
