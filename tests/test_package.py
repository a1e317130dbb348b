import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import washboard

_MODULES = ["washboard"] + [f"washboard.{m.name}"
                            for m in pkgutil.iter_modules(washboard.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


_EXPORTS = [
    "EquilibriumChain", "ExpansionTable", "HermiteFourierField", "HierarchyBlocks",
    "HierarchyFactors", "McConfig", "McEstimate", "ModelParams", "OverdampedResult",
    "PeriodicPotential", "ReferenceScales", "StationaryDensity", "TransportResult",
    "TruncationSpec", "apply_lower", "apply_momentum", "apply_raise", "build_chain",
    "compute_diffusion", "diffusion_coefficients", "factor_hierarchy",
    "hierarchy_blocks", "lifson_jackson_diffusion", "partial_sum_D", "partial_sum_U",
    "reference_scales", "series_radius_estimate", "simulate", "solve_cell_problem",
    "solve_overdamped", "solve_stationary_fp", "solve_transport", "stratonovich_drift",
]


def test_exports_are_pinned():
    # the library surface changes only on purpose: a name added to or dropped
    # from washboard.__all__ is added to or dropped from this list
    assert sorted(washboard.__all__) == _EXPORTS


def _loaded_by_import(module: str, run: str = "") -> bool:
    """Whether a fresh ``import washboard, washboard.cli``, followed by the
    statements ``run``, loads ``module``."""
    code = (f"import sys, washboard, washboard.cli\n{run}\n"
            f"print({module!r} in sys.modules)")
    env_path = str(pathlib.Path(washboard.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": env_path})
    return {"True": True, "False": False}[out.stdout.strip().splitlines()[-1]]


def test_import_loads_no_sparse_solver():
    # every -L solve goes through transport's level recursion; a second
    # solver built on scipy.sparse.linalg would show up here
    assert not _loaded_by_import("scipy.sparse.linalg")


def test_import_loads_no_sparse_matrices():
    # only the assembled reference operator builds a sparse matrix, and it
    # imports scipy.sparse when called; pytest's own warning filters import
    # it into this process, so the check runs in a fresh one
    assert not _loaded_by_import("scipy.sparse")


def test_import_and_solves_load_no_scipy(tmp_path):
    # LAPACK comes from numpy's own OpenBLAS and the Gauss-Hermite rule is
    # computed in numpy, so neither importing nor a transport and an expand
    # sweep loads scipy, or the second OpenBLAS copy its wheel brings
    run = "\n".join([
        "from washboard import blas",
        "from washboard.cli import main",
        f"out = {str(tmp_path)!r}",
        "assert main(['transport', '--n-hermite', '32', '--n-fourier', '8',"
        " '--count', '3', '--out', out + '/t.csv']) == 0",
        "assert main(['expand', '--order', '3', '--max', '0.5', '--count', '3',"
        " '--out', out + '/e.csv']) == 0",
        "assert len(blas._controls()) == 1",
    ])
    # a scipy submodule cannot be loaded without the scipy package
    assert not _loaded_by_import("scipy", run)
    assert (tmp_path / "t.csv").exists() and (tmp_path / "e.csv").exists()


def test_import_loads_no_multiprocessing():
    # sweep helpers and Monte Carlo trajectory blocks are forked by washboard._fork
    # with a bare os.fork; multiprocessing would add its import to every
    # process that imports the package
    assert not _loaded_by_import("multiprocessing")


def test_import_loads_no_thread_pool():
    # sweeps share their points out to forked processes, not to a thread pool,
    # whose import would show here
    assert not _loaded_by_import("concurrent.futures.thread")


def _load_spans():
    # the traced benchmark's span recorder imports only the standard library
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_benchmark_targets_resolve():
    # spans.install patches every target by name and raises AttributeError on
    # a missing one, which breaks every traced benchmark run
    spans = _load_spans()
    assert spans.TARGETS
    for mod_name, attr, _, _ in spans.TARGETS:
        obj = importlib.import_module(f"washboard.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"washboard.{mod_name}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj)


def test_traced_ladder_records_one_stationary_span_per_rung():
    # the traced benchmark reads each rung's n_hermite off the second
    # positional argument of solve_stationary_fp, and counts the rungs an
    # adaptive solve discards from that function's spans; so every rung must
    # be solved by one call through the module attribute, trunc passed
    # positionally.  fig3's gamma=0.5 point at F=2.75 solves five rungs: n0,
    # the predicted start 128 and up to the answer 256, then 96 below it.
    spans_py = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    code = "\n".join([
        "import importlib.util, json",
        f"spec = importlib.util.spec_from_file_location('spans', {str(spans_py)!r})",
        "spans = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(spans)",
        "from washboard import transport",
        "from washboard.basis import TruncationSpec",
        "from washboard.model import ModelParams, PeriodicPotential",
        "recorder = spans.Recorder('ladder')",
        "spans.install(recorder)",
        "params = ModelParams(gamma=0.5, beta=5.0, force=2.75,",
        "                     potential=PeriodicPotential.cosine(1.0, 1.0))",
        "res = transport.solve_transport(params, TruncationSpec(64, 24), adaptive=True)",
        "stationary = [s.attrs['n_hermite'] for s in recorder.spans",
        "              if s.name == 'transport.solve_stationary_fp']",
        "metrics = spans.layer_metrics(recorder.spans)",
        "print(json.dumps([res.diagnostics['rungs_tried'], stationary,",
        "                  metrics['transport.discarded_truncations']]))",
    ])
    env_path = str(pathlib.Path(washboard.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": env_path})
    tried, stationary, discarded = json.loads(out.stdout.strip().splitlines()[-1])
    assert tried == stationary == [64, 128, 192, 256, 96]
    assert discarded == len(tried) - 1


def test_traced_sweep_writes_the_untraced_csv(tmp_path):
    # the traced benchmark wraps run_sweep and forwards its three arguments
    # positionally; the gamma = 0 point fails, and its row must still carry
    # its swept value and the fixed force
    from washboard.cli import main
    cfg = {"gamma": 1.0, "beta": 5.0, "force": 0.5,
           "potential": {"L": 1.0, "cos": [1.0]},
           "trunc": {"n_hermite": 16, "n_fourier": 8}, "adaptive": False,
           "sweep": {"variable": "gamma", "min": 0.0, "max": 1.0, "count": 3}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))

    def argv(name):
        return ["transport", "--config", str(tmp_path / "c.json"),
                "--out", str(tmp_path / name)]

    (tmp_path / "plan.json").write_text(json.dumps(
        {"workload": "tiny", "calls": [{"argv": argv("traced.csv")}]}))
    worker = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    proc = subprocess.run([sys.executable, str(worker),
                           "--plan", str(tmp_path / "plan.json"),
                           "--out", str(tmp_path / "r.json"),
                           "--trace", str(tmp_path / "spans.jsonl")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["codes"] == [2]
    assert main(argv("plain.csv")) == 2
    traced = (tmp_path / "traced.csv").read_bytes()
    assert traced == (tmp_path / "plain.csv").read_bytes()
    assert traced.splitlines()[1].startswith(b"0,0.5,")   # the failed row's gamma, F
