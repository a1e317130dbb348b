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


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import washboard, washboard.cli`` loads ``module``."""
    code = f"import sys, washboard, washboard.cli; print({module!r} in sys.modules)"
    env_path = str(pathlib.Path(washboard.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": env_path})
    return {"True": True, "False": False}[out.stdout.strip()]


def test_import_loads_no_sparse_solver():
    # every -L solve goes through transport's level recursion; a second
    # solver built on scipy.sparse.linalg would show up here
    assert not _loaded_by_import("scipy.sparse.linalg")


def test_import_loads_no_sparse_matrices():
    # only the assembled reference operator builds a sparse matrix, and it
    # imports scipy.sparse when called; pytest's own warning filters import
    # it into this process, so the check runs in a fresh one
    assert not _loaded_by_import("scipy.sparse")


def test_import_loads_no_multiprocessing():
    # the Monte Carlo noise helper is a bare os.fork; multiprocessing would
    # add its import to every process that imports the package
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


def test_traced_sweep_writes_the_untraced_csv(tmp_path):
    # the traced benchmark wraps run_sweep and forwards its three arguments
    # positionally; the gamma = 0 point fails, and its row must still carry
    # its swept value
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
    assert traced.splitlines()[1].startswith(b"0,,")   # the failed row's gamma
