"""One fresh benchmark process.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --plan PLAN.json --out RESULT.json [--trace SPANS.jsonl]
    python3 perfbench/worker.py --oracles SPECS.json --out ORACLES.json

Every form imports ``washboard`` from the checkout's ``src/``, does one
warm-up solve and prints ``ready`` with the time.monotonic() reading.
``--setup`` stops there.  ``--plan`` runs the plan's CLI calls in-process
through ``washboard.cli.main``, timing them as one block, then records its
peak resident memory.  With ``--trace`` the package is instrumented first
and the spans go to the given file.  ``--oracles`` computes criterion 12's
reference for each Monte Carlo spec in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup() -> None:
    import washboard.cli

    if not Path(washboard.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"washboard imported from {washboard.cli.__file__}, not this checkout")
    from washboard import ModelParams, PeriodicPotential, TruncationSpec, solve_transport

    params = ModelParams(gamma=1.0, beta=5.0, force=0.5,
                         potential=PeriodicPotential.cosine(1.0, 1.0))
    solve_transport(params, TruncationSpec(64, 24))
    print(f"ready {time.monotonic()!r}", flush=True)


def machine(cli) -> dict:
    """Where the numbers were measured; read only, nothing is changed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in threads},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cli_sweep_workers": getattr(cli, "_DEFAULTS", {}).get("workers"),
    }


def oracle(spec: dict) -> dict:
    """Criterion 12's reference: solve_transport at N=128, M=24, adaptive."""
    from washboard import ModelParams, PeriodicPotential, TruncationSpec, solve_transport

    params = ModelParams(gamma=spec["gamma"], beta=spec["beta"], force=spec["force"],
                         potential=PeriodicPotential(period=spec["L"],
                                                     cos_coeffs=spec["cos"]))
    res = solve_transport(params, TruncationSpec(128, 24), adaptive=True)
    return {"U": res.drift, "D": res.d_primary}


def run(plan: dict, spans_path: str | None) -> dict:
    import washboard.cli as cli

    recorder = None
    if spans_path:
        import spans
        recorder = spans.Recorder(plan["workload"])
        spans.install(recorder)
    main = recorder.wrap("cli.main", cli.main) if recorder else cli.main

    start = time.perf_counter()
    codes = [main(call["argv"]) for call in plan["calls"]]
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "codes": codes,
              "machine": machine(cli)}
    if recorder:
        result["layers"] = spans.layer_metrics(recorder.spans)
        recorder.dump(spans_path)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--out")
    ap.add_argument("--trace")
    ap.add_argument("--oracles")
    args = ap.parse_args()
    setup()
    if args.setup:
        return 0
    if args.oracles:
        with open(args.oracles) as fh:
            result = [oracle(spec) for spec in json.load(fh)]
    else:
        with open(args.plan) as fh:
            result = run(json.load(fh), args.trace)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
