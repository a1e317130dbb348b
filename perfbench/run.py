"""Benchmark of the ``washboard`` solver: checked workloads, optionally traced.

    python3 perfbench/run.py --workload underdamped|series|mc|all \\
        --seed N --seconds S --trace 0|1

Every workload runs in fresh processes through the public CLI entry
(``washboard transport|expand|mc --config ...``, called in-process via
``washboard.cli.main``), on inputs generated from the seed (workloads.py).
Every output row is graded by check.py.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Lines before it give the machine
and every failed row with the checks it missed.  Work files go to
``.perfbench_work/`` in the checkout.

``setup_s`` is the median over several fresh processes of the time to
``washboard`` imported with one warm-up solve done.  The workload is then
repeated, each time in a fresh process, for about ``--seconds`` (at least
once); times are medians over the repetitions.  A traced run alternates an
untraced and a traced repetition, so ``trace_overhead_s`` compares the two,
and makes at least two traced repetitions.  Every repetition starts with
its output files deleted, so a call that writes none fails its rows.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
SETUPS = 7
PROCESS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _setup_time() -> float:
    """Seconds from spawning a fresh process to its ``ready`` line.

    The worker stamps ``ready`` with time.monotonic(), a system-wide clock,
    so the process's exit is not counted.
    """
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), "--setup"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise BenchError(f"set-up process failed (exit {proc.returncode})")
    return float(words[1]) - start


class Workload:
    """One workload at one seed: its inputs, repetitions and grading."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.seed, self.trace = name, seed, trace
        self.calls = plan(name, seed)
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)   # nothing of an earlier run is graded
        self.dir.mkdir(parents=True)
        self.csvs = [self.dir / f"{call.name}.csv" for call in self.calls]
        argv = []
        for call, csv in zip(self.calls, self.csvs):
            cfg = self.dir / f"{call.name}.json"
            cfg.write_text(json.dumps(call.config, indent=1))
            argv.append([call.command, "--config", str(cfg), "--out", str(csv)])
        self.plan = {"workload": name, "calls": [{"argv": a} for a in argv]}
        self.oracles = self._mc_oracles()

    def _mc_oracles(self) -> list[dict | None]:
        """Criterion 12's references for the mc calls, in one untimed process."""
        specs = [dict(c.meta, force=c.forces[0]) for c in self.calls if c.command == "mc"]
        if not specs:
            return [None] * len(self.calls)
        specs_path, out = self.dir / "oracle_specs.json", self.dir / "oracles.json"
        specs_path.write_text(json.dumps(specs))
        proc = subprocess.run([sys.executable, str(WORKER), "--oracles", str(specs_path),
                               "--out", str(out)], cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{self.name}: oracle process failed (exit {proc.returncode})")
        found = iter(json.loads(out.read_text()))
        return [next(found) if c.command == "mc" else None for c in self.calls]

    def repetition(self, traced: bool) -> dict:
        plan_path, out = self.dir / "plan.json", self.dir / "result.json"
        plan_path.write_text(json.dumps(self.plan))
        for path in (out, *self.csvs):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(WORKER), "--plan", str(plan_path), "--out", str(out)]
        if traced:
            cmd += ["--trace", str(self.dir / "spans.jsonl")]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{self.name}: workload process failed (exit {proc.returncode})")
        result = json.loads(out.read_text())
        result["verdicts"] = self.grade()
        return result

    def grade(self) -> list[tuple[str, str, list[str]]]:
        """Verdicts on this repetition's CSVs; a call that wrote none fails ``inputs``."""
        verdicts = []
        for call, csv, oracle in zip(self.calls, self.csvs, self.oracles):
            rows = check.parse_csv(csv.read_text()) if csv.exists() else []
            for label, missed in check.grade(call.command, rows, call.forces,
                                             call.meta, [oracle] if oracle else None):
                verdicts.append((call.name, label, missed))
        return verdicts


def _measure(wl: Workload, seconds: float) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repetitions filling about ``seconds``.

    A traced run makes at least two traced repetitions, so that the check
    that their counts repeat always has two samples.
    """
    plain, traced = [], []
    begin = time.monotonic()
    while True:
        plain.append(wl.repetition(False))
        if wl.trace:
            traced.append(wl.repetition(True))
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / len(plain) > seconds:
            break
    while wl.trace and len(traced) < 2:
        traced.append(wl.repetition(True))
    return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    wl = Workload(name, seed, trace)
    setup_s = statistics.median(_setup_time() for _ in range(SETUPS))
    plain, traced = _measure(wl, seconds)
    reps = plain + traced

    first = reps[0]["verdicts"]
    problems = []
    if any(r["verdicts"] != first for r in reps[1:]):
        problems.append("repetitions of the same inputs graded differently")
    if any(code not in (0, 2) for r in reps for code in r["codes"]):
        problems.append(f"CLI exit codes {[r['codes'] for r in reps]}")
    if any("inputs" in missed for _, _, missed in first):
        problems.append("output rows do not match the requested inputs")
    failed_rows = [(c, label, missed) for c, label, missed in first if missed]

    wall_s = statistics.median(r["wall_s"] for r in plain)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ok_points_per_s": (len(first) - len(failed_rows)) / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if trace:
        from spans import COUNTS
        layers = [r["layers"] for r in traced]
        for key in layers[0]:
            if key in COUNTS:
                if any(lay[key] != layers[0][key] for lay in layers):
                    problems.append(f"count {key} differs between traced repetitions")
                values[key] = layers[0][key]
            else:
                values[key] = statistics.median(lay[key] for lay in layers)
        values["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - wall_s)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "wall_s": {"untraced": [r["wall_s"] for r in plain],
                   "traced": [r["wall_s"] for r in traced]},
        "machine": reps[0]["machine"],
        "failed_rows": [{"call": c, "row": label, "missed": missed}
                        for c, label, missed in failed_rows],
        "problems": problems,
    }
    (wl.dir / "report.json").write_text(json.dumps(dict(report, values=values), indent=1))
    print(json.dumps({"machine": reps[0]["machine"]}))
    for c, label, missed in failed_rows:
        print(f"FAIL {name} {c} {label}: {', '.join(missed)}")
    for p in problems:
        print(f"PROBLEM {name}: {p}")
    print(f"{name}: {len(first)} rows attempted, {len(failed_rows)} failed; "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    return {
        "correct": not problems,
        "attempted": len(first),
        "failed": len(failed_rows),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="washboard benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in names}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    for w, res in results.items():
        print(json.dumps(dict(res, workload=w)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
