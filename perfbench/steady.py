"""Steadiness check: run each workload once per seed and report, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --workload replay-verify --seeds 5 --first-seed 100

Run from the repository root. Runs are made one at a time, each in its own
process. A spread above a third of the bound is flagged ``WIDE``, one above
the bound ``OVER``. Exits 1 when any run fails or reports incorrect output.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0], *spec["command"][1:],
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        print(f"  seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return result


def summarize(name: str, unit: str, values: list[float], bound: float) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    flag = "OVER" if spread > bound else ("WIDE" if spread > bound / 3 else "ok")
    return (f"  {name:<28} median {med:12.6g} {unit:<6} q1 {q1:12.6g} q3 {q3:12.6g} "
            f"spread {spread:7.4f} bound {bound:.3f} {flag}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.seeds < 4:
        parser.error("quartiles need at least 4 seeds")

    import numpy

    print(f"host nproc {os.cpu_count()} python {platform.python_version()} numpy {numpy.__version__}")
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workload or names:
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}, {args.seconds} s each")
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            res = run_once(spec, workload, seed, args.seconds)
            if res is None:
                ok = False
                continue
            results.append(res)
            vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.5g}" for m in metrics)
            print(f"  seed {seed} ({time.monotonic() - t0:.0f} s): {vals}", flush=True)
        if len(results) < 4:
            print("  too few successful runs for quartiles")
            continue
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            print(summarize(m["name"], m["unit"], values, m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
