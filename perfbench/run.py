"""twinroom benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload live-session --seed 1 --seconds 25 --trace 0

Run from the repository root. Prints a few human-readable lines, then as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(and the tracing overhead) with ``--trace 1``. Exits 1 when any correctness
gate fails and 2 when the program cannot be found or the arguments are bad.
"""

from __future__ import annotations

import os

# one thread for numpy's BLAS/OpenMP pools; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
TRACED_PAIRS = 3

# the metrics of the JSON line, as BENCHMARK.json lists them
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms_tail": "ms",
    "placement_score_mean": "score",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed but left out of the JSON line and its bounds: on replay-verify the
# median tick sits at the edge of one of two modes and moves too much
PRINTED_UNITS = {"latency_ms_p50": "ms", **END_TO_END_UNITS}


def _fail(msg: str, code: int = 2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "twinroom" / "__init__.py").is_file():
        _fail(f"the twinroom sources are not at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy

    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"host nproc {os.cpu_count()} python {platform.python_version()} numpy {numpy.__version__}")

    if args.trace:
        result = run_traced(cls, args)
    else:
        result = run_plain(cls, args)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def setup_repeated(cls, seed: int):
    """Set the workload up several times from scratch; the inputs must come
    out identical every time. Returns the last instance and the median
    set-up time, normalized by the host probe."""
    from hostspeed import HostProbe

    windows, digests = [], []
    with HostProbe() as probe:
        for _ in range(SETUP_REPEATS):
            w = cls(seed)
            t0 = time.perf_counter()
            digests.append(w.setup())
            windows.append((t0, time.perf_counter()))
    w.ledger.op(len(set(digests)) == 1, "set-up produced different inputs from the same seed")
    print(f"inputs_sha256 {digests[-1]}")
    times = [probe.normalize(b - a - probe.busy(a, b), a, b) for a, b in windows]
    print(f"setup wall {' '.join(f'{b - a:.4g}' for a, b in windows)} s, "
          f"normalized {' '.join(f'{t:.4g}' for t in times)} s")
    return w, statistics.median(times)


def _report(w) -> dict:
    for problem in w.ledger.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    fail_ratio = w.ledger.failed / w.ledger.attempted if w.ledger.attempted else 1.0
    print(f"fail_ratio {fail_ratio:.6g} ({w.ledger.failed} of {w.ledger.attempted} ops)")
    return {
        "correct": w.ledger.failed == 0 and w.ledger.attempted > 0,
        "attempted": max(w.ledger.attempted, 1),
        "failed": w.ledger.failed if w.ledger.attempted else 1,
    }


def run_plain(cls, args) -> dict:
    w, setup_s = setup_repeated(cls, args.seed)
    m, probe = w.measure(args.seconds)
    _require_rounds(w, m)
    w.verify(m)
    values = dict(w.metrics(m, probe))
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"outputs_sha256 {_outputs_digest(m)}")
    print(f"rounds {len(m.rounds)} of {m.attempts}, latency samples per round "
          f"{min(len(r.intervals) for r in m.rounds)}-{max(len(r.intervals) for r in m.rounds)}, "
          f"{len(probe.durations)} probes")
    print(f"host slowdown per round {' '.join(f'{probe.slowdown(r.start, r.end):.3g}' for r in m.rounds)}")
    print(f"throughput per round: wall {' '.join(f'{r.wall_rate(probe):.4g}' for r in m.rounds)}, "
          f"normalized {' '.join(f'{r.figures(probe)[0]:.4g}' for r in m.rounds)} 1/s")
    for name, unit in PRINTED_UNITS.items():
        print(f"metric {name} {values[name]:.6g} {unit}")
    for alias, name in w.aliases.items():
        print(f"metric {alias} {values[name]:.6g} {PRINTED_UNITS[name]} (= {name})")
    result = _report(w)
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    return result


def run_traced(cls, args) -> dict:
    """The same fixed inputs, untraced and traced rounds in turn; the layer
    metrics cover the traced rounds, the overhead is the median over the
    pairs of untraced over traced normalized throughput."""
    from hostspeed import HostProbe
    from tracing import LAYER_METRICS, Tracer
    from workloads import Measured

    w = cls(args.seed)
    inputs = w.setup()
    print(f"inputs_sha256 {inputs}")
    plain, traced, tracer = Measured(), Measured(), Tracer()
    with HostProbe() as probe:
        for _ in range(TRACED_PAIRS):
            w.run_round(plain)
            tracer.install()
            try:
                w.run_round(traced)
            finally:
                tracer.close()
    _require_rounds(w, plain)
    _require_rounds(w, traced)
    w.verify(plain)
    w.ledger.op(traced.outputs == plain.outputs, "tracing changed the program's outputs")
    ratios = [p.figures(probe)[0] / t.figures(probe)[0] for p, t in zip(plain.rounds, traced.rounds)]
    values = tracer.layer_metrics()
    values["traces.save_ms"] = w.save_s * 1e3
    values["traces.load_ms"] = w.load_s * 1e3
    values["tracing.overhead_ratio"] = statistics.median(ratios)
    spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"outputs_sha256 {_outputs_digest(plain)}")
    print(f"tracing overhead per pair {' '.join(f'{r:.4f}' for r in ratios)}, median "
          f"{values['tracing.overhead_ratio']:.4f}; spans in {spans_path.relative_to(HERE.parent)}")
    for name, unit in LAYER_METRICS.items():
        print(f"layer {name} {values[name]:.6g} {unit}")
    result = _report(w)
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in LAYER_METRICS.items()}
    return result


def _require_rounds(w, m) -> None:
    """With no completed round there is nothing to report: list the failures
    and exit 1."""
    if not m.rounds:
        _report(w)
        _fail("no round completed", 1)


def _outputs_digest(m) -> str:
    from workloads import digest

    return digest(m.outputs)


if __name__ == "__main__":
    sys.exit(main())
