"""The overheat benchmark: one workload in one fresh process, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload fig2 --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45   # one row per workload

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` runs the same ops once plain and once traced and reports the
per-layer metrics of ``tracing.LAYER_METRICS``, writing the spans to
``bench/out``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's context (seed, versions, commit, CPU count, thread pool,
tail percentile, preset CSV digests).  ``HEAT_THREADS`` is removed from the
environment, so sweeps run on the package's default pool of one thread per
CPU, as users run them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, load_overheat, make_workload

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# Tail percentile reported per workload, fixed so that parent and child
# commits compare the same percentile, and low enough to leave well over
# MIN_BEYOND samples above it in a run of the default length.  A run with too
# few samples steps down LADDER.
TAIL_PERCENTILE = {"fig2": 90.0, "closed_scan": 99.0, "tscan_split": 95.0}
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Fresh interpreters timed per run for setup_s, spread evenly over the timed
# loop so that they meet the same host conditions as the ops; the median is
# reported.
SETUP_RUNS = 7
# The traced pass keeps every span in memory; this caps its size.
MAX_TRACED_OPS = 200
TIMING_NOTE = (
    "wall clock (time.perf_counter) around each op; no hardware counters; "
    "other tenants may share the CPUs"
)
# The end-to-end metrics of the result line.  op_ms_tail is printed in the row
# and the context line but is not gated: on a shared host its run-to-run
# spread exceeds any bound BENCHMARK.json may set (see bench/README.md).
UNITS = {
    "points_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values: list[float], preferred: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the workload's tail percentile."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in LADDER:
        if pct <= preferred and n * (1.0 - pct / 100.0) >= MIN_BEYOND:
            value = percentile(ordered, pct)
            return value, pct, sum(v > value for v in ordered)
    return ordered[-1], 100.0, 0


def run_checked(w, op, tracer=None) -> tuple[float, int, object]:
    """Run one op (timed) and check it (untimed): (seconds, failed points, output)."""
    if tracer is not None:
        tracer.begin_op(op.label, op.group)
    t0 = perf_counter()
    try:
        out = w.run(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - t0, op.points, None
    finally:
        if tracer is not None:
            tracer.end_op()
    seconds = perf_counter() - t0
    try:
        failed = w.check(op, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed = op.points
    return seconds, failed, out


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports overheat and finishes the first op."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Tally:
    """Points attempted and failed over every checked op of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, op, failed: int) -> None:
        self.attempted += op.points
        self.failed += failed


def run_untimed(w, ops, tally: Tally) -> None:
    for op in ops:
        tally.add(op, run_checked(w, op)[1])


def end_to_end(oh, w, workload: str, seconds: float):
    tally = Tally()
    ops = w.ops()
    run_untimed(w, [next(ops), *w.reference_ops()], tally)

    # The loop runs for `seconds` of its own time; the setup probes between
    # its ops are not counted in it.
    setup, durations, good_points = [], [], 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start - sum(setup)
        if len(setup) < SETUP_RUNS and elapsed >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_probe(workload, w.seed))
        op = next(ops)
        dt, failed, _ = run_checked(w, op)
        durations.append(dt)
        good_points += op.points - failed
        tally.add(op, failed)
        if perf_counter() - start - sum(setup) >= seconds:
            break
    setup += [setup_probe(workload, w.seed) for _ in range(SETUP_RUNS - len(setup))]

    tail_s, tail_pct, beyond = tail(durations, TAIL_PERCENTILE[workload])
    metrics = {
        "points_per_s": good_points / sum(durations),
        "op_ms_p50": statistics.median(durations) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "ops": len(durations),
        "op_ms_tail": tail_s * 1e3,
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_beyond": beyond,
        "setup_s_samples": setup,
        "fail_frac": tally.failed / tally.attempted,
    }
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, tally, info


def traced(oh, w, workload: str, seed: int, seconds: float):
    tally = Tally()
    ops = w.ops()
    run_untimed(w, [next(ops), *w.reference_ops()], tally)

    # plain pass: picks the ops and gives the untraced time of exactly those ops
    plan, untraced_s = [], 0.0
    deadline = perf_counter() + seconds / 2.0
    while len(plan) < MAX_TRACED_OPS:
        op = next(ops)
        dt, failed, _ = run_checked(w, op)
        plan.append(op)
        untraced_s += dt
        tally.add(op, failed)
        if perf_counter() >= deadline:
            break

    tracer = Tracer()
    traced_s, csv_bytes = 0.0, 0
    with tracer.installed(oh):
        for op in plan:
            dt, failed, out = run_checked(w, op, tracer)
            traced_s += dt
            tally.add(op, failed)
            if isinstance(out, Path):
                csv_bytes += out.stat().st_size

    values = layer_metrics(tracer, len(plan), untraced_s, traced_s, csv_bytes)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    info = {
        "ops": len(plan),
        "spans": len(tracer.spans),
        "span_nesting_errors": tracer.nesting_errors(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "fail_frac": tally.failed / tally.attempted,
    }
    metrics = {name: (values[name], unit) for name, unit, _, _ in LAYER_METRICS}
    return metrics, tally, info


def context(seed: int, heat_threads) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "heat_threads_env": heat_threads,
        "default_pool": True,
        "pool_workers": os.cpu_count() or 1,
        "timing": TIMING_NOTE,
    }


def measure(oh, workload: str, seed: int, seconds: float, trace: bool,
            heat_threads=None) -> tuple[dict, dict]:
    """One benchmark run in this process: (result line object, context info)."""
    OUT.mkdir(parents=True, exist_ok=True)
    w = make_workload(oh, workload, seed, OUT)
    if trace:
        metrics, tally, info = traced(oh, w, workload, seed, seconds)
    else:
        metrics, tally, info = end_to_end(oh, w, workload, seconds)
    info = {"workload": workload, "trace": int(trace), **context(seed, heat_threads), **info,
            "preset_csv": w.preset_sha256()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def format_row(workload: str, result: dict, info: dict) -> str:
    parts = [f"{workload:<12}"]
    for name, m in result["metrics"].items():
        parts.append(f"{name}={m['value']:.6g} {m['unit']}")
        if name == "op_ms_p50":
            parts.append(f"op_ms_tail={info['op_ms_tail']:.6g} ms"
                         f" (p{info['op_ms_tail_percentile']:g},"
                         f" {info['op_ms_tail_beyond']} of {info['ops']} beyond)")
    parts.append(f"fail_frac={info['fail_frac']:.6g} ratio")
    return "  ".join(parts)


def run_all(args) -> int:
    """Each workload in its own fresh process; one row per workload."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload:<12}  FAILED (exit {proc.returncode})")
            status = 1
            continue
        result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
        if args.trace:
            print(f"{workload}:")
            print("\n".join(lines[:-2]))
        else:
            print(format_row(workload, result, info))
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    heat_threads = os.environ.pop("HEAT_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    oh = load_overheat()
    if args.setup_probe:
        OUT.mkdir(parents=True, exist_ok=True)
        w = make_workload(oh, args.workload, args.seed, OUT)
        w.run(next(w.ops()))
        return 0

    result, info = measure(oh, args.workload, args.seed, args.seconds, bool(args.trace),
                           heat_threads)
    if args.trace:
        for name, _, _, moves in LAYER_METRICS:
            m = result["metrics"][name]
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']:<9} moves: {moves}")
        print(f"  span nesting errors: {info['span_nesting_errors']}, spans: {info['spans']}")
    else:
        print(format_row(args.workload, result, info))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
