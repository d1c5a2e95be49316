"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``bench/run.py`` for two sets of seeds per workload, one run at a time,
alternating between the sets (seed k of both sets before seed k + 1 of
either), and prints for every metric and set the median, the quartiles and
the spread (q3 - q1)/median next to the bound in ``BENCHMARK.json``.  A
spread under a third of the bound is marked ``steady``; a second median worse
than the first by more than the bound is marked ``drift``.  The exit status is
1 if any metric is unsteady or drifts.  Run from the repository root:

    python3 bench/stability.py --seeds 10 --workloads fig2 tscan_split
    python3 bench/stability.py --seeds 10 --json bench/out/stability.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Two sets of the same code, as two commits would be compared.
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3.0, "values": values}


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    summary, failures = {}, 0
    for workload in args.workloads:
        runs = [[] for _ in range(SETS)]
        for k in range(args.seeds):
            for i, set_runs in enumerate(runs):
                seed = args.first_seed + i * args.seeds + k
                set_runs.append(run_once(workload, seed, args.seconds))
        summary[workload] = {}
        for name, m in metrics.items():
            sets = [summarize([r[name] for r in set_runs], m["bound"]) for set_runs in runs]
            for i, s in enumerate(sets):
                s["worse_than_first"] = worsening(sets[0]["median"], s["median"], m["better"])
                s["drift"] = s["worse_than_first"] > m["bound"]
                failures += (not s["steady"]) + s["drift"]
                print(f"{workload:<12} {name:<13} set={i + 1} median={s['median']:<12.6g} "
                      f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} spread={s['spread']:.4f} "
                      f"worse={s['worse_than_first']:+.4f} bound={m['bound']:g} "
                      f"{'steady' if s['steady'] else 'unsteady'}"
                      f"{' drift' if s['drift'] else ''}", flush=True)
            summary[workload][name] = sets
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
