"""Self-test of the benchmark, in tiny runs.  From the repository root:

    python3 bench/selftest.py

Checks that every end-to-end and per-layer metric of ``BENCHMARK.json`` is
printed with its unit, that traced spans nest under their op, that the
correctness checks catch a wrong answer and make the run exit non-zero, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import ROOT, WORKLOADS, load_overheat  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def metric_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


class ContractTest(unittest.TestCase):
    def test_spec_lists_the_metrics_the_benchmark_prints(self):
        self.assertEqual(metric_units("end_to_end"), run.UNITS)
        self.assertEqual(metric_units("per_layer"), {n: u for n, u, _, _ in LAYER_METRICS})
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))


class TinyRunTest(unittest.TestCase):
    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, metric_units(section))
        return lines, result, json.loads(lines[-2])["info"]

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result, info = self.check_result(tiny_run(workload, 0), "end_to_end")
                row = lines[-3]
                for name, m in result["metrics"].items():
                    self.assertIn(f"{name}=", row)
                    self.assertIn(f" {m['unit']}", row)
                self.assertIn("op_ms_tail=", row)
                self.assertIn("fail_frac=0 ratio", row)
                self.assertEqual(info["fail_frac"], 0.0)
                self.assertIn("cpu_count", info)
                self.assertTrue(info["default_pool"])

    def test_traced_metrics_printed_and_spans_nest_under_their_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result, info = self.check_result(tiny_run(workload, 1), "per_layer")
                for name, unit, _, _ in LAYER_METRICS:
                    self.assertTrue(any(name in line and unit in line for line in lines[:-2]))
                self.assertEqual(info["span_nesting_errors"], 0)
                text = (ROOT / info["spans_file"]).read_text(encoding="utf-8")
                spans = [json.loads(line) for line in text.splitlines()]
                by_id = {s["id"]: s for s in spans}
                for s in spans:
                    node = s
                    while node["parent"] is not None:
                        node = by_id[node["parent"]]
                        self.assertEqual(node["op"], s["op"])
                    self.assertEqual((node["name"], node["id"]), ("op", s["op"]))
                self.assertGreater(len({s["name"] for s in spans}), 1)

    def test_refuses_to_run_without_the_package_sources(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = tiny_run("fig2", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


def scaled(fn, factor=1.0 + 1e-4):
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs) * factor

    return wrapper


class InjectedErrorTest(unittest.TestCase):
    """A returned value off by 1e-4 relative must fail the workload's check."""

    @classmethod
    def setUpClass(cls):
        cls.oh = load_overheat()

    def tiny_main(self, workload):
        """``run.main`` in this process: (exit status, result, info)."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = run.main(["--workload", workload, "--seed", "5", "--seconds", "0"])
        lines = stdout.getvalue().strip().splitlines()
        return status, json.loads(lines[-1]), json.loads(lines[-2])["info"]

    def assert_caught(self, workload, module, name):
        with mock.patch.object(module, name, scaled(getattr(module, name))):
            status, result, info = self.tiny_main(workload)
        self.assertNotEqual(status, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(info["fail_frac"], 0.0)

    def test_fig2_exact_total(self):
        self.assert_caught("fig2", sys.modules["overheat.closedform"], "heat_exact")

    def test_closed_scan_closed_form(self):
        self.assert_caught("closed_scan", sys.modules["overheat.closedform"], "heat_classical")

    def test_tscan_split_quantum_integral(self):
        self.assert_caught("tscan_split", self.oh, "quantum_integral")

    def test_tscan_split_transfer_f12(self):
        # Scales all three integrals alike, so the split identity still holds;
        # only the stored reference points can catch it.
        self.assert_caught("tscan_split", sys.modules["overheat.quadrature"], "transfer_f12")

    def test_unpatched_run_is_correct(self):
        status, result, info = self.tiny_main("tscan_split")
        self.assertEqual(status, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(info["fail_frac"], 0.0)


if __name__ == "__main__":
    unittest.main()
