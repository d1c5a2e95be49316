"""What the benchmark calls, run once at tier 1.

`bench/run.py` counts an exception inside a timed op as failed points, but a
break outside one (a renamed public function, a signature the tracer reads
by position, or the first op of a setup probe) crashes the whole run.  These
tests import `bench/workloads.py` and `bench/tracing.py` unchanged and run the
first op and every reference op of each gated workload through the
workload's own `run` and `check`, then trace two of them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import overheat

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


@pytest.fixture(scope="module")
def tracing():
    return bench_module("tracing")


@pytest.fixture
def oh(workloads, monkeypatch):
    # load_overheat puts src/ first on sys.path; the copy keeps that local
    monkeypatch.setattr(sys, "path", list(sys.path))
    package = workloads.load_overheat()
    assert package is overheat
    return package


@pytest.mark.parametrize("name", ["fig2", "tscan_split"])
def test_workload_ops_run_checked_and_traced(name, oh, workloads, tracing, tmp_path):
    w = workloads.make_workload(oh, name, 1, tmp_path)
    ops = [next(w.ops()), *w.reference_ops()]
    for op in ops:
        assert w.check(op, w.run(op)) == 0, op.label

    tracer = tracing.Tracer()
    with tracer.installed(oh):
        for op in ops[:2]:
            tracer.begin_op(op.label, op.group)
            try:
                out = w.run(op)
            finally:
                tracer.end_op()
            assert w.check(op, out) == 0, op.label
    assert tracer.spans
    assert tracer.nesting_errors() == 0
    metrics = tracing.layer_metrics(tracer, len(ops[:2]), 1.0, 1.0, 0)
    assert {m[0] for m in tracing.LAYER_METRICS} <= set(metrics)
