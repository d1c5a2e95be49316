"""Spans and counters around overheat's public functions, for the traced run.

The tracer wraps functions where they are looked up (``overheat.run_sweep``,
``overheat.sweep.assemble_report``, ``overheat.closedform.heat_exact``, ...)
and restores them afterwards; nothing inside ``src/`` changes.  Layer calls
become spans (name, start, end, parent, op id) kept in memory.  The per-point
kernels (``transfer_f12``, ``digamma``, ``derive_scales``) run ~10^5 times
per op, so they get no span of their own: their evaluation counts and time
are added to the innermost open span instead.

Each thread keeps its own parent stack.  A sweep's pool worker starts with an
empty stack; its spans take as parent the innermost span of the thread
running the op, which is blocked inside ``run_sweep`` at that moment, since
the benchmark runs one op at a time.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# (layer metric, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("sweep.run_sweep.busy_s", "s/op", "lower", "op_ms_p50, op_ms_tail on closed_scan; none on fig2"),
    ("sweep.self_s", "s/op", "lower", "op_ms_p50, op_ms_tail on closed_scan; none on fig2"),
    ("sweep.concurrency", "ratio", "higher", "op_ms_p50, op_ms_tail on closed_scan; none on fig2"),
    ("sweep.emit_csv.busy_s", "s/op", "lower", "op_ms_p50, op_ms_tail on closed_scan; none on fig2"),
    ("sweep.csv_bytes", "B/op", "lower", "op_ms_p50, op_ms_tail on closed_scan; none on fig2"),
    ("closedform.assemble_report.calls", "count/op", "lower", "op_ms_p50 on closed_scan and fig2"),
    ("closedform.assemble_report.busy_s.ExactQuadrature", "s/op", "lower", "op_ms_p50 on fig2"),
    ("closedform.assemble_report.busy_s.ClosedForm", "s/op", "lower", "op_ms_p50 on closed_scan"),
    ("closedform.assemble_report.busy_s.LowTempAsymptotic", "s/op", "lower", "op_ms_p50 on closed_scan"),
    ("closedform.assemble_report.busy_s.HighTempAsymptotic", "s/op", "lower", "op_ms_p50 on closed_scan"),
    ("closedform.self_s", "s/op", "lower", "op_ms_p50 on closed_scan and fig2"),
    ("model.classify_regime.calls", "count/op", "lower", "op_ms_p50 on closed_scan"),
    ("model.classify_regime.busy_s", "s/op", "lower", "op_ms_p50 on closed_scan"),
    ("model.classify_regime.unique_ratio", "ratio", "higher", "op_ms_p50 on closed_scan"),
    ("model.derive_scales.calls", "count/op", "lower", "op_ms_p50 on closed_scan"),
    ("quadrature.heat_exact.calls", "count/op", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.heat_exact.busy_s", "s/op", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.heat_exact.evals_per_call", "count/call", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.classical_integral.calls", "count/op", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.classical_integral.busy_s", "s/op", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.classical_integral.evals_per_call", "count/call", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.classical_integral.unique_ratio", "ratio", "higher", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.quantum_integral.calls", "count/op", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.quantum_integral.busy_s", "s/op", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.quantum_integral.evals_per_call", "count/call", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("quadrature.tolerance_misses", "1/call", "lower", "points_per_s on fig2, tscan_split; none on closed_scan"),
    ("response.transfer_f12.evals", "count/op", "lower", "points_per_s on fig2, tscan_split"),
    ("response.transfer_f12.ns_per_eval", "ns", "lower", "points_per_s on fig2, tscan_split"),
    ("special.digamma.evals.complex", "count/op", "lower", "points_per_s on tscan_split"),
    ("special.digamma.evals.real", "count/op", "lower", "points_per_s on tscan_split, a little on closed_scan"),
    ("special.digamma.ns_per_eval", "ns", "lower", "points_per_s on tscan_split, a little on closed_scan"),
    ("trace.overhead_s", "s/op", "lower", "none: traced minus untraced wall time of the same ops"),
    ("trace.overhead_frac", "ratio", "lower", "none: trace.overhead_s over untraced wall time"),
)

QUADRATURES = ("heat_exact", "classical_integral", "quantum_integral")
METHODS = ("ExactQuadrature", "ClosedForm", "LowTempAsymptotic", "HighTempAsymptotic")


class Span:
    __slots__ = ("id", "parent", "op", "name", "thread", "start", "end", "tag", "error",
                 "kernel_ns", "counts")

    def __init__(self, span_id, parent, op, name, thread):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.thread = thread
        self.start = self.end = 0
        self.tag = None
        self.error = None
        self.kernel_ns = 0  # time in kernels called from this span's own thread
        self.counts = {}  # kernel -> [evaluations, ns]

    def record(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size_and_kind(x) -> tuple[int, bool]:
    """Number of evaluation points in an argument, and whether it is complex."""
    if type(x) is float:
        return 1, False
    if isinstance(x, (np.ndarray, list, tuple)):
        a = np.asarray(x)
        return a.size, np.iscomplexobj(a)
    return 1, isinstance(x, complex)


class Tracer:
    """Collects spans and kernel counts for ops run through ``begin_op``/``end_op``.

    ``inputs`` holds the distinct arguments of keyed functions per op group, so
    a unique ratio counts the repeats a cache could exploit within one pass.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.inputs: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack: list[Span] = []
        self._group = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._op_stack[-1] if self._op_stack else None

    def begin_op(self, label: str, group) -> None:
        stack = self._stack()
        self._op_stack = stack
        self._group = group
        span = Span(next(self._ids), None, None, "op", threading.get_ident())
        span.op = span.id
        span.tag = label
        stack.append(span)
        span.start = perf_counter_ns()

    def end_op(self) -> None:
        span = self._op_stack.pop()
        span.end = perf_counter_ns()
        self.spans.append(span)

    def span(self, fn, name, tag=None, key=None):
        """Wrap ``fn`` so each call is a span; ``key`` feeds the distinct-input count."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            if parent is None:  # called outside any op: counted by nesting_errors
                sp = Span(next(self._ids), None, None, name, threading.get_ident())
            else:
                sp = Span(next(self._ids), parent.id, parent.op, name, threading.get_ident())
            if tag is not None:
                sp.tag = tag(args, kwargs)
            stack.append(sp)
            sp.start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end = perf_counter_ns()
                stack.pop()
                self.spans.append(sp)
                if key is not None:
                    self.inputs[name].add((self._group, key(args, kwargs)))

        return wrapper

    def kernel(self, fn, name, kind=None):
        """Wrap a per-point kernel: count evaluations into the innermost span."""

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            n, is_complex = _size_and_kind(args[0]) if args else (1, False)
            slot = name if kind is None else f"{name}.{kind(is_complex)}"
            stack = self._stack()
            if stack:
                sp = stack[-1]
                sp.kernel_ns += dt
                self._add(sp, slot, n, dt)
            else:  # a pool worker outside any span of its own
                with self._lock:
                    self._add(self._parent(stack), slot, n, dt)
            return result

        return wrapper

    @staticmethod
    def _add(sp, slot, n, dt):
        c = sp.counts.get(slot)
        if c is None:
            sp.counts[slot] = [n, dt]
        else:
            c[0] += n
            c[1] += dt

    @contextmanager
    def installed(self, oh):
        """Patch the traced names on ``oh`` and its modules; restore them on exit."""
        exact_cubic = oh.TransferMode.EXACT_CUBIC
        method_tag = lambda a, k: _arg(a, k, 3, "method").value  # noqa: E731
        classify_key = lambda a, k: (  # noqa: E731
            _arg(a, k, 0, "p"), _arg(a, k, 2, "b"), _arg(a, k, 3, "safety_factor", 10.0)
        )
        classical_key = lambda a, k: (_arg(a, k, 0, "p"), _arg(a, k, 1, "mode", exact_cubic))  # noqa: E731
        spans = {
            "run_sweep": ("sweep.run_sweep", None, None),
            "emit_csv": ("sweep.emit_csv", None, None),
            "assemble_report": ("closedform.assemble_report", method_tag, None),
            "classify_regime": ("model.classify_regime", None, classify_key),
            "heat_exact": ("quadrature.heat_exact", None, None),
            "classical_integral": ("quadrature.classical_integral", None, classical_key),
            "quantum_integral": ("quadrature.quantum_integral", None, None),
        }
        kernels = {
            "transfer_f12": ("response.transfer_f12", None),
            "digamma": ("special.digamma", lambda c: "complex" if c else "real"),
            "derive_scales": ("model.derive_scales", None),
        }
        targets = {
            "overheat": ("run_sweep", "emit_csv", "heat_exact", "classical_integral",
                         "quantum_integral"),
            "overheat.sweep": ("assemble_report", "classify_regime", "derive_scales"),
            "overheat.closedform": ("classify_regime", "heat_exact", "classical_integral",
                                    "digamma"),
            "overheat.quadrature": ("transfer_f12", "digamma", "derive_scales"),
        }
        saved = []
        try:
            for module_name, attrs in targets.items():
                module = sys.modules[module_name]
                for attr in attrs:
                    original = getattr(module, attr, None)
                    if original is None:  # a later version may no longer import it here
                        continue
                    if attr in spans:
                        name, tag, key = spans[attr]
                        wrapped = self.span(original, name, tag, key)
                    else:
                        name, kind = kernels[attr]
                        wrapped = self.kernel(original, name, kind)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def nesting_errors(self) -> int:
        """Spans whose parent chain does not end at an op span with the same op id."""
        by_id = {s.id: s for s in self.spans}
        bad = 0
        for s in self.spans:
            node = s
            while node.parent is not None:
                node = by_id.get(node.parent)
                if node is None or node.op != s.op:
                    bad += 1
                    break
            else:
                if node.name != "op" or node.id != s.op:
                    bad += 1
        return bad

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record()) + "\n")


def _covered_ns(span: Span, children: list[Span]) -> int:
    """Length of the part of ``span``'s interval that its children cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered, cur_start, cur_end = 0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def layer_metrics(
    tracer: Tracer, n_ops: int, untraced_s: float, traced_s: float, csv_bytes: int
) -> dict:
    """Every metric of ``LAYER_METRICS``; totals are per op, times in seconds."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    kernels: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for s in tracer.spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
        for slot, (n, ns) in s.counts.items():
            kernels[slot][0] += n
            kernels[slot][1] += ns

    def busy(name, spans=None):
        return sum(s.end - s.start for s in (by_name[name] if spans is None else spans)) * 1e-9

    def self_time(name):
        return sum(
            s.end - s.start - _covered_ns(s, children[s.id]) - s.kernel_ns for s in by_name[name]
        ) * 1e-9

    def evals(name, slot="response.transfer_f12"):
        return sum(s.counts.get(slot, (0, 0))[0] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    reports = by_name["closedform.assemble_report"]
    values = {
        "sweep.run_sweep.busy_s": busy("sweep.run_sweep") / n_ops,
        "sweep.self_s": self_time("sweep.run_sweep") / n_ops,
        "sweep.concurrency": ratio(busy("closedform.assemble_report"), busy("sweep.run_sweep")),
        "sweep.emit_csv.busy_s": busy("sweep.emit_csv") / n_ops,
        "sweep.csv_bytes": csv_bytes / n_ops,
        "closedform.assemble_report.calls": len(reports) / n_ops,
        "closedform.self_s": self_time("closedform.assemble_report") / n_ops,
        "model.classify_regime.calls": len(by_name["model.classify_regime"]) / n_ops,
        "model.classify_regime.busy_s": busy("model.classify_regime") / n_ops,
        "model.classify_regime.unique_ratio": ratio(
            len(tracer.inputs["model.classify_regime"]), len(by_name["model.classify_regime"])
        ),
        "model.derive_scales.calls": kernels["model.derive_scales"][0] / n_ops,
        "quadrature.classical_integral.unique_ratio": ratio(
            len(tracer.inputs["quadrature.classical_integral"]),
            len(by_name["quadrature.classical_integral"]),
        ),
        "response.transfer_f12.evals": kernels["response.transfer_f12"][0] / n_ops,
        "response.transfer_f12.ns_per_eval": ratio(*reversed(kernels["response.transfer_f12"])),
        "special.digamma.evals.complex": kernels["special.digamma.complex"][0] / n_ops,
        "special.digamma.evals.real": kernels["special.digamma.real"][0] / n_ops,
        "special.digamma.ns_per_eval": ratio(
            kernels["special.digamma.complex"][1] + kernels["special.digamma.real"][1],
            kernels["special.digamma.complex"][0] + kernels["special.digamma.real"][0],
        ),
        "trace.overhead_s": (traced_s - untraced_s) / n_ops,
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    }
    for method in METHODS:
        spans = [s for s in reports if s.tag == method]
        values[f"closedform.assemble_report.busy_s.{method}"] = busy(None, spans) / n_ops
    quad_calls = misses = 0
    for q in QUADRATURES:
        name = f"quadrature.{q}"
        calls = len(by_name[name])
        quad_calls += calls
        misses += sum(s.error == "ToleranceNotMetError" for s in by_name[name])
        values[f"{name}.calls"] = calls / n_ops
        values[f"{name}.busy_s"] = busy(name) / n_ops
        values[f"{name}.evals_per_call"] = ratio(evals(name), calls)
    values["quadrature.tolerance_misses"] = ratio(misses, quad_calls)
    return values
