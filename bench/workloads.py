"""Benchmark workloads: inputs drawn from a seed, one timed op, and its check.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned and was checked.  An op is the unit that is
timed; a point is the unit that is checked and counted (a grid row for the
sweep workloads, a temperature point for ``tscan_split``).

* ``fig2``: one op is one fig2 curve (20 rows of ExactQuadrature + ClosedForm)
  through ``run_sweep`` and ``emit_csv``.  The quadrature and response layers
  do nearly all the work.
* ``closed_scan``: one op is one fig3 or fig4 curve (25 rows of closed forms
  and asymptotics) through ``run_sweep`` and ``emit_csv``.  It never reaches
  the quadrature layer, so it is the workload on which quadrature changes
  must show no change; sweep orchestration, regime classification and real
  digamma calls dominate.
* ``tscan_split``: the library-user path.  Random circuits in the package's
  domain, each scanned over T1; one op is ``heat_exact``,
  ``classical_integral`` and ``quantum_integral`` at one temperature.  The
  circuit is fixed within a scan, so ``classical_integral`` repeats its input;
  scans alternate between the two transfer modes.  Before the timed loop,
  fixed points in both modes are compared with values stored from the seed
  commit, so an error common to all three integrals is caught too.

The workloads call only public functions of ``overheat`` and look them up on
the package at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Agreement required with the stored seed values, relative to the largest of a
# method's checked reference cells (sweeps) or to each stored integral
# (tscan_split reference points).  The quadrature runs at rel_tol = 1e-9, so
# this admits any route that meets that tolerance and rejects real changes.
REF_RTOL = 1e-8
# heat_exact against k_b (T1 - T2) classical_integral + quantum_integral,
# relative to |k_b dT classical| + |quantum|; the low-temperature cancellation
# makes |heat_exact| itself far smaller than either piece.
SPLIT_RTOL = 1e-7

# Columns compared against the reference, per CSV method prefix.  The
# ExactQuadrature split and the regime/warnings columns are left out on
# purpose: their definitions are planned to change.
CHECKED_COLUMNS = {
    "exact": ("q_total",),
    "closed": ("q_classical", "q_quantum", "q_total"),
    "lowt": ("q_classical", "q_quantum", "q_total"),
    "hight": ("q_classical", "q_quantum", "q_total"),
}

WORKLOAD_PRESETS = {"fig2": ("fig2",), "closed_scan": ("fig3", "fig4")}


def load_overheat():
    """Import ``overheat`` from this checkout's ``src``, never an installed copy."""
    package = SRC / "overheat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no overheat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import overheat

    if Path(overheat.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported overheat from {overheat.__file__}, not {package}")
    return overheat


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed unit of work; ``points`` is how many checked points it yields.

    ``group`` numbers the pass a user would make in one invocation: one pass
    over the workload's preset curves, or one temperature scan.  Repeated
    inputs are counted within a group.
    """

    label: str
    points: int
    group: int
    args: tuple


class SweepWorkload:
    """Preset curves through ``run_sweep`` + ``emit_csv``, in seeded order."""

    def __init__(self, oh, name: str, seed: int, out_dir: Path):
        self.oh = oh
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.curves = []
        for preset in WORKLOAD_PRESETS[name]:
            for index, spec in enumerate(oh.preset_specs(preset)):
                key = f"{preset}/{index}"
                self.curves.append((key, spec, reference["curves"][key]))
        self.reference = {key: ref for key, _, ref in self.curves}
        self.presets = WORKLOAD_PRESETS[name]
        self.seed_sha256 = {p: reference["preset_sha256"][p] for p in self.presets}
        self.last_csv: dict[str, str] = {}

    def ops(self):
        rng = random.Random(self.seed)
        order = list(range(len(self.curves)))
        for cycle in itertools.count():
            rng.shuffle(order)
            for i in order:
                key, spec, ref = self.curves[i]
                path = self.out_dir / f"{self.name}-{key.replace('/', '-')}.csv"
                yield Op(key, len(ref["rows"]), cycle, (spec, path))

    def run(self, op: Op):
        spec, path = op.args
        rows = self.oh.run_sweep(spec)
        self.oh.emit_csv(rows, path)
        return path

    def check(self, op: Op, path) -> int:
        """Number of failed points: missing, non-finite or off the reference."""
        text = path.read_text(encoding="utf-8")
        self.last_csv[op.label] = text
        ref = self.reference[op.label]
        lines = text.splitlines()
        header = lines[0].split(",")
        if header != ref["header"]:
            return op.points
        failed = max(0, op.points - (len(lines) - 1))
        for line, ref_row in zip(lines[1:], ref["rows"]):
            if not _row_matches(header, line.split(","), ref_row):
                failed += 1
        return failed

    def reference_ops(self):
        """No extra ops: every curve is compared with the stored values."""
        return iter(())

    def preset_sha256(self) -> dict:
        """sha256 of each full preset CSV, rebuilt from the last curve CSVs."""
        out = {}
        for preset in self.presets:
            keys = [k for k, _, _ in self.curves if k.startswith(preset + "/")]
            if not all(k in self.last_csv for k in keys):
                continue
            texts = [self.last_csv[k].splitlines() for k in keys]
            lines = texts[0][:1] + [line for t in texts for line in t[1:]]
            digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
            out[preset] = {"sha256": digest, "same_as_seed": digest == self.seed_sha256[preset]}
        return out


def _row_matches(header: list[str], cells: list[str], ref_row: list) -> bool:
    if len(cells) != len(header):
        return False
    values = {}
    for name, text in zip(header, cells):
        if name in ("regime", "warnings"):
            continue
        value = float(text)
        if not math.isfinite(value):
            return False
        values[name] = value
    ref = dict(zip(header, ref_row))
    for name in header[:3]:  # swept value, T1, T2
        if not math.isclose(values[name], ref[name], rel_tol=1e-12):
            return False
    for prefix, columns in CHECKED_COLUMNS.items():
        names = [f"{prefix}_{column}" for column in columns]
        if names[0] not in values:
            continue
        scale = max(abs(ref[name]) for name in names)
        if any(abs(values[name] - ref[name]) > REF_RTOL * scale for name in names):
            return False
    return True


# T1 grid of every scan: two points per decade over [1e-2, 1e2].
SCAN_T1 = tuple(10.0 ** (-2.0 + 0.5 * k) for k in range(9))
# Drawn log(gamma/omega_d) is stratified so that every run covers [10, 1e5]
# evenly; the cost of a point grows with the decades the integrals span.
GAMMA_DECADES = (1.0, 5.0)
GAMMA_STRATA = 8
# The stored tscan_split reference points: every point of the first
# REF_SCANS scans of seed REF_SEED (both transfer modes, alternating).
REF_SEED = 0
REF_SCANS = 4


class ScanWorkload:
    """T1 scans of seeded random circuits through the three quadratures."""

    def __init__(self, oh, seed: int, reference: list[dict] = ()):
        self.oh = oh
        self.seed = seed
        self.modes = (oh.TransferMode.EXACT_CUBIC, oh.TransferMode.OVERDAMPED_LINEAR)
        self.reference = {point["label"]: point for point in reference}

    def circuits(self):
        """Endless seeded circuits: (CircuitParams, T2/T1, TransferMode)."""
        rng = random.Random(self.seed)
        preset = self.oh.SweepSpec()
        omega_d = preset.R / preset.L
        lo, hi = GAMMA_DECADES
        width = (hi - lo) / GAMMA_STRATA
        while True:
            strata = [list(range(GAMMA_STRATA)) for _ in self.modes]
            for order in strata:
                rng.shuffle(order)
            for k in range(GAMMA_STRATA):
                for mode, order in zip(self.modes, strata):
                    ratio = 10.0 ** (lo + width * (order[k] + rng.random()))
                    p = self.oh.CircuitParams(
                        R=preset.R,
                        L=preset.L,
                        C=1.0 / (preset.R * ratio * omega_d),
                        M=rng.uniform(0.2, 0.8) * preset.L,
                        omega_c=preset.omega_c * 3.0 ** rng.uniform(-1.0, 1.0),
                    )
                    yield p, rng.uniform(0.1, 0.9), mode

    def ops(self):
        for n, (p, t2_over_t1, mode) in enumerate(self.circuits()):
            for j, t1 in enumerate(SCAN_T1):
                b = self.oh.BathPair.from_temperatures(t1, t2_over_t1 * t1, p.kb)
                yield Op(f"scan{n}/T{j}", 1, n, (p, b, mode))

    def reference_ops(self):
        """The stored reference points, rebuilt from their stored inputs."""
        for label, point in self.reference.items():
            p = self.oh.CircuitParams(**point["circuit"])
            b = self.oh.BathPair.from_temperatures(point["T1"], point["T2"], p.kb)
            yield Op(label, 1, -1, (p, b, self.oh.TransferMode(point["mode"])))

    def run(self, op: Op):
        p, b, mode = op.args
        return (
            self.oh.heat_exact(p, b, mode),
            self.oh.classical_integral(p, mode),
            self.oh.quantum_integral(p, b, mode),
        )

    def check(self, op: Op, result) -> int:
        p, b, _ = op.args
        total, classical, quantum = result
        if not all(math.isfinite(v) for v in result):
            return 1
        classical_current = p.kb * (b.T1 - b.T2) * classical
        scale = abs(classical_current) + abs(quantum)
        if abs(total - (classical_current + quantum)) > SPLIT_RTOL * scale:
            return 1
        if _sign(total) != _sign(b.T1 - b.T2):
            return 1
        ref = self.reference.get(op.label)
        if ref is not None:
            stored = (ref["heat_exact"], ref["classical_integral"], ref["quantum_integral"])
            scales = (p.kb * abs(b.T1 - b.T2) * abs(stored[1]) + abs(stored[2]),
                      abs(stored[1]), abs(stored[2]))
            if any(abs(v - r) > REF_RTOL * scale for v, r, scale in zip(result, stored, scales)):
                return 1
        return 0

    def preset_sha256(self) -> dict:
        return {}


def scan_reference_points(oh) -> list[dict]:
    """The tscan_split reference points with their values from the code in ``src``."""
    w = ScanWorkload(oh, REF_SEED)
    points = []
    for op in itertools.islice(w.ops(), REF_SCANS * len(SCAN_T1)):
        p, b, mode = op.args
        total, classical, quantum = w.run(op)
        points.append({
            "label": f"ref/{op.label}",
            "circuit": dataclasses.asdict(p),
            "T1": b.T1,
            "T2": b.T2,
            "mode": mode.value,
            "heat_exact": total,
            "classical_integral": classical,
            "quantum_integral": quantum,
        })
    return points


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


WORKLOADS = ("fig2", "closed_scan", "tscan_split")


def make_workload(oh, name: str, seed: int, out_dir: Path):
    if name == "tscan_split":
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["tscan_split"]
        return ScanWorkload(oh, seed, reference)
    if name in WORKLOAD_PRESETS:
        return SweepWorkload(oh, name, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
