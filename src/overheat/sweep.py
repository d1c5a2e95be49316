"""Parameter sweeps over damping or temperature, CSV output, and plot scripts.

A sweep walks one variable (gamma/omega_d, T1, or T2) over a linear or log
grid, evaluates the requested heat-current methods at every point, and
collects one row per point.  Three presets encode the standard figure
layouts for the coupled-RLC circuit (M = 1, L = 2, omega_c = 5, omega_d = 1):

* ``fig2``: exact vs closed form as a function of gamma/omega_d for three
  temperature pairs (artifact defaults (2,1), (5,1), (10,5)),
* ``fig3``: closed-form total vs the low-temperature T^4 law with T2 = T1/2,
* ``fig4``: quantum piece vs its logarithmic asymptote at fixed T1.

Rows serialize to UTF-8 comma-separated CSV with LF endings and
shortest-round-trip float formatting, so identical configs give
byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import Method, assemble_report
from .model import BathPair, CircuitParams, classify_regime, derive_scales

SWEEP_VARIABLES = ("gamma_over_omega_d", "T1", "T2")

_METHOD_PREFIX = {
    Method.EXACT_QUADRATURE: "exact",
    Method.CLOSED_FORM: "closed",
    Method.LOW_TEMP_ASYMPTOTIC: "lowt",
    Method.HIGH_TEMP_ASYMPTOTIC: "hight",
}


class ConfigError(ValueError):
    """Sweep configuration rejected; message carries the line number if known."""


@dataclass(frozen=True)
class Grid:
    """Sweep grid: endpoints, point count, linear or log spacing."""

    start: float
    stop: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("grid endpoints must be finite")
        if not self.start < self.stop:
            raise ConfigError(
                f"start < stop required, got start={self.start!r}, stop={self.stop!r}"
            )
        if self.points < 2:
            raise ConfigError(f"points >= 2 required, got {self.points!r}")
        if self.spacing == "log" and self.start <= 0.0:
            raise ConfigError(
                f"log spacing requires start > 0, got start={self.start!r}"
            )

    def values(self) -> tuple[float, ...]:
        if self.spacing == "log":
            xs = np.geomspace(self.start, self.stop, self.points)
        else:
            xs = np.linspace(self.start, self.stop, self.points)
        return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class SweepSpec:
    """Fully validated description of one sweep.

    The swept field of the fixed parameter set is ignored: sweeping
    gamma/omega_d recomputes C at every point, sweeping a temperature
    overrides that bath.  `t2_over_t1` (T1 sweeps only) locks T2 to a fixed
    ratio of the swept T1.  All three swept quantities must be positive, so
    the grid must start above 0, and no method may be listed twice.  The
    regime margin is not part of a spec: every row is classified with the
    constant `model.SAFETY_FACTOR`.  Neither is a transfer mode:
    ExactQuadrature is always the split of the full cubic model.
    """

    sweep_variable: str = "gamma_over_omega_d"
    grid: Grid = field(default_factory=lambda: Grid(1.0, 1e5, 20, "log"))
    R: float = 2.0
    L: float = 2.0
    C: float = 5e-5
    M: float = 1.0
    omega_c: float = 5.0
    T1: float = 2.0
    T2: float = 1.0
    t2_over_t1: float | None = None
    methods: tuple[Method, ...] = (Method.EXACT_QUADRATURE, Method.CLOSED_FORM)
    hbar: float = 1.0
    kb: float = 1.0

    def __post_init__(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep must be one of {SWEEP_VARIABLES}, got {self.sweep_variable!r}"
            )
        if self.grid.start <= 0.0:
            raise ConfigError(
                f"{self.sweep_variable} must be positive, got grid start={self.grid.start!r}"
            )
        if not self.methods:
            raise ConfigError("at least one method required")
        repeated = [m.value for i, m in enumerate(self.methods) if m in self.methods[:i]]
        if repeated:
            raise ConfigError(f"method listed twice: {', '.join(dict.fromkeys(repeated))}")
        if self.t2_over_t1 is not None:
            if self.sweep_variable != "T1":
                raise ConfigError("t2_over_t1 only applies to T1 sweeps")
            if not (math.isfinite(self.t2_over_t1) and self.t2_over_t1 > 0.0):
                raise ConfigError(f"t2_over_t1 must be positive, got {self.t2_over_t1!r}")
        # constructing the domain objects enforces their invariants up front
        CircuitParams(self.R, self.L, self.C, self.M, self.omega_c, self.hbar, self.kb)
        BathPair.from_temperatures(self.T1, self.T2, self.kb)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point: swept value, temperatures, per-method splits.

    `cells` holds (q_classical, q_quantum, q_total) for each method in order;
    cells are finite except for methods that failed outright, which are
    recorded as nan with the failure counted in `warnings`.
    """

    sweep_variable: str
    swept_value: float
    T1: float
    T2: float
    methods: tuple[Method, ...]
    cells: tuple[float, ...]
    regime: str
    warnings: int

    def header(self) -> tuple[str, ...]:
        cols = [self.sweep_variable, "T1", "T2"]
        for m in self.methods:
            prefix = _METHOD_PREFIX[m]
            cols += [f"{prefix}_q_classical", f"{prefix}_q_quantum", f"{prefix}_q_total"]
        cols += ["regime", "warnings"]
        return tuple(cols)


_DEFAULTS = SweepSpec()


def _method(text: str) -> Method:
    """Converter from text to a Method, naming the valid values on failure."""
    try:
        return Method(text)
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        raise ConfigError(f"unknown method {text!r}; valid: {valid}") from None


_KEY_PARSERS = {
    "sweep": str,
    "start": float,
    "stop": float,
    "points": int,
    "spacing": str,
    "R": float,
    "L": float,
    "C": float,
    "M": float,
    "omega_c": float,
    "T1": float,
    "T2": float,
    "t2_over_t1": float,
    "methods": lambda text: tuple(_method(n.strip()) for n in text.split(",") if n.strip()),
    "hbar": float,
    "kb": float,
}


def parse_config(text: str) -> SweepSpec:
    """Parse a line-oriented `key = value` sweep configuration.

    `#` starts a comment, blank lines are skipped, and a key that is unknown
    to `_KEY_PARSERS` or set twice is rejected.  Values get their final type
    here; SweepSpec enforces every invariant, so a returned spec always runs.
    """
    raw: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if set_on.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} already set on line {set_on[key]}")
        try:
            raw[key] = _KEY_PARSERS[key](value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {key} value {value!r}"
            ) from None

    grid = Grid(
        start=raw.pop("start", _DEFAULTS.grid.start),
        stop=raw.pop("stop", _DEFAULTS.grid.stop),
        points=raw.pop("points", _DEFAULTS.grid.points),
        spacing=raw.pop("spacing", _DEFAULTS.grid.spacing),
    )
    if "sweep" in raw:
        raw["sweep_variable"] = raw.pop("sweep")
    try:
        return SweepSpec(grid=grid, **raw)
    except ValueError as exc:  # re-raise domain invariants as config errors
        raise ConfigError(str(exc)) from None


def _evaluate_point(spec: SweepSpec, x: float) -> SweepRow:
    """Build the parameter set at one grid point and evaluate every method."""
    R, L, C, M = spec.R, spec.L, spec.C, spec.M
    T1, T2 = spec.T1, spec.T2
    if spec.sweep_variable == "gamma_over_omega_d":
        omega_d = R / L
        C = 1.0 / (R * x * omega_d)  # gamma = x * omega_d
    elif spec.sweep_variable == "T1":
        T1 = x
        if spec.t2_over_t1 is not None:
            T2 = spec.t2_over_t1 * x
    else:  # T2
        T2 = x

    p = CircuitParams(R, L, C, M, spec.omega_c, spec.hbar, spec.kb)
    s = derive_scales(p)
    b = BathPair.from_temperatures(T1, T2, spec.kb)

    regime = classify_regime(p, s, b)
    cells: list[float] = []
    warning_count = 0
    for method in spec.methods:
        try:
            report = assemble_report(p, s, b, method)
        except ArithmeticError:
            cells += [math.nan, math.nan, math.nan]
            warning_count += 1
            continue
        cells += [report.q_classical, report.q_quantum, report.q_total]
        warning_count += len(report.validity_warnings)

    return SweepRow(
        sweep_variable=spec.sweep_variable,
        swept_value=x,
        T1=T1,
        T2=T2,
        methods=spec.methods,
        cells=tuple(cells),
        regime=regime.tag.value,
        warnings=warning_count,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep, one row per grid point, ordered by swept value."""
    return [_evaluate_point(spec, x) for x in spec.grid.values()]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest representation that round-trips
    return str(value)


def emit_csv(rows: list[SweepRow], destination) -> None:
    """Write rows as UTF-8 comma-separated text with LF endings.

    Floats use the shortest round-trip representation, so re-reading the file
    recovers the values bit-exactly and re-running the same sweep reproduces
    the file byte-for-byte.
    """
    if not rows:
        raise ValueError(f"no rows to write to {destination}")
    header = rows[0].header()
    for row in rows:
        if row.header() != header:
            raise ValueError("rows disagree on column layout")
    lines = [",".join(header)]
    for row in rows:
        record = [row.swept_value, row.T1, row.T2, *row.cells, row.regime, row.warnings]
        lines.append(",".join(_format_cell(v) for v in record))
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(source) -> tuple[tuple[str, ...], list[list]]:
    """Read back an emitted CSV; numeric cells become floats/ints again."""
    with open(source, "r", encoding="utf-8", newline="") as fh:
        content = fh.read()
    lines = [line for line in content.split("\n") if line]
    header = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = []
        for text in line.split(","):
            try:
                cells.append(int(text))
            except ValueError:
                try:
                    cells.append(float(text))
                except ValueError:
                    cells.append(text)
        rows.append(cells)
    return header, rows


def preset_specs(name: str) -> list[SweepSpec]:
    """Sweep specifications behind the fig2/fig3/fig4 presets."""
    base = SweepSpec()
    if name == "fig2":
        return [
            replace(
                base,
                sweep_variable="gamma_over_omega_d",
                grid=Grid(1.0, 1e5, 20, "log"),
                T1=t1,
                T2=t2,
                methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM),
            )
            for t1, t2 in ((2.0, 1.0), (5.0, 1.0), (10.0, 5.0))
        ]
    if name == "fig3":
        return [
            replace(
                base,
                sweep_variable="T1",
                grid=Grid(1e-3, 1.0, 25, "log"),
                t2_over_t1=0.5,
                methods=(Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC),
            )
        ]
    if name == "fig4":
        return [
            replace(
                base,
                sweep_variable="T2",
                grid=Grid(t1, 1e3 * t1, 25, "log"),
                T1=t1,
                methods=(Method.CLOSED_FORM, Method.HIGH_TEMP_ASYMPTOTIC),
            )
            for t1 in (2.0, 5.0, 10.0)
        ]
    raise ValueError(f"unknown preset {name!r}; valid: fig2, fig3, fig4")


def run_preset(name: str) -> list[SweepRow]:
    rows: list[SweepRow] = []
    for spec in preset_specs(name):
        rows.extend(run_sweep(spec))
    return rows


def _infer_layout(rows: list[SweepRow]) -> str:
    methods = set(rows[0].methods)
    if rows[0].sweep_variable == "gamma_over_omega_d" and Method.EXACT_QUADRATURE in methods:
        return "fig2"
    if rows[0].sweep_variable == "T1" and Method.LOW_TEMP_ASYMPTOTIC in methods:
        return "fig3"
    if rows[0].sweep_variable == "T2" and Method.HIGH_TEMP_ASYMPTOTIC in methods:
        return "fig4"
    return "generic"


_PLOT_HEADER = '''#!/usr/bin/env python3
"""Plot {layout} sweep data from {csv_name} (auto-generated)."""

import os

import matplotlib.pyplot as plt
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CSV = os.path.join(HERE, {csv_rel!r})

data = np.genfromtxt(CSV, delimiter=",", names=True, dtype=None, encoding="utf-8")
data = np.atleast_1d(data)
'''

_PLOT_BODIES = {
    "fig2": '''
pairs = sorted(set(zip(data["T1"].tolist(), data["T2"].tolist())))
for t1, t2 in pairs:
    sel = (data["T1"] == t1) & (data["T2"] == t2)
    x = data["gamma_over_omega_d"][sel]
    line, = plt.semilogx(x, data["exact_q_total"][sel], "-",
                         label=f"exact, T1={t1:g}, T2={t2:g}")
    plt.semilogx(x, data["closed_q_total"][sel], "--", color=line.get_color(),
                 label=f"closed form, T1={t1:g}, T2={t2:g}")
plt.xlabel(r"$\\gamma/\\omega_d$")
plt.ylabel("heat current")
''',
    "fig3": '''
x = data["T1"]
plt.loglog(x, data["closed_q_total"], "-", label="closed form total")
plt.loglog(x, data["lowt_q_total"], "--", label="low-temperature $T^4$ law")
plt.xlabel("$T_1$ (with $T_2 = T_1/2$)")
plt.ylabel("heat current")
''',
    "fig4": '''
for t1 in sorted(set(data["T1"].tolist())):
    sel = data["T1"] == t1
    x = data["T2"][sel] / t1
    line, = plt.semilogx(x, data["closed_q_quantum"][sel], "-",
                         label=f"quantum piece, T1={t1:g}")
    plt.semilogx(x, data["hight_q_quantum"][sel], "--", color=line.get_color(),
                 label=f"log asymptote, T1={t1:g}")
plt.xlabel("$T_2/T_1$")
plt.ylabel("quantum heat current")
''',
    "generic": '''
x = data[data.dtype.names[0]]
for name in data.dtype.names:
    if name.endswith("_q_total"):
        plt.plot(x, data[name], label=name)
plt.xlabel(data.dtype.names[0])
plt.ylabel("heat current")
''',
}

_PLOT_FOOTER = '''
plt.legend()
plt.tight_layout()
plt.savefig(os.path.splitext(CSV)[0] + ".png", dpi=160)
'''


def emit_plot_script(rows: list[SweepRow], destination, csv_path) -> None:
    """Write a standalone matplotlib script that renders the sweep CSV.

    The script references the CSV by a path relative to its own location and
    saves a PNG next to the CSV; the preset layout is inferred from the rows.
    """
    if not rows:
        raise ValueError(f"no rows to plot for {destination}")
    layout = _infer_layout(rows)
    dest_dir = os.path.dirname(os.path.abspath(os.fspath(destination)))
    csv_rel = os.path.relpath(os.path.abspath(os.fspath(csv_path)), start=dest_dir)
    script = (
        _PLOT_HEADER.format(
            layout=layout, csv_name=os.path.basename(os.fspath(csv_path)), csv_rel=csv_rel
        )
        + _PLOT_BODIES[layout]
        + _PLOT_FOOTER
    )
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
