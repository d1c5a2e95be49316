"""Parameter sweeps over damping or temperature, and their CSV output.

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
byte-identical files.  The package draws nothing: `demos/05_plot_sweep.py`
plots such a CSV.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import Method, _columns, _warning_flags
from .model import BathPair, CircuitParams, _regime_tag

SWEEP_VARIABLES = ("gamma_over_omega_d", "T1", "T2")
PRESETS = ("fig2", "fig3", "fig4")

_METHOD_PREFIX = {
    Method.EXACT_QUADRATURE: "exact",
    Method.CLOSED_FORM: "closed",
    Method.LOW_TEMP_ASYMPTOTIC: "lowt",
    Method.HIGH_TEMP_ASYMPTOTIC: "hight",
}


_VALID_METHODS = ", ".join(m.value for m in Method)


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
        if not isinstance(self.points, numbers.Integral) or self.points < 2:
            raise ConfigError(f"integer points >= 2 required, got {self.points!r}")
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
    ratio of the swept T1.  The grid must start above 0, every grid point
    must give a valid circuit and baths, and no method may be listed twice.
    The regime margin is not part of a spec: every row is classified with
    the constant `model.SAFETY_FACTOR`.  Neither is a transfer mode:
    ExactQuadrature is always the split of the full cubic model.  `points`
    keeps the (swept value, CircuitParams, BathPair) of every grid point,
    built once here to check it, for `run_sweep` to read.
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
        object.__setattr__(self, "methods", tuple(self.methods))  # hashable, as the field says
        if not self.methods:
            raise ConfigError("at least one method required")
        for m in self.methods:
            if not isinstance(m, Method):
                raise ConfigError(f"unknown method {m!r}; valid: {_VALID_METHODS}")
        repeated = [m.value for i, m in enumerate(self.methods) if m in self.methods[:i]]
        if repeated:
            raise ConfigError(f"method listed twice: {', '.join(dict.fromkeys(repeated))}")
        if self.t2_over_t1 is not None:
            if self.sweep_variable != "T1":
                raise ConfigError("t2_over_t1 only applies to T1 sweeps")
            if not (math.isfinite(self.t2_over_t1) and self.t2_over_t1 > 0.0):
                raise ConfigError(f"t2_over_t1 must be positive, got {self.t2_over_t1!r}")
        # each grid point checks the fields it uses, and none that the sweep overrides
        points = []
        for x in self.grid.values():
            try:
                points.append((x, *_grid_point(self, x)))
            except ValueError as exc:
                raise ConfigError(f"{self.sweep_variable} = {x!r}: {exc}") from None
        # not a field, as `CircuitParams.scales`: eq, hash, repr and `replace`
        # see only the settings, and `run_sweep` builds no point again
        object.__setattr__(self, "points", tuple(points))


def _grid_point(spec: SweepSpec, x: float) -> tuple[CircuitParams, BathPair]:
    """Circuit and baths at grid value x of the spec's sweep variable."""
    C, T1, T2 = spec.C, spec.T1, spec.T2
    if spec.sweep_variable == "gamma_over_omega_d":
        C = 1.0 / (spec.R * x * (spec.R / spec.L))  # gamma = x * omega_d
    elif spec.sweep_variable == "T1":
        T1 = x
        if spec.t2_over_t1 is not None:
            T2 = spec.t2_over_t1 * x
    else:  # T2
        T2 = x
    p = CircuitParams(spec.R, spec.L, C, spec.M, spec.omega_c, spec.hbar, spec.kb)
    return p, BathPair.from_temperatures(T1, T2, spec.kb)


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
        raise ConfigError(f"unknown method {text!r}; valid: {_VALID_METHODS}") from None


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


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep, one row per grid point, ordered by swept value.

    The rows read the spec's stored `points`.  All methods run over all rows
    at once, so the residue sums of the sweep take one digamma kernel call;
    a row's cells, regime tag and warning count equal `assemble_report`'s at
    its point, bit for bit, though no report is built.  A method that fails
    at a row with an ArithmeticError gives that row nan cells and one warning.
    """
    columns = _columns([(p, b) for _, p, b in spec.points], spec.methods)
    rows = []
    for (x, p, b), row in zip(spec.points, columns):
        tag = _regime_tag(p, b)
        cells: list[float] = []
        warnings = 0
        for method, triple in zip(spec.methods, row):
            if isinstance(triple, ArithmeticError):
                cells += _FAILED
                warnings += 1
            else:
                cells += triple
                warnings += sum(_warning_flags(p, b, method, tag))
        rows.append(SweepRow(
            spec.sweep_variable, x, b.T1, b.T2, spec.methods, tuple(cells), tag.value, warnings
        ))
    return rows


_FAILED = (math.nan, math.nan, math.nan)


def emit_csv(rows: list[SweepRow], destination) -> None:
    """Write rows as UTF-8 comma-separated text with LF endings.

    Floats use the shortest round-trip representation (`repr`), so re-reading
    the file recovers the values bit-exactly and re-running the same sweep
    reproduces the file byte-for-byte.  Every row must share the first row's
    sweep variable and methods, which fix the columns.
    """
    if not rows:
        raise ValueError(f"no rows to write to {destination}")
    first = rows[0]
    layout = (first.sweep_variable, first.methods)
    if any((row.sweep_variable, row.methods) != layout for row in rows):
        raise ValueError("rows disagree on column layout")
    line = ",".join(["%r"] * (3 + 3 * len(first.methods)) + ["%s", "%d"])
    lines = [",".join(first.header())]
    lines += [
        line % (row.swept_value, row.T1, row.T2, *row.cells, row.regime, row.warnings)
        for row in rows
    ]
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    raise ValueError(f"unknown preset {name!r}; valid: {', '.join(PRESETS)}")


def run_preset(name: str) -> list[SweepRow]:
    rows: list[SweepRow] = []
    for spec in preset_specs(name):
        rows.extend(run_sweep(spec))
    return rows
