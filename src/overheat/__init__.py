"""Steady-state heat transport between magnetically coupled, damped RLC circuits.

Two identical RLC loops, each damped by its own resistive bath at temperature
T1 or T2 and coupled through a mutual inductance, exchange heat in the steady
state.  The package evaluates that heat current three ways:

* the exact frequency integral, valid for any damping: split exactly into
  a classical piece (`classical_integral`) and a quantum residue sum
  (`quantum_integral`), with its adaptive quadrature (`heat_exact`) as the
  independent check,
* closed forms in the overdamped regime (`heat_classical`, `heat_quantum`),
* low- and high-temperature asymptotics (`heat_low_temp`, and the
  HighTempAsymptotic method of `assemble_report`),

together with the regime bookkeeping to know which of them applies, and a
sweep/CSV layer (also exposed as the `heat` command line tool) for producing
the standard figure datasets.
"""

from .closedform import (
    HeatReport,
    Method,
    assemble_report,
    heat_classical,
    heat_low_temp,
    heat_quantum,
)
from .model import (
    BathPair,
    CircuitParams,
    DerivedScales,
    RegimeCondition,
    RegimeLabel,
    RegimeTag,
    classify_regime,
    derive_scales,
)
from .quadrature import (
    ToleranceNotMetError,
    classical_integral,
    heat_exact,
    quantum_integral,
)
from .response import TransferMode, transfer_f12, u_pm
from .special import PoleError, digamma
from .sweep import (
    ConfigError,
    Grid,
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_plot_script,
    parse_config,
    preset_specs,
    read_csv,
    run_preset,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BathPair",
    "CircuitParams",
    "ConfigError",
    "DerivedScales",
    "Grid",
    "HeatReport",
    "Method",
    "PoleError",
    "RegimeCondition",
    "RegimeLabel",
    "RegimeTag",
    "SweepRow",
    "SweepSpec",
    "ToleranceNotMetError",
    "TransferMode",
    "assemble_report",
    "classical_integral",
    "classify_regime",
    "derive_scales",
    "digamma",
    "emit_csv",
    "emit_plot_script",
    "heat_classical",
    "heat_exact",
    "heat_low_temp",
    "heat_quantum",
    "parse_config",
    "preset_specs",
    "quantum_integral",
    "read_csv",
    "run_preset",
    "run_sweep",
    "transfer_f12",
    "u_pm",
    "__version__",
]
