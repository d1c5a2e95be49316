"""Closed-form heat currents in the overdamped regime and their asymptotics.

Deep in the overdamped regime the transfer function is a rational function of
omega with simple poles at the dressed mode rates lambda_pm (`p.scales`), and
both pieces of the heat current evaluate by residues, which the cached record
of the linearized f12 holds (`classical_integral` and `quantum_integral` in
OverdampedLinear mode):

* classical piece: k_b (T1 - T2)/2 * (M/L)^2 * omega_c/(omega_c + omega_d)
  * lambda_plus lambda_minus / omega_d
* quantum piece: a log(T2/T1) term plus digamma functions of the mode rates
  scaled by the two inverse temperatures.

Two asymptotic windows have simpler laws: for thermal frequencies below the
mode rates the total current follows a Stefan-Boltzmann-like T^4 difference
(independent of the cutoff), while at high temperatures the quantum piece
collapses onto the pure logarithmic term (the record's zeroth moment), which
survives even as both temperatures grow.  `assemble_report` packages any of
these routes, or the exact split of the full model, together with the regime
classification and validity warnings.  Every function here takes (p, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import BathPair, CircuitParams, RegimeLabel, RegimeTag, classify_regime
from .quadrature import (
    TransferMode, _quantum_integrals, _quantum_log_term, classical_integral, quantum_integral
)


class Method(Enum):
    """Evaluation route for a heat-current report.

    EXACT_QUADRATURE runs no quadrature despite its name: it is the exact
    classical/quantum split of the full cubic model (`classical_integral`
    and `quantum_integral` in ExactCubic mode).  The adaptive quadrature of
    the total, `heat_exact`, is the independent check of that split.
    CLOSED_FORM is the same split of the linearized model, in OverdampedLinear
    mode; both asymptotic methods share its classical column.
    """

    EXACT_QUADRATURE = "ExactQuadrature"
    CLOSED_FORM = "ClosedForm"
    LOW_TEMP_ASYMPTOTIC = "LowTempAsymptotic"
    HIGH_TEMP_ASYMPTOTIC = "HighTempAsymptotic"


@dataclass(frozen=True)
class HeatReport:
    """Classical/quantum split of the heat current with validity metadata.

    q_total = q_classical + q_quantum holds exactly for ClosedForm,
    HighTempAsymptotic and ExactQuadrature; validity_warnings is nonempty
    whenever the regime is OutsideOverdamped.
    """

    q_classical: float
    q_quantum: float
    q_total: float
    method: Method
    regime: RegimeLabel
    validity_warnings: tuple[str, ...]


def heat_classical(
    p: CircuitParams, b: BathPair, mode: TransferMode = TransferMode.OVERDAMPED_LINEAR
) -> float:
    """Classical (equipartition) heat current in the overdamped regime.

    (k_b/2)(T1 - T2)(M/L)^2 (omega_c/(omega_c + omega_d)) lambda_+ lambda_-/omega_d,
    evaluated as k_b (T1 - T2) `classical_integral` in OverdampedLinear mode.
    Positive for T1 > T2 since lambda_+ lambda_- > 0.  ExactCubic mode gives
    the classical current of the full model, the column of ExactQuadrature.
    """
    return p.kb * (b.T1 - b.T2) * classical_integral(p, mode)


def heat_quantum(p: CircuitParams, b: BathPair) -> float:
    """Quantum correction to the overdamped heat current.

    Defined in the paper by residues at the dressed mode rates:

        (hbar/pi)(M/L)^2 (lambda_+ lambda_-/omega_d)^2 log(T2/T1)
        + (hbar/4 pi)(omega_c/(omega_c + omega_d))(M/L)
          * {lambda_+^2 [psi(1 - beta1 hbar lambda_+/2pi)
                         - psi(1 - beta2 hbar lambda_+/2pi)] - (+ -> -)}.

    Its blocks cancel as lambda_+ -> lambda_-, so the value is the residue
    sum of the linearized model, `quantum_integral` in OverdampedLinear mode.
    Zero at equilibrium, odd under T1 <-> T2, negative for T1 > T2.
    """
    return quantum_integral(p, b, TransferMode.OVERDAMPED_LINEAR)


def heat_low_temp(p: CircuitParams, b: BathPair) -> float:
    """Low-temperature total heat current: the T^4 radiation-like law.

    (2/15)(pi/hbar)^3 (M/L)^2 (k_b^4/omega_d^2)(T1^4 - T2^4).  Valid when both
    thermal frequencies sit below |lambda_pm|; notably independent of the
    bath cutoff omega_c.  Raises an OverflowError naming the hotter bath where
    its T^4 is past the largest float, from T ~ 1.2e77, and one naming omega_d
    and hbar where the rest is: a tiny omega_d or hbar, or a huge kb.
    """
    try:
        t4 = b.T1**4 - b.T2**4
    except OverflowError:
        name, T = ("T1", b.T1) if b.T1 >= b.T2 else ("T2", b.T2)
        raise OverflowError(f"{name}^4 overflows in the T^4 law at {name} = {T!r}") from None
    try:  # a power may overflow, and omega_d^2 underflow to 0
        q = (2.0 / 15.0) * (math.pi / p.hbar) ** 3 * (p.M / p.L) ** 2 * (
            p.kb**4 / p.scales.omega_d**2) * t4
    except ArithmeticError:
        q = math.inf
    if not math.isfinite(q):
        raise OverflowError(f"the T^4 law overflows at omega_d = {p.scales.omega_d!r}, "
                            f"hbar = {p.hbar!r}, kb = {p.kb!r}")
    return q


def assemble_report(p: CircuitParams, b: BathPair, method: Method) -> HeatReport:
    """Evaluate the heat current by the requested route and attach diagnostics.

    Every method's classical column is `heat_classical`, in ExactCubic mode
    for ExactQuadrature and OverdampedLinear for the rest.

    * ExactQuadrature and ClosedForm: quantum from the residue sum of the
      same mode, total as their sum.  No quadrature runs.
    * LowTempAsymptotic: total is the T^4 law; the quantum column is the
      difference from the classical piece.
    * HighTempAsymptotic: quantum is the bare log term, the whole of the
      quantum piece that survives at high temperature.
    """
    if not isinstance(method, Method):
        raise ValueError(f"unknown method: {method!r}")
    # b by keyword: bench/tracing.py reads it by name or by its old slot, 2
    regime = classify_regime(p, b=b)
    ((cells,),) = _columns([(p, b)], (method,))
    if isinstance(cells, ArithmeticError):
        raise cells
    outside, marginal = _warning_flags(p, b, method, regime.tag)
    warnings = []
    if outside:
        failed = [c.name for c in regime.conditions if not c.satisfied]
        warnings.append("outside overdamped validity: " + "; ".join(failed))
    if marginal:
        warnings.append("low-temperature expansion marginal: |lambda_pm|/omega_th <= 1")
    return HeatReport(*cells, method=method, regime=regime, validity_warnings=tuple(warnings))


def _warning_flags(
    p: CircuitParams, b: BathPair, method: Method, tag: RegimeTag
) -> tuple[bool, bool]:
    """Which validity warnings the method's report at (p, b) carries, given the
    regime tag: outside the overdamped regime, and the LowTempAsymptotic
    expansion marginal (omega_th >= min |lambda_pm|).  A sweep row counts them."""
    marginal = method is Method.LOW_TEMP_ASYMPTOTIC and min(
        abs(p.scales.lambda_plus), abs(p.scales.lambda_minus)
    ) <= b.thermal_frequency(p.hbar)
    return tag is RegimeTag.OUTSIDE_OVERDAMPED, marginal


# the transfer mode of the residue sum that a method's quantum column needs
_RESIDUE_MODE = {
    Method.EXACT_QUADRATURE: TransferMode.EXACT_CUBIC,
    Method.CLOSED_FORM: TransferMode.OVERDAMPED_LINEAR,
}


def _columns(points: list[tuple[CircuitParams, BathPair]], methods) -> list[list]:
    """The (q_classical, q_quantum, q_total) of `assemble_report` for every
    method at every (p, b) of `points`: per point a list in method order, of
    triples or of the ArithmeticError that `assemble_report` raises there.

    The residue sums of all points and methods come from one
    `_quantum_integrals` call, which gives each the bits of its own
    `quantum_integral`; where that sum fails, its error is the method's.
    """
    modes = [_RESIDUE_MODE.get(method) for method in methods]
    sums = _quantum_integrals(points, [mode for mode in modes if mode])
    columns = []
    for (p, b), values in zip(points, sums):
        quantum = iter(values)
        row: list = []
        for method, mode in zip(methods, modes):
            value = next(quantum) if mode else None
            try:
                row.append(value if isinstance(value, ArithmeticError)
                           else _cells(p, b, method, mode, value))
            except ArithmeticError as error:
                row.append(error)
        columns.append(row)
    return columns


def _cells(p: CircuitParams, b: BathPair, method: Method, mode, quantum) -> tuple:
    """A method's three columns at (p, b), given the mode of its residue sum
    and that sum, or None for both for the asymptotic methods."""
    # the classical column reads the record of the method's residue sum, the linear one if none
    qc = heat_classical(p, b, mode or TransferMode.OVERDAMPED_LINEAR)
    if method is Method.LOW_TEMP_ASYMPTOTIC:
        qt = heat_low_temp(p, b)
        return qc, qt - qc, qt
    if method is Method.HIGH_TEMP_ASYMPTOTIC:
        quantum = _quantum_log_term(p, b)
    return qc, quantum, qc + quantum
