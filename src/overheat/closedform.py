"""Closed-form heat currents in the overdamped regime and their asymptotics.

Deep in the overdamped regime the transfer function is a rational function of
omega with simple poles at the dressed mode rates lambda_pm (`p.scales`), and
both pieces of the heat current evaluate by residues:

* classical piece: k_b (T1 - T2)/2 * (M/L)^2 * omega_c/(omega_c + omega_d)
  * lambda_plus lambda_minus / omega_d
* quantum piece: a log(T2/T1) term plus digamma functions of the mode rates
  scaled by the two inverse temperatures (summed by `quantum_integral`).

Two asymptotic windows have simpler laws: for thermal frequencies below the
mode rates the total current follows a Stefan-Boltzmann-like T^4 difference
(independent of the cutoff), while at high temperatures the quantum piece
collapses onto the pure logarithmic term, which survives even as both
temperatures grow.  `assemble_report` packages any of these routes, or the
exact split of the full model (the exact classical integral plus the residue
sum of the quantum part), together with the regime classification and
validity warnings.  Every function here takes the circuit and the baths, (p, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import BathPair, CircuitParams, RegimeLabel, RegimeTag, classify_regime
from .quadrature import _quantum_integrals, classical_integral, quantum_integral
from .response import TransferMode
from .special import log_ratio


class Method(Enum):
    """Evaluation route for a heat-current report.

    EXACT_QUADRATURE runs no quadrature despite its name: it is the exact
    classical/quantum split of the full cubic model (`classical_integral`
    and `quantum_integral` in ExactCubic mode).  The adaptive quadrature of
    the total, `heat_exact`, is the independent check of that split.
    CLOSED_FORM is the split of the linearized model: the classical closed
    formula plus `quantum_integral` in OverdampedLinear mode.
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


def heat_classical(p: CircuitParams, b: BathPair) -> float:
    """Classical (equipartition) heat current in the overdamped regime.

    (k_b/2)(T1 - T2)(M/L)^2 (omega_c/(omega_c + omega_d)) lambda_+ lambda_-/omega_d.
    Linear in the temperature difference; positive for T1 > T2 since
    lambda_+ lambda_- > 0.
    """
    s = p.scales
    return (
        0.5
        * p.kb
        * (b.T1 - b.T2)
        * (p.M / p.L) ** 2
        * (p.omega_c / (p.omega_c + s.omega_d))
        * (s.lambda_plus * s.lambda_minus / s.omega_d)
    )


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


def _quantum_log_term(p: CircuitParams, b: BathPair) -> float:
    """The logarithmic piece of the quantum current; its full high-T survivor."""
    s = p.scales
    return (
        (p.hbar / math.pi)
        * (p.M / p.L) ** 2
        * (s.lambda_plus * s.lambda_minus / s.omega_d) ** 2
        * log_ratio(b.T2, b.T1)
    )


def heat_low_temp(p: CircuitParams, b: BathPair) -> float:
    """Low-temperature total heat current: the T^4 radiation-like law.

    (2/15)(pi/hbar)^3 (M/L)^2 (k_b^4/omega_d^2)(T1^4 - T2^4).  Valid when both
    thermal frequencies sit below |lambda_pm|; notably independent of the
    bath cutoff omega_c.  Raises an OverflowError naming the hotter bath where
    its T^4 is past the largest float, from T ~ 1.2e77.
    """
    try:
        t4 = b.T1**4 - b.T2**4
    except OverflowError:
        name, T = ("T1", b.T1) if b.T1 >= b.T2 else ("T2", b.T2)
        raise OverflowError(f"{name}^4 overflows in the T^4 law at {name} = {T!r}") from None
    return (
        (2.0 / 15.0)
        * (math.pi / p.hbar) ** 3
        * (p.M / p.L) ** 2
        * (p.kb**4 / p.scales.omega_d**2)
        * t4
    )


def assemble_report(p: CircuitParams, b: BathPair, method: Method) -> HeatReport:
    """Evaluate the heat current by the requested route and attach diagnostics.

    Splits per method:

    * ClosedForm: classical closed form plus the linear residue sum.
    * LowTempAsymptotic: total is the T^4 law; the quantum column is the
      difference from the classical piece.
    * HighTempAsymptotic: classical closed form plus the bare log term, the
      whole of the quantum piece that survives at high temperature.
    * ExactQuadrature: the exact split of the full cubic model: classical
      from the exact rational integral, quantum from the residue sum, total
      as their sum.  No quadrature runs.
    """
    # b by keyword: bench/tracing.py reads it by name or by its old slot, 2
    (report,) = _assemble_reports([(p, b)], [classify_regime(p, b=b)], method)
    if isinstance(report, ArithmeticError):
        raise report
    return report


# the transfer mode of the residue sum that a method's quantum column needs
_RESIDUE_MODE = {
    Method.EXACT_QUADRATURE: TransferMode.EXACT_CUBIC,
    Method.CLOSED_FORM: TransferMode.OVERDAMPED_LINEAR,
}


def _assemble_reports(
    points: list[tuple[CircuitParams, BathPair]], regimes: list[RegimeLabel], method: Method
) -> list:
    """`assemble_report` at every (p, b) of `points`, given its regime label,
    or the ArithmeticError that it raises there.

    The residue sums of all points come from one `_quantum_integrals` call,
    which gives each the bits of its own `quantum_integral`; where that sum
    fails, its error is the point's.
    """
    mode = _RESIDUE_MODE.get(method)
    quantum = _quantum_integrals(points, mode) if mode else [None] * len(points)
    reports: list = []
    for (p, b), regime, qq in zip(points, regimes, quantum):
        if isinstance(qq, ArithmeticError):
            reports.append(qq)
            continue
        try:
            reports.append(_report(p, b, method, regime, qq))
        except ArithmeticError as error:
            reports.append(error)
    return reports


def _report(p: CircuitParams, b: BathPair, method: Method, regime: RegimeLabel,
            quantum: float | None) -> HeatReport:
    """The report of `assemble_report`, from the regime and the method's residue sum."""
    warnings: list[str] = []
    if regime.tag is RegimeTag.OUTSIDE_OVERDAMPED:
        failed = [c.name for c in regime.conditions if not c.satisfied]
        warnings.append(
            "outside overdamped validity: " + "; ".join(failed)
        )

    if method is Method.CLOSED_FORM:
        qc = heat_classical(p, b)
        qq = quantum
        qt = qc + qq
    elif method is Method.LOW_TEMP_ASYMPTOTIC:
        qt = heat_low_temp(p, b)
        qc = heat_classical(p, b)
        qq = qt - qc
        omega_th = b.thermal_frequency(p.hbar)
        if min(abs(p.scales.lambda_plus), abs(p.scales.lambda_minus)) <= omega_th:
            warnings.append(
                "low-temperature expansion marginal: |lambda_pm|/omega_th <= 1"
            )
    elif method is Method.HIGH_TEMP_ASYMPTOTIC:
        qc = heat_classical(p, b)
        qq = _quantum_log_term(p, b)
        qt = qc + qq
    elif method is Method.EXACT_QUADRATURE:
        qc = p.kb * (b.T1 - b.T2) * classical_integral(p)
        qq = quantum
        qt = qc + qq
    else:
        raise ValueError(f"unknown method: {method!r}")

    return HeatReport(
        q_classical=qc,
        q_quantum=qq,
        q_total=qt,
        method=method,
        regime=regime,
        validity_warnings=tuple(warnings),
    )
