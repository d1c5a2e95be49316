"""Closed-form heat currents in the overdamped regime and their asymptotics.

Deep in the overdamped regime the transfer function is a rational function of
omega with simple poles at the dressed mode rates lambda_pm, and both pieces
of the heat current evaluate by residues:

* classical piece: k_b (T1 - T2)/2 * (M/L)^2 * omega_c/(omega_c + omega_d)
  * lambda_plus lambda_minus / omega_d
* quantum piece: a log(T2/T1) term plus digamma functions of the mode rates
  scaled by the two inverse temperatures.

Two asymptotic windows have simpler laws: for thermal frequencies below the
mode rates the total current follows a Stefan-Boltzmann-like T^4 difference
(independent of the cutoff), while at high temperatures the quantum piece
collapses onto the pure logarithmic term, which survives even as both
temperatures grow.  `assemble_report` packages any of these routes, or the
exact split of the full model (the exact classical integral plus the residue
sum of the quantum part), together with the regime classification and
validity warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import (
    BathPair,
    CircuitParams,
    DerivedScales,
    RegimeLabel,
    RegimeTag,
    classify_regime,
)
from .quadrature import classical_integral, quantum_integral
from .special import digamma


class Method(Enum):
    """Evaluation route for a heat-current report.

    EXACT_QUADRATURE runs no quadrature despite its name: it is the exact
    classical/quantum split of the full cubic model (`classical_integral`
    and `quantum_integral` in ExactCubic mode).  The adaptive quadrature of
    the total, `heat_exact`, is the independent check of that split.
    CLOSED_FORM is the split of the linearized model; the library functions
    take a transfer mode for the residue route to the same split.
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


def _log_ratio(num: float, den: float) -> float:
    """log(num/den), switching to log difference for extreme ratios."""
    ratio = num / den
    if 1e-6 < ratio < 1e6:
        return math.log(ratio)
    return math.log(num) - math.log(den)


def heat_classical(p: CircuitParams, s: DerivedScales, b: BathPair) -> float:
    """Classical (equipartition) heat current in the overdamped regime.

    (k_b/2)(T1 - T2)(M/L)^2 (omega_c/(omega_c + omega_d)) lambda_+ lambda_-/omega_d.
    Linear in the temperature difference; positive for T1 > T2 since
    lambda_+ lambda_- > 0.
    """
    return (
        0.5
        * p.kb
        * (b.T1 - b.T2)
        * (p.M / p.L) ** 2
        * (p.omega_c / (p.omega_c + s.omega_d))
        * (s.lambda_plus * s.lambda_minus / s.omega_d)
    )


def heat_quantum(p: CircuitParams, s: DerivedScales, b: BathPair) -> float:
    """Quantum correction to the overdamped heat current.

    Residue evaluation of the digamma-weighted frequency integral:

        (hbar/pi)(M/L)^2 (lambda_+ lambda_-/omega_d)^2 log(T2/T1)
        + (hbar/4 pi)(omega_c/(omega_c + omega_d))(M/L)
          * {lambda_+^2 [psi(1 - beta1 hbar lambda_+/2pi)
                         - psi(1 - beta2 hbar lambda_+/2pi)] - (+ -> -)}.

    All digamma arguments are real and > 1 because lambda_pm < 0.  Zero at
    equilibrium, antisymmetric under T1 <-> T2, and negative for T1 > T2
    (it reduces the classical flow).
    """
    log_part = _quantum_log_term(p, s, b)
    prefactor = (
        p.hbar / (4.0 * math.pi) * (p.omega_c / (p.omega_c + s.omega_d)) * (p.M / p.L)
    )
    step = p.hbar / (2.0 * math.pi)

    def mode_block(lam: float) -> float:
        d1 = digamma(1.0 - b.beta1 * step * lam)
        d2 = digamma(1.0 - b.beta2 * step * lam)
        return lam * lam * (d1 - d2)

    return log_part + prefactor * (
        mode_block(s.lambda_plus) - mode_block(s.lambda_minus)
    )


def _quantum_log_term(p: CircuitParams, s: DerivedScales, b: BathPair) -> float:
    """The logarithmic piece of the quantum current; its full high-T survivor."""
    return (
        (p.hbar / math.pi)
        * (p.M / p.L) ** 2
        * (s.lambda_plus * s.lambda_minus / s.omega_d) ** 2
        * _log_ratio(b.T2, b.T1)
    )


def heat_low_temp(p: CircuitParams, b: BathPair) -> float:
    """Low-temperature total heat current: the T^4 radiation-like law.

    (2/15)(pi/hbar)^3 (M/L)^2 (k_b^4/omega_d^2)(T1^4 - T2^4).  Valid when both
    thermal frequencies sit below |lambda_pm|; notably independent of the
    bath cutoff omega_c.
    """
    omega_d = p.R / p.L
    return (
        (2.0 / 15.0)
        * (math.pi / p.hbar) ** 3
        * (p.M / p.L) ** 2
        * (p.kb**4 / omega_d**2)
        * (b.T1**4 - b.T2**4)
    )


def assemble_report(
    p: CircuitParams,
    s: DerivedScales,
    b: BathPair,
    method: Method,
) -> HeatReport:
    """Evaluate the heat current by the requested route and attach diagnostics.

    Splits per method:

    * ClosedForm: classical and quantum closed forms, total is their sum.
    * LowTempAsymptotic: total is the T^4 law; the quantum column is the
      difference from the classical piece.
    * HighTempAsymptotic: classical closed form plus the bare log term, the
      whole of the quantum piece that survives at high temperature.
    * ExactQuadrature: the exact split of the full cubic model: classical
      from the exact rational integral, quantum from the residue sum, total
      as their sum.  No quadrature runs.
    """
    regime = classify_regime(p, s, b)
    warnings: list[str] = []
    if regime.tag is RegimeTag.OUTSIDE_OVERDAMPED:
        failed = [c.name for c in regime.conditions if not c.satisfied]
        warnings.append(
            "outside overdamped validity: " + "; ".join(failed)
        )

    if method is Method.CLOSED_FORM:
        qc = heat_classical(p, s, b)
        qq = heat_quantum(p, s, b)
        qt = qc + qq
    elif method is Method.LOW_TEMP_ASYMPTOTIC:
        qt = heat_low_temp(p, b)
        qc = heat_classical(p, s, b)
        qq = qt - qc
        omega_th = b.thermal_frequency(p.hbar)
        if min(abs(s.lambda_plus), abs(s.lambda_minus)) <= omega_th:
            warnings.append(
                "low-temperature expansion marginal: |lambda_pm|/omega_th <= 1"
            )
    elif method is Method.HIGH_TEMP_ASYMPTOTIC:
        qc = heat_classical(p, s, b)
        qq = _quantum_log_term(p, s, b)
        qt = qc + qq
    elif method is Method.EXACT_QUADRATURE:
        qc = p.kb * (b.T1 - b.T2) * classical_integral(p)
        qq = quantum_integral(p, b)
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
