"""Circuit parameters, derived frequency scales, and temperature-regime tags.

Two identical series RLC loops are coupled by a mutual inductance M and each
loop carries its own resistive bath (Lorentz-Drude cutoff omega_c).  All
frequency scales that control the steady-state heat current derive from five
circuit constants (R, L, C, M, omega_c):

* charge relaxation rate     gamma   = 1/(R C)
* natural frequency          omega_0 = 1/sqrt(L C)
* flux damping rate          omega_d = R/L
* normal-mode flux rates     omega_pm = omega_d/(1 +/- M/L)
* cutoff-dressed mode rates  lambda_pm = -omega_c omega_pm/(omega_c + omega_pm)

The overdamped regime (gamma much larger than every other rate) is the one
where the closed-form heat currents apply; `classify_regime` checks those
validity inequalities and assigns a coarse temperature tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

# Margin of every scale separation: "a << b" reads a * SAFETY_FACTOR <= b.
SAFETY_FACTOR = 10.0


@dataclass(frozen=True)
class CircuitParams:
    """Electrical constants of the coupled pair, plus unit constants.

    Both loops share the same R, L, C.  The mutual inductance must satisfy
    0 <= M < L so the inductance matrix [[L, -M], [-M, L]] stays positive
    definite.  hbar and kb default to 1 (natural units); pass SI values to
    work in SI.
    """

    R: float
    L: float
    C: float
    M: float
    omega_c: float
    hbar: float = 1.0
    kb: float = 1.0

    def __post_init__(self):
        for name in ("R", "L", "C", "omega_c", "hbar", "kb"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.M) and 0.0 <= self.M):
            raise ValueError(f"M must be nonnegative and finite, got {self.M!r}")
        if self.M >= self.L:
            raise ValueError(
                f"M < L required for a positive-definite inductance matrix, "
                f"got M={self.M!r}, L={self.L!r}"
            )


@dataclass(frozen=True)
class DerivedScales:
    """Frequency scales computed once from `CircuitParams` by `derive_scales`."""

    gamma: float
    omega_0: float
    omega_d: float
    omega_plus: float
    omega_minus: float
    lambda_plus: float
    lambda_minus: float


def derive_scales(p: CircuitParams) -> DerivedScales:
    """Compute all derived frequency scales for a parameter set.

    The normal modes of the coupled flux dynamics relax at
    omega_pm = (R/L)/(1 +/- M/L); the finite bath cutoff drags those rates to
    lambda_pm = -omega_c*omega_pm/(omega_c + omega_pm), which sit between
    -omega_pm and 0 and tend to -omega_pm as omega_c -> infinity.
    """
    gamma = 1.0 / (p.R * p.C)
    omega_0 = 1.0 / math.sqrt(p.L * p.C)
    omega_d = p.R / p.L
    # omega_d/(1 +/- M/L) written as R/(L +/- M) to avoid the ratio roundoff
    omega_plus = p.R / (p.L + p.M)
    omega_minus = p.R / (p.L - p.M)
    lambda_plus = -p.omega_c * omega_plus / (p.omega_c + omega_plus)
    lambda_minus = -p.omega_c * omega_minus / (p.omega_c + omega_minus)
    return DerivedScales(
        gamma=gamma,
        omega_0=omega_0,
        omega_d=omega_d,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        lambda_plus=lambda_plus,
        lambda_minus=lambda_minus,
    )


@dataclass(frozen=True)
class BathPair:
    """Bath temperatures with their cached inverse temperatures.

    Construct through `from_temperatures` so beta_a = 1/(kb*T_a) holds exactly
    as floats.  Heat flows 1 -> 2 (positive sign) when T1 > T2.
    """

    T1: float
    T2: float
    beta1: float
    beta2: float

    @classmethod
    def from_temperatures(cls, T1: float, T2: float, kb: float = 1.0) -> "BathPair":
        for name, value in (("T1", T1), ("T2", T2)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(kb) and kb > 0.0):
            raise ValueError(f"kb must be positive and finite, got {kb!r}")
        return cls(T1=T1, T2=T2, beta1=1.0 / (kb * T1), beta2=1.0 / (kb * T2))

    def thermal_frequency(self, hbar: float = 1.0) -> float:
        """Largest thermal frequency kb*max(T1,T2)/hbar of the pair."""
        return 1.0 / (hbar * min(self.beta1, self.beta2))


class RegimeTag(Enum):
    """Coarse temperature regime of a bath pair relative to the mode rates."""

    INTERMEDIATE_T = "IntermediateT"
    LOW_T = "LowT"
    MIXED = "Mixed"
    OUTSIDE_OVERDAMPED = "OutsideOverdamped"


class RegimeCondition(NamedTuple):
    """One checked inequality: name, whether it held, and its margin b/a for a << b."""

    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class RegimeLabel:
    """Regime tag plus the individual inequality checks behind it."""

    tag: RegimeTag
    conditions: tuple[RegimeCondition, ...]


def _bath_row(omega_th: float, s: DerivedScales) -> RegimeTag | None:
    """Temperature row for one bath: which chain of scale separations it satisfies.

    Rows (with a << b read as a*SAFETY_FACTOR <= b):
      intermediate: omega_pm <  omega_th << gamma
      low:          omega_th <  omega_pm << gamma
    Returns None when the thermal frequency straddles a boundary or sits
    above gamma.
    """
    if s.omega_minus < omega_th and omega_th * SAFETY_FACTOR <= s.gamma:
        return RegimeTag.INTERMEDIATE_T
    if omega_th < s.omega_plus and s.omega_minus * SAFETY_FACTOR <= s.gamma:
        return RegimeTag.LOW_T
    return None


def classify_regime(p: CircuitParams, s: DerivedScales, b: BathPair) -> RegimeLabel:
    """Tag a parameter/temperature combination with its overdamped regime.

    The closed-form currents require the thermal frequency
    omega_th = kb*max(T)/hbar to sit below the charge-sector scales: gamma,
    sqrt(gamma*omega_pm) and cbrt(gamma*omega_pm*omega_c).  If any of those
    separations fails (margin below `SAFETY_FACTOR`) the label is
    OutsideOverdamped regardless of the temperature pattern.  Otherwise each
    bath is ranked against the mode rates omega_pm and, when both fall in the
    same row, that row's tag is returned.  Every other case is Mixed: the two
    baths in different rows, or one or both baths in no row, as for a thermal
    frequency between omega_plus and omega_minus.
    """
    omega_th = b.thermal_frequency(p.hbar)
    checks = []
    for name, bound in (
        ("omega_th << gamma", s.gamma),
        ("omega_th << sqrt(gamma*omega_plus)", math.sqrt(s.gamma * s.omega_plus)),
        ("omega_th << sqrt(gamma*omega_minus)", math.sqrt(s.gamma * s.omega_minus)),
        (
            "omega_th << cbrt(gamma*omega_plus*omega_c)",
            (s.gamma * s.omega_plus * p.omega_c) ** (1.0 / 3.0),
        ),
        (
            "omega_th << cbrt(gamma*omega_minus*omega_c)",
            (s.gamma * s.omega_minus * p.omega_c) ** (1.0 / 3.0),
        ),
    ):
        margin = bound / omega_th
        checks.append(RegimeCondition(name, omega_th * SAFETY_FACTOR <= bound, margin))

    rows = []
    for label, beta in (("bath1", b.beta1), ("bath2", b.beta2)):
        w = 1.0 / (p.hbar * beta)
        row = _bath_row(w, s)
        rows.append(row)
        checks.append(
            RegimeCondition(
                f"{label} row",
                row is not None,
                w / s.omega_plus,  # where the bath sits relative to the slow mode
            )
        )

    conditions = tuple(checks)
    if not all(c.satisfied for c in conditions[:5]):
        return RegimeLabel(RegimeTag.OUTSIDE_OVERDAMPED, conditions)
    row1, row2 = rows
    if row1 is not None and row1 is row2:
        return RegimeLabel(row1, conditions)
    return RegimeLabel(RegimeTag.MIXED, conditions)
