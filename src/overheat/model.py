"""Circuit parameters, derived frequency scales, and temperature-regime tags.

Two identical series RLC loops are coupled by a mutual inductance M and each
loop carries its own resistive bath (Lorentz-Drude cutoff omega_c).  All
frequency scales that control the steady-state heat current derive from five
circuit constants (R, L, C, M, omega_c); `CircuitParams.scales` holds them:

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
class DerivedScales:
    """Frequency scales of a circuit, read as `CircuitParams.scales`.

    The normal modes of the coupled flux dynamics relax at
    omega_pm = (R/L)/(1 +/- M/L); the finite bath cutoff drags those rates to
    lambda_pm = -omega_c*omega_pm/(omega_c + omega_pm), which sit between
    -omega_pm and 0 and tend to -omega_pm as omega_c -> infinity.
    """

    gamma: float
    omega_0: float
    omega_d: float
    omega_plus: float
    omega_minus: float
    lambda_plus: float
    lambda_minus: float


@dataclass(frozen=True)
class CircuitParams:
    """Electrical constants of the coupled pair, plus unit constants.

    Both loops share the same R, L, C.  The mutual inductance must satisfy
    0 <= M < L so the inductance matrix [[L, -M], [-M, L]] stays positive
    definite; R C and L C must neither underflow to 0 nor overflow, as gamma
    and omega_0 divide by them.  hbar and kb default to 1 (natural units);
    pass SI values to work in SI.  `scales` holds the `DerivedScales`,
    computed once when the circuit is built; it is not a field, so eq, hash,
    `asdict` and `replace` see only the constants.
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
        # omega_d/(1 +/- M/L) written as R/(L +/- M) to avoid the ratio roundoff
        omega_plus = self.R / (self.L + self.M)
        omega_minus = self.R / (self.L - self.M)
        if self.omega_c * omega_minus == math.inf:
            raise OverflowError(f"lambda_pm overflows at omega_c = {self.omega_c!r}, "
                                f"omega_minus = R/(L - M) = {omega_minus!r}")
        for name, x in (("R", self.R), ("L", self.L)):  # gamma and omega_0 divide by them
            if not 0.0 < x * self.C < math.inf:
                raise ValueError(f"{name}*C must be positive and finite, got {x * self.C!r} "
                                 f"at {name} = {x!r}, C = {self.C!r}")
        # not a functools.cached_property: on CPython 3.11 the instance __dict__
        # it writes makes every later field read about four times slower
        object.__setattr__(self, "scales", DerivedScales(
            gamma=1.0 / (self.R * self.C),
            omega_0=1.0 / math.sqrt(self.L * self.C),
            omega_d=self.R / self.L,
            omega_plus=omega_plus,
            omega_minus=omega_minus,
            lambda_plus=-self.omega_c * omega_plus / (self.omega_c + omega_plus),
            lambda_minus=-self.omega_c * omega_minus / (self.omega_c + omega_minus),
        ))


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
        if not (math.isfinite(kb) and kb > 0.0):
            raise ValueError(f"kb must be positive and finite, got {kb!r}")
        for name, value in (("T1", T1), ("T2", T2)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            if not 0.0 < kb * value < math.inf or 1.0 / (kb * value) == math.inf:
                raise ValueError(f"1/(kb*{name}) must be positive and finite "
                                 f"at {name} = {value!r}, kb = {kb!r}")
        return cls(T1=T1, T2=T2, beta1=1.0 / (kb * T1), beta2=1.0 / (kb * T2))

    def thermal_frequency(self, hbar: float) -> float:
        """Largest thermal frequency kb*max(T1,T2)/hbar, for the circuit's hbar."""
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


def _overdamped_bounds(p: CircuitParams) -> tuple[float, float, float]:
    """gamma, sqrt(gamma*omega_plus) and cbrt(gamma*omega_plus*omega_c): the
    charge-sector scales that omega_th must stay below."""
    s = p.scales
    cbrt = (s.gamma * s.omega_plus * p.omega_c) ** (1.0 / 3.0)
    return s.gamma, math.sqrt(s.gamma * s.omega_plus), cbrt


def _regime_tag(p: CircuitParams, b: BathPair) -> RegimeTag:
    """The tag of `classify_regime`, from the comparisons alone."""
    limit = b.thermal_frequency(p.hbar) * SAFETY_FACTOR
    gamma, sqrt_bound, cbrt_bound = _overdamped_bounds(p)
    if not (limit <= gamma and limit <= sqrt_bound and limit <= cbrt_bound):
        return RegimeTag.OUTSIDE_OVERDAMPED
    row1 = _bath_row(1.0 / (p.hbar * b.beta1), p.scales)
    if row1 is not None and row1 is _bath_row(1.0 / (p.hbar * b.beta2), p.scales):
        return row1
    return RegimeTag.MIXED


def classify_regime(p: CircuitParams, b: BathPair) -> RegimeLabel:
    """Tag a parameter/temperature combination with its overdamped regime.

    The closed-form currents require the thermal frequency
    omega_th = kb*max(T)/hbar to sit below the three charge-sector scales
    gamma, sqrt(gamma*omega_plus) and cbrt(gamma*omega_plus*omega_c).  The
    omega_minus versions of the last two need no check: omega_plus =
    R/(L + M) <= R/(L - M) = omega_minus, so they hold whenever these do.
    If any of the three separations fails (margin below `SAFETY_FACTOR`)
    the label is OutsideOverdamped regardless of the temperature pattern.
    Otherwise each bath is ranked against the mode rates omega_pm and, when
    both fall in the same row, that row's tag is returned.  Every other case
    is Mixed: the two baths in different rows, or one or both baths in no
    row, as for a thermal frequency between omega_plus and omega_minus.
    The tag is `_regime_tag`'s, which a sweep reads without the conditions.
    """
    omega_th = b.thermal_frequency(p.hbar)
    names = ("gamma", "sqrt(gamma*omega_plus)", "cbrt(gamma*omega_plus*omega_c)")
    conditions = [
        RegimeCondition(f"omega_th << {name}", omega_th * SAFETY_FACTOR <= bound, bound / omega_th)
        for name, bound in zip(names, _overdamped_bounds(p))
    ]
    # margin: where the bath sits relative to the slow mode
    for label, beta in (("bath1", b.beta1), ("bath2", b.beta2)):
        w = 1.0 / (p.hbar * beta)
        conditions.append(RegimeCondition(f"{label} row", _bath_row(w, p.scales) is not None,
                                          w / p.scales.omega_plus))
    return RegimeLabel(_regime_tag(p, b), tuple(conditions))
