"""Complex digamma function.

The quantum part of the heat current is expressed through psi(z) at complex
arguments 1 - i*beta*hbar*omega/(2*pi) and at real shifted mode rates, so one
implementation serves both the closed forms and the frequency integrals.  The
evaluation strategy is the classical one: push the argument up with the
recurrence psi(z+1) = psi(z) + 1/z until |z| is large, then use the asymptotic
series psi(z) ~ log z - 1/(2z) - sum B_2k/(2k z^{2k}), with the reflection
formula psi(1-z) = psi(z) + pi*cot(pi*z) covering the left half plane.
"""

from __future__ import annotations

import cmath
import math

# B_{2k}/(2k) for k = 1..7; seven terms give ~1e-15 accuracy once |z| >= 10
_ASYMPTOTIC_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_RECURRENCE_RADIUS = 10.0
_POLE_TOL = 1e-12
# beyond this |Im z|, cot(pi*z) = -i*sign(Im z) to double precision and the
# naive sin/cos evaluation would overflow
_COT_SATURATION = 20.0


class PoleError(ValueError):
    """Raised when psi is evaluated at (or too close to) a nonpositive integer."""


def _cot_pi(z: complex) -> complex:
    if abs(z.imag) > _COT_SATURATION:
        return complex(0.0, -math.copysign(1.0, z.imag))
    return cmath.cos(math.pi * z) / cmath.sin(math.pi * z)


def _digamma_right(z: complex) -> complex:
    """psi(z) for Re z >= 0.5 via recurrence plus the asymptotic series."""
    acc = 0.0 + 0.0j
    while abs(z) < _RECURRENCE_RADIUS:
        acc -= 1.0 / z
        z = z + 1.0
    # z*z overflows beyond |z| ~ 1e154, where the series is far below rounding
    w = 1.0 / zz if cmath.isfinite(zz := z * z) else (1.0 / z) ** 2
    series = 0.0 + 0.0j
    for c in reversed(_ASYMPTOTIC_COEFFS):
        series = (series + c) * w
    return acc + cmath.log(z) - 0.5 / z - series


def digamma(z: complex | float):
    """Digamma function psi(z) for complex or real argument.

    Real input returns a float, complex input returns a complex.  Arguments
    within 1e-12 of a pole (z = 0, -1, -2, ...) raise `PoleError`.
    """
    zz = complex(z)
    if not (math.isfinite(zz.real) and math.isfinite(zz.imag)):
        raise ValueError(f"digamma argument must be finite, got {z!r}")

    if zz.real < 0.5:
        nearest = round(zz.real)
        if nearest <= 0 and abs(zz - nearest) <= _POLE_TOL:
            raise PoleError(f"digamma pole at z = {nearest}, got {z!r}")
        result = _digamma_right(1.0 - zz) - math.pi * _cot_pi(zz)
    else:
        result = _digamma_right(zz)

    if isinstance(z, complex):
        return result
    return result.real


def log_ratio(x: float, y: float) -> float:
    """ln(x/y) for x, y > 0, exactly odd: the log of the ratio above 1, which a
    common power-of-two factor leaves unchanged, or ln x - ln y where it overflows."""
    if x < y:
        return -log_ratio(y, x)
    ratio = x / y
    return math.log(ratio) if ratio < math.inf else math.log(x) - math.log(y)
