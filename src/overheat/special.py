"""Complex digamma function.

The quantum part of the heat current is expressed through psi(z) at complex
arguments 1 - c*s, with s a left-half-plane pole of f12 and c = beta*hbar/2pi,
so every argument it needs has Re z > 1.  `_digamma_array` evaluates psi at a
whole numpy array of such arguments at once: one fixed shift by
psi(z) = psi(z + 10) - Sum_{k<10} 1/(z + k), then the asymptotic series
psi(z) ~ log z - 1/(2z) - sum B_2k/(2k z^{2k}) (Abramowitz and Stegun
6.3.18).  The scalar `digamma` calls the same kernel, with the reflection
formula psi(1-z) = psi(z) + pi*cot(pi*z) covering the left half plane.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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

# psi(z) = psi(z + 10) - Sum_k 1/(z + k), k = 0..9.  The kernel's constants
# are complex arrays: a ufunc takes them faster than Python floats.
_SHIFT = np.arange(10.0) + 0j
_SHIFT_END = np.array(10.0 + 0j)
_HALF = np.array(0.5 + 0j)
_SERIES = tuple(np.array(complex(c)) for c in _ASYMPTOTIC_COEFFS)
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


def _digamma_array(z: np.ndarray) -> np.ndarray:
    """psi(z) at every element of a complex array with Re z >= 0.5.

    The shift by `_SHIFT` is one (..., 10) reciprocal sum; it puts |z| >= 10,
    where the series' remainder after seven terms is below rounding.  Each
    element's value depends on that element alone, bit for bit, whatever
    the array's size or shape.
    """
    recip = z[..., None] + _SHIFT
    np.reciprocal(recip, out=recip)
    z = z + _SHIFT_END
    r = np.reciprocal(z)
    # r*r, not 1/(z*z): z*z overflows beyond |z| ~ 1e154, r*r only underflows
    w = r * r
    series = _SERIES[-1] * w
    for c in _SERIES[-2::-1]:
        series += c
        series *= w
    series += _HALF * r
    series += np.add.reduce(recip, recip.ndim - 1)
    return np.log(z) - series


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
        result = complex(_digamma_array(np.array([1.0 - zz]))[0]) - math.pi * _cot_pi(zz)
    else:
        result = complex(_digamma_array(np.array([zz]))[0])

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
