"""Green's function of the coupled charge dynamics and the heat transfer function.

In Laplace space the charge sector obeys [C s^2 + gamma(s) s + Linv] q = xi,
with the inductance-matrix inverse Linv = [[L, M], [M, L]]/(L^2 - M^2) and the
Lorentz-Drude friction kernel gamma(s) = (1/R) * omega_c/(s + omega_c) acting
identically in both loops.  The off-diagonal Green's function factorizes over
the two flux normal modes,

    g12(s) = -(M/A) * R^2 (s + omega_c)^2 / (u_plus(s) * u_minus(s)),

with A = L^2 - M^2 and the cubic mode polynomials u_plus, u_minus
(`mode_polynomials`).  Dropping their inertial s^3 and s^2 terms (valid deep
in the overdamped regime) leaves linear polynomials whose roots are the
dressed rates lambda_pm.

The spectral heat transfer function between the two baths is

    f12(omega) = (2/pi) omega^2 omega_c^4 (R M / A)^2 / |u_plus u_minus|^2

evaluated at s = i*omega.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .model import CircuitParams, derive_scales


class TransferMode(Enum):
    """Which mode polynomials enter f12: full cubic or overdamped linear."""

    EXACT_CUBIC = "ExactCubic"
    OVERDAMPED_LINEAR = "OverdampedLinear"


# (circuit, mode) pairs kept by each cache, here and in `quadrature`: fig2
# cycles 20 circuits in both transfer modes; a temperature scan reuses one.
_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_CACHE_SIZE)
def mode_polynomials(
    p: CircuitParams, mode: TransferMode
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of u_plus and u_minus, highest power first.

    Exact cubic form: (s^3 + omega_c s^2)/gamma + (omega_pm + omega_c) s
    + omega_pm omega_c, with gamma = 1/(R C) and omega_pm from
    `derive_scales`.  The overdamped form keeps only the last two (linear)
    terms; its root is lambda_pm.  Cached in each process on the frozen
    (p, mode) for the last `_CACHE_SIZE` (64) pairs, as every `transfer_f12`
    call needs them.
    """
    scales = derive_scales(p)
    rc = p.R * p.C
    inertial = () if mode is TransferMode.OVERDAMPED_LINEAR else (rc, rc * p.omega_c)
    plus, minus = (
        inertial + (w + p.omega_c, w * p.omega_c)
        for w in (scales.omega_plus, scales.omega_minus)
    )
    return plus, minus


def horner(coeffs: tuple[float, ...], s):
    """Value and derivative at s of the polynomial with `coeffs`, highest power first."""
    value = slope = 0.0
    for c in coeffs:
        slope = slope * s + value
        value = value * s + c
    return value, slope


def _modulus_on_axis(coeffs: tuple[float, ...], omega):
    """|u(i omega)| from the coefficients of a linear or cubic mode polynomial.

    Real and imaginary parts are summed separately in real arithmetic, so a
    huge omega gives inf rather than the nan that complex products of inf
    and 0 produce; the caller ignores the overflow.  omega may be a float or
    a numpy array.
    """
    if len(coeffs) == 2:
        c, d = coeffs
        return np.hypot(d, omega * c)
    a, b, c, d = coeffs
    z = -omega * omega
    return np.hypot(b * z + d, omega * (a * z + c))


def transfer_f12(omega, p: CircuitParams, mode: TransferMode):
    """Heat transfer function f12(omega) in the factorized mode form.

    Computed from |u_plus(i omega)| |u_minus(i omega)| instead of squaring
    g12 directly; the factorized polynomials are numerically stable across
    the full overdamped range where the direct determinant suffers
    cancellation.  The ratio omega omega_c^2 / |u_plus u_minus| is formed
    factor by factor before squaring, so f12 decays to 0 instead of
    overflowing at large omega.  Nonnegative for all real omega and even in
    omega.  A float omega gives a float; a numpy array gives f12 at each
    element, equal to the scalar calls.
    """
    A = p.L * p.L - p.M * p.M
    plus, minus = mode_polynomials(p, mode)
    with np.errstate(over="ignore"):
        up = _modulus_on_axis(plus, omega)
        um = _modulus_on_axis(minus, omega)
    if not (up.all() and um.all()):
        raise ArithmeticError(f"mode polynomials vanish at omega = {omega!r}")
    ratio = (omega / up) * (p.omega_c * p.omega_c / um)
    f12 = (2.0 / math.pi) * (p.R * p.M / A) ** 2 * ratio * ratio
    return f12 if isinstance(f12, np.ndarray) else float(f12)
