"""Green's function of the coupled charge dynamics and the heat transfer function.

In Laplace space the charge sector obeys [C s^2 + gamma(s) s + Linv] q = xi,
with the inductance-matrix inverse Linv = [[L, M], [M, L]]/(L^2 - M^2) and the
Lorentz-Drude friction kernel gamma(s) = (1/R) * omega_c/(s + omega_c) acting
identically in both loops.  The off-diagonal Green's function factorizes over
the two flux normal modes,

    g12(s) = -(M/A) * R^2 (s + omega_c)^2 / (u_plus(s) * u_minus(s)),

with A = (L - M)(L + M), a product that does not cancel as M -> L, and the
cubic mode polynomials u_plus, u_minus (`mode_polynomials`).  Dropping their
inertial s^3 and s^2 terms (valid deep in the overdamped regime) leaves
linear polynomials whose roots are the dressed rates lambda_pm.

The spectral heat transfer function between the two baths is

    f12(omega) = (2/pi) omega^2 omega_c^4 (R M / A)^2 / |u_plus u_minus|^2

evaluated at s = i*omega (`quadrature.transfer_f12`).
"""

from __future__ import annotations

from enum import Enum

from .model import CircuitParams


class TransferMode(Enum):
    """Which mode polynomials enter f12: full cubic or overdamped linear."""

    EXACT_CUBIC = "ExactCubic"
    OVERDAMPED_LINEAR = "OverdampedLinear"


def mode_polynomials(
    p: CircuitParams, mode: TransferMode
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of u_plus and u_minus, highest power first.

    Exact cubic form: (s^3 + omega_c s^2)/gamma + (omega_pm + omega_c) s
    + omega_pm omega_c, with gamma = 1/(R C) and omega_pm from `p.scales`.
    The overdamped form keeps only the last two (linear) terms; its root is
    lambda_pm.  Uncached: `quadrature._circuit_solve` keeps them.
    """
    rc = p.R * p.C
    inertial = () if mode is TransferMode.OVERDAMPED_LINEAR else (rc, rc * p.omega_c)
    plus, minus = (
        inertial + (w + p.omega_c, w * p.omega_c)
        for w in (p.scales.omega_plus, p.scales.omega_minus)
    )
    return plus, minus


def horner(coeffs: tuple[float, ...], s):
    """Value and derivative at s of the polynomial with `coeffs`, highest power first."""
    value = slope = 0.0
    for c in coeffs:
        slope = slope * s + value
        value = value * s + c
    return value, slope
