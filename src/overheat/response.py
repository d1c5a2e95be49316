"""Green's function of the coupled charge dynamics and the heat transfer function.

In Laplace space the charge sector obeys [C s^2 + gamma(s) s + Linv] q = xi,
with the inductance-matrix inverse Linv = [[L, M], [M, L]]/(L^2 - M^2) and the
Lorentz-Drude friction kernel gamma(s) = (1/R) * omega_c/(s + omega_c) acting
identically in both loops.  The off-diagonal Green's function factorizes over
the two flux normal modes,

    g12(s) = -(M/A) * R^2 (s + omega_c)^2 / (u_plus(s) * u_minus(s)),

with A = L^2 - M^2 and the cubic mode polynomials `u_pm`.  Dropping the
inertial s^3 and s^2 terms of u_pm (valid deep in the overdamped regime)
leaves linear polynomials whose roots are the dressed rates lambda_pm.

The spectral heat transfer function between the two baths is

    f12(omega) = (2/pi) omega^2 omega_c^4 (R M / A)^2 / |u_plus u_minus|^2

evaluated at s = i*omega; `trace_f12` rebuilds the same quantity from the
matrix trace (pi/2) Tr[I1 g I2 g^dag] of the coupling spectral densities and
serves as an independent cross-check of the factorized algebra.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .model import CircuitParams


class TransferMode(Enum):
    """Which mode polynomials enter f12: full cubic or overdamped linear."""

    EXACT_CUBIC = "ExactCubic"
    OVERDAMPED_LINEAR = "OverdampedLinear"


_BRANCH_SIGNS = {"plus": 1.0, "minus": -1.0}


def u_pm_coefficients(
    branch: str, p: CircuitParams, mode: TransferMode
) -> tuple[float, ...]:
    """Coefficients of the mode polynomial u_pm, highest power first.

    Exact cubic form: (s^3 + omega_c s^2)/gamma + (omega_pm + omega_c) s
    + omega_pm omega_c, with gamma = 1/(R C).  The overdamped form keeps only
    the last two (linear) terms; its root is lambda_pm.
    """
    sign = _BRANCH_SIGNS.get(branch)
    if sign is None:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    w = p.R / (p.L + sign * p.M)  # omega_pm
    linear = (w + p.omega_c, w * p.omega_c)
    if mode is TransferMode.OVERDAMPED_LINEAR:
        return linear
    rc = p.R * p.C
    return (rc, rc * p.omega_c) + linear


def u_pm(s: complex, branch: str, p: CircuitParams, mode: TransferMode) -> complex:
    """Mode polynomial u_pm(s) for the plus or minus flux normal mode.

    Horner evaluation of `u_pm_coefficients`.
    """
    value = 0j
    for c in u_pm_coefficients(branch, p, mode):
        value = value * s + c
    return value


def _modulus_on_axis(coeffs: tuple[float, ...], omega):
    """|u(i omega)| from the coefficients of a linear or cubic mode polynomial.

    Real and imaginary parts are summed separately in real arithmetic, so a
    huge omega gives inf rather than the nan that complex products of inf
    and 0 produce.  omega may be a float or a numpy array.
    """
    with np.errstate(over="ignore"):
        if len(coeffs) == 2:
            c, d = coeffs
            return np.hypot(d, omega * c)
        a, b, c, d = coeffs
        z = -omega * omega
        return np.hypot(b * z + d, omega * (a * z + c))


def _response_entries(s: complex, p: CircuitParams) -> tuple[complex, float, complex]:
    """Diagonal, off-diagonal and determinant of C s^2 + gamma(s) s + Linv.

    Raises ZeroDivisionError at s = -omega_c (kernel pole) and
    ArithmeticError if the determinant underflows to zero.
    """
    A = p.L * p.L - p.M * p.M
    kernel = (p.omega_c / (s + p.omega_c)) / p.R
    diag = p.C * s * s + kernel * s + p.L / A
    off = p.M / A
    det = diag * diag - off * off
    if det == 0:
        raise ArithmeticError(f"singular charge response at s = {s!r}")
    return diag, off, det


def g12(s: complex, p: CircuitParams) -> complex:
    """Off-diagonal Green's function of the charge sector at Laplace argument s.

    Built directly from the 2x2 inverse [C s^2 + gamma(s) s + Linv]^{-1}
    rather than the factorized mode form, so it can serve as a structural
    check on `u_pm`.  Raises ZeroDivisionError at s = -omega_c (kernel pole)
    and ArithmeticError if the determinant underflows to zero.
    """
    _, off, det = _response_entries(s, p)
    # inverse of [[diag, off], [off, diag]] has off-diagonal -off/det
    return -off / det


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
    up = _modulus_on_axis(u_pm_coefficients("plus", p, mode), omega)
    um = _modulus_on_axis(u_pm_coefficients("minus", p, mode), omega)
    if not (up.all() and um.all()):
        raise ArithmeticError(f"mode polynomials vanish at omega = {omega!r}")
    ratio = (omega / up) * (p.omega_c * p.omega_c / um)
    f12 = (2.0 / math.pi) * (p.R * p.M / A) ** 2 * ratio * ratio
    return f12 if isinstance(f12, np.ndarray) else float(f12)


def _coupling_matrices(omega: float, p: CircuitParams):
    """Spectral density matrices I1, I2 of the two baths at frequency omega."""
    prefactor = (2.0 / math.pi) * (omega * p.omega_c**2) / (
        p.R * (omega**2 + p.omega_c**2)
    )
    I1 = np.array([[prefactor, 0.0], [0.0, 0.0]])
    I2 = np.array([[0.0, 0.0], [0.0, prefactor]])
    return I1, I2


def _green_matrix(omega: float, p: CircuitParams) -> np.ndarray:
    """Full 2x2 Green's function at s = i*omega via closed-form inversion."""
    diag, off, det = _response_entries(complex(0.0, omega), p)
    return np.array([[diag, -off], [-off, diag]]) / det


def trace_f12(omega: float, p: CircuitParams) -> float:
    """f12(omega) from the matrix trace (pi/2) Tr[I1 g I2 g^dag].

    Assembles the full 2x2 Green's function at s = i*omega (closed-form
    inversion of the symmetric response matrix) and contracts it with the
    per-bath spectral densities.  Independent of the factorized route in
    `transfer_f12`, up to the shared circuit constants.  Requires omega > 0.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    g = _green_matrix(omega, p)
    I1, I2 = _coupling_matrices(omega, p)
    value = (math.pi / 2.0) * np.trace(I1 @ g @ I2 @ g.conj().T)
    return float(value.real)
