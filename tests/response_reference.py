"""Cross-check routes that no package path calls, kept as test oracles.

* `green_matrix` inverts the 2x2 charge response C s^2 + gamma(s) s + Linv
  directly; `g12` is its off-diagonal entry and `trace_f12` contracts it with
  the bath spectral densities, (pi/2) Tr[I1 g I2 g^dag].  Both are
  independent of the factorized mode polynomials behind
  `overheat.transfer_f12`, up to the shared circuit constants.
* `coth_via_digamma` is the identity pi coth(x) = pi/x + 2 Im psi(1 + i x/pi)
  that turns the thermal coth factors into digammas.
* `heat_quantum_high_temp` is the overdamped quantum piece to first order in
  1/T: the log term plus its 1/T correction.
"""

from __future__ import annotations

import math

import numpy as np

from overheat.closedform import _quantum_log_term
from overheat.model import BathPair, CircuitParams, DerivedScales
from overheat.special import digamma


def green_matrix(s: complex, p: CircuitParams) -> np.ndarray:
    """Full 2x2 Green's function [C s^2 + gamma(s) s + Linv]^{-1} at Laplace argument s.

    Closed-form inverse of the symmetric response matrix.  Raises
    ZeroDivisionError at s = -omega_c (kernel pole) and ArithmeticError if
    the determinant underflows to zero.
    """
    A = p.L * p.L - p.M * p.M
    kernel = (p.omega_c / (s + p.omega_c)) / p.R
    diag = p.C * s * s + kernel * s + p.L / A
    off = p.M / A
    det = diag * diag - off * off
    if det == 0:
        raise ArithmeticError(f"singular charge response at s = {s!r}")
    return np.array([[diag, -off], [-off, diag]]) / det


def g12(s: complex, p: CircuitParams) -> complex:
    """Off-diagonal Green's function of the charge sector at Laplace argument s."""
    return complex(green_matrix(s, p)[0, 1])


def coupling_matrices(omega: float, p: CircuitParams):
    """Spectral density matrices I1, I2 of the two baths at frequency omega."""
    prefactor = (2.0 / math.pi) * (omega * p.omega_c**2) / (
        p.R * (omega**2 + p.omega_c**2)
    )
    I1 = np.array([[prefactor, 0.0], [0.0, 0.0]])
    I2 = np.array([[0.0, 0.0], [0.0, prefactor]])
    return I1, I2


def trace_f12(omega: float, p: CircuitParams) -> float:
    """f12(omega) from the matrix trace (pi/2) Tr[I1 g I2 g^dag] at s = i*omega.

    Requires omega > 0.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    g = green_matrix(complex(0.0, omega), p)
    I1, I2 = coupling_matrices(omega, p)
    value = (math.pi / 2.0) * np.trace(I1 @ g @ I2 @ g.conj().T)
    return float(value.real)


def coth_via_digamma(x: float) -> float:
    """pi*coth(x) through pi/x + 2 Im psi(1 + i x/pi).

    Odd in x; raises ZeroDivisionError at x = 0.
    """
    if x == 0.0:
        raise ZeroDivisionError("coth(x) diverges at x = 0")
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    return math.pi / x + 2.0 * digamma(complex(1.0, x / math.pi)).imag


def heat_quantum_high_temp(p: CircuitParams, s: DerivedScales, b: BathPair) -> float:
    """High-temperature expansion of the overdamped quantum correction.

        log-term + (hbar^2/48)(omega_c/(omega_c + omega_d))(M/L)
                   (lambda_+^3 - lambda_-^3)(1/T2 - 1/T1)/k_b.
    """
    correction = (
        (p.hbar**2 / 48.0)
        * (p.omega_c / (p.omega_c + s.omega_d))
        * (p.M / p.L)
        * (s.lambda_plus**3 - s.lambda_minus**3)
        * (1.0 / b.T2 - 1.0 / b.T1)
        / p.kb
    )
    return _quantum_log_term(p, s, b) + correction
