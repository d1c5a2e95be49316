"""Heat currents by direct adaptive quadrature of the exact frequency integrals.

These integrals are the ground truth for everything else in the package.  The
steady-state current out of bath 1 is

    Qdot1 = (hbar/2) Int_0^inf domega omega f12(omega)
            * [coth(beta1 hbar omega/2) - coth(beta2 hbar omega/2)],

positive when heat enters the circuit from bath 1 (T1 > T2).  Writing the
thermal factor through digamma functions splits the current exactly into a
classical piece k_b (T1 - T2) Int f12 and a quantum remainder

    Qdot_q = -(i hbar / 2 pi) Int_-inf^inf domega omega f12(omega)
             * [psi(1 - i beta2 hbar omega/2pi) - psi(1 - i beta1 hbar omega/2pi)],

which is evaluated here on the half line through its real even part.  The
classical integral Int_0^inf f12 needs no quadrature: f12 is rational with
stable poles, so it is computed exactly from the mode-polynomial coefficients.
The two thermal integrals use log-graded panels spanning the dynamical scales,
with each panel handled by adaptive Gauss-Kronrod quadrature; the total is
truncated where the Bose factors are exponentially dead and the truncation
bound is folded into the error estimate.  `_f12_integral` keeps the panel
quadrature of f12 itself as an independent check on the exact route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .model import BathPair, CircuitParams, derive_scales
from .response import TransferMode, transfer_f12, u_pm_coefficients
from .special import digamma


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation controls for the frequency integrals.

    tail_cut_multiplier sets where the thermally cut integral is truncated,
    in units of the larger of the thermal frequency and the fast mode rate.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000
    tail_cut_multiplier: float = 60.0

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise ValueError(f"abs_tol must be nonnegative, got {self.abs_tol!r}")
        if self.max_subdivisions < 10:
            raise ValueError(
                f"max_subdivisions must be >= 10, got {self.max_subdivisions!r}"
            )
        if not (math.isfinite(self.tail_cut_multiplier) and self.tail_cut_multiplier >= 10.0):
            raise ValueError(
                f"tail_cut_multiplier must be >= 10, got {self.tail_cut_multiplier!r}"
            )


class ToleranceNotMetError(RuntimeError):
    """Quadrature finished but the error estimate exceeds the requested tolerance.

    Carries the best-estimate `value` and the achieved `estimate` so callers
    can still use the result while flagging it.
    """

    def __init__(self, value: float, estimate: float, target: float):
        super().__init__(
            f"quadrature error estimate {estimate:.3e} exceeds target {target:.3e}"
        )
        self.value = value
        self.estimate = estimate
        self.target = target


def _bose(x: float) -> float:
    """Occupation 1/(e^x - 1) for x > 0, safe against overflow."""
    if x > 700.0:
        return math.exp(-x)  # underflows to 0 gracefully
    return 1.0 / math.expm1(x)


def _panel_edges(inner_lo: float, inner_hi: float) -> list[float]:
    """Log-graded breakpoints [0, inner_lo, ..., inner_hi], ~2 per decade."""
    decades = math.log10(inner_hi / inner_lo)
    n = max(6, int(math.ceil(2.0 * decades)) + 1)
    ratio = (inner_hi / inner_lo) ** (1.0 / (n - 1))
    edges = [0.0, inner_lo]
    for k in range(1, n - 1):
        edges.append(inner_lo * ratio**k)
    edges.append(inner_hi)
    return edges


def _integrate_panels(
    integrand, edges: list[float], q: QuadratureConfig, with_infinite_tail: bool
) -> tuple[float, float]:
    """Sum adaptive quadrature over consecutive panels, in fixed order."""
    epsrel = max(q.rel_tol * 0.05, 1e-14)
    epsabs = q.abs_tol / (len(edges) + 1)
    values, errors = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = quad(
            integrand, a, b, epsabs=epsabs, epsrel=epsrel, limit=q.max_subdivisions,
            full_output=1,
        )[:2]
        values.append(val)
        errors.append(err)
    if with_infinite_tail:
        val, err = quad(
            integrand, edges[-1], math.inf,
            epsabs=epsabs, epsrel=epsrel, limit=q.max_subdivisions, full_output=1,
        )[:2]
        values.append(val)
        errors.append(err)
    return math.fsum(values), math.fsum(errors)


def _check_tolerance(value: float, estimate: float, q: QuadratureConfig) -> float:
    target = q.rel_tol * abs(value) + q.abs_tol
    if estimate > target:
        raise ToleranceNotMetError(value, estimate, target)
    return value


def heat_exact(
    p: CircuitParams,
    b: BathPair,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
    q: QuadratureConfig | None = None,
) -> float:
    """Steady-state heat current out of bath 1 by direct quadrature.

    Valid for any parameters, overdamped or not; this is the reference
    against which the closed forms are checked.  Returns 0.0 exactly at
    equilibrium (T1 == T2) and for decoupled loops (M == 0).  Raises
    `ToleranceNotMetError` (carrying the best estimate) when the summed
    panel errors plus the truncation bound exceed the requested tolerance.
    """
    if q is None:
        q = QuadratureConfig()
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0

    s = derive_scales(p)
    omega_th = b.thermal_frequency(p.hbar)
    cut = q.tail_cut_multiplier * max(omega_th, abs(s.lambda_minus))
    inner_lo = min(abs(s.lambda_plus), omega_th) / 100.0
    c1 = b.beta1 * p.hbar
    c2 = b.beta2 * p.hbar
    half_hbar = 0.5 * p.hbar

    def integrand(w: float) -> float:
        if w <= 0.0:
            return 0.0  # coth difference ~ 2 k_b (T1 - T2)/(hbar w), integrand ~ w
        thermal = 2.0 * (_bose(c1 * w) - _bose(c2 * w))
        return half_hbar * w * transfer_f12(w, p, mode) * thermal

    value, estimate = _integrate_panels(
        integrand, _panel_edges(inner_lo, cut), q, with_infinite_tail=False
    )
    # beyond the cut, omega*f12 decreases and the Bose difference is bounded by
    # the hotter bath's occupation, so the discarded tail is under
    # hbar * cut * f12(cut) * exp(-beta_min hbar cut)/(beta_min hbar)
    beta_min = min(c1, c2)
    x = beta_min * cut
    tail_bound = 2.0 * half_hbar * cut * transfer_f12(cut, p, mode) * math.exp(-x) / (
        beta_min * (1.0 - math.exp(-x))
    )
    return _check_tolerance(value, estimate + tail_bound, q)


def _f12_edges(p: CircuitParams, mode: TransferMode, extra_scale: float = 0.0):
    """Master panel grid covering all algebraic structure of f12."""
    s = derive_scales(p)
    anchors = [abs(s.lambda_minus), p.omega_c, extra_scale]
    if mode is TransferMode.EXACT_CUBIC:
        anchors.append(math.sqrt(s.gamma * (s.omega_minus + p.omega_c)))
    inner_hi = 100.0 * max(anchors)
    inner_lo = abs(s.lambda_plus) / 100.0
    if extra_scale > 0.0:
        inner_lo = min(inner_lo, extra_scale / 100.0)
    return _panel_edges(inner_lo, inner_hi)


def _f12_integral(
    p: CircuitParams,
    mode: TransferMode,
    q: QuadratureConfig,
    lo: float = 0.0,
    hi: float = math.inf,
) -> tuple[float, float]:
    """Integral of f12 over (lo, hi) with its error estimate."""
    master = _f12_edges(p, mode)
    edges = [lo] + [e for e in master if lo < e < hi]
    infinite = math.isinf(hi)
    if not infinite:
        edges.append(hi)

    def integrand(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return transfer_f12(w, p, mode)

    return _integrate_panels(integrand, edges, q, with_infinite_tail=infinite)


def _integer_coefficients(coeffs: tuple[float, ...]) -> tuple[list[int], int]:
    """Integers n_i and a power of two d with coeffs[i] == n_i / d exactly."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def _h2_norm_squared(a: list[int], b: int) -> float:
    """(1/2 pi) Int_-inf^inf |B(i omega)/A(i omega)|^2 domega for B(s) = b s.

    `a` holds the integer coefficients of a stable A of degree n >= 2,
    highest power first.  Astrom's table algorithm (Introduction to
    Stochastic Control Theory, 1970, ch. 5) lowers deg A one Routh step at a
    time and adds beta^2/(2 alpha) per step; for B(s) = b s only the step
    that reaches degree 2 has beta != 0, which leaves b^2/(2 f_{n-2} f_{n-1})
    with f the first column of the Routh array of A.  In Hurwitz minors
    that is b^2 Delta_{n-3}/(2 Delta_{n-1}).  The rows are built
    fraction-free, each divided exactly by the minor two rows back (the
    subresultant recurrence), so the integers stay short and the final
    division is the only rounding.  In floating point the same recursion
    loses up to eight digits when two lightly damped poles nearly coincide,
    as they do at small M/L with a weakly damped resonance.
    """
    if len(a) == 3:
        return b * b / (2 * a[0] * a[1])
    prev, cur = a[0::2], a[1::2]
    delta = [1, 1, a[1]]  # Delta_{-1} := 1, Delta_0 := 1, Delta_1
    while len(delta) < len(a):  # through Delta_{n-1}
        cur = cur + [0] * (len(prev) - len(cur))
        prev, cur = cur, [
            (cur[0] * prev[i + 1] - prev[0] * cur[i + 1]) // delta[-3]
            for i in range(len(prev) - 1)
        ]
        delta.append(cur[0])
    return b * b * delta[-3] / (2 * delta[-1])


def classical_integral(
    p: CircuitParams,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
) -> float:
    """Integral of the transfer function: Int_0^inf f12(omega) domega.

    The classical (equipartition) heat current is k_b (T1 - T2) times this
    value.  f12 = (2/pi) omega_c^4 (R M/A)^2 |H(i omega)|^2 with the rational
    H(s) = s/(u_plus(s) u_minus(s)), whose denominator is stable, so the
    integral is 2 omega_c^4 (R M/A)^2 times the squared H2 norm of H.  That
    norm is computed without quadrature, in exact integer arithmetic on the
    floating-point mode-polynomial coefficients, and rounded once.
    """
    if p.M == 0.0:
        return 0.0
    up, d_plus = _integer_coefficients(u_pm_coefficients("plus", p, mode))
    um, d_minus = _integer_coefficients(u_pm_coefficients("minus", p, mode))
    a = [0] * (len(up) + len(um) - 1)
    for i, x in enumerate(up):
        for j, y in enumerate(um):
            a[i + j] += x * y
    A = p.L * p.L - p.M * p.M
    # a is (d_plus d_minus) u_plus u_minus, so B(s) = s takes the same factor
    h2 = _h2_norm_squared(a, d_plus * d_minus)
    return 2.0 * p.omega_c**4 * (p.R * p.M / A) ** 2 * h2


def quantum_integral(
    p: CircuitParams,
    b: BathPair,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
    q: QuadratureConfig | None = None,
) -> float:
    """Quantum part of the heat current by quadrature of the digamma integrand.

    Evaluates -(i hbar/2 pi) Int_-inf^inf omega f12 [psi(1 - i beta2 hbar
    omega/2pi) - psi(1 - i beta1 hbar omega/2pi)] domega through its real
    half-line form

        (hbar/pi) Int_0^inf omega f12 [Im psi(1 + i beta1 hbar omega/2pi)
                                       - Im psi(1 + i beta2 hbar omega/2pi)],

    the conjugate-symmetric combination of the full-line integrand.  Negative
    for T1 > T2: it is the low-temperature correction that cancels part of
    the classical current.  Satisfies heat_exact = k_b (T1 - T2) *
    classical_integral + quantum_integral identically.
    """
    if q is None:
        q = QuadratureConfig()
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0

    omega_th = b.thermal_frequency(p.hbar)
    c1 = b.beta1 * p.hbar / (2.0 * math.pi)
    c2 = b.beta2 * p.hbar / (2.0 * math.pi)
    scale = p.hbar / math.pi

    def integrand(w: float) -> float:
        if w <= 0.0:
            return 0.0
        d = (
            digamma(complex(1.0, c1 * w)).imag
            - digamma(complex(1.0, c2 * w)).imag
        )
        return scale * w * transfer_f12(w, p, mode) * d

    edges = _f12_edges(p, mode, extra_scale=omega_th)
    value, estimate = _integrate_panels(integrand, edges, q, with_infinite_tail=True)
    return _check_tolerance(value, estimate, q)
