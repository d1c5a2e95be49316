"""The scipy panel quadrature that the package used before, kept as a test oracle.

`_integrate_panels`, `_f12_edges` and `_f12_integral` are the scalar
`scipy.integrate.quad` loop over log-graded panels (`_panel_edges`, the grid
the package used before its panels became temperature-independent), and
`reference_heat_exact` is `heat_exact` on top of it.  They are independent of
the batched Gauss-Kronrod quadrature in `overheat.quadrature` and of the exact
classical and residue routes, apart from the shared `transfer_f12`.
"""

from __future__ import annotations

import math
import sys

from scipy.integrate import quad

from overheat import quadrature
from overheat.model import BathPair, CircuitParams
from overheat.quadrature import (
    MAX_SUBDIVISIONS,
    TAIL_CUT_MULTIPLIER,
    ToleranceNotMetError,
    transfer_f12,
)
from overheat.quadrature import TransferMode


def _panel_edges(inner_lo: float, inner_hi: float) -> list[float]:
    """Log-graded breakpoints [0, inner_lo, ..., inner_hi], ~3 per decade."""
    decades = math.log10(inner_hi / inner_lo)
    n = int(math.ceil(3.0 * decades)) + 1
    ratio = (inner_hi / inner_lo) ** (1.0 / (n - 1))
    return [0.0, inner_lo, *(inner_lo * ratio**k for k in range(1, n - 1)), inner_hi]


def _bose(x: float) -> float:
    """Occupation 1/(e^x - 1) for x > 0, safe against overflow."""
    if x > 700.0:
        return math.exp(-x)  # underflows to 0 gracefully
    return 1.0 / math.expm1(x)


def _integrate_panels(
    integrand, edges: list[float], with_infinite_tail: bool
) -> tuple[float, float]:
    """Sum adaptive quadrature over consecutive panels, in fixed order.

    The tolerance is relative only, `quadrature.REL_TOL`, read at call time so
    that a test which patches it reaches the reference too; with epsabs = 0,
    scipy accepts no relative tolerance below 50 eps.
    """
    epsrel = max(quadrature.REL_TOL * 0.05, 50 * sys.float_info.epsilon)
    epsabs = 0.0
    values, errors = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = quad(
            integrand, a, b, epsabs=epsabs, epsrel=epsrel, limit=MAX_SUBDIVISIONS,
            full_output=1,
        )[:2]
        values.append(val)
        errors.append(err)
    if with_infinite_tail:
        val, err = quad(
            integrand, edges[-1], math.inf,
            epsabs=epsabs, epsrel=epsrel, limit=MAX_SUBDIVISIONS, full_output=1,
        )[:2]
        values.append(val)
        errors.append(err)
    return math.fsum(values), math.fsum(errors)


def reference_heat_exact(
    p: CircuitParams,
    b: BathPair,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
) -> float:
    """`heat_exact` by scalar `quad` on each panel; raises `ToleranceNotMetError` alike."""
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0

    s = p.scales
    omega_th = b.thermal_frequency(p.hbar)
    cut = TAIL_CUT_MULTIPLIER * max(omega_th, abs(s.lambda_minus))
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
        integrand, _panel_edges(inner_lo, cut), with_infinite_tail=False
    )
    beta_min = min(c1, c2)
    x = beta_min * cut
    tail_bound = 2.0 * half_hbar * cut * transfer_f12(cut, p, mode) * math.exp(-x) / (
        beta_min * (1.0 - math.exp(-x))
    )
    target = quadrature.REL_TOL * abs(value)
    if estimate + tail_bound > target:
        raise ToleranceNotMetError(value, estimate + tail_bound, target)
    return value


def _f12_edges(p: CircuitParams, mode: TransferMode):
    """Master panel grid covering all algebraic structure of f12."""
    s = p.scales
    anchors = [abs(s.lambda_minus), p.omega_c]
    if mode is TransferMode.EXACT_CUBIC:
        anchors.append(math.sqrt(s.gamma * (s.omega_minus + p.omega_c)))
    return _panel_edges(abs(s.lambda_plus) / 100.0, 100.0 * max(anchors))


def _f12_integral(
    p: CircuitParams,
    mode: TransferMode,
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

    return _integrate_panels(integrand, edges, with_infinite_tail=infinite)
