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

which is an integral up the imaginary axis of s = i omega.  Neither piece
needs quadrature.  f12 is rational with stable poles, so the classical
integral Int_0^inf f12 is computed exactly from the mode-polynomial
coefficients.  psi(1 - beta hbar s/2pi) is analytic in the left half plane,
so closing the contour there turns the quantum remainder into a sum of
digammas at the left-half-plane poles of f12 (see `quantum_integral`).  The
total current itself, `heat_exact`, is the quadrature that checks both: it
applies QUADPACK's 21-point Gauss-Kronrod rule (qk21) with its error
estimate, evaluated in numpy on the nodes of all intervals at once.  As in
QUADPACK's qagp, it starts from the integrand's known breakpoints: a fixed
log grid of 3 panels per decade and the moduli and resonance flanks of the
poles of f12 (stored by the cached circuit solve), so most calls meet the
tolerance in that first round.  None of these depends on the temperatures,
so f12 at the first round's nodes is held per circuit (`_panel_grid`), and
a further temperature on the same circuit evaluates only the Bose factors
there.  The whole integral has one error budget: intervals above their
share of it are subdivided, all in one batch per round, up to
`MAX_SUBDIVISIONS` intervals in total.  The total is truncated where the
Bose factors are exponentially dead and the truncation bound is folded
into the error estimate; the total must meet the relative tolerance
`REL_TOL`, or `heat_exact` raises `ToleranceNotMetError`.  No tolerance is
absolute: the integrand has one sign, so |total| sets the scale in any
units.  Nothing here needs scipy; the tests keep the scipy panel quadrature
as a reference.  `transfer_f12` and all three integrals read one cached
record per circuit, `_circuit_solve`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import BathPair, CircuitParams
from .response import TransferMode, horner, mode_polynomials
from .special import _digamma_array, log_ratio


# Relative error the `heat_exact` total must meet.
REL_TOL = 1e-9
# `heat_exact` integrates up to this many times the larger of the thermal
# frequency and the fast mode rate; the tail beyond is bounded and folded
# into the error estimate.
TAIL_CUT_MULTIPLIER = 60.0
# Cap on the intervals of the whole `heat_exact` integral, as QUADPACK's `limit`.
MAX_SUBDIVISIONS = 2000


class ToleranceNotMetError(RuntimeError):
    """Quadrature finished but the error estimate exceeds REL_TOL * |value|.

    Carries the best-estimate `value`, the achieved `estimate` and the
    relative `target` so callers can still use the result while flagging it.
    """

    def __init__(self, value: float, estimate: float, target: float):
        super().__init__(
            f"quadrature error estimate {estimate:.3e} exceeds target {target:.3e}"
        )
        self.value = value
        self.estimate = estimate
        self.target = target


# QUADPACK's qk21 rule on [-1, 1]: the 21 Kronrod nodes (the 10 Gauss nodes
# and 11 more), the Kronrod weights, and the Gauss weights, which are zero at
# the nodes the Gauss rule does not use.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067221370, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
# both rules in one product: column 0 Kronrod, column 1 Gauss
_WEIGHTS = np.stack([_KRONROD, np.array(_WG[:-1] + _WG[::-1])], axis=1)
_EPS = np.finfo(float).eps
# An interval that misses its share of the tolerance is cut in four, two
# bisections in one round: each round costs far more in numpy calls than in
# integrand evaluations, so halving the rounds is worth the extra nodes.
_PIECES = 4
_PIECE_EDGES = np.linspace(0.0, 1.0, _PIECES + 1)


def _kronrod_nodes(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The half-widths of the intervals (a[i], b[i]) and their 21 qk21 nodes, one row each."""
    half = 0.5 * (b - a)
    return half, (a + half)[:, None] + half[:, None] * _NODES


def _qk21_sums(f: np.ndarray, half: np.ndarray):
    """qk21 on every interval from f, the integrand at its nodes (one row per
    interval), and its half-width.

    Returns the Kronrod values, QUADPACK's error estimates and their rounding
    floors 50 eps Int |f|, below which subdivision gains nothing.  The
    integrand must have one sign, so that Int |f| is |Kronrod value|, and the
    caller must ignore division by zero and invalid values (see `heat_exact`).
    """
    kronrod, gauss = np.dot(f, _WEIGHTS).T
    error = np.abs(kronrod - gauss) * half
    resasc = np.dot(np.abs(f - 0.5 * kronrod[:, None]), _KRONROD) * half
    floor = (50.0 * _EPS) * np.abs(kronrod) * half
    # resasc == 0 means f is equal at all nodes: scaled is 0 or nan, fmax keeps the floor
    scaled = resasc * np.minimum(1.0, 200.0 * error / resasc) ** 1.5
    return kronrod * half, np.fmax(scaled, floor), floor


def _integrate_panels(
    integrand, a: np.ndarray, b: np.ndarray, f: np.ndarray
) -> tuple[float, float]:
    """Integral over the intervals (a[i], b[i]) and its error estimate, as
    QUADPACK's qagp, from f, the integrand at their qk21 nodes, one row each.

    The intervals are only the starting ones: the whole integral has one
    relative error budget, tol = 0.05 REL_TOL |total|, which |total| sets
    because the integrand has one sign.  While the summed error exceeds tol,
    every interval whose error exceeds both its share tol/(number of
    intervals) and its rounding floor is cut, and all new pieces go through
    one call of `integrand`.  The loop stops when that cut would take the
    interval count past `MAX_SUBDIVISIONS`, or when every interval is at its
    floor, so the work is bounded whether or not the tolerance is met.
    """
    value, error, floor = _qk21_sums(f, 0.5 * (b - a))
    while True:
        try:
            total, estimate = math.fsum(value.tolist()), math.fsum(error.tolist())
        except OverflowError:  # past the largest float fsum raises and sum gives +/-inf
            total, estimate = sum(value.tolist()), sum(error.tolist())
        tol = 0.05 * REL_TOL * abs(total)
        split = (error > tol / len(a)) & (error > floor)
        n_split = np.count_nonzero(split)
        grown = len(a) + (_PIECES - 1) * n_split
        if estimate <= tol or not n_split or grown > MAX_SUBDIVISIONS:
            return total, estimate
        keep = ~split
        cuts = a[split, None] + (b[split] - a[split])[:, None] * _PIECE_EDGES
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        half, nodes = _kronrod_nodes(lo, hi)
        f = integrand(nodes.ravel()).reshape(nodes.shape)
        new_value, new_error, new_floor = _qk21_sums(f, half)
        a = np.concatenate([a[keep], lo])
        b = np.concatenate([b[keep], hi])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])
        floor = np.concatenate([floor[keep], new_floor])


# `heat_exact` starts its panels at the grid points omega_k = 10^(k/_STEPS),
# merged with the circuit's breaks; none of them depends on the temperatures.
_STEPS = 3
# The largest finite grid point is 10^(924/3) = 1e308; k stays within +/- this.
_TOP_STEP = 924
# omega_k is _GRID[k + _TOP_STEP], from Python's float power: numpy's rounds
# some of these points differently.
_GRID = np.array([10.0 ** (k / _STEPS) for k in range(-_TOP_STEP, _TOP_STEP + 1)])
_GRID.flags.writeable = False
# A call outside the held steps rebuilds the grid over their union with its
# own, and takes this many grid points more on each side it extends: a
# 9-point scan from T1 = 1e-2 to 1e2 then builds its grid once.
_GRID_MARGIN = 6
# (circuit, mode) pairs whose panel grids `heat_exact` keeps: a temperature
# scan reuses one.  A grid holds ~20 KB over a scan from T1 = 1e-2 to 1e2, and
# at most ~1.3 MB over the whole finite grid, from 1e-308 to 1e308.
_GRID_CACHE_SIZE = 4


def _grid_step(omega: float, rounding) -> int:
    """The k of the grid point at omega, rounded by `rounding` (math.floor or math.ceil)."""
    return max(-_TOP_STEP, min(_TOP_STEP, rounding(_STEPS * math.log10(omega))))


@dataclass(frozen=True)
class _HeldPanels:
    """The panels of the grid points omega_lo .. omega_hi and f12 at their nodes.

    `edges` are the grid points merged with the circuit's breaks between
    them, and omega_k is edges[at[k - lo]]; `nodes` and `f12` hold the 21
    qk21 nodes of every panel between consecutive edges and f12 there, and
    `edge_f12` holds f12 at the edges.  `zero_nodes` and `zero_f12` hold the
    same for the first panel [0, omega_k] of each k from lo on that a call
    can start at (see `_PanelGrid`).
    """

    lo: int
    hi: int
    edges: np.ndarray
    at: np.ndarray
    nodes: np.ndarray
    f12: np.ndarray
    edge_f12: np.ndarray
    zero_nodes: np.ndarray
    zero_f12: np.ndarray


class _PanelGrid:
    """What `heat_exact`'s first round needs of f12 on one (circuit, mode).

    A call runs over the grid from omega_ka to omega_kb, after a first panel
    [0, omega_ka], and k_a is at most the step of |lambda_plus|/100 rounded
    down, `zero_top`: only those first panels are held.  A call that reaches
    outside the held steps rebuilds the grid over their union with its own,
    and a margin, in one call of f12.  A panel's nodes and f12 there depend
    only on its edges, so every value a call reads is the one a fresh grid
    would give.  The held panels are swapped as one record, so a concurrent
    call reads either the old ones or the new ones.
    """

    def __init__(self, p: CircuitParams, mode: TransferMode):
        self.p, self.mode = p, mode
        self.breaks = _circuit_solve(p, mode).breaks
        self.zero_top = _grid_step(abs(p.scales.lambda_plus) / 100.0, math.floor)
        self.held: _HeldPanels | None = None

    def first_round(self, k_a: int, k_b: int):
        """The intervals [0, omega_ka] and the panels on to omega_kb, as the
        arrays of their ends a and b, and the nodes, row after row with
        omega_kb last, and f12 there."""
        held = self.held
        if held is None or k_a < held.lo or k_b > held.hi:
            lo = held.lo if held and k_a >= held.lo else max(k_a - _GRID_MARGIN, -_TOP_STEP)
            hi = held.hi if held and k_b <= held.hi else min(k_b + _GRID_MARGIN, _TOP_STEP)
            held = self.held = self._panels(lo, hi)
        i, j, z = held.at[k_a - held.lo], held.at[k_b - held.lo], k_a - held.lo
        a = np.concatenate(((0.0,), held.edges[i:j]))
        w = np.concatenate((held.zero_nodes[z], held.nodes[i:j].ravel(), held.edges[j : j + 1]))
        f12 = np.concatenate((held.zero_f12[z], held.f12[i:j].ravel(), held.edge_f12[j : j + 1]))
        return a, held.edges[i : j + 1], w, f12

    def _panels(self, lo: int, hi: int) -> _HeldPanels:
        """The panels of the grid points omega_lo .. omega_hi, with f12 at
        their nodes, their edges and the first panels' nodes in one call."""
        points = _GRID[lo + _TOP_STEP : hi + _TOP_STEP + 1]
        breaks = self.breaks
        edges = np.union1d(points, breaks[(breaks > points[0]) & (breaks < points[-1])])
        at = np.searchsorted(edges, points)
        nodes = _kronrod_nodes(edges[:-1], edges[1:])[1]
        # the first panels [0, omega_k] start calls for k up to `zero_top`
        zero_nodes = _kronrod_nodes(0.0, points[: min(hi, self.zero_top) - lo + 1])[1]
        w = np.concatenate((nodes.ravel(), edges, zero_nodes.ravel()))
        f12 = transfer_f12(w, self.p, self.mode)
        n, m = nodes.size, nodes.size + edges.size
        fields = (edges, at, nodes, f12[:n].reshape(nodes.shape), f12[n:m],
                  zero_nodes, f12[m:].reshape(zero_nodes.shape))
        for x in fields:
            x.flags.writeable = False  # every caller shares the grid
        return _HeldPanels(lo, hi, *fields)


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _panel_grid(p: CircuitParams, mode: TransferMode) -> _PanelGrid:
    """The panel grid of (p, mode), cached in each process for the last `_GRID_CACHE_SIZE` pairs."""
    return _PanelGrid(p, mode)


def _thermal_weight(w: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """w (n(lo w) - n(hi w)) with n(x) = 1/expm1(x), the factor of f12 in
    `heat_exact`'s integrand, for lo <= hi the two beta_j hbar.

    The difference is formed as w/expm1(lo w) times expm1((lo - hi) w)/expm1(-hi w),
    so nothing cancels as T1 -> T2, and no two small factors are multiplied:
    with both baths hot, expm1(lo w) expm1(-hi w) underflowed to 0.  w > 0 at
    every node, so no denominator vanishes; where expm1(lo w) overflows to inf
    the weight is 0.
    """
    return (w / np.expm1(lo * w)) * (np.expm1((lo - hi) * w) / np.expm1(-hi * w))


def heat_exact(
    p: CircuitParams,
    b: BathPair,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
) -> float:
    """Steady-state heat current out of bath 1 by direct quadrature.

    Valid for any parameters, overdamped or not; this is the reference
    against which the closed forms are checked.  The integrand is summed by
    batched qk21 from 0 to the cut, every node of a round in one numpy array
    (see `_integrate_panels`).  The starting panels do not depend on the
    temperatures: a log grid of ~3 per decade, merged with f12's own scales,
    which `_circuit_solve` reads off the poles (their moduli and graded
    resonance flanks), so that nearly every call meets the tolerance in the
    first round.  A call takes the run of this grid from min(|lambda_plus|,
    omega_th)/100 rounded down to the cut rounded up, after a first panel
    from 0.  f12 at the nodes of those panels is held per circuit (see
    `_PanelGrid`), so a call inside the held range evaluates only the Bose
    factors in its first round, and later rounds evaluate f12 on their new
    pieces; the intervals are subdivided adaptively, up to
    `MAX_SUBDIVISIONS` of them in all.  Returns 0.0 exactly at equilibrium
    (T1 == T2) and for decoupled loops (M == 0).  Raises
    `ToleranceNotMetError` (carrying the best estimate) when the summed
    interval errors plus the truncation bound, from the integrand at the cut,
    exceed REL_TOL * |value|.  hbar multiplies the integral once, so at the
    same beta_j hbar the result in units (hbar, k_b) is hbar times the
    natural-unit one, bit for bit.
    """
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0

    omega_th = b.thermal_frequency(p.hbar)
    inner_lo = min(abs(p.scales.lambda_plus), omega_th) / 100.0
    # cut/inner_lo <= 1e300 stays finite; a float cap overflows to inf, not a numpy warning
    cap = 1e300 * float(inner_lo)
    cut = min(TAIL_CUT_MULTIPLIER * max(omega_th, abs(p.scales.lambda_minus)), cap)
    # the grid's run from inner_lo rounded down to the cut rounded up, but not past the cap
    k_a, k_b = _grid_step(inner_lo, math.floor), _grid_step(cut, math.ceil)
    if _GRID[k_b + _TOP_STEP] > cap:
        k_b -= 1
    a, ends, w, f12 = _panel_grid(p, mode).first_round(k_a, k_b)
    # the weight is n1 - n2 for T1 > T2 and n2 - n1 otherwise, so `sign` is that of T1 - T2
    sign = 1.0 if b.T1 > b.T2 else -1.0
    lo, hi = sorted((b.beta1 * p.hbar, b.beta2 * p.hbar))

    def integrand(w: np.ndarray) -> np.ndarray:
        return _thermal_weight(w, lo, hi) * transfer_f12(w, p, mode)

    # qk21 divides by resasc, which is 0 on an interval where f is constant
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = _thermal_weight(w, lo, hi) * f12
        value, estimate = _integrate_panels(integrand, a, ends, f[:-1].reshape(-1, len(_NODES)))
    # beyond the cut w f12 decreases, and n1 - n2 = Int_lo^hi -w n'(t w) dt, with
    # -n'(x) = 1/(4 sinh^2(x/2)), falls faster than (w/cut) e^-lo(w - cut) times its
    # value at the cut: the discarded tail is under |integrand(cut)| (1 + 1/(lo cut))/lo
    cut = ends[-1]  # omega_kb
    tail_bound = abs(f[-1]) * (1.0 + 1.0 / (lo * cut)) / lo
    value, estimate = sign * p.hbar * value, p.hbar * (estimate + tail_bound)
    target = REL_TOL * abs(value)
    if not estimate <= target:  # a nan value or estimate misses it too
        raise ToleranceNotMetError(value, estimate, target)
    return value


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
    floating-point mode-polynomial coefficients, and rounded once.  It is a
    field of the cached `_circuit_solve` record and never depends on the roots.
    """
    if p.M == 0.0:
        return 0.0
    classical = _circuit_solve(p, mode).classical
    if not math.isfinite(classical):
        raise OverflowError(f"the classical integral overflows at omega_c = {p.omega_c!r}")
    return classical


def _mode_roots(coeffs: tuple[float, ...]) -> list[complex]:
    """Roots of a linear or cubic mode polynomial, all in the left half plane.

    The coefficients are positive, so the cubic has a real root in
    (-bound, 0), with bound Fujiwara's bound on the root moduli.  It is found
    by Newton steps kept inside a shrinking sign-change bracket, deflated
    away, and the quadratic left over is solved in the cancellation-free
    form; every root is then polished by Newton on the original cubic.
    """
    if len(coeffs) == 2:
        return [complex(-coeffs[1] / coeffs[0])]
    a, b, c, d = coeffs
    lo = -2.0 * max(b / a, math.sqrt(c / a), (0.5 * d / a) ** (1.0 / 3.0))
    hi = x = 0.0
    for _ in range(200):
        value, slope = horner(coeffs, x)
        if value == 0.0:
            break
        if value > 0.0:
            hi = x
        else:
            lo = x
        step = x - value / slope if slope else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == x:
            break
        x = step
    # s^3 + (b/a) s^2 + (c/a) s + d/a = (s - x)(s^2 + e s + f)
    e, f = b / a + x, -d / (a * x)
    disc = e * e - 4.0 * f
    if disc >= 0.0:
        t = -0.5 * (e + math.copysign(math.sqrt(disc), e))
        pair = [complex(t), complex(f / t)]
    else:
        upper = complex(-0.5 * e, 0.5 * math.sqrt(-disc))
        pair = [upper, upper.conjugate()]
    roots = [_polish(coeffs, z) for z in [complex(x)] + pair]
    if disc < 0.0:
        roots[2] = roots[1].conjugate()
    return roots


def _polish(coeffs: tuple[float, ...], z: complex) -> complex:
    """Up to three Newton steps on the polynomial, each kept only if it lowers |value|.

    Near a double root the slope is tiny and a step can jump far away, so a
    step that does not improve on the current estimate ends the polishing.
    """
    value, slope = horner(coeffs, z)
    for _ in range(3):
        if not slope:
            break
        step = z - value / slope
        step_value, step_slope = horner(coeffs, step)
        if not abs(step_value) < abs(value):
            break
        z, value, slope = step, step_value, step_slope
    return z


# A resonant root s (|Im s| > |Re s|) bends f12 at |Im s| + k |Re s| for each k
# here: its flanks, graded by 4 so that the panels next to the peak reach the
# log grid in steps, not in one.
_FLANKS = (-128.0, -32.0, -8.0, -2.0, -0.5, 0.5, 2.0, 8.0, 32.0, 128.0)
# Roots nearer each other than this fraction of their distance from the
# imaginary axis are summed as one cluster: root by root, their residues
# would grow like the inverse of the gap and cancel.
_CLUSTER_GAP = 0.1
# The trapezoidal sum over a circle converges like ratio**n, where ratio is the
# circle radius over the reach of the nearest singularity outside it; n is
# chosen to bring that under double-precision rounding.
_LOG_ROUNDING = math.log(2.0**-53)


def _centre_and_spread(points: list[complex]) -> tuple[complex, float]:
    """Mean of the points and their largest distance from it."""
    centre = sum(points) / len(points)
    return centre, max(abs(z - centre) for z in points)


def _clusters(roots: list[complex]) -> list[list[int]]:
    """Group root indices so that each group sits well apart from the rest.

    A root joins a group when it is nearer the group's centre than four times
    the group's spread, or than `_CLUSTER_GAP` of the centre's distance from
    the imaginary axis; groups grow until no root does.
    """
    groups = [[k] for k in range(len(roots))]
    # the loop's first pass: no root near another's singleton group ends it
    if all(abs(roots[j] - w) >= -_CLUSTER_GAP * w.real
           for k, w in enumerate(roots) for j in range(len(roots)) if j != k):
        return groups
    merged = True
    while merged:
        merged = False
        for g in groups:
            centre, spread = _centre_and_spread([roots[k] for k in g])
            near = max(4.0 * spread, -_CLUSTER_GAP * centre.real)
            other = next(
                (h for h in groups if h is not g and any(abs(roots[k] - centre) < near for k in h)),
                None,
            )
            if other is not None:
                g.extend(other)
                groups.remove(other)
                merged = True
                break
    return groups


# (circuit, mode) pairs kept by `_circuit_solve`: fig2 cycles 20 circuits in
# both transfer modes; a temperature scan reuses one.
_CACHE_SIZE = 64


@dataclass(frozen=True)
class _CircuitSolve:
    """What the circuit alone fixes of f12 and the three integrals.

    `transfer_f12` evaluates `polys`, the coefficients of u_plus and u_minus,
    and reads `rma2` = (R M/A)^2, with A = (L - M)(L + M) formed once here.
    `breaks` is the read-only array of the frequencies, in increasing order,
    where f12 bends: |s| at every root s of D, and at a resonant root
    (|Im s| > |Re s|) also |Im s| + k |Re s|, k in `_FLANKS`, on its flanks;
    `heat_exact` starts its panels there.
    `s` and `weight` are complex arrays of the residue sum's nodes and their
    weights: at a residue, weight = s^3/(D(-s) D'(s)), twice that at the
    upper root of a conjugate pair of residues, whose lower root is left out;
    at one of the n points s = centre + offset of a cluster's contour,
    weight = s^3/(D(-s) D(s)) offset/n.  `failure` is the error of the pole
    step, or of weights that overflow, raised by `quantum_integral`; the
    arrays are then empty.
    """

    polys: tuple[tuple[float, ...], tuple[float, ...]]
    rma2: float
    K: float
    classical: float
    breaks: np.ndarray
    s: np.ndarray
    weight: np.ndarray
    failure: ArithmeticError | None


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _circuit_solve(p: CircuitParams, mode: TransferMode) -> _CircuitSolve:
    """The record of (p, mode), cached in each process for the last `_CACHE_SIZE` pairs."""
    if p.omega_c * p.omega_c == math.inf:  # f12's omega_c^2: no record to cache
        raise OverflowError(f"f12 overflows at omega_c = {p.omega_c!r}")
    polys = mode_polynomials(p, mode)
    (up, d_plus), (um, d_minus) = (_integer_coefficients(c) for c in polys)
    a = [0] * (len(up) + len(um) - 1)
    for i, x in enumerate(up):
        for j, y in enumerate(um):
            a[i + j] += x * y
    # A = L^2 - M^2 as a product: the difference of squares cancels as M -> L
    A = (p.L - p.M) * (p.L + p.M)
    rma2 = (p.R * p.M / A) ** 2
    # a is (d_plus d_minus) u_plus u_minus, so B(s) = s takes the same factor
    h2 = _h2_norm_squared(a, d_plus * d_minus)
    try:
        wc4 = p.omega_c**4
    except OverflowError:  # a cutoff past ~1.3e77: classical and K are not finite
        wc4 = math.inf
    classical = 2.0 * wc4 * rma2 * h2
    K = (2.0 / math.pi) * wc4 * rma2
    mode_roots = [_mode_roots(coeffs) for coeffs in polys]
    breaks = set()
    for s in mode_roots[0] + mode_roots[1]:
        breaks.add(abs(s))
        if abs(s.imag) > abs(s.real):
            breaks.update(abs(s.imag) + k * abs(s.real) for k in _FLANKS)
    breaks = np.array(sorted(breaks))
    breaks.flags.writeable = False
    try:
        nodes = _residue_nodes(p, polys, mode_roots, 2.0 * p.R * p.M / A)
        if not all(cmath.isfinite(K * weight) for _, weight in nodes):
            raise OverflowError(f"residue weights overflow at omega_c = {p.omega_c!r}")
        s, weight = (np.array(x) for x in zip(*nodes))
        s.flags.writeable = weight.flags.writeable = False  # every caller shares the record
        return _CircuitSolve(polys, rma2, K, classical, breaks, s, weight, None)
    except ArithmeticError as error:
        empty = np.zeros(0, complex)
        failure = error.with_traceback(None)
        return _CircuitSolve(polys, rma2, K, classical, breaks, empty, empty, failure)


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
    element, equal to the scalar calls.  The first call on a circuit pays for
    its `_circuit_solve` record, which holds the coefficients.
    """
    solve = _circuit_solve(p, mode)
    plus, minus = solve.polys
    with np.errstate(over="ignore"):
        up = _modulus_on_axis(plus, omega)
        um = _modulus_on_axis(minus, omega)
    if not (up.all() and um.all()):
        raise ArithmeticError(f"mode polynomials vanish at omega = {omega!r}")
    ratio = (omega / up) * (p.omega_c * p.omega_c / um)
    f12 = (2.0 / math.pi) * solve.rma2 * ratio * ratio
    return f12 if isinstance(f12, np.ndarray) else float(f12)


def _residue_nodes(p: CircuitParams, polys, mode_roots, delta: float) -> tuple[tuple, ...]:
    """The pairs (s, weight) of the residue sum (see `quantum_integral` and
    `_CircuitSolve`), from the roots of u_plus and u_minus."""
    wc2 = p.omega_c * p.omega_c

    def node(s: complex, scale: complex) -> tuple[complex, complex]:
        # s * s * s: the same bits as s**3, which raises OverflowError where it is inf
        return s, scale * (s * s * s) / (horner(polys[0], -s)[0] * horner(polys[1], -s)[0])

    def residue(k: int) -> complex:
        # D'(s) = sign delta u'(s)(s + omega_c), where s + omega_c cancels at the
        # root near -omega_c as omega_minus grows (M -> L), and a cubic u(-s) at
        # a lightly damped pair of roots of u: neither is formed
        s, sign, coeffs, other = roots[k], *owners[k]
        if len(coeffs) == 2:  # u'(s)(s + omega_c) = omega_c^2 at the root of a linear u
            return node(s, 1.0 / (sign * delta * wc2))[1]
        # (s + omega_c) u(-s) = -2 omega_c^2 s at a root of the cubic
        # u = (s + omega_c)(RC s^2 + omega_pm) + omega_c s
        slope = sign * delta * horner(coeffs, s)[1] * (-2.0 * wc2)
        return s * s / (slope * horner(other, -s)[0])

    roots, owners = [], []
    for sign, coeffs, other, u_roots in zip((1.0, -1.0), polys, polys[::-1], mode_roots):
        roots += u_roots
        owners += [(sign, coeffs, other)] * len(u_roots)

    groups = _clusters(roots)
    single = [roots[g[0]] for g in groups if len(g) == 1]
    nodes = []
    for group in groups:
        if len(group) == 1:
            s = roots[group[0]]
            # the residues at a conjugate pair of roots add conjugate terms, and
            # only the real part of the sum is kept: the upper one counts twice
            paired = s.imag != 0.0 and s.conjugate() in single
            if not (paired and s.imag < 0.0):
                weight = residue(group[0])
                nodes.append((s, 2.0 * weight if paired else weight))
            continue
        centre, spread = _centre_and_spread([roots[k] for k in group])
        reach = min(
            [-centre.real]
            + [abs(s - centre) for k, s in enumerate(roots) if k not in group]
        )
        if spread >= reach:
            raise ArithmeticError(f"pole cluster at {centre!r} reaches the imaginary axis")
        ratio = max(math.sqrt(spread / reach), 0.125)
        n = math.ceil(_LOG_ROUNDING / math.log(ratio))
        radius = ratio * reach
        for j in range(n):
            offset = radius * cmath.exp(2j * math.pi * j / n)
            s = centre + offset
            nodes.append(node(s, offset / (n * horner(polys[0], s)[0] * horner(polys[1], s)[0])))
    return tuple(nodes)


def quantum_integral(
    p: CircuitParams,
    b: BathPair,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
) -> float:
    """Quantum part of the heat current as a residue sum over the poles of f12.

    With s = i omega and f12 = K omega^2/(D(s) D(-s)), where
    K = (2/pi) omega_c^4 (R M/A)^2 and D = u_plus u_minus, the quantum part

        -(i hbar/2 pi) Int_-inf^inf omega f12 [psi(1 - i beta2 hbar omega/2pi)
                                              - psi(1 - i beta1 hbar omega/2pi)] domega

    is an integral up the imaginary s axis.  psi(1 - c s), with
    c_j = beta_j hbar/2pi, is analytic for Re s < 0, so closing the contour
    there gives

        hbar K Sum_s s^3/(D'(s) D(-s)) [psi(1 - c2 s) - psi(1 - c1 s) - ln(c2/c1)]

    over the left-half-plane roots s of D.  The log subtraction changes
    nothing on the axis, where s^3/(D(s) D(-s)) is odd, but makes the
    bracket vanish at large |s|: without it the OverdampedLinear integrand
    leaves a contribution on the closing arc.  At a root of u_plus or u_minus,
    D'(s) = +/- u'(s) delta (s + omega_c), from u_minus - u_plus =
    delta (s + omega_c) with delta = omega_minus - omega_plus = 2 R M/A;
    for a linear u, u'(s) (s + omega_c) is omega_c^2 exactly, and for a cubic
    u = (s + omega_c)(RC s^2 + omega_pm) + omega_c s, (s + omega_c) u(-s) is
    -2 omega_c^2 s, so no weight forms s + omega_c, which cancels at the root
    near -omega_c as M -> L, nor a cubic u(-s), which cancels at a lightly
    damped pair of roots of u (M -> L again).  Roots closer together than a
    fraction of their distance from the axis (a repeated root, or the roots
    of u_plus and u_minus at small M/L) are summed as one trapezoidal contour
    integral around their cluster.

    Negative for T1 > T2: it is the low-temperature correction that cancels
    part of the classical current.  Satisfies heat_exact = k_b (T1 - T2) *
    classical_integral + quantum_integral identically; exactly 0 at
    T1 == T2 and M == 0, and exactly odd under T1 <-> T2.

    Only the digamma arguments depend on the temperatures: K, the nodes and
    their weights are fields of the cached `_circuit_solve` record, so a
    cached circuit costs one call of the digamma kernel, on the (2, n) array
    of both baths' arguments at the n nodes, and a `math.fsum` of the terms'
    real parts.  The nodes are the roots, less the lower root of each
    conjugate pair, whose term is the conjugate of the upper one's, and the
    points of each cluster's contour.  A cluster reaching the imaginary axis
    raises ArithmeticError on every call.
    """
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0
    solve = _residue_record(p, mode)
    c1, c2 = _digamma_rates(p, b)
    psi = _digamma_array(1.0 - np.multiply.outer((c2, c1), solve.s))
    terms = solve.weight * ((psi[0] - psi[1]) - log_ratio(c2, c1))
    return p.hbar * solve.K * math.fsum(terms.real.tolist())


def _residue_record(p: CircuitParams, mode: TransferMode) -> _CircuitSolve:
    """The record of (p, mode), raising its failure if the residue step failed."""
    solve = _circuit_solve(p, mode)
    if solve.failure is not None:
        raise type(solve.failure)(*solve.failure.args)
    return solve


def _digamma_rates(p: CircuitParams, b: BathPair) -> tuple[float, float]:
    """c_j = beta_j hbar/2pi: the bracket of the residue sum holds psi(1 - c_j s)."""
    return b.beta1 * p.hbar / (2.0 * math.pi), b.beta2 * p.hbar / (2.0 * math.pi)


def _quantum_integrals(points: list[tuple[CircuitParams, BathPair]], modes) -> list[list]:
    """`quantum_integral(p, b, mode)` at every (p, b) of `points`, for every
    mode of `modes`, bit for bit, or the ArithmeticError it raises there: per
    point a list in the order of `modes`.

    c_j and ln(c2/c1) are formed once per point, and the nodes of every point
    and mode go through one digamma kernel call; each record's terms are then
    summed on their own by `math.fsum`, as in `quantum_integral`, so a value
    does not depend on the batch around it.
    """
    if not modes:
        return [[] for _ in points]
    out: list[list] = []
    pending = []  # (values, slot, hbar K, node count) of every sum that the kernel gives
    rates, totals, s, weight = [], [], [], []  # per point: (c2, c1, ln(c2/c1)), node count
    for p, b in points:
        values: list = [0.0] * len(modes)
        out.append(values)
        if b.T1 == b.T2 or p.M == 0.0:
            continue
        total = 0
        for k, mode in enumerate(modes):
            try:
                solve = _residue_record(p, mode)
            except ArithmeticError as error:
                values[k] = error
                continue
            pending.append((values, k, p.hbar * solve.K, solve.s.size))
            total += solve.s.size
            s.append(solve.s)
            weight.append(solve.weight)
        c1, c2 = _digamma_rates(p, b)
        rates.append((c2, c1, log_ratio(c2, c1)))
        totals.append(total)
    if not pending:
        return out
    c = np.repeat(np.array(rates).T, totals, axis=1)
    psi = _digamma_array(1.0 - c[:2] * np.concatenate(s))
    terms = (np.concatenate(weight) * ((psi[0] - psi[1]) - c[2])).real.tolist()
    end = 0
    for values, k, scale, n in pending:
        values[k] = scale * math.fsum(terms[end : end + n])
        end += n
    return out
