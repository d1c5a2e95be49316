"""The transfer function of the coupled loops and its exact heat integrals.

In Laplace space the charge sector obeys [C s^2 + gamma(s) s + Linv] q = xi,
with the inductance-matrix inverse Linv = [[L, M], [M, L]]/(L^2 - M^2) and the
Lorentz-Drude friction kernel gamma(s) = (1/R) * omega_c/(s + omega_c) acting
identically in both loops.  The off-diagonal Green's function factorizes over
the two flux normal modes,

    g12(s) = -(M/A) * R^2 (s + omega_c)^2 / (u_plus(s) * u_minus(s)),

with A = (L - M)(L + M), a product that does not cancel as M -> L, and the
cubic mode polynomials u_plus, u_minus (`mode_polynomials`).  Dropping their
inertial s^3 and s^2 terms (valid deep in the overdamped regime) leaves
linear polynomials whose roots are the dressed rates lambda_pm (`TransferMode`
picks either form).  The spectral heat transfer function between the baths is

    f12(omega) = (2/pi) omega^2 omega_c^4 (R M / A)^2 / |u_plus u_minus|^2

at s = i omega (`transfer_f12`), and the steady-state current out of bath 1 is

    Qdot1 = (hbar/2) Int_0^inf domega omega f12(omega)
            * [coth(beta1 hbar omega/2) - coth(beta2 hbar omega/2)],

positive when heat enters the circuit from bath 1 (T1 > T2).  These integrals
are the ground truth for everything else in the package.  Writing the
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
poles of f12, so most calls meet the tolerance in that first round.  Its
range is bounded at both ends of temperature, and f12 on the part that does
not depend on them is built once per circuit (`_panel_grid`).  The total and
its tail bound meet the relative tolerance `REL_TOL`: the integrand has one
sign, so |total| sets the scale in any units.  The tests keep a scipy panel
quadrature as a reference.  `transfer_f12` and all three integrals read one
cached record per circuit, `_circuit_solve`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import BathPair, CircuitParams
from .special import _digamma_array, log_ratio


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
    lambda_pm.  Uncached: `_circuit_solve` keeps them.
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


# Relative error the `heat_exact` total must meet.
REL_TOL = 1e-9
# `heat_exact`'s Bose cut: this many times the larger of the thermal
# frequency and the fast mode rate, unless a cold or power-law cut is lower.
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
# The share of REL_TOL |value| left to the cold and power-law tails; fixed at import.
_TAIL_SHARE = 0.5 * REL_TOL
# (circuit, mode) pairs whose grids `heat_exact` keeps, ~20 KB each: a scan reuses one.
_GRID_CACHE_SIZE = 4


def _grid_step(omega: float, rounding) -> int:
    """The k of the grid point at omega, rounded by `rounding` (math.floor or math.ceil)."""
    return rounding(max(-_TOP_STEP, min(_TOP_STEP, _STEPS * math.log10(omega))))


@dataclass(frozen=True)
class _PanelGrid:
    """f12 on `heat_exact`'s panels of one (circuit, mode), never changed: `edges`
    are 0, then omega_bottom (|lambda_plus|/100 rounded down) .. omega_top with
    the circuit's breaks, omega_k at edges[at[k - bottom]]; row i of `nodes` and
    `f12` holds the qk21 nodes of [edges[i], edges[i + 1]] and f12 there.  beyond[i]
    bounds Int f12 from edges[i] to the next edge (to inf at the top), `sup` f12.
    """

    bottom: int
    top: int
    edges: np.ndarray
    at: np.ndarray
    nodes: np.ndarray
    f12: np.ndarray
    beyond: np.ndarray
    sup: float


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _panel_grid(p: CircuitParams, mode: TransferMode) -> _PanelGrid:
    """The grid of (p, mode), built in one call of f12 and cached for the last
    `_GRID_CACHE_SIZE` pairs.  For omega >= c > every Im s, over the n roots s
    of D, |i omega - s| >= (omega/c)(c - max(Im s, 0)): f12 falls like
    omega^(2 - 2n), and Int_c^inf f12 <= c/(2n - 3) f12 with those distances.
    omega_top is the first c where that is below `_TAIL_SHARE` of the grid's
    integral of f12 below c, by max |s| (4^n/_TAIL_SHARE)^(1/(2n - 3)) as
    |i omega - s| <= 2 omega above max |s|; a panel's Kronrod value plus its
    distance to the Gauss value bounds its integral.  sup takes |i omega - s| as
    the distance from s to i[0, inf), and omega/|i omega - r| at u_plus's real root as 1.
    """
    solve = _circuit_solve(p, mode)
    if solve.polys is None:
        raise solve.error()
    roots = solve.roots[0] + solve.roots[1]
    n = len(roots)

    def bound(omega, distance):  # f12 with |u(i omega)| = |lead| prod distance(s) over u's roots
        (plus, minus), (up, um) = solve.polys, solve.roots
        ratio = omega / (abs(plus[0]) * math.prod(map(distance, up)))
        ratio *= p.omega_c * p.omega_c / (abs(minus[0]) * math.prod(map(distance, um)))
        return (2.0 / math.pi) * solve.rma2 * ratio * ratio

    bottom = _grid_step(abs(p.scales.lambda_plus) / 100.0, math.floor)
    last = max(abs(s) for s in roots) * (4.0**n / _TAIL_SHARE) ** (1.0 / (2 * n - 3))
    points = _GRID[bottom + _TOP_STEP : _grid_step(last, math.ceil) + _TOP_STEP + 1]
    breaks = {abs(s) for s in roots} | {  # where f12 bends, see `_FLANKS`: Re s <= 0
        s.imag - k * s.real for s in roots if s.imag > -s.real for k in _FLANKS}
    breaks = [x for x in breaks if points[0] < x < points[-1]]
    # sorted, not np.union1d, whose np.unique imports numpy.ma; the breaks are distinct
    edges = np.sort(np.concatenate(((0.0,), points, breaks)))
    at = np.searchsorted(edges, points)
    half, nodes = _kronrod_nodes(edges[:-1], edges[1:])
    f12 = transfer_f12(nodes.ravel(), p, mode).reshape(nodes.shape)
    c = np.where(points > max(s.imag for s in roots), points, math.nan)  # nan: no power law
    kronrod, gauss = np.dot(f12, _WEIGHTS).T * half
    with np.errstate(over="ignore", invalid="ignore"):  # past the largest float, as in f12
        below = np.concatenate(((0.0,), np.cumsum(kronrod)))[at]
        tails = c / (2 * n - 3) * bound(c, lambda s: c - max(s.imag, 0.0))
        met = np.flatnonzero(tails <= _TAIL_SHARE * below)
    top = int(met[0]) if met.size else len(points) - 1
    j = at[top]
    beyond = np.append(kronrod[:j] + abs(kronrod[:j] - gauss[:j]), tails[top])
    fields = (edges[: j + 1], at[: top + 1], nodes[:j], f12[:j], beyond)
    for x in fields:
        x.flags.writeable = False  # every caller shares the grid
    ray = lambda s: math.hypot(s.real, max(-s.imag, 0.0))  # from s to the upper imaginary axis
    return _PanelGrid(bottom, bottom + top, *fields, bound(ray(solve.roots[0][0]), ray))


def _cold_cut(solve: "_CircuitSolve", omega_th: float) -> float:
    """The cut c = x omega_th where `heat_exact`'s tail bound is `_TAIL_SHARE` of its value.

    On [0, omega_th], f12 >= K omega^2/prod (omega_th + |s|)^2 and the weight
    is over its value at c times (omega/c) e^(x - omega/omega_th), so the value
    is over the weight at c times (6 - 16/e) e^x K omega_th^4/(c prod (omega_th
    + |s|)^2); the tail bound, the weight at c times sup (1 + 1/x) omega_th, is
    under (x + 1) e^-x Lambda/(6 - 16/e) of it, Lambda = sup/(that f12 bound at
    omega_th) (~e^1150 at omega_th = 1e-250).  x = L + 2 ln(L + 1) meets x - ln(x + 1) >= L.
    """
    ratios = [abs(solve.roots[0][0].real) / omega_th] + [  # Lambda's square root, factor by factor
        (omega_th + abs(s)) / math.hypot(s.real, max(-s.imag, 0.0)) for s in sum(solve.roots, ())]
    L = 2.0 * sum(map(math.log, ratios)) - math.log((6.0 - 16.0 / math.e) * _TAIL_SHARE)
    return (L + 2.0 * math.log(L + 1.0)) * omega_th


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

    The reference against which the closed forms are checked, overdamped or
    not; it reads no term of the split.  A value is returned only when its
    error estimate, the interval errors plus the tail bound, meets REL_TOL;
    otherwise `ToleranceNotMetError` carries the best estimate.  The known
    failure is an ExactCubic circuit with a sharp resonance, which can raise
    that error, or an ArithmeticError where its mode polynomials vanish.
    Batched qk21 (see `_integrate_panels`) runs on a log grid of 3 panels per
    decade merged with the poles' moduli and resonance flanks, from [0,
    min(omega_th, |lambda_plus|/100)] to the least of 60 max(omega_th,
    |lambda_minus|), the cold cut ~30 omega_th (~1200 at T = 1e-250) where
    omega_th < |lambda_minus| (see `_cold_cut`), and the power-law cut (see
    `_panel_grid`).  The weight w (n(lo w) - n(hi w)) falls with w (x/expm1(x)
    is convex): the tail beyond a cut in the grid is under each later panel's
    f12 integral times the weight at its left edge, plus the power tail beyond
    the top; below the grid, under the weight at the cut c times sup f12
    (1 + 1/(lo c))/lo, as the weight falls at least as e^-lo w.  The circuit's
    first call builds its grid, with f12 at every node, from |lambda_plus|/100
    up (`_PanelGrid`); a call there evaluates only the Bose factors, a colder
    one f12 on its own few panels.  On the reference circuit a call weighs
    441 nodes at T1 = 2 and at most ~850 at any temperature, ~0.05 ms.  Later
    rounds evaluate f12 on their new pieces.  Returns 0.0 at equilibrium and
    for decoupled loops (M == 0).  hbar multiplies the integral once, so at
    the same beta_j hbar the result in units (hbar, k_b) is hbar times the
    natural-unit one, bit for bit.
    """
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0

    lo, hi = sorted((float(b.beta1 * p.hbar), float(b.beta2 * p.hbar)))
    omega_th = 1.0 / lo
    solve, grid = _circuit_solve(p, mode), _panel_grid(p, mode)
    cut = TAIL_CUT_MULTIPLIER * max(omega_th, abs(p.scales.lambda_minus))
    if omega_th < abs(p.scales.lambda_minus):
        cut = min(cut, _cold_cut(solve, omega_th))
    k_a = min(_grid_step(omega_th, math.floor), grid.bottom)
    k_b = max(min(_grid_step(cut, math.ceil), grid.top), k_a + 1)
    j = grid.at[max(k_b - grid.bottom, 0)]
    if k_a == grid.bottom:  # the grid's panels, from its first one [0, omega_bottom]
        a, ends, nodes, f12 = grid.edges[:j], grid.edges[1 : j + 1], grid.nodes[:j], grid.f12[:j]
    else:  # below the grid: the call's own panels, from [0, omega_ka]
        ends = _GRID[k_a + _TOP_STEP : k_b + _TOP_STEP + 1]
        a = np.concatenate(((0.0,), ends[:-1]))
        nodes = _kronrod_nodes(a, ends)[1]
        f12 = transfer_f12(nodes.ravel(), p, mode).reshape(nodes.shape)
    w = np.concatenate((nodes.ravel(), grid.edges[j:] if k_b > grid.bottom else ends[-1:]))
    # the weight is n1 - n2 for T1 > T2 and n2 - n1 otherwise, so `sign` is that of T1 - T2
    sign = 1.0 if b.T1 > b.T2 else -1.0

    def integrand(w: np.ndarray) -> np.ndarray:
        return _thermal_weight(w, lo, hi) * transfer_f12(w, p, mode)

    # qk21 divides by resasc, which is 0 on an interval where f is constant
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weight = _thermal_weight(w, lo, hi)
        f = weight[: nodes.size].reshape(f12.shape) * f12
        value, estimate = _integrate_panels(integrand, a, ends, f)
        if k_b > grid.bottom:  # w ends at the grid's edges from the cut on
            tail = float(np.dot(weight[nodes.size :], grid.beyond[j:]))
        else:
            tail = float(weight[-1]) * grid.sup * (1.0 + 1.0 / (lo * ends[-1])) / lo
    value, estimate = sign * p.hbar * value, p.hbar * (estimate + tail)
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
    solve = _circuit_solve(p, mode)
    if solve.polys is None:
        raise solve.error()
    if not math.isfinite(solve.classical):
        raise OverflowError(f"the classical integral overflows at omega_c = {p.omega_c!r}")
    return solve.classical


def _mode_roots(coeffs: tuple[float, ...], p: CircuitParams) -> list[complex]:
    """Roots of a linear or cubic mode polynomial of p, all in the left half plane.

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
    e, f = b / a + x, _quotient(-d, a * x, p, "RC s at the cubic's real root s", x)
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


# f12 bends at |s| for every root s of D, and a resonant root (|Im s| > |Re s|)
# also at |Im s| + k |Re s| for each k here: its flanks, graded by 4 so that
# `heat_exact`'s panels next to the peak reach the log grid in steps, not in one.
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
    `roots` are the roots of u_plus and of u_minus, each real root first,
    from which `heat_exact` places its panels and bounds f12.
    `s` and `weight` are complex arrays of the residue sum's nodes and their
    weights: at a residue, weight = s^3/(D(-s) D'(s)), twice that at the
    upper root of a conjugate pair of residues, whose lower root is left out;
    at one of the n points s = centre + offset of a cluster's contour,
    weight = s^3/(D(-s) D(s)) offset/n; `reach` is the largest |Re s| or
    |Im s| over those nodes; `m0` = Re Sum weight.  `failure` is the build's
    ArithmeticError, and `error` a fresh copy of it to raise: of the pole step
    or of weights that overflow, with the arrays empty, or of an earlier step,
    with `polys` None, which every reader raises.
    """

    polys: tuple[tuple[float, ...], tuple[float, ...]] | None
    rma2: float
    K: float
    classical: float
    roots: tuple[tuple[complex, ...], tuple[complex, ...]]
    s: np.ndarray
    weight: np.ndarray
    reach: float
    m0: float
    failure: ArithmeticError | None

    def error(self) -> ArithmeticError | None:
        """A fresh copy of `failure`, which a caller may raise, or None."""
        return None if self.failure is None else type(self.failure)(*self.failure.args)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _circuit_solve(p: CircuitParams, mode: TransferMode) -> _CircuitSolve:
    """The record of (p, mode), cached in each process for the last `_CACHE_SIZE` pairs."""
    f12 = None  # the fields of f12 and the classical integral, once formed
    try:
        if p.omega_c * p.omega_c == math.inf:  # f12's omega_c^2
            raise OverflowError(f"f12 overflows at omega_c = {p.omega_c!r}")
        polys = mode_polynomials(p, mode)
        if 0.0 in polys[0]:  # every term of a stable D is > 0; u_plus's underflow first
            what = "vanish at omega = 0: omega_plus" if polys[0][-1] == 0.0 else "lose s^2: RC"
            raise ArithmeticError(f"mode polynomials {what} omega_c underflows at omega_plus = "
                                  f"{p.scales.omega_plus!r}, RC = {p.R * p.C!r}, "
                                  f"omega_c = {p.omega_c!r}")
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
        K = (2.0 / math.pi) * wc4 * rma2
        mode_roots = tuple(tuple(_mode_roots(coeffs, p)) for coeffs in polys)
        f12 = (polys, rma2, K, 2.0 * wc4 * rma2 * h2, mode_roots)
        nodes = _residue_nodes(p, polys, mode_roots, 2.0 * p.R * p.M / A)
        if not all(cmath.isfinite(K * weight) for _, weight in nodes):
            raise OverflowError(f"residue weights overflow at omega_c = {p.omega_c!r}")
        s, weight = (np.array(x) for x in zip(*nodes))
        s.flags.writeable = weight.flags.writeable = False  # every caller shares the record
        reach = max(max(abs(z.real), abs(z.imag)) for z, _ in nodes)
        return _CircuitSolve(*f12, s, weight, reach, math.fsum(weight.real.tolist()), None)
    except ArithmeticError as error:
        empty = np.zeros(0, complex)
        return _CircuitSolve(*(f12 or (None, 0.0, 0.0, 0.0, ((), ()))), empty, empty, 0.0, 0.0,
                             error.with_traceback(None))


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
    if solve.polys is None:
        raise solve.error()
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
        d = horner(polys[0], -s)[0] * horner(polys[1], -s)[0]
        return s, _quotient(scale * (s * s * s), d, p, "u_plus(-s) u_minus(-s)", s)

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
        return _quotient(s * s, slope * horner(other, -s)[0], p, "D'(s) u(-s)", s)

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
            d = n * horner(polys[0], s)[0] * horner(polys[1], s)[0]
            nodes.append(node(s, _quotient(offset, d, p, "u_plus(s) u_minus(s)", s)))
    return tuple(nodes)


def _quotient(x, y, p: CircuitParams, what: str, s: complex):
    """x/y, or where the float y has underflowed to 0, an ArithmeticError
    naming it, the point s where it is formed and the circuit p."""
    if y == 0.0:
        raise ArithmeticError(f"{what} underflows to 0 at s = {s!r} for {p!r}")
    return x / y


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
    integral around their cluster.  Where c_j s passes the largest float at
    a node, it raises an OverflowError naming the colder bath.

    Negative for T1 > T2: it is the low-temperature correction that cancels
    part of the classical current.  Satisfies heat_exact = k_b (T1 - T2) *
    classical_integral + quantum_integral identically; exactly 0 at
    T1 == T2 and M == 0, and exactly odd under T1 <-> T2.

    Only the digamma arguments depend on the temperatures: K, the nodes and
    their weights are fields of the cached record (`_CircuitSolve`), so a
    cached circuit costs one digamma kernel call, on both baths' arguments at
    every node (`_residue_terms`), and a `math.fsum`.  A cluster reaching the
    imaginary axis raises ArithmeticError on every call.
    """
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0
    rates, (solve,) = _residue_prologue(p, b, (mode,))
    if isinstance(solve, ArithmeticError):
        raise solve
    terms = _residue_terms(np.array(rates)[:, None], solve.s, solve.weight)
    return p.hbar * solve.K * math.fsum(terms)


def _residue_prologue(p: CircuitParams, b: BathPair, modes) -> tuple[tuple, list]:
    """The rates (c2, c1, ln(c2/c1)) of the residue sum at (p, b), c_j = beta_j hbar/2pi,
    and per mode its record or its ArithmeticError: a copy of the record's failure,
    or an OverflowError naming the colder bath where c_j s passes the largest float."""
    c1, c2 = b.beta1 * p.hbar / (2.0 * math.pi), b.beta2 * p.hbar / (2.0 * math.pi)
    records: list = []
    for mode in modes:
        solve = _circuit_solve(p, mode)
        if max(c1, c2) * solve.reach == math.inf:  # reach is 0 on a failed record
            name = "T2" if c2 > c1 else "T1"
            text = f"the residue sum overflows at {name} = {min(b.T1, b.T2)!r}"
            records.append(OverflowError(text))
        else:
            records.append(solve if solve.failure is None else solve.error())
    return (c2, c1, log_ratio(c2, c1)), records


def _quantum_log_term(p: CircuitParams, b: BathPair) -> float:
    """The log term (hbar/pi)(M/L)^2 (lambda_+ lambda_-/omega_d)^2 log(T2/T1),
    the quantum current's full high-T survivor: as psi(1 - c_j s) -> psi(1) the
    linear residue sum keeps hbar K m0 log(T2/T1), from the record's m0."""
    solve = _circuit_solve(p, TransferMode.OVERDAMPED_LINEAR)
    if solve.failure is not None:
        raise solve.error()
    return p.hbar * solve.K * solve.m0 * log_ratio(b.T2, b.T1)


def _residue_terms(rates: np.ndarray, s: np.ndarray, weight: np.ndarray) -> list[float]:
    """The residue sum's terms Re weight [psi(1 - c2 s) - psi(1 - c1 s) - ln(c2/c1)],
    with the rates (c2, c1, ln(c2/c1)) as the rows of `rates`: one column, or one per node."""
    psi = _digamma_array(1.0 - rates[:2] * s)
    return (weight * ((psi[0] - psi[1]) - rates[2])).real.tolist()


def _quantum_integrals(points: list[tuple[CircuitParams, BathPair]], modes) -> list[list]:
    """`quantum_integral(p, b, mode)` at every (p, b) of `points`, for every
    mode of `modes`, bit for bit, or the ArithmeticError it raises there: per
    point a list in the order of `modes`.  The rates are formed once per
    point, the nodes of every point and mode go through one digamma kernel
    call, and each record's terms are summed on their own by `math.fsum`, so
    a value does not depend on the batch around it.
    """
    out: list[list] = []
    pending = []  # (values, slot, hbar, record, rates) of every sum that the kernel gives
    for p, b in points:
        if b.T1 == b.T2 or p.M == 0.0:
            out.append([0.0] * len(modes))
            continue
        rates, values = _residue_prologue(p, b, modes)
        out.append(values)  # each record in it is replaced by its sum below
        pending += [(values, k, p.hbar, solve, rates)
                    for k, solve in enumerate(values) if isinstance(solve, _CircuitSolve)]
    if not pending:
        return out
    solves = [solve for _, _, _, solve, _ in pending]
    c = np.repeat(np.array([rates for *_, rates in pending]).T, [x.s.size for x in solves], axis=1)
    terms = iter(_residue_terms(
        c, np.concatenate([x.s for x in solves]), np.concatenate([x.weight for x in solves])))
    for values, k, hbar, solve, _ in pending:
        values[k] = hbar * solve.K * math.fsum(itertools.islice(terms, solve.s.size))
    return out
