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
QUADPACK's qagp, it starts from the integrand's known breakpoints: a log
grid of ~3 panels per decade, the moduli and resonance flanks of the poles
of f12 (stored by the cached circuit solve) and the thermal frequency, so
most calls meet the tolerance in that first round.  The whole integral
has one error budget: intervals above their share of it are subdivided,
all in one batch per round, up to `MAX_SUBDIVISIONS` intervals in total.
The total is truncated where the Bose factors are exponentially dead and
the truncation bound is folded into the error estimate; the total must
meet the relative tolerance `REL_TOL`, or `heat_exact` raises
`ToleranceNotMetError`.  No tolerance is absolute: the integrand has one
sign, so |total| sets the scale in any units.  Nothing here needs scipy;
the tests keep the scipy panel quadrature as a reference.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import BathPair, CircuitParams, derive_scales
from .response import _CACHE_SIZE, TransferMode, horner, mode_polynomials, transfer_f12
from .special import digamma, log_ratio


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


def _bose(x):
    """Occupation 1/(e^x - 1) for x > 0, elementwise, safe against overflow.

    Written as e^-x/(1 - e^-x), which underflows to 0 instead of overflowing.
    """
    return np.exp(-x) / -np.expm1(-x)


def _panel_edges(inner_lo: float, inner_hi: float, breaks=()) -> list[float]:
    """Log-graded breakpoints [0, inner_lo, ..., inner_hi], ~3 per decade,
    merged in order with `breaks`, which must lie inside (inner_lo, inner_hi)."""
    decades = math.log10(inner_hi / inner_lo)
    n = max(6, int(math.ceil(3.0 * decades)) + 1)
    ratio = (inner_hi / inner_lo) ** (1.0 / (n - 1))
    inner = sorted({inner_lo * ratio**k for k in range(1, n - 1)}.union(breaks))
    return [0.0, inner_lo] + inner + [inner_hi]


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


def _qk21(integrand, a: np.ndarray, b: np.ndarray):
    """qk21 on every interval (a[i], b[i]) from one call of the integrand.

    Returns the Kronrod values, QUADPACK's error estimates and their rounding
    floors 50 eps Int |f|, below which subdivision gains nothing.  The
    integrand must be nonnegative, so that Int |f| is the Kronrod value, and
    the caller must ignore division by zero and invalid values (see
    `heat_exact`).
    """
    half = 0.5 * (b - a)
    nodes = (a + half)[:, None] + half[:, None] * _NODES
    f = integrand(nodes.ravel()).reshape(nodes.shape)
    kronrod, gauss = np.dot(f, _WEIGHTS).T
    error = np.abs(kronrod - gauss) * half
    resasc = np.dot(np.abs(f - 0.5 * kronrod[:, None]), _KRONROD) * half
    floor = (50.0 * _EPS) * kronrod * half
    # resasc == 0 means f is equal at all nodes: scaled is 0 or nan, fmax keeps the floor
    scaled = resasc * np.minimum(1.0, 200.0 * error / resasc) ** 1.5
    return kronrod * half, np.fmax(scaled, floor), floor


def _integrate_panels(integrand, edges: list[float]) -> tuple[float, float]:
    """Integral over [edges[0], edges[-1]] and its error estimate, as QUADPACK's qagp.

    The panels between consecutive edges are only the starting intervals:
    the whole integral has one relative error budget, tol = 0.05 REL_TOL |total|,
    which |total| sets because the integrand has one sign.  While the summed
    error exceeds tol, every interval whose error exceeds both its share
    tol/(number of intervals) and its rounding floor is cut, and all new
    pieces are evaluated in one batch.  The loop stops when that cut would
    take the interval count past `MAX_SUBDIVISIONS`, or when every
    interval is at its floor, so the work is bounded whether or not the
    tolerance is met.
    """
    edges = np.array(edges)
    a, b = edges[:-1], edges[1:]
    value, error, floor = _qk21(integrand, a, b)
    while True:
        total, estimate = math.fsum(value.tolist()), math.fsum(error.tolist())
        tol = 0.05 * REL_TOL * abs(total)
        split = (error > tol / len(a)) & (error > floor)
        n_split = np.count_nonzero(split)
        grown = len(a) + (_PIECES - 1) * n_split
        if estimate <= tol or not n_split or grown > MAX_SUBDIVISIONS:
            return total, estimate
        keep = ~split
        cuts = a[split, None] + (b[split] - a[split])[:, None] * _PIECE_EDGES
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        new_value, new_error, new_floor = _qk21(integrand, lo, hi)
        a = np.concatenate([a[keep], lo])
        b = np.concatenate([b[keep], hi])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])
        floor = np.concatenate([floor[keep], new_floor])


def heat_exact(
    p: CircuitParams,
    b: BathPair,
    mode: TransferMode = TransferMode.EXACT_CUBIC,
) -> float:
    """Steady-state heat current out of bath 1 by direct quadrature.

    Valid for any parameters, overdamped or not; this is the reference
    against which the closed forms are checked.  The integrand is summed by
    batched qk21 from 0 to the cut, every node of a round in one numpy array
    (see `_integrate_panels`).  The starting panels are log-graded, ~3 per
    decade, with breakpoints added at f12's own scales, which
    `_circuit_solve` reads off the poles, and at omega_th {1/3, 1, 3}, so
    that most calls meet the tolerance in the first round; the intervals
    are subdivided adaptively, up to `MAX_SUBDIVISIONS` of them in all.
    Returns 0.0 exactly at equilibrium (T1 == T2) and for decoupled loops
    (M == 0).  Raises `ToleranceNotMetError` (carrying the best
    estimate) when the summed interval errors plus the truncation bound
    exceed REL_TOL * |value|.  hbar multiplies the integral once, so at the
    same beta_j hbar the result in units (hbar, k_b) is hbar times the
    natural-unit one, bit for bit.
    """
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0

    s = derive_scales(p)
    omega_th = b.thermal_frequency(p.hbar)
    cut = TAIL_CUT_MULTIPLIER * max(omega_th, abs(s.lambda_minus))
    inner_lo = min(abs(s.lambda_plus), omega_th) / 100.0
    thermal_breaks = (omega_th / 3.0, omega_th, 3.0 * omega_th)
    breaks = [w for w in _circuit_solve(p, mode).breaks + thermal_breaks if inner_lo < w < cut]
    # n1 - n2 = +/- n(lo w) (1 - e^-(hi - lo) w)/(1 - e^-hi w), lo <= hi the two
    # beta_j hbar: one sign at every node, applied to the total, and no
    # cancellation as T1 -> T2
    sign = 1.0 if b.T1 > b.T2 else -1.0
    lo, hi = sorted((b.beta1 * p.hbar, b.beta2 * p.hbar))

    def integrand(w: np.ndarray) -> np.ndarray:
        # qk21 nodes are interior, so w > 0 and the Bose factors are finite
        thermal = _bose(lo * w) * np.expm1(-(hi - lo) * w) / np.expm1(-hi * w)
        return w * transfer_f12(w, p, mode) * thermal

    # qk21 divides by resasc, which is 0 on an interval where f is constant
    with np.errstate(divide="ignore", invalid="ignore"):
        value, estimate = _integrate_panels(integrand, _panel_edges(inner_lo, cut, breaks))
    # beyond the cut, omega*f12 decreases and the Bose difference is bounded by
    # the hotter bath's occupation, so the discarded tail is under
    # cut * f12(cut) * n(lo cut)/lo
    tail_bound = cut * transfer_f12(cut, p, mode) * _bose(lo * cut) / lo
    value, estimate = sign * p.hbar * value, p.hbar * (estimate + tail_bound)
    target = REL_TOL * abs(value)
    if estimate > target:
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
    field of `_circuit_solve`, cached in each process on the frozen (p, mode)
    for the last `_CACHE_SIZE` (32) pairs, and never depends on the roots.
    """
    if p.M == 0.0:
        return 0.0
    return _circuit_solve(p, mode).classical


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


@dataclass(frozen=True)
class _CircuitSolve:
    """What the circuit alone fixes of the three integrals.

    `breaks` are the frequencies, in increasing order, where f12 bends:
    |s| at every root s of D, and at a resonant root (|Im s| > |Re s|) also
    |Im s| +/- {0.5, 2} |Re s| on its flanks; `heat_exact` starts its panels
    there.  `nodes` holds (s, s^3, D(-s), divisor, offset, n) in summation
    order: at a residue, divisor = D'(s) and offset = n = None; at one of the
    n points s = centre + offset of a cluster's contour, divisor = D(s).
    `failure` is the error of the pole step, raised by `quantum_integral`.
    """

    K: float
    classical: float
    breaks: tuple[float, ...]
    nodes: tuple[tuple, ...]
    failure: ArithmeticError | None


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _circuit_solve(p: CircuitParams, mode: TransferMode) -> _CircuitSolve:
    """The temperature-independent work of all three integrals, for M > 0."""
    polys = mode_polynomials(p, mode)
    (up, d_plus), (um, d_minus) = (_integer_coefficients(c) for c in polys)
    a = [0] * (len(up) + len(um) - 1)
    for i, x in enumerate(up):
        for j, y in enumerate(um):
            a[i + j] += x * y
    A = p.L * p.L - p.M * p.M
    # a is (d_plus d_minus) u_plus u_minus, so B(s) = s takes the same factor
    h2 = _h2_norm_squared(a, d_plus * d_minus)
    classical = 2.0 * p.omega_c**4 * (p.R * p.M / A) ** 2 * h2
    K = (2.0 / math.pi) * p.omega_c**4 * (p.R * p.M / A) ** 2
    mode_roots = [_mode_roots(coeffs) for coeffs in polys]
    breaks = set()
    for s in mode_roots[0] + mode_roots[1]:
        breaks.add(abs(s))
        if abs(s.imag) > abs(s.real):
            breaks.update(abs(s.imag) + k * abs(s.real) for k in (-2.0, -0.5, 0.5, 2.0))
    breaks = tuple(sorted(breaks))
    try:
        nodes = _residue_nodes(p, polys, mode_roots, 2.0 * p.R * p.M / A)
        return _CircuitSolve(K, classical, breaks, nodes, None)
    except ArithmeticError as error:
        return _CircuitSolve(K, classical, breaks, (), error.with_traceback(None))


def _residue_nodes(p: CircuitParams, polys, mode_roots, delta: float) -> tuple[tuple, ...]:
    """The `_CircuitSolve.nodes` of the residue sum (see `quantum_integral`),
    from the roots of u_plus and u_minus."""
    roots, slopes = [], []
    for sign, coeffs, u_roots in zip((1.0, -1.0), polys, mode_roots):
        for s in u_roots:
            roots.append(s)
            slopes.append(sign * horner(coeffs, s)[1] * delta * (s + p.omega_c))

    def node(s: complex, divisor: complex, offset=None, n=None) -> tuple:
        return s, s**3, horner(polys[0], -s)[0] * horner(polys[1], -s)[0], divisor, offset, n

    nodes = []
    for group in _clusters(roots):
        if len(group) == 1:
            nodes.append(node(roots[group[0]], slopes[group[0]]))
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
            nodes.append(node(s, horner(polys[0], s)[0] * horner(polys[1], s)[0], offset, n))
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
    delta (s + omega_c) with delta = omega_minus - omega_plus = 2 R M/A.
    Roots closer together than a fraction of their distance from the axis
    (a repeated root, or the roots of u_plus and u_minus at small M/L) are
    summed as one trapezoidal contour integral around their cluster.

    Negative for T1 > T2: it is the low-temperature correction that cancels
    part of the classical current.  Satisfies heat_exact = k_b (T1 - T2) *
    classical_integral + quantum_integral identically; exactly 0 at
    T1 == T2 and M == 0, and exactly odd under T1 <-> T2.

    Only the digamma arguments depend on the temperatures: K, the nodes and
    their weights are `_circuit_solve`, cached in each process on the frozen
    (p, mode) for the last `_CACHE_SIZE` (32) pairs, so a cached circuit
    costs two digammas per node.  A cluster reaching the imaginary axis
    raises ArithmeticError on every call.
    """
    if b.T1 == b.T2 or p.M == 0.0:
        return 0.0
    solve = _circuit_solve(p, mode)
    if solve.failure is not None:
        raise type(solve.failure)(*solve.failure.args)
    c1 = b.beta1 * p.hbar / (2.0 * math.pi)
    c2 = b.beta2 * p.hbar / (2.0 * math.pi)
    log_c = log_ratio(c2, c1)
    total = 0j
    for s, s3, Dm, divisor, offset, n in solve.nodes:
        # s^3 [psi(1 - c2 s) - psi(1 - c1 s) - ln(c2/c1)]/D(-s)
        term = s3 * ((digamma(1.0 - c2 * s) - digamma(1.0 - c1 * s)) - log_c) / Dm
        total += term / divisor if offset is None else term / divisor * offset / n
    return p.hbar * solve.K * total.real
