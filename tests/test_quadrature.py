import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from overheat import (
    BathPair,
    CircuitParams,
    ToleranceNotMetError,
    TransferMode,
    classical_integral,
    derive_scales,
    digamma,
    heat_classical,
    heat_exact,
    heat_quantum,
    preset_specs,
    quantum_integral,
    transfer_f12,
)
from overheat import quadrature, response, run_preset
from quad_reference import _f12_integral, reference_heat_exact

LINEAR = TransferMode.OVERDAMPED_LINEAR
CUBIC = TransferMode.EXACT_CUBIC


def overdamped_draw(rng, gamma_exponent=(2.0, 8.0)):
    R, L = (float(v) for v in np.exp(rng.uniform(-1, 1, size=2)))
    M = L * float(rng.uniform(0.1, 0.9))
    gamma = math.exp(rng.uniform(*gamma_exponent))
    wc = math.exp(rng.uniform(-1, 3))
    p = CircuitParams(R=R, L=L, C=1.0 / (R * gamma), M=M, omega_c=wc)
    T1, T2 = (float(v) for v in np.exp(rng.uniform(-2, 2, size=2)))
    if abs(T1 - T2) < 0.05 * max(T1, T2):
        T2 = 0.5 * T1
    return p, BathPair.from_temperatures(T1, T2)


def mpmath_classical_integral(mp, p, mode):
    """Int_0^inf f12 as a 60-digit residue sum over the left-half-plane poles.

    With H(s) = s/(u_plus(s) u_minus(s)), Int_0^inf |H(i omega)|^2 domega is
    pi times the sum of the residues of H(s) H(-s) at the roots of u_plus u_minus.
    """
    with mp.workdps(60):
        R, L, M, wc = (mp.mpf(v) for v in (p.R, p.L, p.M, p.omega_c))
        polys = mode_polynomials(mp, p, mode)
        total = mp.mpf(0)
        for u, other in (polys, polys[::-1]):
            du = [c * (len(u) - 1 - k) for k, c in enumerate(u[:-1])]
            for r in mp.polyroots(u, maxsteps=200, extraprec=200):
                denom = (
                    mp.polyval(du, r) * mp.polyval(other, r)
                    * mp.polyval(u, -r) * mp.polyval(other, -r)
                )
                total += -r * r / denom
        f12_scale = (2 / mp.pi) * wc**4 * (R * M / (L * L - M * M)) ** 2
        return float(f12_scale * mp.pi * mp.re(total))


def mode_polynomials(mp, p, mode):
    """u_plus and u_minus as mpmath coefficient lists, highest power first."""
    R, L, C, M, wc = (mp.mpf(v) for v in (p.R, p.L, p.C, p.M, p.omega_c))
    polys = []
    for w in (R / (L + M), R / (L - M)):
        linear = [w + wc, w * wc]
        polys.append(linear if mode is LINEAR else [R * C, R * C * wc] + linear)
    return polys


def quantum_residues(mp, p, b, mode):
    """hbar K, c1, c2 and the (root s, weight s^3/(D'(s) D(-s))) pairs of the
    residue sum, at the working precision of `mp`.

    s runs over the roots of D = u_plus u_minus, c_j = beta_j hbar/2 pi and
    K = (2/pi) omega_c^4 (R M/A)^2.
    """
    R, L, M, wc, hbar = (mp.mpf(v) for v in (p.R, p.L, p.M, p.omega_c, p.hbar))
    c1, c2 = (mp.mpf(beta) * hbar / (2 * mp.pi) for beta in (b.beta1, b.beta2))
    polys = mode_polynomials(mp, p, mode)
    residues = []
    for u, other in (polys, polys[::-1]):
        du = [c * (len(u) - 1 - k) for k, c in enumerate(u[:-1])]
        for s in mp.polyroots(u, maxsteps=200, extraprec=200):
            d_prime = mp.polyval(du, s) * mp.polyval(other, s)
            d_minus = mp.polyval(u, -s) * mp.polyval(other, -s)
            residues.append((s, s**3 / (d_prime * d_minus)))
    K = (2 / mp.pi) * wc**4 * (R * M / (L * L - M * M)) ** 2
    return hbar * K, c1, c2, residues


def mpmath_quantum_integral(mp, p, b, mode):
    """quantum_integral as a 50-digit residue sum over the left-half-plane poles.

    hbar K Sum_s s^3/(D'(s) D(-s)) [psi(1 - c2 s) - psi(1 - c1 s) - ln(c2/c1)]
    (see `quantum_residues`).
    """
    with mp.workdps(50):
        scale, c1, c2, residues = quantum_residues(mp, p, b, mode)
        total = mp.fsum(
            w * (mp.digamma(1 - c2 * s) - mp.digamma(1 - c1 * s) - mp.log(c2 / c1))
            for s, w in residues
        )
        return float(scale * mp.re(total))


def split_error(p, b, mode):
    """|heat_exact - k_b (T1 - T2) classical - quantum| over |k_b dT classical| + |quantum|.

    Raises `ToleranceNotMetError` where heat_exact misses its tolerance.
    """
    total = heat_exact(p, b, mode)
    classical = p.kb * (b.T1 - b.T2) * classical_integral(p, mode)
    quantum = quantum_integral(p, b, mode)
    return abs(total - classical - quantum) / (abs(classical) + abs(quantum))


def u_plus_discriminant(gamma, p):
    """Discriminant of the monic cubic u_plus/RC at charge relaxation rate gamma."""
    w = p.R / (p.L + p.M)
    B, C, D = p.omega_c, gamma * (w + p.omega_c), gamma * w * p.omega_c
    return 18 * B * C * D - 4 * B**3 * D + B * B * C * C - 4 * C**3 - 27 * D * D


class TestHeatExact:
    def test_equilibrium_is_zero(self, circuit):
        b = BathPair.from_temperatures(1.0, 1.0)
        assert heat_exact(circuit, b) == 0.0

    def test_decoupled_is_zero(self):
        p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=0.0, omega_c=5.0)
        b = BathPair.from_temperatures(2.0, 1.0)
        assert heat_exact(p, b) == 0.0

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_near_equilibrium_is_the_linear_response(self, mode):
        # the Bose difference n(c1 w) - n(c2 w) is not formed as a difference,
        # so T2 = T1 (1 + 1e-9) and T2 one ulp above T1 meet the relative
        # tolerance (n1 - n2 used to cancel to a 1.8e-7 estimate and raise);
        # the conductance is a central difference at dT = 1e-4, error O(1e-8)
        circuit = CircuitParams(R=2.0, L=2.0, C=0.5, M=1.0, omega_c=1.0)  # gamma = omega_d
        d = 1e-4
        conductance = (
            heat_exact(circuit, BathPair.from_temperatures(1.0, 1.0 - d), mode)
            - heat_exact(circuit, BathPair.from_temperatures(1.0, 1.0 + d), mode)
        ) / (2.0 * d)
        for T2 in (1.0 + 1e-9, math.nextafter(1.0, 2.0)):
            q = heat_exact(circuit, BathPair.from_temperatures(1.0, T2), mode)
            assert q / (1.0 - T2) == pytest.approx(conductance, rel=1e-7)

    def test_matches_closed_form_total(self, circuit, scales, baths):
        # gamma/omega_d = 1e4: the overdamped closed forms should nail the
        # linear-mode integral well inside 100x the quadrature tolerance
        expected = heat_classical(circuit, scales, baths) + heat_quantum(
            circuit, scales, baths
        )
        value = heat_exact(circuit, baths, LINEAR)
        assert abs(value - expected) <= 1e-7 * abs(expected)

    def test_antisymmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            p, b = overdamped_draw(rng)
            swapped = BathPair.from_temperatures(b.T2, b.T1)
            forward = heat_exact(p, b, CUBIC)
            backward = heat_exact(p, swapped, CUBIC)
            assert backward == pytest.approx(-forward, rel=1e-8)

    def test_sign(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            p, b = overdamped_draw(rng)
            hot_first = b if b.T1 > b.T2 else BathPair.from_temperatures(b.T2, b.T1)
            assert heat_exact(p, hot_first, CUBIC) > 0.0

    def test_monotone_tolerance(self, circuit, baths, monkeypatch):
        # tightening REL_TOL cannot move the result by more than the prior
        # error budget REL_TOL*|value|
        for mode in (LINEAR, CUBIC):
            monkeypatch.setattr(quadrature, "REL_TOL", 1e-6)
            v_loose = heat_exact(circuit, baths, mode)
            monkeypatch.setattr(quadrature, "REL_TOL", 1e-7)
            v_tight = heat_exact(circuit, baths, mode)
            assert abs(v_loose - v_tight) <= 1e-6 * abs(v_loose)

    def test_tolerance_failure_carries_estimate(self, circuit, baths, monkeypatch):
        # a relative target below double rounding cannot be met within ten
        # intervals, so the evaluation must refuse
        with monkeypatch.context() as m, pytest.raises(ToleranceNotMetError) as excinfo:
            m.setattr(quadrature, "REL_TOL", 1e-15)
            m.setattr(quadrature, "MAX_SUBDIVISIONS", 10)
            heat_exact(circuit, baths, LINEAR)
        err = excinfo.value
        assert err.estimate > err.target > 0.0
        # the carried value is still the integral, to the reached accuracy
        reference = heat_exact(circuit, baths, LINEAR)
        assert err.value == pytest.approx(reference, rel=1e-4)


    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_matches_scipy_reference(self, mode):
        # the batched qk21 quadrature against the scalar scipy quad loop on the
        # same panels, at every fig2 point and 20 random overdamped circuits
        # where the reference meets its own tolerance
        cases = []
        for spec in preset_specs("fig2"):
            b = BathPair.from_temperatures(spec.T1, spec.T2)
            for x in spec.grid.values():
                p = CircuitParams(
                    R=spec.R, L=spec.L, C=1.0 / (spec.R * x * (spec.R / spec.L)), M=spec.M,
                    omega_c=spec.omega_c,
                )
                cases.append((p, b))
        rng = np.random.default_rng(79)
        cases += [overdamped_draw(rng) for _ in range(20)]
        compared = 0
        for p, b in cases:
            try:
                reference = reference_heat_exact(p, b, mode)
            except ToleranceNotMetError:
                continue
            assert heat_exact(p, b, mode) == pytest.approx(reference, rel=quadrature.REL_TOL)
            compared += 1
        assert compared >= len(cases) - 2

    @pytest.mark.parametrize(
        "gamma_over_omega_d, m_over_l", [(1e3, 0.99), (1e5, 1e-4), (1e6, 1e-6), (1e6, 1e-4)]
    )
    def test_meets_tolerance_where_scipy_missed(self, gamma_over_omega_d, m_over_l):
        # sharp resonances at a slow cutoff and a high temperature, where the
        # scipy panel quadrature raised ToleranceNotMetError (at 1e5, 1e-4 it
        # returned 2.5e-8 for a current of 1.3e-3); the split cancels to a
        # small total, so its error is measured on the scale of the pieces
        p = CircuitParams(
            R=2.0, L=2.0, C=1.0 / (2.0 * gamma_over_omega_d), M=2.0 * m_over_l, omega_c=0.3
        )
        assert split_error(p, BathPair.from_temperatures(50.0, 10.0), CUBIC) <= 1e-10

    def test_work_is_bounded_when_tolerance_is_out_of_reach(self, monkeypatch):
        # REL_TOL below the rounding floor with a 10-interval cap at a sharp
        # resonance: the quadrature must stop, report the miss with a finite
        # value, and stay small in memory
        p = CircuitParams(R=2.0, L=2.0, C=1.0 / 2e3, M=1.98, omega_c=0.3)
        b = BathPair.from_temperatures(50.0, 10.0)
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-15)
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 10)
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMetError) as excinfo:
                heat_exact(p, b, CUBIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(excinfo.value.value)
        assert excinfo.value.estimate > excinfo.value.target
        assert peak < 2**21

    def test_subdivision_cap_counts_every_interval(self, monkeypatch):
        # MAX_SUBDIVISIONS caps the intervals of the whole integral, not of
        # each panel: the first array of qk21 nodes holds the starting panels,
        # and each later one the quarters of the intervals cut in that round,
        # every cut adding three intervals
        p = CircuitParams(R=2.0, L=2.0, C=1.0 / 2e3, M=1.98, omega_c=0.3)
        b = BathPair.from_temperatures(50.0, 10.0)
        sizes = []

        def counting_f12(w, *args):
            sizes.append(np.size(w))
            return transfer_f12(w, *args)

        monkeypatch.setattr(quadrature, "transfer_f12", counting_f12)
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-15)
        # a cap below the starting panels allows no cut: one round, which
        # counts them; the cap is then set 26 intervals above that count,
        # room for a second round but not for every cut the tolerance wants
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 10)
        with pytest.raises(ToleranceNotMetError):
            heat_exact(p, b, CUBIC)
        cap = sizes[0] // 21 + 26
        sizes.clear()
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", cap)
        with pytest.raises(ToleranceNotMetError):
            heat_exact(p, b, CUBIC)
        rounds = [n for n in sizes if n > 1]  # the tail bound evaluates one point
        assert len(rounds) > 1 and all(n % 21 == 0 for n in rounds)
        intervals = rounds[0] // 21 + sum(3 * n // (4 * 21) for n in rounds[1:])
        assert intervals <= cap

    def test_first_round_usually_suffices(self, monkeypatch):
        # panels that start at f12's poles and the thermal frequency meet the
        # tolerance in the first qk21 round for most temperature-scan points
        # (1.27 rounds per call here; 2.05 from a plain log grid of 2 panels
        # per decade), and the result still matches the exact split (largest
        # miss 1.5e-11)
        rounds = counting(monkeypatch, quadrature, "_qk21")
        rng = np.random.default_rng(151)
        calls = 0
        for _ in range(40):
            p = CircuitParams(
                R=2.0, L=2.0, C=1.0 / (2.0 * 10.0 ** rng.uniform(1.0, 5.0)),
                M=2.0 * rng.uniform(0.2, 0.8), omega_c=5.0 * 3.0 ** rng.uniform(-1.0, 1.0),
            )
            t2_over_t1 = rng.uniform(0.1, 0.9)
            for mode in (CUBIC, LINEAR):
                for T1 in np.geomspace(1e-2, 1e2, 9):
                    b = BathPair.from_temperatures(T1, t2_over_t1 * T1)
                    assert split_error(p, b, mode) <= 1e-9
                    calls += 1
        assert len(rounds) / calls <= 1.35

    def test_estimate_guards_its_budget(self):
        # guards the 0.05 REL_TOL loop budget of `_integrate_panels`: with a
        # budget of 0.5 REL_TOL |total| and panels of 2 per decade, the qk21
        # estimate here read under 1e-9 while the value was 1.5e-6 off
        p = CircuitParams(
            R=2.0, L=2.0, C=3.542361398687936e-05, M=1.2296013710684641,
            omega_c=1.686956320843052,
        )
        b = BathPair.from_temperatures(10.0, 1.9603571785607867)
        assert split_error(p, b, CUBIC) <= 1e-9


class TestClassicalIntegral:
    def test_decoupled_is_zero(self):
        p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=0.0, omega_c=5.0)
        assert classical_integral(p) == 0.0

    def test_reference_value(self, circuit):
        # residue arithmetic for the linear mode polynomials:
        # (1/2)(M/L)^2 (omega_c/(omega_c+omega_d)) lambda_+ lambda_-/omega_d
        expected = 0.5 * 0.25 * (5.0 / 6.0) * (100.0 / 119.0)
        value = classical_integral(circuit, LINEAR)
        assert value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    @pytest.mark.parametrize("m_over_l", [1e-4, 0.5, 0.99])
    @pytest.mark.parametrize("gamma_over_omega_d", [0.01, 1.0, 1e3, 1e5, 1e6])
    def test_matches_mpmath_residues(self, gamma_over_omega_d, m_over_l, mode):
        # 60-digit residue sum over the roots of each mode polynomial; the
        # slow cutoff omega_c = 0.3 gives the weakly damped, nearly coincident
        # resonances that defeat floating-point Routh recursions
        mp = pytest.importorskip("mpmath")
        for omega_c in (0.3, 5.0):
            p = CircuitParams(
                R=2.0, L=2.0, C=1.0 / (2.0 * gamma_over_omega_d), M=2.0 * m_over_l,
                omega_c=omega_c,
            )
            expected = mpmath_classical_integral(mp, p, mode)
            assert classical_integral(p, mode) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_matches_panel_quadrature_on_fig2_grid(self, mode):
        spec = preset_specs("fig2")[0]
        for x in spec.grid.values():
            p = CircuitParams(
                R=spec.R, L=spec.L, C=1.0 / (spec.R * x * (spec.R / spec.L)), M=spec.M,
                omega_c=spec.omega_c,
            )
            reference, _ = _f12_integral(p, mode)
            assert classical_integral(p, mode) == pytest.approx(reference, rel=1e-9)

    def test_split_additivity(self, circuit):
        rng = np.random.default_rng(71)
        for mode in (LINEAR, CUBIC):
            full, _ = _f12_integral(circuit, mode)
            for _ in range(3):
                omega_split = math.exp(rng.uniform(-3, 3))
                head, _ = _f12_integral(circuit, mode, 0.0, omega_split)
                tail, _ = _f12_integral(circuit, mode, omega_split, math.inf)
                assert head + tail == pytest.approx(full, rel=1e-9)


class TestQuantumIntegral:
    def test_equilibrium_is_zero(self, circuit):
        b = BathPair.from_temperatures(3.0, 3.0)
        assert quantum_integral(circuit, b) == 0.0

    def test_matches_closed_form(self, circuit, scales, baths):
        expected = heat_quantum(circuit, scales, baths)
        value = quantum_integral(circuit, baths, LINEAR)
        assert abs(value - expected) <= 1e-6 * abs(expected)

    def test_negative_when_bath1_hot(self, circuit, baths):
        # the quantum piece reduces the classical flow
        assert quantum_integral(circuit, baths, LINEAR) < 0.0

    def test_decomposition_identity(self):
        # heat_exact = k_b (T1-T2) classical_integral + quantum_integral
        rng = np.random.default_rng(73)
        for _ in range(6):
            p, b = overdamped_draw(rng, gamma_exponent=(1.0, 6.0))
            for mode in (LINEAR, CUBIC):
                total = heat_exact(p, b, mode)
                cl = p.kb * (b.T1 - b.T2) * classical_integral(p, mode)
                qu = quantum_integral(p, b, mode)
                assert cl + qu == pytest.approx(total, rel=1e-7)

    @pytest.mark.xfail(strict=True, reason="the split cancels near T1 = T2")
    def test_split_near_equilibrium(self, circuit):
        # k_b dT classical and quantum are large and cancel, and the digamma
        # bracket is a difference of nearly equal values: at dT = 1e-9 the split
        # misses heat_exact by 6.3e-5 (1.0e-3 at dT = 1e-12); a divided
        # difference of psi in c2 - c1 would keep the digits
        b = BathPair.from_temperatures(1.0, 1.0 + 1e-9)
        split = circuit.kb * (b.T1 - b.T2) * classical_integral(circuit) + quantum_integral(
            circuit, b
        )
        assert split == pytest.approx(heat_exact(circuit, b), rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("T", [1e5, 1e6])
    def test_high_temperature_law(self, circuit, scales, T):
        # with both baths hot the quantum part tends to
        # (hbar^2/12 k_b)(1/T1 - 1/T2) Int_0^inf omega^2 f12 domega, finite
        # because the cubic f12 decays like omega^-10; with T1 = 2 T2 = 2T
        # that is -(hbar^2/24 k_b T) Int omega^2 f12
        resonances = [
            math.sqrt(scales.gamma * (circuit.omega_c + w))
            for w in (scales.omega_plus, scales.omega_minus)
        ]
        cut = 10.0 * max(resonances)

        def moment(w):
            return w * w * transfer_f12(w, circuit, CUBIC)

        head = quad(moment, 0.0, cut, points=[circuit.omega_c, *resonances],
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
        tail = quad(moment, cut, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        law = -(circuit.hbar**2 / (24.0 * circuit.kb)) * (head + tail)
        value = T * quantum_integral(circuit, BathPair.from_temperatures(2.0 * T, T), CUBIC)
        assert value == pytest.approx(law, rel=1e-6)

    @pytest.mark.parametrize("t2_over_t1, rel", [(1e8, 1e-6), (1e10, 1e-8)])
    def test_one_bath_saturation(self, circuit, t2_over_t1, rel):
        # with T1 fixed and T2 -> infinity (c2 -> 0) the cubic quantum part
        # saturates at hbar K Sum_s s^3/(D'(s) D(-s)) [psi(1) - psi(1 - c1 s)];
        # the ln(c2/c1) term drops out because its residue weights sum to 0
        mp = pytest.importorskip("mpmath")
        b = BathPair.from_temperatures(2.0, t2_over_t1 * 2.0)
        with mp.workdps(50):
            scale, c1, _, residues = quantum_residues(mp, circuit, b, CUBIC)
            weights = [w for _, w in residues]
            assert abs(mp.fsum(weights)) <= mp.mpf(10) ** -40 * mp.fsum(map(abs, weights))
            total = mp.fsum(w * (mp.digamma(1) - mp.digamma(1 - c1 * s)) for s, w in residues)
            limit = float(scale * mp.re(total))
        assert limit == pytest.approx(240.24578908505745, rel=1e-15)
        assert quantum_integral(circuit, b, CUBIC) == pytest.approx(limit, rel=rel)

    @pytest.mark.parametrize("temperatures", [(2.0, 1.0), (0.05, 0.02)])
    @pytest.mark.parametrize("gamma_over_omega_d", [1e3, 1e6])
    def test_split_where_resonance_is_sharp(self, gamma_over_omega_d, temperatures):
        # M/L = 0.99 with a slow cutoff: a weakly damped resonance far narrower
        # than any quadrature panel
        p = CircuitParams(
            R=2.0, L=2.0, C=1.0 / (2.0 * gamma_over_omega_d), M=1.98, omega_c=0.3
        )
        b = BathPair.from_temperatures(*temperatures)
        assert split_error(p, b, CUBIC) <= 1e-9

    @pytest.mark.parametrize("temperatures", [(2.0, 1.0), (0.05, 0.02)])
    @pytest.mark.parametrize("gamma_bracket", [(2.0, 3.0), (3.0, 5.0)])
    def test_split_at_repeated_root(self, gamma_bracket, temperatures):
        # gamma bisected onto a zero of the discriminant of u_plus, where two of
        # its roots merge and the residues at each diverge with opposite signs
        shape = CircuitParams(R=2.0, L=2.0, C=1.0, M=1.0, omega_c=15.0)
        lo, hi = gamma_bracket
        sign_lo = u_plus_discriminant(lo, shape) > 0.0
        assert (u_plus_discriminant(hi, shape) > 0.0) != sign_lo
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (u_plus_discriminant(mid, shape) > 0.0) == sign_lo:
                lo = mid
            else:
                hi = mid
        p = CircuitParams(R=2.0, L=2.0, C=1.0 / (2.0 * lo), M=1.0, omega_c=15.0)
        b = BathPair.from_temperatures(*temperatures)
        assert split_error(p, b, CUBIC) <= 1e-9

    def test_split_accuracy_grid(self):
        # 1e-9 of the split scale where the modes are well separated; the
        # nearly coincident resonances of small M/L inherit the rounding of
        # omega_pm, so 1e-7 there
        worst = {}
        for ratio, m_over_l, omega_c, temperatures, mode in itertools.product(
            [0.01, 1.0, 1e3, 1e5, 1e6], [1e-6, 1e-4, 1e-2, 0.5, 0.99], [0.3, 5.0],
            [(2.0, 1.0), (0.05, 0.02), (0.02, 0.01), (50.0, 10.0)], [LINEAR, CUBIC],
        ):
            p = CircuitParams(
                R=2.0, L=2.0, C=1.0 / (2.0 * ratio), M=2.0 * m_over_l, omega_c=omega_c
            )
            error = split_error(p, BathPair.from_temperatures(*temperatures), mode)
            worst[m_over_l] = max(worst.get(m_over_l, 0.0), error)
        for m_over_l, error in worst.items():
            assert error <= (1e-9 if m_over_l >= 1e-2 else 1e-7), (m_over_l, error)

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    @pytest.mark.parametrize(
        "gamma_over_omega_d, m_over_l, omega_c, temperatures",
        [
            (0.01, 0.5, 5.0, (2.0, 1.0)),
            (1.0, 0.2, 0.3, (0.05, 0.02)),
            (1e3, 0.99, 0.3, (0.05, 0.02)),
            (1e4, 0.5, 5.0, (50.0, 10.0)),
            (1e5, 1e-2, 5.0, (0.02, 0.01)),
            (1e6, 0.7, 30.0, (1.0, 3.0)),
        ],
    )
    def test_matches_mpmath_residues(
        self, gamma_over_omega_d, m_over_l, omega_c, temperatures, mode
    ):
        mp = pytest.importorskip("mpmath")
        p = CircuitParams(
            R=2.0, L=2.0, C=1.0 / (2.0 * gamma_over_omega_d), M=2.0 * m_over_l,
            omega_c=omega_c,
        )
        b = BathPair.from_temperatures(*temperatures)
        expected = mpmath_quantum_integral(mp, p, b, mode)
        assert quantum_integral(p, b, mode) == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        log_ratio=st.floats(-2.0, 6.0),
        m_over_l=st.floats(1e-3, 0.99),
        omega_c=st.floats(0.1, 100.0),
        log_temperatures=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        mode=st.sampled_from([LINEAR, CUBIC]),
    )
    def test_finite_odd_and_zero_at_equilibrium(
        self, log_ratio, m_over_l, omega_c, log_temperatures, mode
    ):
        def circuit(m):
            return CircuitParams(
                R=2.0, L=2.0, C=1.0 / (2.0 * 10.0**log_ratio), M=m, omega_c=omega_c
            )

        p = circuit(2.0 * m_over_l)
        T1, T2 = (10.0**v for v in log_temperatures)
        b = BathPair.from_temperatures(T1, T2)
        value = quantum_integral(p, b, mode)
        assert math.isfinite(value)
        swapped = quantum_integral(p, BathPair.from_temperatures(T2, T1), mode)
        assert swapped == pytest.approx(-value, rel=1e-12, abs=0.0)
        assert quantum_integral(p, BathPair.from_temperatures(T1, T1), mode) == 0.0
        assert quantum_integral(circuit(0.0), b, mode) == 0.0

    def test_integrand_conjugate_symmetry(self, circuit, baths):
        # the full-line integrand satisfies F(-omega) = conj(F(omega)), which
        # is what justifies evaluating twice the real part on the half line
        def full_line(w: float) -> complex:
            x1 = baths.beta1 * circuit.hbar * w / (2.0 * math.pi)
            x2 = baths.beta2 * circuit.hbar * w / (2.0 * math.pi)
            psi_diff = digamma(complex(1.0, -x2)) - digamma(complex(1.0, -x1))
            return (
                complex(0.0, -circuit.hbar / (2.0 * math.pi))
                * w
                * transfer_f12(w, circuit, LINEAR)
                * psi_diff
            )

        for w in (0.3, 1.0, 4.7, 25.0):
            assert full_line(-w) == pytest.approx(
                full_line(w).conjugate(), rel=1e-13
            )


@pytest.fixture
def fresh_solve():
    """Empty the per-circuit caches before and after the test, so that a test
    which patches a part of the circuit solve neither reads nor leaves a record."""
    caches = (quadrature._circuit_solve, response.mode_polynomials)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCircuitSolve:
    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_one_solve_per_temperature_scan(self, circuit, mode, monkeypatch, fresh_solve):
        roots = counting(monkeypatch, quadrature, "_mode_roots")
        h2 = counting(monkeypatch, quadrature, "_h2_norm_squared")
        for T1 in np.geomspace(1e-2, 1e2, 9):
            b = BathPair.from_temperatures(T1, 0.5 * T1)
            classical_integral(circuit, mode)
            quantum_integral(circuit, b, mode)
            heat_exact(circuit, b, mode)
        assert (len(roots), len(h2)) == (2, 1)

    def test_heat_exact_derives_the_scales_once(self, circuit, baths, monkeypatch, fresh_solve):
        # transfer_f12 runs once per qk21 round and once for the tail bound
        scales = counting(monkeypatch, response, "derive_scales")
        heat_exact(circuit, baths)
        heat_exact(circuit, BathPair.from_temperatures(5.0, 1.0))
        assert len(scales) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        log_ratio=st.floats(-2.0, 6.0),
        m_over_l=st.floats(1e-4, 0.99),
        omega_c=st.floats(0.1, 100.0),
        log_temperatures=st.lists(
            st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=6
        ),
        mode=st.sampled_from([LINEAR, CUBIC]),
    )
    def test_cached_values_are_bitwise_fresh_ones(
        self, log_ratio, m_over_l, omega_c, log_temperatures, mode
    ):
        p = CircuitParams(
            R=2.0, L=2.0, C=1.0 / (2.0 * 10.0**log_ratio), M=2.0 * m_over_l, omega_c=omega_c
        )
        baths = [BathPair.from_temperatures(10.0**u, 10.0**v) for u, v in log_temperatures]

        def values():
            return [classical_integral(p, mode)] + [
                f(p, b, mode) for b in baths for f in (quantum_integral, heat_exact)
            ]

        quadrature._circuit_solve.cache_clear()
        cached = values()
        fresh = []
        for b in baths:
            for f in (quantum_integral, heat_exact):
                quadrature._circuit_solve.cache_clear()
                fresh.append(f(p, b, mode))
        quadrature._circuit_solve.cache_clear()
        fresh.insert(0, classical_integral(p, mode))
        assert [v.hex() for v in cached] == [v.hex() for v in fresh]

    def test_caches_stay_bounded(self, fresh_solve):
        run_preset("fig2")
        b = BathPair.from_temperatures(2.0, 1.0)
        for k in range(40):
            p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=0.01 + 0.02 * k, omega_c=5.0)
            for mode in (LINEAR, CUBIC):
                quantum_integral(p, b, mode)
                transfer_f12(1.0, p, mode)
        for cache in (quadrature._circuit_solve, response.mode_polynomials):
            info = cache.cache_info()
            assert info.maxsize == response._CACHE_SIZE
            assert 0 < info.currsize <= info.maxsize

    def test_cluster_failure_leaves_the_classical_integral(self, circuit, baths, monkeypatch, fresh_solve):
        expected = classical_integral(circuit)
        quadrature._circuit_solve.cache_clear()
        # one group of all six roots: its spread exceeds its distance from the axis
        monkeypatch.setattr(quadrature, "_clusters", lambda roots: [list(range(len(roots)))])
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="reaches the imaginary axis"):
                quantum_integral(circuit, baths)
        assert [classical_integral(circuit) for _ in range(2)] == [expected, expected]
