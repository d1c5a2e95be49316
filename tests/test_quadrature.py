import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    ToleranceNotMetError,
    TransferMode,
    assemble_report,
    classical_integral,
    digamma,
    heat_classical,
    heat_exact,
    heat_quantum,
    preset_specs,
    quantum_integral,
    transfer_f12,
)
from overheat import model, quadrature, response, run_preset
from call_counting import counting
from quad_reference import _f12_integral, reference_heat_exact
from response_reference import heat_quantum_blocks

LINEAR = TransferMode.OVERDAMPED_LINEAR
CUBIC = TransferMode.EXACT_CUBIC
# Bytes a held panel grid of one (circuit, mode) with |lambda_plus| < 100 can
# reach: all of the finite grid, 10^(k/3) for |k| <= 924, with f12 at every
# node (~0.98e6 bytes; the first panels [0, omega_k], held up to
# |lambda_plus|/100, add up to ~0.31e6 more at the largest rates).  The grid
# at T1 in {1e-250, 1e250} on the reference circuit holds 810424.
GRID_BYTES_WORST = 2**20


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
    @pytest.mark.parametrize("T1", [1e303, 3e303, 1e305, 1e307])
    def test_very_hot_bath_meets_the_split(self, circuit, T1):
        # 1/expm1(-beta1 hbar w) passed the largest float from T1 ~ 3e303 (inf
        # with a RuntimeWarning), and cut/inner_lo from T1 ~ 5e304 (OverflowError)
        b = BathPair.from_temperatures(T1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = heat_exact(circuit, b)
        split = (b.T1 - b.T2) * classical_integral(circuit) + quantum_integral(circuit, b)
        assert math.isfinite(total)
        assert abs(total - split) <= 1e-9 * abs(total)

    @pytest.mark.parametrize("T1", [1e200, 1e250])
    def test_two_hot_baths_meet_the_split(self, circuit, T1):
        # with both beta_j hbar small, expm1(beta1 hbar w) expm1(-beta2 hbar w)
        # underflowed to 0 when formed as one product, and every node below
        # w ~ 1e88 read inf or nan with no ToleranceNotMetError
        b = BathPair.from_temperatures(T1, 0.5 * T1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = heat_exact(circuit, b)
        split = (b.T1 - b.T2) * classical_integral(circuit) + quantum_integral(circuit, b)
        assert math.isfinite(total)
        assert abs(total - split) <= 1e-9 * abs(total)

    @pytest.mark.parametrize("T1, T2", [(1.7e308, 1.0), (1.0, 1.7e308)])
    def test_hottest_bath_gives_the_split_inf(self, circuit, T1, T2):
        # every panel value is finite but their sum is past the largest float:
        # fsum raised a bare OverflowError where the split gives +/-inf
        b = BathPair.from_temperatures(T1, T2)
        split = (b.T1 - b.T2) * classical_integral(circuit) + quantum_integral(circuit, b)
        assert math.isinf(split)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert heat_exact(circuit, b) == split

    def test_panel_cap_overflows_quietly_with_numpy_temperatures(self):
        # inner_lo ~ 1e9 in numpy floats, where the product 1e300 inner_lo would
        # overflow with a RuntimeWarning: the cap must drop out quietly
        p = CircuitParams(R=1e12, L=2.0, C=1e-20, M=1.0, omega_c=1e14)
        b = BathPair.from_temperatures(np.float64(1e11), np.float64(5e10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = heat_exact(p, b)
        split = (b.T1 - b.T2) * classical_integral(p) + quantum_integral(p, b)
        assert abs(total - split) <= 1e-9 * abs(total)

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

    def test_matches_closed_form_total(self, circuit, baths):
        # gamma/omega_d = 1e4: the overdamped closed forms should nail the
        # linear-mode integral well inside 100x the quadrature tolerance
        expected = heat_classical(circuit, baths) + heat_quantum(circuit, baths)
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
        # each panel: the first array of qk21 nodes that the Bose weight sees
        # holds the starting panels and the cut, for the tail bound, and each
        # later one the quarters of the intervals cut in that round, every cut
        # adding three intervals
        p = CircuitParams(R=2.0, L=2.0, C=1.0 / 2e3, M=1.98, omega_c=0.3)
        b = BathPair.from_temperatures(50.0, 10.0)
        sizes = []
        thermal_weight = quadrature._thermal_weight

        def counting_weight(w, *args):
            sizes.append(np.size(w))
            return thermal_weight(w, *args)

        monkeypatch.setattr(quadrature, "_thermal_weight", counting_weight)
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-15)
        # an uncapped run counts the starting panels and the cuts of the first
        # round, a quarter of the second array's intervals; the cap then leaves
        # room for exactly those cuts, three intervals each, and none for the
        # cuts the second round wants
        with pytest.raises(ToleranceNotMetError):
            heat_exact(p, b, CUBIC)
        assert len(sizes) > 2
        cap = sizes[0] // 21 + 3 * (sizes[1] // (4 * 21))
        sizes.clear()
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", cap)
        with pytest.raises(ToleranceNotMetError):
            heat_exact(p, b, CUBIC)
        assert len(sizes) > 1 and sizes[0] % 21 == 1 and all(n % 21 == 0 for n in sizes[1:])
        intervals = sizes[0] // 21 + sum(3 * n // (4 * 21) for n in sizes[1:])
        assert intervals <= cap

    def test_first_round_usually_suffices(self, monkeypatch):
        # panels that start at f12's poles and their graded resonance flanks
        # meet the tolerance in the first qk21 round for nearly every
        # temperature-scan point (1.035 rounds per call here; 1.02 with breaks
        # at omega_th {1/3, 1, 3} as well, 1.27 with flanks out to 2 |Re s|
        # only, 2.05 from a plain log grid of 2 panels per decade), and the
        # result still matches the exact split (largest miss 8.7e-12); every
        # round weighs its nodes by the Bose factors once
        rounds = counting(monkeypatch, quadrature, "_thermal_weight")
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
        assert len(rounds) / calls <= 1.05

    def test_resonant_high_temperature_point_takes_one_round(self, monkeypatch):
        # resonances at |Im s| ~ 322 and 348 (|Re s| ~ 4), above the thermal
        # frequency 100: with flanks out to 2 |Re s| only, the panel [356, 676]
        # beside them had an error estimate of 2.8e-2 of the total and the
        # call took 3 rounds
        p = CircuitParams(
            R=2.0, L=2.0, C=5.0016190027216934e-05, M=1.1661656057256327,
            omega_c=9.744157516425929,
        )
        b = BathPair.from_temperatures(100.0, 78.81952821899625)
        rounds = counting(monkeypatch, quadrature, "_thermal_weight")
        assert split_error(p, b, CUBIC) <= 1e-9
        assert len(rounds) == 1

    @pytest.mark.parametrize("gamma_over_omega_d, m_over_l", [(1e4, 0.5), (1e3, 0.99)])
    def test_one_f12_call_per_round(self, gamma_over_omega_d, m_over_l, monkeypatch, fresh_solve):
        # the tail bound reads f12 at the cut from the grid's one call, which
        # stands in for the first round's, so no round and no bound calls f12
        # on its own; on the held grid only the later rounds call it (the
        # sharp resonance at 1e3, 0.99 takes several rounds)
        p = CircuitParams(
            R=2.0, L=2.0, C=1.0 / (2.0 * gamma_over_omega_d), M=2.0 * m_over_l, omega_c=0.3
        )
        b = BathPair.from_temperatures(50.0, 10.0)
        rounds = counting(monkeypatch, quadrature, "_thermal_weight")
        f12 = counting(monkeypatch, quadrature, "transfer_f12")
        heat_exact(p, b, CUBIC)
        assert len(f12) == len(rounds) >= 1
        rounds.clear()
        f12.clear()
        heat_exact(p, b, CUBIC)
        assert len(f12) == len(rounds) - 1

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_held_grid_serves_a_second_temperature(self, circuit, mode, monkeypatch, fresh_solve):
        # the grid held after the call at T1 = 2 reaches the cut at T1 = 3, and
        # f12 at every node of the first round is held with it
        heat_exact(circuit, BathPair.from_temperatures(2.0, 1.0), mode)
        rounds = counting(monkeypatch, quadrature, "_thermal_weight")
        f12 = counting(monkeypatch, quadrature, "transfer_f12")
        heat_exact(circuit, BathPair.from_temperatures(3.0, 1.0), mode)
        assert len(rounds) == 1 and f12 == []

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_value_does_not_depend_on_earlier_temperatures(self, circuit, baths, mode):
        # the held grid grows down to T1 = 1e-3 and up to 1e3: the panels a
        # call reads, and f12 at their nodes, are the ones an empty cache gives
        clear_caches()
        fresh = heat_exact(circuit, baths, mode).hex()
        clear_caches()
        for T1 in (1e-3, 1e3, 1e-2, 30.0):
            heat_exact(circuit, BathPair.from_temperatures(T1, 0.5 * T1), mode)
            assert heat_exact(circuit, baths, mode).hex() == fresh

    def test_threads_sharing_a_grid_read_fresh_values(self, circuit, fresh_solve):
        # four threads scan one circuit in different orders, 2.5 decades apart,
        # so that nearly every call grows the grid under the others: every
        # value is the one an empty cache gives
        temperatures = [10.0 ** (2.5 * k) for k in range(-12, 13)]
        expected = {}
        for T1 in temperatures:
            clear_caches()
            expected[T1] = heat_exact(circuit, BathPair.from_temperatures(T1, 0.5 * T1))
        orders = [temperatures, temperatures[::-1], temperatures[::2], temperatures[1::2]]
        got = []

        def scan(order):
            for T1 in order:
                got.append((T1, heat_exact(circuit, BathPair.from_temperatures(T1, 0.5 * T1))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                clear_caches()
                threads = [threading.Thread(target=scan, args=(order,)) for order in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 5 * sum(map(len, orders))
        assert all(value == expected[T1] for T1, value in got)

    def test_held_grids_stay_bounded_in_memory(self, fresh_solve):
        # T1 = 1e-250 and 1e250 spread a grid over ~500 decades, the widest a
        # test reaches; only the last _GRID_CACHE_SIZE (circuit, mode) pairs stay
        circuits = [
            CircuitParams(R=2.0, L=2.0, C=5e-5, M=0.01 + 0.02 * k, omega_c=5.0)
            for k in range(quadrature._GRID_CACHE_SIZE + 4)
        ]
        heat_exact(circuits[0], BathPair.from_temperatures(2.0, 1.0))  # numpy's own first allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values = [
                heat_exact(p, BathPair.from_temperatures(T1, 0.5 * T1))
                for p in circuits
                for T1 in (1e-250, 1e250)
            ]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(math.isfinite(v) for v in values)
        assert quadrature._panel_grid.cache_info().currsize == quadrature._GRID_CACHE_SIZE
        assert retained < quadrature._GRID_CACHE_SIZE * GRID_BYTES_WORST

    def test_grid_points_are_python_float_powers(self):
        # numpy's power rounds 105 of these 1849 points differently
        top = quadrature._TOP_STEP
        assert len(quadrature._GRID) == 2 * top + 1
        for k in range(-top, top + 1):
            assert quadrature._GRID[k + top] == 10.0 ** (k / 3)

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_rebuilt_grid_holds_a_fresh_grid(self, circuit, mode, fresh_solve):
        # a call at T1 = 1e-3 rebuilds the grid of T1 = 2 on the cold side
        # only, and one at 1e3 on the hot side only; every array held is the
        # one a grid built at once over the same steps holds
        steps = []
        for T1 in (2.0, 1e-3, 1e3):
            heat_exact(circuit, BathPair.from_temperatures(T1, 0.5 * T1), mode)
            held = quadrature._panel_grid(circuit, mode).held
            steps.append((held.lo, held.hi))
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = steps
        assert lo1 < lo0 and hi1 == hi0 and lo2 == lo1 and hi2 > hi1
        fresh = quadrature._PanelGrid(circuit, mode)._panels(lo2, hi2)
        for name in (field.name for field in dataclasses.fields(held)):
            assert np.array_equal(getattr(held, name), getattr(fresh, name)), name

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_nan_in_f12_raises(self, circuit, baths, mode, monkeypatch, fresh_solve):
        # one nan node makes the value and the estimate nan, and a check of
        # estimate > target, False for nan, returned it as if it had converged
        f12 = quadrature.transfer_f12

        def one_nan(w, *args):
            values = f12(w, *args)
            values[np.argmin(np.abs(w - 0.8))] = math.nan  # a node inside a panel
            return values

        monkeypatch.setattr(quadrature, "transfer_f12", one_nan)
        with pytest.raises(ToleranceNotMetError) as excinfo:
            heat_exact(circuit, baths, mode)
        assert math.isnan(excinfo.value.value)

    @pytest.mark.parametrize("temperatures", [(2.0, 1.0), (1.0, 1.0 + 1e-6), (50.0, 10.0)])
    def test_tail_bound_covers_the_tail(self, circuit, temperatures, monkeypatch):
        # a cut at ~10 omega_th leaves a tail above the tolerance: the estimate
        # must cover what the cut discards, and stay within a small factor of
        # it near equilibrium too, where a bound by the hotter bath's
        # occupation alone read 7e4 times the discarded tail; the grid rounds
        # 6 max(omega_th, |lambda_minus|) up to 10.8, 10 and 9.3 omega_th here
        b = BathPair.from_temperatures(*temperatures)
        full = heat_exact(circuit, b)
        monkeypatch.setattr(quadrature, "TAIL_CUT_MULTIPLIER", 6.0)
        with pytest.raises(ToleranceNotMetError) as excinfo:
            heat_exact(circuit, b)
        discarded = abs(excinfo.value.value - full)
        assert discarded <= excinfo.value.estimate <= 3.0 * discarded

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


def lorentzian(centre, width):
    return lambda x: 1.0 / (width * width + (x - centre) ** 2)


# One-signed integrands on spans that one qk21 round cannot resolve, with the
# points where mpmath must split its own quadrature.
COARSE_PANEL_CASES = {
    "narrow_lorentzian": (lorentzian(0.3, 1e-2), (0.0, 1.0), (0.3,)),
    "gamma_shape": (lambda x: x**3 * np.exp(-x), (0.0, 40.0), (3.0,)),
    "quartic_tail": (lambda x: 1.0 / (1.0 + x**4), (0.0, 1e3), (1.0, 10.0, 100.0)),
    "lorentzian_pair": (
        lambda x: lorentzian(0.3, 1e-2)(x) * lorentzian(0.7, 3e-2)(x),
        (0.0, 1.0),
        (0.3, 0.7),
    ),
}


class TestIntegratePanels:
    @pytest.mark.parametrize("case", sorted(COARSE_PANEL_CASES))
    def test_meets_its_budget_from_coarse_panels(self, case):
        # the loop's budget is 0.05 REL_TOL |total|, the share heat_exact
        # leaves for the interval errors; a looser budget stops early
        f, (a, b), kinks = COARSE_PANEL_CASES[case]
        lo, hi = np.array([a]), np.array([b])
        with np.errstate(divide="ignore", invalid="ignore"):
            first = f(quadrature._kronrod_nodes(lo, hi)[1])
            total, estimate = quadrature._integrate_panels(f, lo, hi, first)
        assert estimate <= 0.05 * quadrature.REL_TOL * abs(total)
        with mpmath.workdps(30):
            exact = float(mpmath.quad(lambda x: f(float(x)), [a, *kinks, b]))
        assert total == pytest.approx(exact, rel=quadrature.REL_TOL)


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

    def test_matches_closed_form(self):
        # the paper's lambda_pm-digamma blocks, at M/L where they do not cancel
        for M, (T1, T2) in itertools.product(
            (1.0, 1.98), ((2.0, 1.0), (0.01, 0.005), (1e-3, 1e-6), (50.0, 10.0))
        ):
            p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=M, omega_c=5.0)
            b = BathPair.from_temperatures(T1, T2)
            expected = heat_quantum_blocks(p, b)
            value = quantum_integral(p, b, LINEAR)
            assert abs(value - expected) <= 1e-9 * abs(expected), (M, T1, T2)

    @pytest.mark.parametrize("mode, expected", [(CUBIC, 8), (LINEAR, 4)])
    def test_one_digamma_pair_per_conjugate_pair(self, circuit, baths, mode, expected, monkeypatch):
        # each cubic has a real root and a conjugate pair: the pair's lower
        # residue is the conjugate of the upper one, so 4 nodes, not 6; the
        # linear mode has 2 real roots
        calls = counting(monkeypatch, quadrature, "_digamma_array")
        quantum_integral(circuit, baths, mode)
        ((args, _),) = calls  # one kernel call, both baths' arguments at each node
        assert args[0].shape == (2, expected // 2)

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

    def test_bench_reference_points_against_mpmath_sum_of_the_nodes(self):
        # the kernel and the fsum alone: the record's own nodes, weights and
        # K, summed with 40-digit digammas; 6.0e-12 with scalar digammas and
        # a running complex sum, 1.1e-11 with the kernel
        path = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
        points = json.loads(path.read_text(encoding="utf-8"))["tscan_split"]
        assert len(points) == 36
        worst = 0.0
        for point in points:
            p = CircuitParams(**point["circuit"])
            b = BathPair.from_temperatures(point["T1"], point["T2"], p.kb)
            mode = TransferMode(point["mode"])
            solve = quadrature._residue_record(p, mode)
            c1, c2 = (mpmath.mpf(c) for c in quadrature._digamma_rates(p, b))
            with mpmath.workdps(40):
                total = mpmath.fsum(
                    mpmath.mpc(w) * (mpmath.digamma(1 - c2 * mpmath.mpc(s))
                                     - mpmath.digamma(1 - c1 * mpmath.mpc(s))
                                     - mpmath.log(c2 / c1))
                    for s, w in zip(solve.s, solve.weight)
                )
                expected = float(mpmath.mpf(p.hbar) * mpmath.mpf(solve.K) * total.real)
            worst = max(worst, abs(quantum_integral(p, b, mode) - expected) / abs(expected))
        assert worst <= 2e-11

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


def clear_caches():
    """Empty the per-circuit records and the panel grids that `heat_exact` holds."""
    quadrature._circuit_solve.cache_clear()
    quadrature._panel_grid.cache_clear()


@pytest.fixture
def fresh_solve():
    """Empty the per-circuit caches before and after the test, so that a test
    which patches a part of the circuit solve neither reads nor leaves a record."""
    clear_caches()
    yield
    clear_caches()


def finite_or_names_omega_c(call):
    """The value of call(), which must be finite unless it raises an
    ArithmeticError whose message names omega_c; None when it raises."""
    try:
        value = call()
    except ArithmeticError as error:
        assert "omega_c" in str(error), repr(error)
        return None
    assert np.all(np.isfinite(value)), value
    return value


class TestHugeCutoff:
    # on the reference circuit the fast pole's residue weight overflows from
    # omega_c ~ 4e52, omega_c^4 from ~1.3e77, its s^3 from ~1e103 and f12's
    # omega_c^2 from ~1.3e154: the quantum integral was nan, and omega_c**4
    # and s**3 bare OverflowErrors
    @pytest.mark.parametrize("omega_c", [1e55, 1e80, 1e120, 1e300])
    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_finite_or_a_typed_error_naming_omega_c(self, circuit, baths, omega_c, mode):
        p = dataclasses.replace(circuit, omega_c=omega_c)
        for call in (
            lambda: classical_integral(p, mode),
            lambda: quantum_integral(p, baths, mode),
            lambda: transfer_f12(np.array([1e-3, 1.0, 1e3]), p, mode),
            lambda: transfer_f12(1.0, p, mode),
        ):
            finite_or_names_omega_c(call)
        total = finite_or_names_omega_c(lambda: heat_exact(p, baths, mode))
        if omega_c < 1e154:  # below f12's overflow the current is the omega_c -> inf one
            limit = heat_exact(dataclasses.replace(circuit, omega_c=1e20), baths, mode)
            assert total == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("omega_c", [1e55, 1e80, 1e300])
    @pytest.mark.parametrize("method", list(Method))
    def test_reports_are_finite_or_a_typed_error(self, circuit, baths, omega_c, method):
        p = dataclasses.replace(circuit, omega_c=omega_c)

        def columns():
            report = assemble_report(p, baths, method)
            return [report.q_classical, report.q_quantum, report.q_total]

        finite_or_names_omega_c(columns)


def linear_classical_formula(mp, p):
    """(1/2)(M/L)^2 (omega_c/(omega_c + omega_d)) lambda_+ lambda_-/omega_d, the
    integral of the linearized f12, at the working precision of `mp`."""
    R, L, M, wc = (mp.mpf(v) for v in (p.R, p.L, p.M, p.omega_c))
    wp, wm, wd = R / (L + M), R / (L - M), R / L
    lam_p, lam_m = -wc * wp / (wc + wp), -wc * wm / (wc + wm)
    return (M / L) ** 2 * (wc / (wc + wd)) * lam_p * lam_m / wd / 2


def linear_heat_quad(mp, p, b):
    """The heat current of the linearized f12 by mpmath.quad of
    (hbar/2) Int_0^inf omega f12 [coth(beta1 hbar omega/2) - coth(beta2 hbar omega/2)],
    at the working precision of `mp`, split at the pole moduli and the thermal scales."""
    R, L, M, wc, hbar = (mp.mpf(v) for v in (p.R, p.L, p.M, p.omega_c, p.hbar))
    beta1, beta2 = mp.mpf(b.beta1), mp.mpf(b.beta2)
    wp, wm = R / (L + M), R / (L - M)
    scale = (2 / mp.pi) * wc**4 * (R * M / ((L - M) * (L + M))) ** 2

    def integrand(w):
        u_plus, u_minus = ((v * wc) ** 2 + (w * (v + wc)) ** 2 for v in (wp, wm))
        thermal = mp.coth(beta1 * hbar * w / 2) - mp.coth(beta2 * hbar * w / 2)
        return scale * w**3 / (u_plus * u_minus) * thermal

    scales = {wc * v / (wc + v) for v in (wp, wm)} | {1 / (beta * hbar) for beta in (beta1, beta2)}
    edges = sorted(scales)
    return hbar / 2 * mp.quad(integrand, [0] + edges + [10 * edges[-1], 100 * edges[-1], mp.inf])


def cubic_heat_quad(mp, p, b):
    """`linear_heat_quad` of the full cubic f12, with |u(i omega)|^2 =
    (omega_c (omega_pm - RC omega^2))^2 + (omega (omega_pm + omega_c - RC omega^2))^2,
    split at the moduli of its poles and the thermal scales."""
    R, L, M, C, wc, hbar = (mp.mpf(v) for v in (p.R, p.L, p.M, p.C, p.omega_c, p.hbar))
    beta1, beta2 = mp.mpf(b.beta1), mp.mpf(b.beta2)
    rc = R * C
    wp, wm = R / (L + M), R / (L - M)
    scale = (2 / mp.pi) * wc**4 * (R * M / ((L - M) * (L + M))) ** 2

    def integrand(w):
        u_plus, u_minus = (
            (wc * (v - rc * w * w)) ** 2 + (w * (v + wc - rc * w * w)) ** 2 for v in (wp, wm)
        )
        thermal = mp.coth(beta1 * hbar * w / 2) - mp.coth(beta2 * hbar * w / 2)
        return scale * w**3 / (u_plus * u_minus) * thermal

    poles = {
        abs(s)
        for v in (wp, wm)
        for s in mp.polyroots([rc, rc * wc, v + wc, v * wc], maxsteps=200, extraprec=200)
    }
    edges = sorted(poles | {1 / (beta * hbar) for beta in (beta1, beta2)})
    return hbar / 2 * mp.quad(integrand, [0] + edges + [10 * edges[-1], 100 * edges[-1], mp.inf])


class TestInductancesNearlyEqual:
    # A = L^2 - M^2 formed as a difference of squares lost ~1e-16 L^2/A
    # relative: 2.2e-11 (M/L = 0.999999) and 1.0e-9 (1 - 1e-9) in both checks
    @staticmethod
    def point(m_over_l):
        p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=2.0 * m_over_l, omega_c=5.0)
        return p, BathPair.from_temperatures(2.0, 1.0)

    @pytest.mark.parametrize("m_over_l", [0.999999, 1.0 - 1e-9])
    def test_classical_integral_meets_the_closed_formula(self, m_over_l):
        p, _ = self.point(m_over_l)
        with mpmath.mp.workdps(40):
            expected = linear_classical_formula(mpmath.mp, p)
            assert abs(classical_integral(p, LINEAR) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("m_over_l", [0.999999, 1.0 - 1e-9])
    def test_heat_exact_meets_mpmath_quad(self, m_over_l):
        p, b = self.point(m_over_l)
        with mpmath.mp.workdps(40):
            expected = linear_heat_quad(mpmath.mp, p, b)
            assert abs(heat_exact(p, b, LINEAR) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("m_over_l", [0.999999, 1.0 - 1e-9])
    def test_split_meets_mpmath_quad(self, m_over_l):
        # 1.7e-17 and 2.9e-15; with the residue slope's s + omega_c formed by
        # subtraction at the linear root near -omega_c, 4.9e-12 and 1.4e-8
        p, b = self.point(m_over_l)
        split = p.kb * (b.T1 - b.T2) * classical_integral(p, LINEAR) + quantum_integral(
            p, b, LINEAR
        )
        with mpmath.mp.workdps(40):
            expected = linear_heat_quad(mpmath.mp, p, b)
            assert abs(split - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("m_over_l", [0.999999, 1.0 - 1e-9])
    def test_cubic_split_meets_mpmath_quad(self, m_over_l):
        # 2.1e-14 and 2.9e-14; with the residue weight's s + omega_c formed by
        # subtraction at the cubic root near -omega_c, 1.5e-11 and 1.4e-8, and
        # with u(-s) formed at the lightly damped pair, 2.3e-14 and 9.7e-13
        p, b = self.point(m_over_l)
        split = p.kb * (b.T1 - b.T2) * classical_integral(p, CUBIC) + quantum_integral(
            p, b, CUBIC
        )
        with mpmath.mp.workdps(40):
            expected = cubic_heat_quad(mpmath.mp, p, b)
            assert abs(split - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("m_over_l", [0.99, 0.999999, 1.0 - 1e-9])
    def test_cubic_residue_weights_meet_mpmath(self, m_over_l):
        # every weight within 4e-16; the lightly damped pair of u_minus was
        # 4.0e-13, 1.4e-8 and 7.5e-3 off with u(-s) formed by Horner at -s
        p, b = self.point(m_over_l)
        solve = quadrature._circuit_solve(p, CUBIC)
        with mpmath.mp.workdps(50):
            _, _, _, residues = quantum_residues(mpmath.mp, p, b, CUBIC)
            for s, weight in zip(solve.s, solve.weight):
                _, expected = min(residues, key=lambda r: abs(r[0] - s))
                # the upper root of a conjugate pair carries both residues
                expected *= 2 if s.imag > 0.0 else 1
                assert abs(weight - expected) <= 4e-15 * abs(expected)


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

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_fresh_circuit_builds_its_scales_once(self, mode, monkeypatch, fresh_solve):
        # the circuit builds its scales, which the solve and its mode polynomials read
        built = counting(monkeypatch, model, "DerivedScales")
        classical_integral(CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0), mode)
        assert len(built) == 1

    @pytest.mark.parametrize("mode", [LINEAR, CUBIC])
    def test_solved_circuit_derives_nothing_again(self, circuit, mode, monkeypatch):
        # the record keeps the mode polynomials and the circuit its scales: on a
        # solved circuit no temperature and no f12 call builds either again
        classical_integral(circuit, mode)
        calls = [
            counting(monkeypatch, quadrature, "mode_polynomials"),
            counting(monkeypatch, model, "DerivedScales"),
        ]
        for T1 in np.geomspace(1e-2, 1e2, 9):
            b = BathPair.from_temperatures(T1, 0.5 * T1)
            classical_integral(circuit, mode)
            quantum_integral(circuit, b, mode)
            heat_exact(circuit, b, mode)
            transfer_f12(T1, circuit, mode)
        assert calls == [[], []]

    def test_heat_exact_derives_the_scales_once(self, baths, monkeypatch, fresh_solve):
        # the circuit builds its scales, which the solve and every call read
        built = counting(monkeypatch, model, "DerivedScales")
        circuit = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0)
        heat_exact(circuit, baths)
        heat_exact(circuit, BathPair.from_temperatures(5.0, 1.0))
        assert len(built) == 1

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

        clear_caches()
        cached = values()
        fresh = []
        for b in baths:
            for f in (quantum_integral, heat_exact):
                clear_caches()
                fresh.append(f(p, b, mode))
        clear_caches()
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
        info = quadrature._circuit_solve.cache_info()
        assert info.maxsize == quadrature._CACHE_SIZE
        assert 0 < info.currsize <= info.maxsize

    def test_fig2_fits_the_caches(self, fresh_solve):
        # fig2 cycles 20 circuits in both transfer modes, ExactQuadrature and
        # ClosedForm: a second pass must find every (circuit, mode) cached
        run_preset("fig2")
        misses = quadrature._circuit_solve.cache_info().misses
        run_preset("fig2")
        assert quadrature._circuit_solve.cache_info().misses == misses

    def test_cluster_failure_leaves_the_classical_integral(self, circuit, baths, monkeypatch, fresh_solve):
        expected = classical_integral(circuit)
        quadrature._circuit_solve.cache_clear()
        # one group of all six roots: its spread exceeds its distance from the axis
        monkeypatch.setattr(quadrature, "_clusters", lambda roots: [list(range(len(roots)))])
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="reaches the imaginary axis"):
                quantum_integral(circuit, baths)
        assert [classical_integral(circuit) for _ in range(2)] == [expected, expected]
