import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    RegimeTag,
    TransferMode,
    assemble_report,
    classical_integral,
    derive_scales,
    heat_classical,
    heat_exact,
    heat_low_temp,
    heat_quantum,
    quantum_integral,
)
from overheat import quadrature
from overheat.closedform import _quantum_log_term
from response_reference import heat_quantum_high_temp
from test_quadrature import mpmath_quantum_integral

LINEAR = TransferMode.OVERDAMPED_LINEAR

# M/L of the closed-form accuracy grid.  heat_quantum subtracts the two
# digamma mode blocks, which nearly cancel when lambda_+ and lambda_- nearly
# coincide; at M/L <= 1e-2 and low temperature the difference loses digits
# (1.5e-7 at M/L = 1e-4, 2.6e-9 at 1e-2), while the residue sum of the same
# function stays below 5e-10.
GRID_RATIOS = (1e-4, 1e-2, 0.5, 0.99)
CANCELS = pytest.mark.xfail(
    strict=True, reason="closed-form digamma blocks cancel at small M/L"
)
CLOSED_FORM_RATIOS = [
    pytest.param(r, marks=CANCELS) if r <= 1e-2 else r for r in GRID_RATIOS
]


def at_temperatures(T1, T2):
    return BathPair.from_temperatures(T1, T2)


@functools.cache
def linear_accuracy_grid(m_over_l):
    """(circuit, baths, k_b dT classical, 50-digit quantum) at one M/L.

    48 points of the grid R in {2, 30}, L in {0.5, 2}, omega_c in {0.3, 5, 1e3}
    and (T1, T2) in {(2, 1), (0.01, 0.005), (1e-3, 1e-6), (50, 10)}, all on the
    linearized transfer function the closed forms evaluate.
    """
    points = []
    for R, L, wc, (T1, T2) in itertools.product(
        (2.0, 30.0),
        (0.5, 2.0),
        (0.3, 5.0, 1e3),
        ((2.0, 1.0), (0.01, 0.005), (1e-3, 1e-6), (50.0, 10.0)),
    ):
        p = CircuitParams(R=R, L=L, C=5e-5, M=m_over_l * L, omega_c=wc)
        b = at_temperatures(T1, T2)
        classical = p.kb * (T1 - T2) * classical_integral(p, LINEAR)
        points.append((p, b, classical, mpmath_quantum_integral(mpmath.mp, p, b, LINEAR)))
    return tuple(points)


def worst_quantum_error(m_over_l, route):
    """Largest |route(p, b) - oracle| over |k_b dT classical| + |oracle| at one M/L."""
    return max(
        abs(route(p, b) - oracle) / (abs(classical) + abs(oracle))
        for p, b, classical, oracle in linear_accuracy_grid(m_over_l)
    )


def high_temp_total(p, s, b):
    return assemble_report(p, s, b, Method.HIGH_TEMP_ASYMPTOTIC).q_total


class TestHeatClassical:
    def test_equilibrium_is_zero(self, circuit, scales):
        assert heat_classical(circuit, scales, at_temperatures(1.5, 1.5)) == 0.0

    def test_reference_value(self, circuit, scales, baths):
        expected = 0.5 * 0.25 * (5.0 / 6.0) * (100.0 / 119.0)
        assert heat_classical(circuit, scales, baths) == pytest.approx(
            expected, rel=1e-14
        )

    def test_markovian_limit(self, baths):
        p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=1e12)
        s = derive_scales(p)
        markovian = 0.5 * 1.0 * 0.25 * s.omega_plus * s.omega_minus / s.omega_d
        assert heat_classical(p, s, baths) == pytest.approx(markovian, rel=1e-10)

    @pytest.mark.parametrize("m_over_l", GRID_RATIOS)
    def test_matches_classical_integral(self, m_over_l):
        # the exact rational integral of the same linearized function
        for p, b, classical, _ in linear_accuracy_grid(m_over_l):
            value = heat_classical(p, derive_scales(p), b)
            assert value == pytest.approx(classical, rel=1e-13)

    def test_cutoff_monotonicity(self, baths):
        values = []
        for wc in np.geomspace(0.1, 1e4, 30):
            p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=float(wc))
            values.append(heat_classical(p, derive_scales(p), baths))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestHeatQuantum:
    def test_equilibrium_is_exactly_zero(self, circuit, scales):
        assert heat_quantum(circuit, scales, at_temperatures(2.0, 2.0)) == 0.0

    def test_antisymmetry(self, circuit, scales):
        rng = np.random.default_rng(89)
        for _ in range(20):
            T1, T2 = (float(v) for v in np.exp(rng.uniform(-3, 3, size=2)))
            forward = heat_quantum(circuit, scales, at_temperatures(T1, T2))
            backward = heat_quantum(circuit, scales, at_temperatures(T2, T1))
            assert backward == pytest.approx(-forward, rel=1e-12)

    @pytest.mark.parametrize("m_over_l", CLOSED_FORM_RATIOS)
    def test_matches_quadrature(self, m_over_l):
        # against a 50-digit residue sum of the same linearized function
        def closed_form(p, b):
            return heat_quantum(p, derive_scales(p), b)

        assert worst_quantum_error(m_over_l, closed_form) <= 1e-9

    @pytest.mark.parametrize("m_over_l", GRID_RATIOS)
    def test_linear_residue_sum_matches_oracle(self, m_over_l):
        # the library's residue route to the same split meets the bound everywhere
        def residue_sum(p, b):
            return quantum_integral(p, b, LINEAR)

        assert worst_quantum_error(m_over_l, residue_sum) <= 1e-9

    def test_reduces_classical_flow(self, circuit, scales, baths):
        assert heat_quantum(circuit, scales, baths) < 0.0

    def test_extreme_ratio_finite(self, circuit, scales):
        # log evaluated as difference of logs for extreme temperature ratios
        b = at_temperatures(1e-150, 1e150)
        value = heat_quantum(circuit, scales, b)
        assert math.isfinite(value)
        assert value > 0.0  # bath 2 vastly hotter drives heat backward


class TestHeatLowTemp:
    def test_equilibrium_is_zero(self, circuit):
        assert heat_low_temp(circuit, at_temperatures(0.01, 0.01)) == 0.0

    def test_quartic_scaling(self, circuit):
        base = heat_low_temp(circuit, at_temperatures(0.02, 0.01))
        doubled = heat_low_temp(circuit, at_temperatures(0.04, 0.02))
        assert doubled == pytest.approx(16.0 * base, rel=1e-12)

    def test_cutoff_independence(self, baths):
        values = []
        for wc in (0.5, 5.0, 5e3):
            p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=wc)
            values.append(heat_low_temp(p, at_temperatures(0.02, 0.01)))
        assert values[0] == values[1] == values[2]

    def test_matches_closed_total_at_low_temperature(self, circuit, scales):
        T1 = 0.01 * scales.omega_plus
        b = at_temperatures(T1, T1 / 2.0)
        closed = heat_classical(circuit, scales, b) + heat_quantum(circuit, scales, b)
        assert heat_low_temp(circuit, b) == pytest.approx(closed, rel=5e-2)

    def test_asymptotic_matching_improves(self, circuit, scales):
        # closed total / T^4 law -> 1 as both temperatures shrink at fixed ratio
        errors = []
        for frac in (0.3, 0.1, 0.03, 0.01):
            T1 = frac * abs(scales.lambda_plus)
            b = at_temperatures(T1, T1 / 2.0)
            closed = heat_classical(circuit, scales, b) + heat_quantum(
                circuit, scales, b
            )
            errors.append(abs(closed / heat_low_temp(circuit, b) - 1.0))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 5e-3


class TestHeatQuantumHighTemp:
    def test_equilibrium_is_zero(self, circuit, scales):
        assert heat_quantum_high_temp(circuit, scales, at_temperatures(40.0, 40.0)) == 0.0

    def test_matches_heat_quantum_at_high_temperature(self, circuit, scales):
        # omega_th = 1e3*|lambda_minus|: remainder is far below the log term
        T2 = 1e3 * abs(scales.lambda_minus)
        b = at_temperatures(T2 / 2.0, T2)
        log_term = _quantum_log_term(circuit, scales, b)
        diff = heat_quantum(circuit, scales, b) - heat_quantum_high_temp(
            circuit, scales, b
        )
        assert abs(diff) <= 1e-4 * abs(log_term)

    def test_log_growth_with_hot_second_bath(self, circuit, scales):
        # the dominant term grows like log(T2/T1): the quantum correction
        # survives at high temperature instead of vanishing
        coeff = (
            (circuit.hbar / math.pi)
            * (circuit.M / circuit.L) ** 2
            * (scales.lambda_plus * scales.lambda_minus / scales.omega_d) ** 2
        )
        previous = 0.0
        gaps = []
        for T2 in (1e2, 1e4, 1e6):
            value = heat_quantum_high_temp(circuit, scales, at_temperatures(2.0, T2))
            assert value > previous
            log_term = coeff * math.log(T2 / 2.0)
            gaps.append(abs(value - log_term) / log_term)
            previous = value
        # the fixed cold bath leaves a constant 1/T1 offset, so the log term
        # dominates only asymptotically
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-2

    def test_high_matching_correction_term(self, circuit, scales):
        # heat_quantum - log-term approaches the 1/T correction, then -> 0
        diffs = []
        for T1 in (10.0, 100.0, 1000.0):
            b = at_temperatures(T1, T1 / 2.0)
            diff = heat_quantum(circuit, scales, b) - _quantum_log_term(
                circuit, scales, b
            )
            corr = heat_quantum_high_temp(circuit, scales, b) - _quantum_log_term(
                circuit, scales, b
            )
            if T1 >= 100.0:
                assert diff == pytest.approx(corr, rel=2e-2)
            diffs.append(abs(diff))
        assert diffs[0] > diffs[1] > diffs[2]


class TestHeatHighTempTotal:
    def test_equilibrium_is_zero(self, circuit, scales):
        assert high_temp_total(circuit, scales, at_temperatures(7.0, 7.0)) == 0.0

    def test_near_closed_total_at_high_temperature(self, circuit, scales):
        b = at_temperatures(200.0, 100.0)
        closed = heat_classical(circuit, scales, b) + heat_quantum(circuit, scales, b)
        correction = heat_quantum_high_temp(circuit, scales, b) - _quantum_log_term(
            circuit, scales, b
        )
        gap = abs(high_temp_total(circuit, scales, b) - closed)
        assert gap <= 1.05 * abs(correction)

    def test_antisymmetry_of_every_method_total(self, circuit, scales):
        T1, T2 = 3.0, 1.2
        b = at_temperatures(T1, T2)
        r = at_temperatures(T2, T1)
        pairs = [
            (
                heat_classical(circuit, scales, b) + heat_quantum(circuit, scales, b),
                heat_classical(circuit, scales, r) + heat_quantum(circuit, scales, r),
            ),
            (heat_low_temp(circuit, b), heat_low_temp(circuit, r)),
            (
                high_temp_total(circuit, scales, b),
                high_temp_total(circuit, scales, r),
            ),
        ]
        for forward, backward in pairs:
            assert backward == pytest.approx(-forward, rel=1e-12)


class TestAssembleReport:
    def test_closed_form_equilibrium_clean(self, circuit, scales):
        b = at_temperatures(0.01, 0.01)  # low row, comfortably overdamped
        report = assemble_report(circuit, scales, b, Method.CLOSED_FORM)
        assert report.q_classical == 0.0
        assert report.q_quantum == 0.0
        assert report.q_total == 0.0
        assert report.regime.tag is RegimeTag.LOW_T
        assert report.validity_warnings == ()

    def test_closed_form_additivity_exact(self, circuit, scales, baths):
        report = assemble_report(circuit, scales, baths, Method.CLOSED_FORM)
        assert report.q_total == report.q_classical + report.q_quantum

    def test_outside_overdamped_warns(self):
        p = CircuitParams(R=2.0, L=2.0, C=0.25, M=1.0, omega_c=5.0)  # gamma = 2
        s = derive_scales(p)
        b = at_temperatures(100.0, 50.0)
        report = assemble_report(p, s, b, Method.CLOSED_FORM)
        assert report.regime.tag is RegimeTag.OUTSIDE_OVERDAMPED
        assert report.validity_warnings

    def test_low_temp_marginal_warning(self, circuit, scales):
        b = at_temperatures(5.0, 2.5)  # omega_th well above |lambda_pm|
        report = assemble_report(circuit, scales, b, Method.LOW_TEMP_ASYMPTOTIC)
        assert any("marginal" in w for w in report.validity_warnings)
        assert report.q_total == heat_low_temp(circuit, b)

    def test_high_temp_split(self, circuit, scales, baths):
        report = assemble_report(circuit, scales, baths, Method.HIGH_TEMP_ASYMPTOTIC)
        assert report.q_classical == heat_classical(circuit, scales, baths)
        assert report.q_quantum == _quantum_log_term(circuit, scales, baths)
        assert report.q_total == report.q_classical + report.q_quantum

    def test_exact_quadrature_report(self, circuit, scales, baths):
        report = assemble_report(circuit, scales, baths, Method.EXACT_QUADRATURE)
        direct = heat_exact(circuit, baths)
        assert report.q_total == pytest.approx(direct, rel=1e-12)
        split_sum = report.q_classical + report.q_quantum
        assert split_sum == pytest.approx(report.q_total, rel=1e-12)
        assert report.validity_warnings == ()

    def test_exact_quadrature_is_the_exact_split(
        self, circuit, scales, baths, monkeypatch
    ):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(quadrature, "_integrate_panels", no_quadrature)
        cubic = TransferMode.EXACT_CUBIC
        report = assemble_report(circuit, scales, baths, Method.EXACT_QUADRATURE)
        dT = baths.T1 - baths.T2
        assert report.q_classical == circuit.kb * dT * classical_integral(circuit, cubic)
        assert report.q_quantum == quantum_integral(circuit, baths, cubic)
        assert report.q_total == report.q_classical + report.q_quantum
        assert report.validity_warnings == ()
