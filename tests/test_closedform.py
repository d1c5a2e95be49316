import functools
import itertools
import math
import re

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
    heat_classical,
    heat_exact,
    heat_low_temp,
    heat_quantum,
    quantum_integral,
)
from overheat import closedform, quadrature
from overheat.closedform import _quantum_log_term
from response_reference import (
    heat_classical_formula,
    heat_quantum_high_temp,
    quantum_log_term_formula,
)
from test_quadrature import mpmath_quantum_integral

LINEAR = TransferMode.OVERDAMPED_LINEAR
CUBIC = TransferMode.EXACT_CUBIC

# M/L of the closed-form accuracy grid.  lambda_+ and lambda_- nearly
# coincide at small M/L, where the paper's two digamma mode blocks cancel
# (3.1e-7 of |quantum| at M/L = 1e-4, 5.2e-9 at 1e-2); heat_quantum is the
# residue sum of the same function, which sums the two poles on one contour
# and stays below 1e-9 of |quantum| on the whole grid (7.7e-10 at M/L = 0.99).
GRID_RATIOS = (1e-4, 1e-2, 0.5, 0.99)


def at_temperatures(T1, T2):
    return BathPair.from_temperatures(T1, T2)


def grid_points(m_over_l):
    """The 48 (circuit, baths) of the grid R in {2, 30}, L in {0.5, 2},
    omega_c in {0.3, 5, 1e3} and (T1, T2) in {(2, 1), (0.01, 0.005),
    (1e-3, 1e-6), (50, 10)} at one M/L."""
    for R, L, wc, (T1, T2) in itertools.product(
        (2.0, 30.0),
        (0.5, 2.0),
        (0.3, 5.0, 1e3),
        ((2.0, 1.0), (0.01, 0.005), (1e-3, 1e-6), (50.0, 10.0)),
    ):
        yield CircuitParams(R=R, L=L, C=5e-5, M=m_over_l * L, omega_c=wc), at_temperatures(T1, T2)


@functools.cache
def linear_accuracy_grid(m_over_l):
    """(circuit, baths, k_b dT classical, 50-digit quantum) at the points of
    `grid_points`, all on the linearized transfer function the closed forms
    evaluate."""
    return tuple(
        (p, b, p.kb * (b.T1 - b.T2) * classical_integral(p, LINEAR),
         mpmath_quantum_integral(mpmath.mp, p, b, LINEAR))
        for p, b in grid_points(m_over_l)
    )


def worst_quantum_error(m_over_l, route):
    """Largest |route(p, b) - oracle| over |oracle| at one M/L."""
    return max(
        abs(route(p, b) - oracle) / abs(oracle)
        for p, b, _, oracle in linear_accuracy_grid(m_over_l)
    )


def high_temp_total(p, b):
    return assemble_report(p, b, Method.HIGH_TEMP_ASYMPTOTIC).q_total


class TestHeatClassical:
    def test_equilibrium_is_zero(self, circuit):
        assert heat_classical(circuit, at_temperatures(1.5, 1.5)) == 0.0

    def test_reference_value(self, circuit, baths):
        expected = 0.5 * 0.25 * (5.0 / 6.0) * (100.0 / 119.0)
        assert heat_classical(circuit, baths) == pytest.approx(
            expected, rel=1e-14
        )

    def test_markovian_limit(self, baths):
        p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=1e12)
        s = p.scales
        markovian = 0.5 * 1.0 * 0.25 * s.omega_plus * s.omega_minus / s.omega_d
        assert heat_classical(p, baths) == pytest.approx(markovian, rel=1e-10)

    @pytest.mark.parametrize("m_over_l", GRID_RATIOS)
    def test_matches_classical_integral(self, m_over_l):
        # heat_classical is k_b dT times the exact rational integral of the
        # linearized function; the paper's closed formula is its oracle
        for p, b, _, _ in linear_accuracy_grid(m_over_l):
            value = heat_classical(p, b)
            oracle = heat_classical_formula(p, b)
            assert abs(value - oracle) <= 1e-13 * abs(oracle)

    def test_cutoff_monotonicity(self, baths):
        values = []
        for wc in np.geomspace(0.1, 1e4, 30):
            p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=float(wc))
            values.append(heat_classical(p, baths))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestHeatQuantum:
    def test_equilibrium_is_exactly_zero(self, circuit):
        assert heat_quantum(circuit, at_temperatures(2.0, 2.0)) == 0.0

    def test_antisymmetry(self, circuit):
        rng = np.random.default_rng(89)
        for _ in range(20):
            T1, T2 = (float(v) for v in np.exp(rng.uniform(-3, 3, size=2)))
            forward = heat_quantum(circuit, at_temperatures(T1, T2))
            backward = heat_quantum(circuit, at_temperatures(T2, T1))
            assert backward == pytest.approx(-forward, rel=1e-12)

    @pytest.mark.parametrize("m_over_l", GRID_RATIOS)
    def test_matches_quadrature(self, m_over_l):
        # against a 50-digit residue sum of the same linearized function
        def closed_form(p, b):
            return heat_quantum(p, b)

        assert worst_quantum_error(m_over_l, closed_form) <= 1e-9

    @pytest.mark.parametrize("m_over_l", GRID_RATIOS)
    def test_linear_residue_sum_matches_oracle(self, m_over_l):
        # the ClosedForm report carries the linear residue sum to its quantum
        # column unchanged, on the whole grid
        def report_quantum(p, b):
            return assemble_report(p, b, Method.CLOSED_FORM).q_quantum

        assert worst_quantum_error(m_over_l, report_quantum) <= 1e-9

    def test_reduces_classical_flow(self, circuit, baths):
        assert heat_quantum(circuit, baths) < 0.0

    def test_extreme_ratio_finite(self, circuit):
        # log evaluated as difference of logs for extreme temperature ratios
        b = at_temperatures(1e-150, 1e150)
        value = heat_quantum(circuit, b)
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
        closed = heat_classical(circuit, b) + heat_quantum(circuit, b)
        assert heat_low_temp(circuit, b) == pytest.approx(closed, rel=5e-2)

    def test_asymptotic_matching_improves(self, circuit, scales):
        # closed total / T^4 law -> 1 as both temperatures shrink at fixed ratio
        errors = []
        for frac in (0.3, 0.1, 0.03, 0.01):
            T1 = frac * abs(scales.lambda_plus)
            b = at_temperatures(T1, T1 / 2.0)
            closed = heat_classical(circuit, b) + heat_quantum(circuit, b)
            errors.append(abs(closed / heat_low_temp(circuit, b) - 1.0))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 5e-3

    @pytest.mark.parametrize("T1, T2, name", [(1e100, 1.0, "T1"), (2.0, 1e78, "T2")])
    def test_overflow_names_the_hot_bath(self, circuit, T1, T2, name):
        # T^4 is past the largest float from T ~ 1.2e77
        b = at_temperatures(T1, T2)
        with pytest.raises(OverflowError, match=rf"{name}\^4 overflows .* at {name} = "):
            heat_low_temp(circuit, b)
        with pytest.raises(OverflowError, match=rf"at {name} = "):
            assemble_report(circuit, b, Method.LOW_TEMP_ASYMPTOTIC)

    @pytest.mark.parametrize("fields, named", [
        # omega_d^2 underflows to 0: a bare ZeroDivisionError
        (dict(R=1e-170), "omega_d = 1e-170, hbar = 1.0"),
        # k_b^4/omega_d^2 overflows: inf, which `heat eval` printed with exit 0
        (dict(R=1e-160), "omega_d = 1e-160, hbar = 1.0"),
        # (pi/hbar)^3 overflows: OverflowError(34, 'Numerical result out of range')
        (dict(R=1.0, hbar=1e-110), "omega_d = 1.0, hbar = 1e-110"),
    ], ids=["omega_d_squared_underflows", "value_overflows", "hbar_cubed_overflows"])
    def test_overflow_names_omega_d_and_hbar(self, fields, named):
        p = CircuitParams(**{**dict(L=1.0, C=1.0, M=0.5, omega_c=1.0), **fields})
        b = at_temperatures(2.0, 1.0)
        with pytest.raises(OverflowError, match=re.escape(f"the T^4 law overflows at {named}")):
            heat_low_temp(p, b)
        with pytest.raises(OverflowError, match=re.escape(named)):
            assemble_report(p, b, Method.LOW_TEMP_ASYMPTOTIC)


class TestHeatQuantumHighTemp:
    def test_equilibrium_is_zero(self, circuit):
        assert heat_quantum_high_temp(circuit, at_temperatures(40.0, 40.0)) == 0.0

    def test_matches_heat_quantum_at_high_temperature(self, circuit, scales):
        # omega_th = 1e3*|lambda_minus|: remainder is far below the log term
        T2 = 1e3 * abs(scales.lambda_minus)
        b = at_temperatures(T2 / 2.0, T2)
        log_term = _quantum_log_term(circuit, b)
        diff = heat_quantum(circuit, b) - heat_quantum_high_temp(circuit, b)
        assert abs(diff) <= 1e-4 * abs(log_term)

    @pytest.mark.parametrize("m_over_l", GRID_RATIOS + (0.999999, 1.0 - 1e-9))
    def test_log_term_matches_oracle(self, m_over_l):
        # the record's zeroth moment against the paper's formula: against 50
        # digits they are at most 2.9e-15 and 6.8e-16 off at every M/L here.
        # With the residue slope's s + omega_c formed by subtraction at the
        # linear root near -omega_c, the record was 5.0e-13 off at 0.99
        for p, b in grid_points(m_over_l):
            oracle = quantum_log_term_formula(p, b)
            assert abs(_quantum_log_term(p, b) - oracle) <= 1e-14 * abs(oracle)

    def test_log_growth_with_hot_second_bath(self, circuit):
        # the dominant term grows like log(T2/T1): the quantum correction
        # survives at high temperature instead of vanishing
        previous = 0.0
        gaps = []
        for T2 in (1e2, 1e4, 1e6):
            b = at_temperatures(2.0, T2)
            value = heat_quantum_high_temp(circuit, b)
            assert value > previous
            log_term = quantum_log_term_formula(circuit, b)
            gaps.append(abs(value - log_term) / log_term)
            previous = value
        # the fixed cold bath leaves a constant 1/T1 offset, so the log term
        # dominates only asymptotically
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-2

    def test_high_matching_correction_term(self, circuit):
        # heat_quantum - log-term approaches the 1/T correction, then -> 0
        diffs = []
        for T1 in (10.0, 100.0, 1000.0):
            b = at_temperatures(T1, T1 / 2.0)
            diff = heat_quantum(circuit, b) - _quantum_log_term(circuit, b)
            corr = heat_quantum_high_temp(circuit, b) - _quantum_log_term(circuit, b)
            if T1 >= 100.0:
                assert diff == pytest.approx(corr, rel=2e-2)
            diffs.append(abs(diff))
        assert diffs[0] > diffs[1] > diffs[2]


class TestHeatHighTempTotal:
    def test_equilibrium_is_zero(self, circuit):
        assert high_temp_total(circuit, at_temperatures(7.0, 7.0)) == 0.0

    def test_near_closed_total_at_high_temperature(self, circuit):
        b = at_temperatures(200.0, 100.0)
        closed = heat_classical(circuit, b) + heat_quantum(circuit, b)
        correction = heat_quantum_high_temp(circuit, b) - _quantum_log_term(circuit, b)
        gap = abs(high_temp_total(circuit, b) - closed)
        assert gap <= 1.05 * abs(correction)

    def test_antisymmetry_of_every_method_total(self, circuit):
        T1, T2 = 3.0, 1.2
        b = at_temperatures(T1, T2)
        r = at_temperatures(T2, T1)
        pairs = [
            (
                heat_classical(circuit, b) + heat_quantum(circuit, b),
                heat_classical(circuit, r) + heat_quantum(circuit, r),
            ),
            (heat_low_temp(circuit, b), heat_low_temp(circuit, r)),
            (
                high_temp_total(circuit, b),
                high_temp_total(circuit, r),
            ),
        ]
        for forward, backward in pairs:
            assert backward == pytest.approx(-forward, rel=1e-12)


class TestAssembleReport:
    def test_closed_form_equilibrium_clean(self, circuit):
        b = at_temperatures(0.01, 0.01)  # low row, comfortably overdamped
        report = assemble_report(circuit, b, Method.CLOSED_FORM)
        assert report.q_classical == 0.0
        assert report.q_quantum == 0.0
        assert report.q_total == 0.0
        assert report.regime.tag is RegimeTag.LOW_T
        assert report.validity_warnings == ()

    def test_closed_form_additivity_exact(self, circuit, baths):
        report = assemble_report(circuit, baths, Method.CLOSED_FORM)
        assert report.q_total == report.q_classical + report.q_quantum

    def test_outside_overdamped_warns(self):
        p = CircuitParams(R=2.0, L=2.0, C=0.25, M=1.0, omega_c=5.0)  # gamma = 2
        b = at_temperatures(100.0, 50.0)
        report = assemble_report(p, b, Method.CLOSED_FORM)
        assert report.regime.tag is RegimeTag.OUTSIDE_OVERDAMPED
        assert report.validity_warnings

    def test_low_temp_marginal_warning(self, circuit):
        b = at_temperatures(5.0, 2.5)  # omega_th well above |lambda_pm|
        report = assemble_report(circuit, b, Method.LOW_TEMP_ASYMPTOTIC)
        assert any("marginal" in w for w in report.validity_warnings)
        assert report.q_total == heat_low_temp(circuit, b)

    def test_high_temp_split(self, circuit, baths):
        report = assemble_report(circuit, baths, Method.HIGH_TEMP_ASYMPTOTIC)
        assert report.q_classical == heat_classical(circuit, baths)
        assert report.q_quantum == _quantum_log_term(circuit, baths)
        assert report.q_total == report.q_classical + report.q_quantum

    @pytest.mark.parametrize("method", list(Method))
    def test_classical_column_is_heat_classical(self, circuit, baths, method, monkeypatch):
        # one function owns every method's classical column, in the mode of
        # the method's residue sum (the linear one for the asymptotics)
        modes = []

        def recording(p, b, mode):
            modes.append(mode)
            return 1.0

        monkeypatch.setattr(closedform, "heat_classical", recording)
        assert assemble_report(circuit, baths, method).q_classical == 1.0
        assert modes == [CUBIC if method is Method.EXACT_QUADRATURE else LINEAR]

    def test_closed_form_is_the_linear_split(self, monkeypatch):
        # bit for bit on the grid, where the paper's classical formula is up
        # to 4.4e-16 off the exact integral
        def no_quadrature(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(quadrature, "_integrate_panels", no_quadrature)
        for p, b, _, _ in linear_accuracy_grid(0.5):
            report = assemble_report(p, b, Method.CLOSED_FORM)
            assert report.q_classical == p.kb * (b.T1 - b.T2) * classical_integral(p, LINEAR)
            assert report.q_quantum == quantum_integral(p, b, LINEAR)
            assert report.q_total == report.q_classical + report.q_quantum

    def test_exact_quadrature_report(self, circuit, baths):
        report = assemble_report(circuit, baths, Method.EXACT_QUADRATURE)
        direct = heat_exact(circuit, baths)
        assert report.q_total == pytest.approx(direct, rel=1e-12)
        split_sum = report.q_classical + report.q_quantum
        assert split_sum == pytest.approx(report.q_total, rel=1e-12)
        assert report.validity_warnings == ()

    def test_exact_quadrature_is_the_exact_split(
        self, circuit, baths, monkeypatch
    ):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(quadrature, "_integrate_panels", no_quadrature)
        cubic = TransferMode.EXACT_CUBIC
        report = assemble_report(circuit, baths, Method.EXACT_QUADRATURE)
        dT = baths.T1 - baths.T2
        assert report.q_classical == circuit.kb * dT * classical_integral(circuit, cubic)
        assert report.q_quantum == quantum_integral(circuit, baths, cubic)
        assert report.q_total == report.q_classical + report.q_quantum
        assert report.validity_warnings == ()

    @pytest.mark.parametrize("method", list(Method))
    def test_huge_cutoff_raises_for_every_method(self, circuit, baths, method):
        # omega_c^4 overflows from ~1.3e77: each report reads a record whose
        # classical integral and K are past the largest float
        p = CircuitParams(R=circuit.R, L=circuit.L, C=circuit.C, M=circuit.M, omega_c=1e80)
        with pytest.raises(OverflowError, match="omega_c = 1e"):
            assemble_report(p, baths, method)

    def test_unknown_method_rejected(self, circuit, baths):
        with pytest.raises(ValueError, match="unknown method: 'ClosedForm'"):
            assemble_report(circuit, baths, "ClosedForm")

    @pytest.mark.parametrize("T1, T2", [(1e300, 1e-10), (1e-10, 1e300), (1e200, 1e-200)])
    def test_extreme_temperature_ratios_stay_finite(self, circuit, T1, T2):
        # T2/T1 overflows or underflows: the log of the temperature ratio falls
        # back to a log difference, and psi(1 - beta hbar s/2pi) at |z| ~ 1e200
        # must not square z into an overflow (it gave nan)
        b = at_temperatures(T1, T2)
        for method in Method:
            if method is Method.LOW_TEMP_ASYMPTOTIC:
                with pytest.raises(OverflowError):  # T^4 is out of float range
                    assemble_report(circuit, b, method)
                continue
            report = assemble_report(circuit, b, method)
            columns = (report.q_classical, report.q_quantum, report.q_total)
            assert all(math.isfinite(v) for v in columns), method
        for mode in TransferMode:
            split = circuit.kb * (T1 - T2) * classical_integral(circuit, mode)
            assert math.isfinite(split + quantum_integral(circuit, b, mode)), mode
