import dataclasses
import math
import re

import numpy as np
import pytest

from overheat import (
    BathPair,
    CircuitParams,
    RegimeTag,
    classify_regime,
)
from overheat import model
from overheat.model import SAFETY_FACTOR


class TestCircuitParams:
    def test_rejects_m_equal_l(self):
        with pytest.raises(ValueError, match="M < L"):
            CircuitParams(R=1.0, L=2.0, C=1.0, M=2.0, omega_c=5.0)

    def test_rejects_m_above_l(self):
        with pytest.raises(ValueError, match="M < L"):
            CircuitParams(R=1.0, L=2.0, C=1.0, M=3.0, omega_c=5.0)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError, match="M"):
            CircuitParams(R=1.0, L=2.0, C=1.0, M=-0.5, omega_c=5.0)

    @pytest.mark.parametrize("field", ["R", "L", "C", "omega_c", "hbar", "kb"])
    def test_rejects_nonpositive(self, field):
        kwargs = dict(R=1.0, L=2.0, C=1.0, M=0.5, omega_c=5.0, hbar=1.0, kb=1.0)
        for bad in (0.0, -1.0, math.nan):
            kwargs[field] = bad
            with pytest.raises(ValueError, match=field):
                CircuitParams(**kwargs)

    @pytest.mark.parametrize("fields, message", [
        # gamma = 1/(R C) divided by 0: a bare ZeroDivisionError
        (dict(R=1e-200, L=1.0, C=1e-200, M=0.5), "R*C must be positive and finite, got 0.0"),
        # omega_0 = 1/sqrt(L C) likewise
        (dict(R=1.0, L=1e-200, C=1e-200, M=5e-201), "L*C must be positive and finite, got 0.0"),
        # gamma = 0.0 was accepted, and every reader of the circuit's record
        # raised "cannot convert Infinity to integer ratio"
        (dict(R=1e200, L=1.0, C=1e200, M=0.5), "R*C must be positive and finite, got inf"),
        # omega_0 = 0.0 was accepted
        (dict(R=1.0, L=1e200, C=1e200, M=0.5), "L*C must be positive and finite, got inf"),
    ], ids=["RC_underflows", "LC_underflows", "RC_overflows", "LC_overflows"])
    def test_rejects_products_past_the_float_range(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CircuitParams(omega_c=1.0, **fields)

    def test_accepts_m_zero(self):
        CircuitParams(R=1.0, L=2.0, C=1.0, M=0.0, omega_c=5.0)


class TestScales:
    def test_built_with_the_circuit_and_not_a_field(self, circuit):
        assert circuit.scales is circuit.scales
        # eq, hash, asdict and replace see only the constants
        assert "scales" not in dataclasses.asdict(circuit)
        fresh = dataclasses.replace(circuit)
        assert fresh == circuit and hash(fresh) == hash(circuit)
        assert fresh.scales is not circuit.scales and fresh.scales == circuit.scales
        wider = dataclasses.replace(circuit, omega_c=1e3)
        assert wider.scales.lambda_plus != circuit.scales.lambda_plus

    def test_overflowing_dressed_rate_names_omega_c(self):
        # omega_c omega_minus past the largest float would make lambda_minus -inf
        with pytest.raises(OverflowError, match="omega_c = 1.7e"):
            CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=1.7e308)

    def test_uncoupled_loops(self):
        # M = 0 collapses both normal modes onto omega_d
        s = CircuitParams(R=1.0, L=2.0, C=1.0, M=0.0, omega_c=5.0).scales
        assert s.omega_d == pytest.approx(0.5, rel=1e-15)
        assert s.omega_plus == pytest.approx(0.5, rel=1e-15)
        assert s.omega_minus == pytest.approx(0.5, rel=1e-15)
        assert s.lambda_plus == pytest.approx(-5.0 * 0.5 / 5.5, rel=1e-15)
        assert s.lambda_minus == pytest.approx(-5.0 * 0.5 / 5.5, rel=1e-15)

    def test_reference_circuit(self, scales):
        # M=1, L=2, omega_c=5, omega_d=1
        assert scales.omega_d == pytest.approx(1.0, rel=1e-15)
        assert scales.omega_plus == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert scales.omega_minus == pytest.approx(2.0, rel=1e-15)
        assert scales.lambda_plus == pytest.approx(-10.0 / 17.0, rel=1e-15)
        assert scales.lambda_minus == pytest.approx(-10.0 / 7.0, rel=1e-15)
        assert scales.gamma == pytest.approx(1e4, rel=1e-15)
        assert scales.omega_0 == pytest.approx(100.0, rel=1e-13)

    def test_markovian_limit(self):
        # omega_c -> infinity drags lambda_pm onto -omega_pm
        p = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=1e12)
        s = p.scales
        assert abs(s.lambda_plus + s.omega_plus) / s.omega_plus < 1e-10
        assert abs(s.lambda_minus + s.omega_minus) / s.omega_minus < 1e-10

    def test_mode_ordering_and_root_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            R, L, C, wc = np.exp(rng.uniform(-3, 3, size=4))
            M = L * rng.uniform(0.0, 0.999)
            s = CircuitParams(R=R, L=L, C=C, M=M, omega_c=wc).scales
            assert s.omega_plus <= s.omega_d <= s.omega_minus
            if M > 0:
                assert s.omega_plus < s.omega_d < s.omega_minus
            assert s.lambda_plus < 0 and s.lambda_minus < 0
            assert abs(s.lambda_plus) < min(s.omega_plus, wc)
            assert abs(s.lambda_minus) < min(s.omega_minus, wc)

    def test_time_scale_covariance(self):
        # squeezing time by k (C -> C/k, L -> L/k, omega_c -> k*omega_c at
        # fixed R) multiplies every derived frequency by k
        rng = np.random.default_rng(11)
        for _ in range(50):
            R, L, C, wc = np.exp(rng.uniform(-2, 2, size=4))
            M = L * rng.uniform(0.0, 0.99)
            k = math.exp(rng.uniform(-2, 2))
            s1 = CircuitParams(R=R, L=L, C=C, M=M, omega_c=wc).scales
            s2 = CircuitParams(R=R, L=L / k, C=C / k, M=M / k, omega_c=wc * k).scales
            for name in (
                "gamma",
                "omega_0",
                "omega_d",
                "omega_plus",
                "omega_minus",
                "lambda_plus",
                "lambda_minus",
            ):
                assert getattr(s2, name) == pytest.approx(
                    k * getattr(s1, name), rel=1e-12
                )

    def test_lambda_monotone_in_cutoff(self):
        p0 = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=1.0)
        cutoffs = np.geomspace(0.1, 1e6, 40)
        lp = []
        lm = []
        for wc in cutoffs:
            s = CircuitParams(R=p0.R, L=p0.L, C=p0.C, M=p0.M, omega_c=float(wc)).scales
            lp.append(s.lambda_plus)
            lm.append(s.lambda_minus)
        assert all(b < a for a, b in zip(lp, lp[1:]))  # decreasing toward -omega_plus
        assert all(b < a for a, b in zip(lm, lm[1:]))
        s_inf = CircuitParams(R=p0.R, L=p0.L, C=p0.C, M=p0.M, omega_c=1e12).scales
        assert lp[-1] > s_inf.lambda_plus > -2.0 / 3.0
        assert lm[-1] > s_inf.lambda_minus > -2.0


class TestBathPair:
    def test_construction_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            T1, T2, kb = np.exp(rng.uniform(-6, 6, size=3))
            b = BathPair.from_temperatures(T1, T2, kb)
            assert b.beta1 == 1.0 / (kb * T1)
            assert b.beta2 == 1.0 / (kb * T2)
            assert b.beta1 * b.T1 * kb == pytest.approx(1.0, rel=1e-15)
            assert b.beta2 * b.T2 * kb == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("T1,T2", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_temperature(self, T1, T2):
        with pytest.raises(ValueError, match="positive"):
            BathPair.from_temperatures(T1, T2)

    @pytest.mark.parametrize("kb", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_kb(self, kb):
        message = f"kb must be positive and finite, got {kb!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            BathPair.from_temperatures(2.0, 1.0, kb)

    @pytest.mark.parametrize(
        "T1, T2, kb, name",
        [(1.0, 1e-310, 1.0, "T2"), (1e300, 1.0, 1e10, "T1"), (1e-200, 1.0, 1e-200, "T1")],
    )
    def test_rejects_temperature_without_finite_positive_beta(self, T1, T2, kb, name):
        # 1/(kb*T) overflows to inf, or kb*T overflows and beta is 0, or kb*T underflows to 0
        with pytest.raises(ValueError, match=re.escape(f"1/(kb*{name}) must be positive")):
            BathPair.from_temperatures(T1, T2, kb)

    def test_thermal_frequency_is_hotter_bath(self):
        b = BathPair.from_temperatures(2.0, 7.0)
        assert b.thermal_frequency(hbar=1.0) == pytest.approx(7.0, rel=1e-15)
        assert b.thermal_frequency(hbar=2.0) == pytest.approx(3.5, rel=1e-15)


class TestClassifyRegime:
    def test_intermediate_row(self):
        # at gamma = 1e6, omega_th = 3 sits between omega_minus = 2 and gamma
        # with every charge-sector separation above SAFETY_FACTOR
        p = CircuitParams(R=2.0, L=2.0, C=5e-7, M=1.0, omega_c=5.0)
        label = classify_regime(p, BathPair.from_temperatures(3.0, 3.0))
        assert label.tag is RegimeTag.INTERMEDIATE_T
        assert all(c.satisfied for c in label.conditions)

    def test_margin_is_the_module_constant(self, circuit, monkeypatch):
        # omega_th = 10*omega_d clears the sqrt(gamma*omega_plus) separation
        # only by ~8: outside at the fixed margin, intermediate at margin 1
        b = BathPair.from_temperatures(10.0, 10.0)
        assert classify_regime(circuit, b).tag is RegimeTag.OUTSIDE_OVERDAMPED
        monkeypatch.setattr(model, "SAFETY_FACTOR", 1.0)
        assert classify_regime(circuit, b).tag is RegimeTag.INTERMEDIATE_T

    def test_low_row(self, circuit, scales):
        T = 0.01 * scales.omega_plus  # omega_th = 0.01*omega_plus
        b = BathPair.from_temperatures(T, T)
        label = classify_regime(circuit, b)
        assert label.tag is RegimeTag.LOW_T

    def test_outside_overdamped(self):
        p = CircuitParams(R=2.0, L=2.0, C=0.25, M=1.0, omega_c=5.0)  # gamma = 2*omega_d
        s = p.scales
        T = 10.0 * s.gamma
        label = classify_regime(p, BathPair.from_temperatures(T, T))
        assert label.tag is RegimeTag.OUTSIDE_OVERDAMPED
        assert any(not c.satisfied for c in label.conditions)

    def test_hot_pattern_is_outside_overdamped(self, circuit, scales):
        # the "both baths hotter than gamma" pattern inherently violates the
        # omega_th << gamma validity condition, so it cannot be certified
        T = 100.0 * scales.gamma
        label = classify_regime(circuit, BathPair.from_temperatures(T, T))
        assert label.tag is RegimeTag.OUTSIDE_OVERDAMPED
        assert not any(c.satisfied for c in label.conditions if c.name.endswith(" row"))

    def test_mixed_rows(self):
        p = CircuitParams(R=2.0, L=2.0, C=5e-7, M=1.0, omega_c=5.0)  # gamma = 1e6
        b = BathPair.from_temperatures(0.006, 3.0)  # bath1 low row, bath2 intermediate
        label = classify_regime(p, b)
        assert label.tag is RegimeTag.MIXED

    def test_mixed_when_neither_bath_has_a_row(self, circuit):
        # omega_plus < omega_th < omega_minus: both baths fit no row while the
        # three overdamped checks hold, and the label is Mixed
        for T in (1.0, 1.5):
            label = classify_regime(circuit, BathPair.from_temperatures(T, T))
            assert label.tag is RegimeTag.MIXED
            assert all(c.satisfied for c in label.conditions[:3])
            rows = {c.name: c.satisfied for c in label.conditions[3:]}
            assert rows == {"bath1 row": False, "bath2 row": False}

    def test_every_tag_is_returned_for_some_input(self):
        p = CircuitParams(R=2.0, L=2.0, C=5e-7, M=1.0, omega_c=5.0)  # gamma = 1e6
        witnesses = {
            RegimeTag.INTERMEDIATE_T: (3.0, 3.0),
            RegimeTag.LOW_T: (0.006, 0.006),
            RegimeTag.MIXED: (0.006, 3.0),
            RegimeTag.OUTSIDE_OVERDAMPED: (1e7, 1e7),
        }
        for tag in RegimeTag:
            assert tag in witnesses, f"no witness input for {tag}"
            label = classify_regime(p, BathPair.from_temperatures(*witnesses[tag]))
            assert label.tag is tag

    def test_agreement_with_inequality_chains(self):
        # whenever a row tag is assigned, the corresponding chain holds
        rng = np.random.default_rng(23)
        factor = SAFETY_FACTOR
        seen = set()
        for _ in range(500):
            R, L = np.exp(rng.uniform(-1, 1, size=2))
            M = L * rng.uniform(0.05, 0.95)
            gamma = math.exp(rng.uniform(2, 14))
            C = 1.0 / (R * gamma)
            wc = math.exp(rng.uniform(-2, 4))
            p = CircuitParams(R=R, L=L, C=C, M=M, omega_c=wc)
            s = p.scales
            T = math.exp(rng.uniform(-7, 3))
            b = BathPair.from_temperatures(T, T)
            label = classify_regime(p, b)
            seen.add(label.tag)
            omega_th = b.thermal_frequency(p.hbar)
            if label.tag is RegimeTag.INTERMEDIATE_T:
                assert s.omega_minus < omega_th
                assert omega_th * factor <= s.gamma
            elif label.tag is RegimeTag.LOW_T:
                assert omega_th < s.omega_plus
                assert s.omega_minus * factor <= s.gamma
            if label.tag is not RegimeTag.OUTSIDE_OVERDAMPED:
                assert omega_th * factor <= s.gamma
                assert omega_th * factor <= math.sqrt(s.gamma * s.omega_plus)
        assert RegimeTag.INTERMEDIATE_T in seen
        assert RegimeTag.LOW_T in seen
        assert RegimeTag.OUTSIDE_OVERDAMPED in seen

    def test_tag_agrees_with_the_conditions(self):
        # the tag and the conditions are separate passes over the same
        # comparisons: an unmet scale separation is OutsideOverdamped, a bath
        # in no row is Mixed, and two baths in rows give a row tag or Mixed
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(2000):
            R, L = np.exp(rng.uniform(-1, 1, size=2))
            gamma = math.exp(rng.uniform(2, 14))
            p = CircuitParams(R=R, L=L, C=1.0 / (R * gamma), M=L * rng.uniform(0.05, 0.95),
                              omega_c=math.exp(rng.uniform(-2, 4)))
            b = BathPair.from_temperatures(*np.exp(rng.uniform(-7, 3, size=2)))
            label = classify_regime(p, b)
            seen.add(label.tag)
            separations, rows = label.conditions[:3], label.conditions[3:]
            if not all(c.satisfied for c in separations):
                assert label.tag is RegimeTag.OUTSIDE_OVERDAMPED
            elif not all(c.satisfied for c in rows):
                assert label.tag is RegimeTag.MIXED
            else:
                assert label.tag is not RegimeTag.OUTSIDE_OVERDAMPED
        assert seen == set(RegimeTag)

    def test_conditions_carry_margins(self, circuit, baths):
        label = classify_regime(circuit, baths)
        assert len(label.conditions) >= 5
        for cond in label.conditions[:5]:
            assert cond.margin > 0
