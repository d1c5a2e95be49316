import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overheat import CircuitParams, TransferMode, transfer_f12, u_pm
from response_reference import coupling_matrices, g12, green_matrix, trace_f12


def random_params(rng):
    R, L, C, wc = (float(v) for v in np.exp(rng.uniform(-2.5, 2.5, size=4)))
    M = L * float(rng.uniform(0.05, 0.95))
    return CircuitParams(R=R, L=L, C=C, M=M, omega_c=wc)


class TestUPm:
    def test_overdamped_root(self, circuit, scales):
        # lambda_pm is the root of the linear polynomial by construction
        plus = u_pm(complex(scales.lambda_plus), circuit, TransferMode.OVERDAMPED_LINEAR)[0]
        minus = u_pm(complex(scales.lambda_minus), circuit, TransferMode.OVERDAMPED_LINEAR)[1]
        assert abs(plus) <= 1e-13 * scales.omega_plus * circuit.omega_c
        assert abs(minus) <= 1e-13 * scales.omega_minus * circuit.omega_c

    def test_cubic_constant_term(self, circuit):
        values = u_pm(0j, circuit, TransferMode.EXACT_CUBIC)
        for val, denom in zip(values, (3.0, 1.0)):
            expected = circuit.R * circuit.omega_c / denom  # R*omega_c/(L +/- M)
            assert val == pytest.approx(expected, rel=1e-15)

    def test_modes_agree_at_small_s(self):
        # the cubic corrections are negligible below the charge-sector scales
        p = CircuitParams(R=2.0, L=2.0, C=5e-7, M=1.0, omega_c=5.0)  # gamma = 1e6
        gamma = 1e6
        for k, w in enumerate((2.0 / 3.0, 2.0)):
            s = complex(0.0, 0.01 * min(gamma, math.sqrt(gamma * w)))
            exact = u_pm(s, p, TransferMode.EXACT_CUBIC)[k]
            linear = u_pm(s, p, TransferMode.OVERDAMPED_LINEAR)[k]
            assert abs(exact - linear) / abs(exact) <= 1e-3


class TestG12:
    def test_decoupled_is_zero(self):
        p = CircuitParams(R=1.0, L=2.0, C=0.1, M=0.0, omega_c=5.0)
        for s in (0.3j, 2.0 + 1.0j, -0.1 + 7.0j):
            assert g12(s, p) == 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_params(rng)
            s = complex(rng.uniform(-2, 2), rng.uniform(0.1, 5))
            assert g12(s.conjugate(), p) == pytest.approx(
                g12(s, p).conjugate(), rel=1e-12
            )

    def test_factored_form_agreement(self, circuit, scales):
        # g12 = -(M/A) R^2 (s+omega_c)^2 / (u_plus u_minus), rechecked at
        # random points; the direct determinant route must match
        rng = np.random.default_rng(37)
        A = circuit.L**2 - circuit.M**2
        points = [complex(0.0, scales.omega_d)] + [
            complex(rng.uniform(-1, 1), rng.uniform(0.05, 10)) for _ in range(50)
        ]
        for s in points:
            up, um = u_pm(s, circuit, TransferMode.EXACT_CUBIC)
            factored = (
                -(circuit.M / A)
                * circuit.R**2
                * (s + circuit.omega_c) ** 2
                / (up * um)
            )
            direct = g12(s, circuit)
            assert abs(direct - factored) <= 1e-12 * abs(factored)


class TestTransferF12:
    def test_zero_frequency(self, circuit):
        for mode in TransferMode:
            assert transfer_f12(0.0, circuit, mode) == 0.0

    def test_even_in_omega(self, circuit):
        for mode in TransferMode:
            for w in (0.3, 1.7, 42.0):
                assert transfer_f12(-w, circuit, mode) == pytest.approx(
                    transfer_f12(w, circuit, mode), rel=1e-15
                )

    def test_matches_trace_at_omega_d(self, circuit, scales):
        w = scales.omega_d
        exact = transfer_f12(w, circuit, TransferMode.EXACT_CUBIC)
        oracle = trace_f12(w, circuit)
        assert abs(exact - oracle) <= 1e-10 * abs(oracle)

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = random_params(rng)
            w = math.exp(rng.uniform(-4, 6))
            for mode in TransferMode:
                assert transfer_f12(w, p, mode) >= 0.0

    def test_decays_without_overflow(self, circuit):
        # |u_plus u_minus|^2 overflows long before f12 underflows, so f12 must
        # be formed as a ratio first: finite, nonnegative and decaying
        for mode in TransferMode:
            reference = transfer_f12(1e27, circuit, mode)
            for w in (1e28, 1e77, 1e200, 1e300):
                value = transfer_f12(w, circuit, mode)
                assert math.isfinite(value)
                assert 0.0 <= value <= reference

    def test_array_matches_scalar_calls(self):
        # the batched quadrature evaluates f12 on arrays of nodes; each element
        # must be the scalar value, with no overflow warning at huge omega
        rng = np.random.default_rng(23)
        omegas = np.concatenate([[0.0, 1e28, 1e300], np.exp(rng.uniform(-10, 30, 200))])
        for _ in range(5):
            p = random_params(rng)
            for mode in TransferMode:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    values = transfer_f12(omegas, p, mode)
                assert values.shape == omegas.shape
                assert values.tolist() == [transfer_f12(float(w), p, mode) for w in omegas]

    @settings(max_examples=200, deadline=None)
    @given(
        logs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        m_over_l=st.floats(0.0, 0.999),
        omega=st.floats(0.0, 1.7e308),
    )
    def test_finite_and_nonnegative_everywhere(self, logs, m_over_l, omega):
        R, L, C, wc = (math.exp(v) for v in logs)
        p = CircuitParams(R=R, L=L, C=C, M=m_over_l * L, omega_c=wc)
        for mode in TransferMode:
            value = transfer_f12(omega, p, mode)
            assert math.isfinite(value) and value >= 0.0

    def test_mode_convergence_with_damping(self):
        # sup relative deviation over the thermal window shrinks as gamma grows
        omega_th = 2.0
        grid = np.linspace(1e-3, omega_th, 200)
        sups = []
        for gamma in (1e2, 1e4, 1e6):
            p = CircuitParams(R=2.0, L=2.0, C=1.0 / (2.0 * gamma), M=1.0, omega_c=5.0)
            devs = []
            for w in grid:
                fe = transfer_f12(float(w), p, TransferMode.EXACT_CUBIC)
                fo = transfer_f12(float(w), p, TransferMode.OVERDAMPED_LINEAR)
                devs.append(abs(fe - fo) / fe)
            sups.append(max(devs))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-3


class TestTraceF12:
    def test_decoupled_is_zero(self):
        p = CircuitParams(R=1.0, L=2.0, C=0.1, M=0.0, omega_c=5.0)
        for w in (0.1, 1.0, 30.0):
            assert trace_f12(w, p) == pytest.approx(0.0, abs=1e-300)

    def test_requires_positive_omega(self, circuit):
        with pytest.raises(ValueError, match="omega"):
            trace_f12(0.0, circuit)
        with pytest.raises(ValueError, match="omega"):
            trace_f12(-1.0, circuit)

    def test_matches_transfer_on_random_draws(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = random_params(rng)
            w = math.exp(rng.uniform(-4, 6))
            oracle = trace_f12(w, p)
            value = transfer_f12(w, p, TransferMode.EXACT_CUBIC)
            assert abs(value - oracle) <= 1e-10 * abs(oracle)

    def test_far_tail(self, circuit, scales):
        # leading tail of the cubic mode polynomials:
        # f12 -> (2/pi) omega_c^4 (R M/A)^2 gamma^4 / (omega^6 (omega^2+omega_c^2)^2)
        w = 1e6 * scales.gamma
        A = circuit.L**2 - circuit.M**2
        tail = (
            (2.0 / math.pi)
            * circuit.omega_c**4
            * (circuit.R * circuit.M / A) ** 2
            * scales.gamma**4
            / (w**6 * (w**2 + circuit.omega_c**2) ** 2)
        )
        assert trace_f12(w, circuit) == pytest.approx(tail, rel=1e-2)

    def test_bath_swap_symmetry(self):
        # the symmetric circuit transfers heat identically in both directions
        rng = np.random.default_rng(53)
        for _ in range(30):
            p = random_params(rng)
            w = math.exp(rng.uniform(-3, 4))
            g = green_matrix(complex(0.0, w), p)
            I1, I2 = coupling_matrices(w, p)
            f12 = (math.pi / 2.0) * np.trace(I1 @ g @ I2 @ g.conj().T)
            f21 = (math.pi / 2.0) * np.trace(I2 @ g @ I1 @ g.conj().T)
            assert f21.real == pytest.approx(f12.real, rel=1e-12)

    def test_hermiticity_plumbing(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            p = random_params(rng)
            w = math.exp(rng.uniform(-3, 4))
            g = green_matrix(complex(0.0, w), p)
            _, I2 = coupling_matrices(w, p)
            h = g @ I2 @ g.conj().T
            assert np.allclose(h, h.conj().T, rtol=1e-12, atol=1e-300)
            assert h[0, 0].real >= 0.0 and h[1, 1].real >= 0.0
