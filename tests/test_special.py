import cmath
import math

import mpmath
import numpy as np
import pytest

from digamma_table import DIGAMMA_TABLE

from overheat import PoleError, digamma
from overheat.special import _digamma_array, log_ratio
from response_reference import coth_via_digamma

EULER_GAMMA = 0.57721566490153286061


class TestDigamma:
    def test_unit_values(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    @pytest.mark.parametrize("z_parts,expected_parts", DIGAMMA_TABLE)
    def test_against_frozen_table(self, z_parts, expected_parts):
        z = complex(*z_parts)
        expected = complex(*expected_parts)
        got = digamma(z)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_real_input_returns_float(self):
        out = digamma(3.25)
        assert isinstance(out, float)
        assert out == pytest.approx(1.016990911068179, rel=1e-13)
        assert isinstance(digamma(complex(3.25, 0.0)), complex)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = complex(rng.uniform(-20, 20), rng.uniform(0.05, 30))
            if abs(z - round(z.real)) < 0.05 and z.real <= 0.5:
                continue
            assert digamma(z.conjugate()) == pytest.approx(
                digamma(z).conjugate(), rel=1e-13
            )

    def test_recurrence_residual(self):
        # psi(z+1) - psi(z) - 1/z == 0 across the working domain
        rng = np.random.default_rng(17)
        for _ in range(1000):
            r = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
            phi = rng.uniform(-math.pi, math.pi)
            z = cmath.rect(r, phi)
            if z.real < 0.5 and abs(z - round(z.real)) < 1e-3:
                continue  # stay away from the poles
            if z.real < 0.5 and abs(z + 1 - round(z.real + 1)) < 1e-3:
                continue
            residual = digamma(z + 1.0) - digamma(z) - 1.0 / z
            assert abs(residual) <= 1e-12 * max(1.0, abs(digamma(z)))

    def test_reflection_residual(self):
        # psi(1-z) - psi(z) - pi*cot(pi*z) == 0
        rng = np.random.default_rng(29)
        for _ in range(1000):
            z = complex(rng.uniform(-15, 15), rng.uniform(0.2, 15))
            cot = cmath.cos(math.pi * z) / cmath.sin(math.pi * z)
            residual = digamma(1.0 - z) - digamma(z) - math.pi * cot
            scale = max(1.0, abs(digamma(z)), abs(math.pi * cot))
            assert abs(residual) <= 1e-12 * scale

    def test_asymptotic_consistency(self):
        # for very large |z|, psi(z) ~ log z - 1/(2z); the truncation after
        # log z is bounded by 1/|2z| plus the next series term
        rng = np.random.default_rng(41)
        for _ in range(100):
            r = math.exp(rng.uniform(math.log(1e4), math.log(1e10)))
            phi = rng.uniform(-0.45 * math.pi, 0.45 * math.pi)
            z = cmath.rect(r, phi)
            bound = 1.0 / abs(2.0 * z) + 1.0 / (6.0 * abs(z) ** 2) + 1e-12
            assert abs(digamma(z) - cmath.log(z)) <= bound
            if r > 1e7:  # the second-order term is below 1e-12 out here
                assert abs(digamma(z) - cmath.log(z)) <= 1.0 / abs(2.0 * z) + 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0, complex(-3.0, 0.0)])
    def test_poles_raise(self, z):
        with pytest.raises(PoleError):
            digamma(z)

    def test_near_pole_raises_within_tolerance(self):
        with pytest.raises(PoleError):
            digamma(-2.0 + 1e-14)
        # just outside the tolerance evaluates fine
        assert math.isfinite(digamma(-2.0 + 1e-6))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            digamma(math.inf)
        with pytest.raises(ValueError):
            digamma(complex(1.0, math.nan))

    def test_large_imaginary_reflection(self):
        # reflection path with |Im z| beyond the cot saturation threshold
        z = complex(-5.5, 120.0)
        direct = digamma(z)
        # compare against the recurrence identity instead of reflection
        via_recurrence = digamma(z + 1.0) - 1.0 / z
        assert direct == pytest.approx(via_recurrence, rel=1e-13)

    @pytest.mark.parametrize("modulus", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("angle", [0.0, 0.25, 0.5, 0.7, -0.25, -0.6])
    def test_large_modulus_against_mpmath(self, modulus, angle):
        # z*z overflows beyond |z| ~ 1e154; angles in units of pi, the last
        # three through the reflection formula
        z = cmath.rect(modulus, angle * math.pi)
        with mpmath.workdps(30):
            expected = complex(mpmath.digamma(mpmath.mpc(z.real, z.imag)))
        assert abs(digamma(z) - expected) <= 4 * 2.0**-52 * abs(expected)


class TestDigammaKernel:
    @pytest.fixture(scope="class")
    def arguments(self):
        # the quantum sum's arguments 1 - c s: Re z > 1, Im z of either sign
        rng = np.random.default_rng(2024)
        n = 2000
        real = 10.0 ** rng.uniform(0.0, 4.0, n)
        imag = 10.0 ** rng.uniform(-3.0, 4.0, n) * rng.choice([-1.0, 1.0], n)
        return real + 1j * imag

    def test_against_mpmath(self, arguments):
        # the error stays at the rounding of psi's terms, log(z + 10) and
        # Sum 1/(z + k), which near the zero of psi at 1.46 exceeds |psi| itself
        got = _digamma_array(arguments)
        worst = 0.0
        with mpmath.workdps(30):
            for z, value in zip(arguments, got):
                expected = complex(mpmath.digamma(mpmath.mpc(z.real, z.imag)))
                worst = max(worst, abs(value - expected) / max(1.0, abs(expected)))
        assert worst <= 4e-15

    def test_each_value_independent_of_the_array(self, arguments):
        whole = _digamma_array(arguments)
        for size in (1, 2, 7, 8, 9, 17):
            for start in range(0, 200, 13):
                part = _digamma_array(arguments[start : start + size].copy())
                assert (part == whole[start : start + size]).all()
        pair = _digamma_array(np.stack([arguments, arguments[::-1]]))
        assert (pair[0] == whole).all() and (pair[1] == whole[::-1]).all()

    def test_scalar_digamma_calls_the_kernel(self, arguments):
        for z in arguments[:50]:
            assert digamma(complex(z)) == _digamma_array(np.array([z]))[0]


class TestLogRatio:
    @pytest.mark.parametrize(
        "x, y", [(2.0, 1.0), (0.3, 0.7), (1e-300, 1e10), (1e300, 1e-10), (5e-324, 1.7e308)]
    )
    def test_odd_and_finite(self, x, y):
        assert log_ratio(y, x) == -log_ratio(x, y)
        with mpmath.workdps(30):
            expected = float(mpmath.log(mpmath.mpf(x) / mpmath.mpf(y)))
        assert log_ratio(x, y) == pytest.approx(expected, rel=4 * 2.0**-52)

    def test_equal_arguments_give_positive_zero(self):
        assert math.copysign(1.0, log_ratio(3.0, 3.0)) == 1.0

    def test_common_power_of_two_changes_nothing(self):
        rng = np.random.default_rng(11)
        for x, y in np.exp(rng.uniform(-20, 20, size=(100, 2))):
            for k in (-60, -7, 13, 90):
                assert log_ratio(x * 2.0**k, y * 2.0**k) == log_ratio(x, y)


class TestCothViaDigamma:
    def test_matches_direct_coth(self):
        for x in [1.0, 0.37, 12.0]:
            expected = math.pi / math.tanh(x)
            assert coth_via_digamma(x) == pytest.approx(expected, rel=1e-12)

    def test_saturates_to_pi(self):
        assert coth_via_digamma(50.0) == pytest.approx(math.pi, rel=1e-14)

    def test_odd(self):
        assert coth_via_digamma(-1.0) == pytest.approx(
            -coth_via_digamma(1.0), rel=1e-14
        )

    def test_range_sweep(self):
        for x in np.geomspace(1e-3, 1e3, 200):
            expected = math.pi / math.tanh(x)
            assert coth_via_digamma(float(x)) == pytest.approx(expected, rel=1e-12)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            coth_via_digamma(0.0)
