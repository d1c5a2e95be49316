import cmath
import math

import numpy as np
import pytest

from digamma_table import DIGAMMA_TABLE

from overheat import PoleError, digamma
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
