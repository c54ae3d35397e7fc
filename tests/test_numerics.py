"""Fixed Gauss-Legendre rules and the test-side adaptive reference."""

import math

import numpy as np
import pytest

from orbitcov.numerics import _legendre, exponential_panels, gauss_legendre
from reference_forms import ReferenceQuadratureError, adaptive


class TestIntegrate:
    """The adaptive reference the fixed rule is checked against."""

    def test_polynomial_exact(self):
        assert adaptive(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_sine_lobe(self):
        assert adaptive(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_empty_interval_short_circuits(self):
        def boom(_):
            raise AssertionError("integrand must not be called")

        assert adaptive(boom, 3.0, 3.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            adaptive(math.sin, 1.0, 0.0)

    def test_failure_carries_estimate(self):
        # one subdivision cannot resolve sin(1/x) near the origin
        with pytest.raises(ReferenceQuadratureError) as err:
            adaptive(lambda x: math.sin(1.0 / x), 1e-6, 1.0, rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=1)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            adaptive(math.sin, 0.0, 1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            adaptive(math.sin, 0.0, 1.0, abs_tol=-1.0)
        with pytest.raises(ValueError):
            adaptive(math.sin, 0.0, 1.0, max_subdivisions=0)


class TestGaussLegendre:
    def test_polynomial_exact(self):
        # an n-point rule integrates degree 2n - 1 exactly
        nodes, weights = gauss_legendre(0.0, 2.0, 4)
        assert float(np.sum(weights * nodes**7)) == pytest.approx(2.0**8 / 8.0, rel=1e-14)

    def test_sine_lobe(self):
        nodes, weights = gauss_legendre(0.0, math.pi, 16)
        assert float(np.sum(weights * np.sin(nodes))) == pytest.approx(2.0, abs=1e-14)

    def test_empty_interval_has_zero_weight(self):
        nodes, weights = gauss_legendre(3.0, 3.0, 8)
        assert np.all(nodes == 3.0)
        assert np.all(weights == 0.0)

    def test_array_of_intervals(self):
        lower = np.array([0.0, 1.0, 2.0])
        nodes, weights = gauss_legendre(lower, 4.0, 8)
        assert nodes.shape == weights.shape == (3, 8)
        assert np.all((nodes > lower[:, None]) & (nodes < 4.0))
        assert np.sum(weights, axis=-1) == pytest.approx(4.0 - lower, rel=1e-14)

    def test_cached_rule_is_read_only(self):
        # the cache hands one pair of arrays to every caller and thread
        for array in _legendre(8):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestExponentialPanels:
    @pytest.mark.parametrize("rate", [1e-6, 0.005, 1.0, 10.0])
    def test_exponential_mass(self, rate):
        length = 3371.4
        nodes, weights = exponential_panels(length, rate, 16)
        assert np.all((nodes > 0.0) & (nodes < length))
        mass = float(np.sum(weights * rate * np.exp(-rate * nodes)))
        assert mass == pytest.approx(-math.expm1(-rate * length), rel=1e-13)

    def test_panels_tile_the_interval(self):
        # lambda L = 16.9: h = L / 2^7, so [0, h] and seven doubling panels
        nodes, weights = exponential_panels(3371.4, 0.005, 16)
        assert nodes.size == 8 * 16
        assert float(np.sum(weights)) == pytest.approx(3371.4, rel=1e-14)
