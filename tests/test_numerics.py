"""Quadrature wrapper and seeded random streams."""

import math

import numpy as np
import pytest

from orbitcov import QuadratureError, RandomSource
from orbitcov.numerics import QuadratureSpec, integrate


class TestIntegrate:
    def test_polynomial_exact(self):
        assert integrate(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_sine_lobe(self):
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_empty_interval_short_circuits(self):
        def boom(_):
            raise AssertionError("integrand must not be called")

        assert integrate(boom, 3.0, 3.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    def test_failure_carries_estimate(self):
        # one subdivision cannot resolve sin(1/x) near the origin
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=1)
        with pytest.raises(QuadratureError) as err:
            integrate(lambda x: math.sin(1.0 / x), 1e-6, 1.0, spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).generator.random(8)
        b = RandomSource(42).generator.random(8)
        assert np.array_equal(a, b)

    def test_children_are_deterministic(self):
        a = RandomSource(42).child(3).generator.random(8)
        b = RandomSource(42).child(3).generator.random(8)
        assert np.array_equal(a, b)

    def test_children_ignore_parent_consumption(self):
        src = RandomSource(42)
        first = src.child(1).generator.random(4)
        src.generator.random(1000)  # burn the parent stream
        again = RandomSource(42)
        again.generator.random(3)
        assert np.array_equal(first, again.child(1).generator.random(4))

    def test_distinct_children_differ(self):
        src = RandomSource(42)
        a = src.child(0).generator.random(8)
        b = src.child(1).generator.random(8)
        assert not np.array_equal(a, b)

    def test_nested_children(self):
        a = RandomSource(7).child(2).child(5).generator.random(4)
        b = RandomSource(7).child(2).child(5).generator.random(4)
        assert np.array_equal(a, b)

    def test_negative_child_index_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).child(-1)

