"""Laplace transform of the aggregate interference power."""

import math

import numpy as np
import pytest

from orbitcov import ChannelParams, OrbitGeometry
from orbitcov.interference import laplace_derivatives
from reference_forms import log_laplace, log_laplace_distance_form


@pytest.fixture
def setup(ref_orbit, ref_window, rayleigh):
    return ref_orbit, ref_window, 0.005, rayleigh


class TestLogLaplace:
    def test_zero_argument(self, setup):
        orbit, window, lam, ch = setup
        assert log_laplace(orbit, window, lam, ch, 700.0, 0.0) == 0.0

    def test_empty_interferer_arc(self, setup):
        # serving satellite at the window edge leaves nothing beyond it
        orbit, window, lam, ch = setup
        assert log_laplace(orbit, window, lam, ch, window.d_max_km, 5.0) == 0.0

    def test_always_nonpositive(self, setup):
        orbit, window, lam, ch = setup
        for s in (1e-3, 1.0, 1e3, 1e6):
            assert log_laplace(orbit, window, lam, ch, 600.0, s) < 0.0

    def test_monotone_in_s(self, setup):
        orbit, window, lam, ch = setup
        vals = [log_laplace(orbit, window, lam, ch, 600.0, s) for s in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_linear_in_density(self, setup):
        # the exponent is an intensity integral, so density scales it
        orbit, window, lam, ch = setup
        one = log_laplace(orbit, window, lam, ch, 700.0, 25.0)
        two = log_laplace(orbit, window, 2.0 * lam, ch, 700.0, 25.0)
        assert two == pytest.approx(2.0 * one, rel=1e-9)

    def test_nearer_serving_sat_sees_more_interference(self, setup):
        orbit, window, lam, ch = setup
        near = log_laplace(orbit, window, lam, ch, 550.0, 10.0)
        far = log_laplace(orbit, window, lam, ch, 1400.0, 10.0)
        assert near < far

    def test_serving_distance_validation(self, setup):
        orbit, window, lam, ch = setup
        with pytest.raises(ValueError):
            log_laplace(orbit, window, lam, ch, 400.0, 1.0)
        with pytest.raises(ValueError):
            log_laplace(orbit, window, lam, ch, window.d_max_km + 1.0, 1.0)
        with pytest.raises(ValueError):
            log_laplace(orbit, window, lam, ch, 700.0, -1.0)

    @pytest.mark.parametrize("density", [math.inf, math.nan])
    @pytest.mark.parametrize("function", ["log_laplace", "laplace_derivatives"])
    def test_non_finite_density_rejected(self, setup, function, density):
        # lam <= 0 is False for both: at s = 1e5 inf gave -inf and
        # [0.0, nan], nan gave nan
        orbit, window, _, ch = setup
        with pytest.raises(ValueError, match="positive and finite"):
            if function == "log_laplace":
                log_laplace(orbit, window, density, ch, 600.0, 1e5)
            else:
                laplace_derivatives(orbit, window, density, ch, 600.0, 1e5, 1)

    def test_roundoff_slack_at_bounds(self, setup):
        # values a hair outside the window from rounding are clamped in
        orbit, window, lam, ch = setup
        v = log_laplace(orbit, window, lam, ch, window.d_max_km + 1e-10, 5.0)
        assert v == 0.0


class TestDistanceForm:
    def test_agreement_on_grid(self, setup):
        orbit, window, lam, ch = setup
        for r in (510.0, 700.0, 1100.0, 1650.0):
            for s in (0.01, 1.0, 100.0):
                a = log_laplace(orbit, window, lam, ch, r, s)
                b = log_laplace_distance_form(orbit, window, lam, ch, r, s)
                assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_agreement_off_overhead(self, ref_window, rayleigh):
        # tilting raises d_min, so the serving distance moves out with it
        orbit = OrbitGeometry(500.0, math.pi / 2 + 0.1)
        for s in (0.5, 50.0):
            a = log_laplace(orbit, ref_window, 0.003, rayleigh, 900.0, s)
            b = log_laplace_distance_form(orbit, ref_window, 0.003, rayleigh, 900.0, s)
            assert a == pytest.approx(b, rel=1e-6)

    def test_agreement_heavier_fading(self, setup):
        orbit, window, lam, _ = setup
        ch = ChannelParams(alpha=3.0, m=2.5)
        a = log_laplace(orbit, window, lam, ch, 800.0, 3.0)
        b = log_laplace_distance_form(orbit, window, lam, ch, 800.0, 3.0)
        assert a == pytest.approx(b, rel=1e-6)


class TestDerivatives:
    def test_order_zero_is_the_transform(self, setup):
        orbit, window, lam, ch = setup
        d = laplace_derivatives(orbit, window, lam, ch, 700.0, 4.0, t_max=0)
        assert len(d) == 1
        assert d[0] == pytest.approx(math.exp(log_laplace(orbit, window, lam, ch, 700.0, 4.0)), rel=1e-12)

    def test_sign_alternation(self, setup):
        # completely monotone: (-1)^t L^(t) >= 0
        orbit, window, lam, _ = setup
        ch = ChannelParams(alpha=2.0, m=5.0)
        d = laplace_derivatives(orbit, window, lam, ch, 650.0, 2.0, t_max=4)
        for t, val in enumerate(d):
            assert (-1.0) ** t * val >= 0.0

    # the finite difference probes live where s times the aggregate power
    # is order one; near s = 0 the curvature sits below quadrature noise
    def test_first_derivative_finite_difference(self, setup):
        orbit, window, lam, _ = setup
        ch = ChannelParams(alpha=2.0, m=2.0)
        s0, h = 1.0e6, 2.0e3
        d = laplace_derivatives(orbit, window, lam, ch, 700.0, s0, t_max=1)
        lo = math.exp(log_laplace(orbit, window, lam, ch, 700.0, s0 - h))
        hi = math.exp(log_laplace(orbit, window, lam, ch, 700.0, s0 + h))
        assert d[1] == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6)

    def test_second_derivative_finite_difference(self, setup):
        orbit, window, lam, _ = setup
        ch = ChannelParams(alpha=2.0, m=3.0)
        s0, h = 1.0e6, 1.0e4

        def f(s):
            return math.exp(log_laplace(orbit, window, lam, ch, 700.0, s))

        fd = (f(s0 + h) - 2.0 * f(s0) + f(s0 - h)) / (h * h)
        d = laplace_derivatives(orbit, window, lam, ch, 700.0, s0, t_max=2)
        assert d[2] == pytest.approx(fd, rel=1e-5)

    def test_at_window_edge(self, setup):
        # no interferers: transform 1, all derivatives vanish
        orbit, window, lam, ch = setup
        d = laplace_derivatives(orbit, window, lam, ch, window.d_max_km, 4.0, t_max=3)
        assert d[0] == 1.0
        assert d[1:] == [0.0, 0.0, 0.0]

    def test_order_validation(self, setup):
        orbit, window, lam, ch = setup
        for bad in (-1, 11, 1.5, True):
            with pytest.raises(ValueError):
                laplace_derivatives(orbit, window, lam, ch, 700.0, 1.0, t_max=bad)

    def test_density_validation(self, setup):
        orbit, window, _, ch = setup
        for bad in (0.0, -0.005):
            with pytest.raises(ValueError, match="density"):
                laplace_derivatives(orbit, window, bad, ch, 700.0, 1.0, t_max=2)


class TestChannelParams:
    def test_defaults(self):
        ch = ChannelParams()
        assert ch.alpha == 2.0
        assert ch.m == 1.0
        assert ch.g_i_bar == pytest.approx(10.0 ** (-1.3), rel=1e-15)

    def test_integer_m(self):
        assert ChannelParams(m=3.0).integer_m == 3
        with pytest.raises(ValueError):
            _ = ChannelParams(m=1.5).integer_m

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha=0.0)
        with pytest.raises(ValueError):
            ChannelParams(m=0.4)
        with pytest.raises(ValueError):
            ChannelParams(g_i_bar=0.0)
        with pytest.raises(ValueError):
            ChannelParams(g_i_bar=1.5)


    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["alpha", "m"])
    def test_non_finite_rejected(self, name, value):
        # nan fails every comparison, so the bounds alone would let it
        # through, and a simulated SIR under a nan alpha reads 0
        with pytest.raises(ValueError, match="finite"):
            ChannelParams(**{name: value})


class TestAgainstDirectAveraging:
    """Small-sample simulated transform as an independent cross check."""

    def test_transform_value(self, setup):
        # a raw probe at s = 1, where the transform reads 0.9999995, and the
        # coverage scale s = gamma r^2 at gamma 0.1, 1 and 10, where it falls
        # to 0.13: every s is averaged over one set of simulated sums
        orbit, window, lam, ch = setup
        r = 700.0
        s_values = np.array([1.0, 0.1 * r**2, r**2, 10.0 * r**2])
        analytic = [math.exp(log_laplace(orbit, window, lam, ch, r, s)) for s in s_values]
        rng = np.random.default_rng(977)
        trials = 40_000
        two_pi_r = 2.0 * math.pi * orbit.radius_km
        re = orbit.earth.radius_km
        counts = rng.poisson(lam * two_pi_r, size=trials)
        # whole-circle angles, explicit heights and distances
        z = rng.uniform(0.0, 2.0 * math.pi, size=counts.sum())
        np.cos(z, out=z)
        z *= -orbit.radius_km * math.sin(orbit.theta_rad)
        visible = np.flatnonzero(z > window.cap_base_km)
        d = np.sqrt(orbit.radius_km**2 + re**2 - 2.0 * re * z[visible])
        mask = d > r
        trial = np.searchsorted(np.cumsum(counts), visible[mask], side="right")
        gains = rng.gamma(ch.m, 1.0 / ch.m, size=int(mask.sum()))
        agg = np.bincount(trial, weights=ch.g_i_bar * gains * d[mask] ** (-ch.alpha), minlength=trials)
        mc = np.exp(-np.outer(s_values, agg)).mean(axis=1)
        assert analytic == pytest.approx(mc, abs=4.0 * 0.5 / math.sqrt(trials))
