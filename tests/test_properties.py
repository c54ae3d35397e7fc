"""Properties of the analytic curves over the domain the scenario parser
accepts: integer m in 1..10, any alpha > 0, theta inside the visibility
band, lambda from 1e-6 to 10 per km, altitudes up to GEO and
omega_min below 90 degrees."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcov import (
    ChannelParams,
    ConstellationSpec,
    LinkBudget,
    NearestDistanceLaw,
    OrbitGeometry,
    VisibilityWindow,
    db_to_linear,
    max_sir_coverage_curve,
    sir_coverage_curve,
    snr_coverage_curve,
)
from orbitcov.coverage import _sir_conditional, _snr_conditional

# rounding slack of the raw values: a sum of nonnegative terms whose
# exact value is at most 1
ROUNDING = 1e-12


@st.composite
def scenarios(draw):
    altitude = draw(st.floats(200.0, 35786.0))
    omega_deg = draw(st.floats(0.0, 89.0))
    reference = OrbitGeometry(altitude, math.pi / 2)
    window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), reference)
    band = math.acos(window.cap_base_km / reference.radius_km)
    theta = math.pi / 2 + draw(st.floats(-0.999999, 0.999999)) * band
    orbit = OrbitGeometry(altitude, theta)
    density = 10.0 ** draw(st.floats(-6.0, 1.0))
    channel = ChannelParams(alpha=draw(st.floats(0.05, 12.0)), m=float(draw(st.integers(1, 10))))
    thresholds_db = sorted(draw(st.lists(st.floats(-30.0, 60.0), min_size=2, max_size=8)))
    return orbit, window, density, channel, thresholds_db


def assert_coverage_curve(raw, curve, p_vis):
    assert np.all(np.isfinite(raw))
    assert np.all(raw >= 0.0) and np.all(raw <= 1.0 + ROUNDING)
    values = np.asarray(curve.values)
    assert np.all(np.diff(values) <= ROUNDING), "coverage rose with the threshold"
    assert np.all(values <= p_vis + ROUNDING)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_sir_curve_properties(scenario):
    orbit, window, density, channel, thresholds_db = scenario
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    raw = _sir_conditional(orbit, window, density, channel, gammas)
    curve = sir_coverage_curve(orbit, window, density, channel, thresholds_db)
    assert_coverage_curve(raw, curve, NearestDistanceLaw(orbit, window, density).visibility_probability)


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.floats(1e5, 1e9))
def test_snr_curve_properties(scenario, bandwidth_hz):
    orbit, window, density, channel, thresholds_db = scenario
    budget = LinkBudget(bandwidth_hz=bandwidth_hz)
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    raw = _snr_conditional(orbit, window, density, channel, budget, gammas)
    curve = snr_coverage_curve(orbit, window, density, channel, budget, thresholds_db)
    assert_coverage_curve(raw, curve, NearestDistanceLaw(orbit, window, density).visibility_probability)


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.integers(2, 4))
def test_max_sir_curve_properties(scenario, n_orbits):
    orbit, window, density, channel, thresholds_db = scenario
    orbits = tuple(OrbitGeometry(orbit.altitude_km, orbit.theta_rad, 2.0 * math.pi * k / n_orbits) for k in range(n_orbits))
    spec = ConstellationSpec(orbits, (density,) * n_orbits, window, channel)
    curve = max_sir_coverage_curve(spec, thresholds_db)
    p_vis = NearestDistanceLaw(orbit, window, density).visibility_probability ** n_orbits
    values = np.asarray(curve.values)
    assert np.all(np.diff(values) <= ROUNDING)
    assert np.all(values <= p_vis + ROUNDING)
