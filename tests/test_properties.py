"""Properties of the analytic curves over the domain the scenario parser
accepts: integer m in 1..10, any alpha > 0, theta inside the visibility
band out to 1e-14 of its edge, lambda in (0, 10] per km, altitudes up to
GEO and omega_min below 90 degrees. The hypothesis draws take lambda from
1e-6; the parser has no lower bound above 0, so a parametrised test
covers the open lower end at 1e-12 and 1e-300."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    visible_arc_length,
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
    # the sampled fractions put theta at the band edge, where the visible
    # arc is a sliver. There rounding can decide whether the orbit clears
    # the cap base, and an orbit with no arc has no conditional law (the
    # out-of-band tests cover it); one clearing it by more than rounding
    # must have an arc
    edges = (1.0 - 1e-12, -(1.0 - 1e-12), 1.0 - 1e-14, -(1.0 - 1e-14))
    theta = math.pi / 2 + draw(st.one_of(st.floats(-0.999999, 0.999999), st.sampled_from(edges))) * band
    orbit = OrbitGeometry(altitude, theta)
    clears = orbit.radius_km * math.sin(theta) > window.cap_base_km * (1.0 + 1e-13)
    assume(clears or visible_arc_length(orbit, window) > 0.0)
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
    raw = _sir_conditional(orbit, window, density, channel, channel.integer_m, gammas)
    curve = sir_coverage_curve(orbit, window, density, channel, thresholds_db)
    assert_coverage_curve(raw, curve, NearestDistanceLaw(orbit, window, density).visibility_probability)


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.floats(1e5, 1e9))
def test_snr_curve_properties(scenario, bandwidth_hz):
    orbit, window, density, channel, thresholds_db = scenario
    budget = LinkBudget(bandwidth_hz=bandwidth_hz)
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    raw = _snr_conditional(orbit, window, density, channel, channel.integer_m, gammas, budget)
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


@pytest.mark.parametrize("density", [1e-300, 1e-12])
@pytest.mark.parametrize("altitude", [200.0, 500.0, 35786.0])
@pytest.mark.parametrize("m", [1, 3, 10])
@pytest.mark.parametrize("quantity", ["SIR", "SNR"])
def test_curve_properties_at_vanishing_density(quantity, m, altitude, density):
    # the parser bounds lambda only from below by 0, so the open lower end
    # is covered here instead: the conditional law must stay a law when
    # the visibility probability underflows toward 0
    reference = OrbitGeometry(altitude, math.pi / 2)
    window = VisibilityWindow.from_min_elevation(math.radians(10.0), reference)
    band = math.acos(window.cap_base_km / reference.radius_km)
    channel = ChannelParams(alpha=2.0, m=float(m))
    budget = LinkBudget()
    thresholds_db = [-30.0, -10.0, 0.0, 10.0, 30.0, 60.0]
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    for fraction in (0.0, 0.5, -0.999999):
        orbit = OrbitGeometry(altitude, math.pi / 2 + fraction * band)
        if quantity == "SIR":
            raw = _sir_conditional(orbit, window, density, channel, channel.integer_m, gammas)
            curve = sir_coverage_curve(orbit, window, density, channel, thresholds_db)
        else:
            raw = _snr_conditional(orbit, window, density, channel, channel.integer_m, gammas, budget)
            curve = snr_coverage_curve(orbit, window, density, channel, budget, thresholds_db)
        assert_coverage_curve(raw, curve, NearestDistanceLaw(orbit, window, density).visibility_probability)
