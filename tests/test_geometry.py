"""Geometry of a user looking at one inclined circular orbit.

The anchor values in TestAnchors were computed independently (spherical
trigonometry by hand plus a brute-force great-circle sampler) before the
library existed, and are frozen here.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from orbitcov import (
    EarthConstants,
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    d_min,
    distance_to_arc,
    orbital_speed,
    visible_arc_length,
    visible_time,
)
from orbitcov.geometry import TWO_PI, _squared_distance, _window_half_angle
from reference_forms import eta, orbit_plane_basis


class TestAnchors:
    """Frozen reference numbers for the 500 km / 10 degree configuration."""

    def test_max_window_distance(self, ref_orbit, ref_window):
        assert ref_window.d_max_km == pytest.approx(1694.5672211546794, abs=1e-9)
        # whole-orbit maximum is the far point, overhead that is R + R_E
        antipode = ref_orbit.radius_km + ref_orbit.earth.radius_km
        far_point = arc_to_distance(ref_orbit, TWO_PI * ref_orbit.radius_km)
        assert far_point == pytest.approx(antipode, rel=1e-15)

    def test_cap_base(self, ref_window):
        assert ref_window.cap_base_km == pytest.approx(6665.258509887624, abs=1e-9)

    def test_visible_arc_overhead(self, ref_orbit, ref_window):
        assert visible_arc_length(ref_orbit, ref_window) == pytest.approx(
            3371.3636249080196, abs=1e-6
        )

    def test_visible_arc_horizon(self, ref_orbit):
        # omega_min = 0 widens the window out to the geometric horizon
        window = VisibilityWindow.from_min_elevation(0.0, ref_orbit)
        assert visible_arc_length(ref_orbit, window) == pytest.approx(5274.841899675403, abs=1e-6)

    def test_speed_and_time(self, ref_orbit, ref_window):
        assert orbital_speed(ref_orbit) == pytest.approx(7616.497695623049, abs=1e-6)
        assert visible_time(ref_orbit, ref_window) == pytest.approx(442.6396172673211, abs=1e-9)

    def test_min_distance_is_altitude_overhead(self, ref_orbit):
        # exactly overhead the nearest point of the orbit is straight up
        assert d_min(ref_orbit) == 500.0


class TestEta:
    def test_interior_value(self):
        # cos(l/2R) at the window edge: hand value for R=6871, theta=pi/2
        v = eta(6871.0, math.pi / 2, 6665.258509887624)
        assert v == pytest.approx(2.0 * (6665.258509887624 / 6871.0) ** 2 - 1.0, rel=1e-15)

    def test_clamp_just_above_one(self):
        # ratio slightly above 1 from rounding still lands on the branch cut
        assert eta(1.0, math.pi / 2, 1.0 + 2e-13) == 1.0

    def test_no_clamp_far_above_one(self):
        v = eta(1.0, math.pi / 2, 1.0 + 1e-6)
        assert v > 1.0  # caller must see genuine out-of-range values

    def test_clamp_below(self):
        assert eta(1.0, math.pi / 2, 0.0) == -1.0

    def test_rejects_polar_singularity(self):
        with pytest.raises(ValueError):
            eta(6871.0, 0.0, 6665.0)


class TestVisibleArc:
    def test_zero_outside_band(self, ref_orbit, ref_window):
        band = math.acos(ref_window.cap_base_km / ref_orbit.radius_km)
        tilted = OrbitGeometry(500.0, math.pi / 2 + band + 1e-6)
        assert visible_arc_length(tilted, ref_window) == 0.0

    def test_zero_at_poles(self, ref_window):
        for theta in (0.0, math.pi):
            orbit = OrbitGeometry(500.0, theta)
            assert visible_arc_length(orbit, ref_window) == 0.0

    def test_symmetric_about_overhead(self, ref_window):
        for dt in (0.01, 0.05, 0.1):
            lo = visible_arc_length(OrbitGeometry(500.0, math.pi / 2 - dt), ref_window)
            hi = visible_arc_length(OrbitGeometry(500.0, math.pi / 2 + dt), ref_window)
            assert lo == pytest.approx(hi, abs=1e-9)

    def test_monotone_in_min_elevation(self, ref_orbit):
        arcs = [
            visible_arc_length(
                ref_orbit, VisibilityWindow.from_min_elevation(math.radians(w), ref_orbit)
            )
            for w in (0.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert all(a > b for a, b in zip(arcs, arcs[1:]))

    def test_max_distance_identity(self, ref_orbit, ref_window):
        # law of cosines ties d_max, cap height and the orbit radius together
        r = ref_orbit.radius_km
        re = ref_orbit.earth.radius_km
        lhs = ref_window.d_max_km**2
        rhs = r**2 + re**2 - 2.0 * re * ref_window.cap_base_km
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestArcDistanceMaps:
    def test_known_endpoints(self, ref_orbit):
        arc = visible_arc_length(
            ref_orbit, VisibilityWindow.from_min_elevation(math.radians(10.0), ref_orbit)
        )
        assert arc_to_distance(ref_orbit, 0.0) == d_min(ref_orbit)
        assert arc_to_distance(ref_orbit, arc) == pytest.approx(1694.5672211546794, abs=1e-9)
        # the geometry verb writes repr(arc), and a numpy scalar's repr is
        # np.float64(...) under numpy 2
        assert type(arc) is float and type(d_min(ref_orbit)) is float

    def test_mutual_inverses_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            orbit = OrbitGeometry(float(rng.uniform(300.0, 2000.0)), theta)
            ell = rng.uniform(0.0, TWO_PI * orbit.radius_km, size=64)
            r = arc_to_distance(orbit, ell)
            back = distance_to_arc(orbit, r)
            # the arc coordinate covers both sides of the nearest point, so
            # the map is a bijection over the whole circle
            assert np.allclose(back, ell, rtol=0.0, atol=1e-6)

    def test_half_angle_matches_direct_arccos(self, ref_orbit):
        # near branch: l = R acos(eta) whenever the chord stays short.
        # Stop short of the fold point where acos(eta) is ill conditioned.
        orbit = ref_orbit
        re = orbit.earth.radius_km
        r_near = math.sqrt(orbit.radius_km**2 + re**2)
        grid = np.linspace(d_min(orbit) + 1e-6, r_near - 50.0, 100)
        for r in grid:
            direct = orbit.radius_km * math.acos(eta_of(orbit, float(r)))
            assert distance_to_arc(orbit, float(r)) == pytest.approx(direct, abs=1e-9)
        # at the fold itself only relative agreement survives the branch cut
        r = r_near - 1.0
        direct = orbit.radius_km * math.acos(eta_of(orbit, r))
        assert distance_to_arc(orbit, r) == pytest.approx(direct, rel=1e-12)

    def test_arc_domain_errors(self, ref_orbit):
        with pytest.raises(ValueError):
            arc_to_distance(ref_orbit, -1.0)
        with pytest.raises(ValueError):
            arc_to_distance(ref_orbit, TWO_PI * ref_orbit.radius_km + 1.0)

    def test_distance_range_errors(self, ref_orbit):
        with pytest.raises(ValueError):
            distance_to_arc(ref_orbit, d_min(ref_orbit) - 1.0)
        with pytest.raises(ValueError):
            distance_to_arc(ref_orbit, ref_orbit.radius_km + ref_orbit.earth.radius_km + 1.0)

    def test_scalar_in_scalar_out(self, ref_orbit):
        out = arc_to_distance(ref_orbit, 100.0)
        assert isinstance(out, float)
        assert isinstance(distance_to_arc(ref_orbit, out), float)


class TestSquaredDistance:
    """The one r^2 rule, `_squared_distance`, against the law of cosines
    R^2 + R_E^2 - 2 R R_E sin(theta) cos(o) evaluated at 50 digits from
    the same doubles R, R_E, theta and o."""

    # the parser's floor (1e-6 Earth radii), 1 m below it, up to GEO
    ALTITUDES_KM = (1e-3, 6.371e-3, 1.0, 500.0, 2000.0, 35786.0)

    @staticmethod
    def exact(orbit, offsets):
        with mpmath.workdps(50):
            R = mpmath.mpf(orbit.radius_km)
            re = mpmath.mpf(orbit.earth.radius_km)
            c = 2 * R * re * mpmath.sin(mpmath.mpf(orbit.theta_rad))
            return [R * R + re * re - c * mpmath.cos(mpmath.mpf(float(o))) for o in offsets]

    @pytest.mark.parametrize("altitude_km", ALTITUDES_KM)
    def test_matches_the_law_of_cosines(self, altitude_km):
        # theta over the horizon window's band, 1e-12 of it inside both
        # edges included, and the poles; offsets from 0 to pi, the
        # window's edge beta among them
        window = VisibilityWindow.from_min_elevation(0.0, OrbitGeometry(altitude_km, math.pi / 2))
        band = math.acos(window.cap_base_km / (EarthConstants().radius_km + altitude_km))
        thetas = [math.pi / 2 + f * band for f in (0.0, 0.5, -0.5, 1.0 - 1e-12, -(1.0 - 1e-12))]
        worst = 0.0
        for theta in (*thetas, 0.0, math.pi):
            orbit = OrbitGeometry(altitude_km, theta)
            beta = _window_half_angle(orbit, window)
            offsets = np.concatenate(
                [[0.0, 1e-300, 1e-150, 1e-12, 1e-6, beta, beta * (1.0 - 1e-12)], np.linspace(0.0, math.pi, 41)]
            )
            got = _squared_distance(orbit, offsets)
            for g, e in zip(got, self.exact(orbit, offsets)):
                worst = max(worst, float(abs(g - e) / e))
            assert arc_to_distance(orbit, 0.0) == d_min(orbit)
        assert worst <= 1e-13

    def test_keeps_its_digits_at_d_min(self):
        # 1 m overhead, where the cosine form's r^2 is off by 1.6e-3
        orbit = OrbitGeometry(1e-3, math.pi / 2)
        (exact,) = self.exact(orbit, [0.0])
        R, re = orbit.radius_km, orbit.earth.radius_km
        assert float(abs(R * R + re * re - 2.0 * R * re - exact) / exact) > 1e-3
        assert float(abs(_squared_distance(orbit, 0.0) - exact) / exact) <= 1e-15

    def test_writes_into_out(self, ref_orbit):
        offsets = np.linspace(0.0, 1.0, 5)
        expected = _squared_distance(ref_orbit, offsets)
        assert _squared_distance(ref_orbit, offsets, out=offsets) is offsets
        assert np.array_equal(offsets, expected)


def eta_of(orbit, r):
    # double-angle form of the arc endpoint cosine
    sin_theta = math.sin(orbit.theta_rad)
    re = orbit.earth.radius_km
    h = (orbit.radius_km**2 + re**2 - r * r) / (2.0 * re)
    x = h / (orbit.radius_km * sin_theta)
    return 2.0 * x * x - 1.0


class TestKinematics:
    def test_speed_ignores_orientation(self):
        a = orbital_speed(OrbitGeometry(500.0, math.pi / 2))
        b = orbital_speed(OrbitGeometry(500.0, 0.3, phi_rad=2.0))
        assert a == b

    def test_speed_decreases_with_altitude(self):
        lo = orbital_speed(OrbitGeometry(400.0, math.pi / 2))
        hi = orbital_speed(OrbitGeometry(1200.0, math.pi / 2))
        assert lo > hi

    def test_time_is_arc_over_speed(self, ref_orbit, ref_window):
        arc_m = visible_arc_length(ref_orbit, ref_window) * 1000.0
        assert visible_time(ref_orbit, ref_window) == pytest.approx(
            arc_m / orbital_speed(ref_orbit), rel=1e-12
        )

    @pytest.mark.parametrize("constant,speed", [(1e-300, "0.0"), (1e300, "inf")])
    def test_speed_must_be_a_finite_positive_double(self, constant, speed):
        # G M underflows to 0 or overflows to inf although both factors are legal
        earth = EarthConstants(gravitational_constant=constant, mass_kg=constant)
        with pytest.raises(ValueError, match=f"= {speed} m/s is not a finite, positive double"):
            orbital_speed(OrbitGeometry(500.0, math.pi / 2, earth=earth))


class TestPlaneBasis:
    def test_orthonormal_frame(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, TWO_PI))
            e1, e2, n = orbit_plane_basis(theta, phi)
            for v in (e1, e2, n):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.dot(e1, e2)) < 1e-12
            assert np.allclose(np.cross(e1, e2), n, atol=1e-12)

    def test_z_coordinate_formula(self):
        # height of an orbit point above the equatorial plane of the user
        rng = np.random.default_rng(13)
        orbit = OrbitGeometry(500.0, 1.1, phi_rad=0.7)
        e1, e2, _ = orbit_plane_basis(orbit.theta_rad, orbit.phi_rad)
        for psi in rng.uniform(0.0, TWO_PI, size=32):
            pos = orbit.radius_km * (math.cos(psi) * e1 + math.sin(psi) * e2)
            expected = -orbit.radius_km * math.sin(orbit.theta_rad) * math.cos(psi)
            assert pos[2] == pytest.approx(expected, abs=1e-9)


class TestValidation:
    def test_orbit_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            OrbitGeometry(500.0, -0.1)
        with pytest.raises(ValueError):
            OrbitGeometry(500.0, math.pi + 0.1)
        with pytest.raises(ValueError):
            OrbitGeometry(500.0, math.pi / 2, phi_rad=TWO_PI)

    def test_orbit_rejects_bad_altitude(self):
        with pytest.raises(ValueError):
            OrbitGeometry(0.0, math.pi / 2)
        with pytest.raises(ValueError):
            OrbitGeometry(-100.0, math.pi / 2)

    def test_window_rejects_bad_elevation(self, ref_orbit):
        with pytest.raises(ValueError):
            VisibilityWindow.from_min_elevation(math.pi / 2, ref_orbit)
        with pytest.raises(ValueError):
            VisibilityWindow.from_min_elevation(-0.1, ref_orbit)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_orbit_rejects_non_finite_altitude(self, value):
        with pytest.raises(ValueError, match="altitude must be positive and finite"):
            OrbitGeometry(value, math.pi / 2)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["cap_base_km", "d_max_km"])
    def test_window_rejects_non_finite_distances(self, ref_window, name, value):
        with pytest.raises(ValueError, match="positive and finite"):
            dataclasses.replace(ref_window, **{name: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["radius_km", "gravitational_constant", "mass_kg"])
    def test_earth_constants_reject_non_finite(self, name, value):
        with pytest.raises(ValueError, match="positive and finite"):
            EarthConstants(**{name: value})

    def test_earth_constants_positive(self):
        with pytest.raises(ValueError):
            EarthConstants(radius_km=0.0)
        mu = EarthConstants().mu_m3_s2
        assert mu == pytest.approx(6.67259e-11 * 5.9736e24, rel=1e-15)

    def test_boundary_inclinations_accepted(self, ref_window):
        # theta = 0 and pi are legal poles, they just see nothing
        assert visible_arc_length(OrbitGeometry(500.0, 0.0), ref_window) == 0.0
        assert visible_arc_length(OrbitGeometry(500.0, math.pi), ref_window) == 0.0
