"""Closed-form geometry of a circular orbit seen from a fixed ground user.

The user sits at u = (0, 0, R_E) on an Earth sphere of radius R_E. A
satellite orbit is the circle of radius R = R_E + R_h in the plane through
the origin with unit normal v = (sin(theta)cos(phi), sin(theta)sin(phi),
cos(theta)). The sky above the user's minimum elevation angle omega_min
cuts the orbit sphere in a spherical cap; the portion of the orbit inside
that cap is the visible arc, and its length L drives every visibility
statistic downstream (satellite counts, nearest-distance law, coverage).

Everything here reduces to two coordinates:

* the window offset o = |psi - pi| of an orbit point, the angle along
  the orbit from its highest point, in which the user-to-point distance
  is r^2 = (R - R_E)^2 + 2 R R_E (1 - sin(theta) cos o) by the law of
  cosines. `_squared_distance` writes it as a sum of nonnegative terms,
  r^2 = (R - R_E)^2 + 2 R R_E cos^2(theta) / (1 + sin(theta))
  + 4 R R_E sin(theta) t^2 / (1 + t^2) with t = tan(o / 2), so no
  digits cancel near d_min, and it is the one place that rule is
  written; and
* the arc-length coordinate ell = 2 R o (the length of the orbit arc
  within distance r of the user), in which a homogeneous Poisson
  process on the orbit stays homogeneous. `arc_to_distance` /
  `distance_to_arc` convert between the two and are the backbone of all
  quadrature in this package.

A point at orbit angle psi sits at height -R sin(theta) cos(psi) above
the plane through the Earth's centre normal to the user's zenith, so
the cap cuts the orbit in the window (pi - beta, pi + beta), offsets
below beta = arccos(cap_base / (R sin(theta))) (`_window_half_angle`).
The visible arc is 2 R beta, and the Monte-Carlo kernels draw satellite
offsets in that same window: both sides read beta and the distance
from here.

All lengths are kilometers and all angles radians unless a name says
otherwise; `visible_time` and `orbital_speed` convert to meters/seconds
at the boundary, where absolute mechanical quantities live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
KM_IN_M = 1000.0
# band-edge rounding window of the arc cosines, never real overshoot
_CLAMP_TOL = 1e-12

__all__ = [
    "EarthConstants",
    "OrbitGeometry",
    "VisibilityWindow",
    "visible_arc_length",
    "d_min",
    "arc_to_distance",
    "distance_to_arc",
    "visible_time",
    "orbital_speed",
]


@dataclass(frozen=True)
class EarthConstants:
    """Planetary constants; defaults are the values used throughout."""

    radius_km: float = 6371.0
    gravitational_constant: float = 6.67259e-11  # m^3 kg^-1 s^-2
    mass_kg: float = 5.9736e24

    def __post_init__(self) -> None:
        if not (self.radius_km > 0 and math.isfinite(self.radius_km)):
            raise ValueError("Earth radius must be positive and finite")
        if not all(x > 0 and math.isfinite(x) for x in (self.gravitational_constant, self.mass_kg)):
            raise ValueError("gravitational parameters must be positive and finite")

    @property
    def mu_m3_s2(self) -> float:
        """Standard gravitational parameter G*M in m^3/s^2."""
        return self.gravitational_constant * self.mass_kg


@dataclass(frozen=True)
class OrbitGeometry:
    """One circular orbit: altitude plus the polar/azimuth angles of its
    plane's unit normal. The orbit radius is always derived, never stored."""

    altitude_km: float
    theta_rad: float
    phi_rad: float = 0.0
    earth: EarthConstants = EarthConstants()

    def __post_init__(self) -> None:
        if not (self.altitude_km > 0 and math.isfinite(self.altitude_km)):
            raise ValueError("orbit altitude must be positive and finite")
        if not 0.0 <= self.theta_rad <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi_rad < TWO_PI:
            raise ValueError("phi must lie in [0, 2*pi)")

    @property
    def radius_km(self) -> float:
        return self.earth.radius_km + self.altitude_km


@dataclass(frozen=True)
class VisibilityWindow:
    """The spherical cap of the orbit sphere visible above a minimum
    elevation angle.

    cap_base_km is the distance from Earth center to the cap's base plane
    (measured along the user's zenith axis); d_max_km is the largest
    user-to-satellite distance inside the cap, attained on the cap rim.
    """

    omega_min_rad: float
    cap_base_km: float
    d_max_km: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega_min_rad < math.pi / 2:
            raise ValueError("minimum elevation must lie in [0, pi/2)")
        if not all(x > 0 and math.isfinite(x) for x in (self.d_max_km, self.cap_base_km)):
            raise ValueError("window distances must be positive and finite")

    @classmethod
    def from_min_elevation(cls, omega_min_rad: float, orbit: OrbitGeometry) -> "VisibilityWindow":
        """Build the window for one orbit shell from the minimum elevation.

        d_max solves the law-of-cosines triangle user/center/satellite at
        elevation omega_min; the cap base height follows from projecting
        d_max back onto the zenith axis.
        """
        if not 0.0 <= omega_min_rad < math.pi / 2:
            raise ValueError("minimum elevation must lie in [0, pi/2)")
        re = orbit.earth.radius_km
        rh = orbit.altitude_km
        s = re * math.sin(omega_min_rad)
        dmax = -s + math.sqrt(s * s + 2.0 * re * rh + rh * rh)
        cap = dmax * math.sin(omega_min_rad) + re
        # rim height below the orbit radius, at or above the Earth surface
        if not re <= cap < orbit.radius_km:
            raise ValueError("degenerate visibility cap")
        return cls(omega_min_rad=omega_min_rad, cap_base_km=cap, d_max_km=dmax)


def _window_half_angle(orbit: OrbitGeometry, window: VisibilityWindow) -> float:
    """Half-width beta of the orbit-angle window (pi - beta, pi + beta)
    in which the height z = -R sin(theta) cos(psi) clears the cap base.

    Zero when R sin(theta) <= cap_base: the orbit never rises above the
    cap (theta = 0, theta = pi and every theta outside the band).
    """
    reach = orbit.radius_km * math.sin(orbit.theta_rad)
    if reach <= window.cap_base_km:
        return 0.0
    return math.acos(window.cap_base_km / reach)


def _squared_d_min(orbit: OrbitGeometry) -> float:
    """Squared distance (km^2) from the user to the orbit's highest point,
    offset 0: (R - R_E)^2 + 2 R R_E cos^2(theta) / (1 + sin(theta)), the
    2 R R_E (1 - sin(theta)) of the law of cosines without its
    cancellation."""
    R = orbit.radius_km
    re = orbit.earth.radius_km
    cos_t = math.cos(orbit.theta_rad)
    return (R - re) ** 2 + 2.0 * R * re * cos_t * cos_t / (1.0 + math.sin(orbit.theta_rad))


def _squared_distance(orbit: OrbitGeometry, offsets, out=None):
    """Squared distance (km^2) from the user to the orbit points at window
    offsets o in [0, pi], written into `out` (which may be `offsets`)
    when given: `_squared_d_min` + 4 R R_E sin(theta) / (1 + 1 / t^2),
    t = tan(o / 2), the 2 R R_E sin(theta) (1 - cos o) of the law of
    cosines. Both terms are nonnegative, so the sum keeps its digits down
    to d_min; o = 0 gives 1 / 0 = inf and adds exactly nothing."""
    r2 = np.multiply(offsets, 0.5, out=np.empty(np.shape(offsets)) if out is None else out)
    np.tan(r2, out=r2)
    r2 *= r2
    with np.errstate(divide="ignore", over="ignore"):
        np.reciprocal(r2, out=r2)
    r2 += 1.0
    np.divide(4.0 * orbit.radius_km * orbit.earth.radius_km * math.sin(orbit.theta_rad), r2, out=r2)
    r2 += _squared_d_min(orbit)
    return r2


def visible_arc_length(orbit: OrbitGeometry, window: VisibilityWindow) -> float:
    """Length (km) of the orbit arc inside the visibility cap, 2 R beta.

    Zero outside the band |theta - pi/2| < arccos(cap_base / R), where
    the orbit never rises above the cap base; in particular polar-normal
    orbits (theta = 0 or pi) are never visible.
    """
    return 2.0 * orbit.radius_km * _window_half_angle(orbit, window)


def d_min(orbit: OrbitGeometry) -> float:
    """Minimum possible user-to-satellite distance (km) on this orbit,
    reached at the highest orbit point, offset 0; the same offset as
    arc_to_distance(0), so the two agree bit for bit."""
    return math.sqrt(_squared_d_min(orbit))


def arc_to_distance(orbit: OrbitGeometry, ell):
    """Distance r (km) such that the orbit arc within distance r has length ell.

    Inverse of `distance_to_arc`. Accepts scalars or arrays with
    0 <= ell <= 2*pi*R; ell = 0 gives d_min, ell = 2*pi*R the far point.
    """
    ell = np.array(ell, dtype=float)
    R = orbit.radius_km
    if np.any(ell < 0.0) or np.any(ell > TWO_PI * R):
        raise ValueError("arc length outside [0, 2*pi*R]")
    ell /= 2.0 * R  # the offset, then r^2 and r in the same array
    r = np.sqrt(_squared_distance(orbit, ell, out=ell), out=ell)
    return r[()] if r.ndim == 0 else r


def distance_to_arc(orbit: OrbitGeometry, r):
    """Length ell (km) of the orbit arc lying within distance r of the user.

    Inverse of `arc_to_distance` on the geometric range from d_min to
    the distance of the orbit's far point. Evaluated in the half-angle form
    2R*arccos(h / (R sin theta)) with h the height of the sphere cap of
    radius r around the user, which stays monotone over the whole range
    (the squared form loses h's sign past r^2 = R^2 + R_E^2).
    """
    r = np.asarray(r, dtype=float)
    R = orbit.radius_km
    re = orbit.earth.radius_km
    sin_t = math.sin(orbit.theta_rad)
    if sin_t == 0.0:
        raise ValueError("arc coordinate undefined for sin(theta) = 0")
    h = (R * R + re * re - r * r) / (2.0 * re)
    x = h / (R * sin_t)
    if np.any(np.abs(x) > 1.0 + _CLAMP_TOL):
        raise ValueError("distance outside the orbit's reachable range")
    ell = 2.0 * R * np.arccos(np.clip(x, -1.0, 1.0))
    return ell[()] if ell.ndim == 0 else ell


def orbital_speed(orbit: OrbitGeometry) -> float:
    """Circular-orbit speed sqrt(GM/R) in m/s, with the orbit's planet.
    Raises ValueError when G*M or the quotient over- or underflows, so
    the speed is not a finite, positive double."""
    speed = math.sqrt(orbit.earth.mu_m3_s2 / (orbit.radius_km * KM_IN_M))
    if not 0.0 < speed < math.inf:
        raise ValueError(f"orbital speed sqrt(GM/R) = {speed!r} m/s is not a finite, positive double")
    return speed


def visible_time(orbit: OrbitGeometry, window: VisibilityWindow) -> float:
    """Time (s) a satellite spends inside the visibility cap per pass:
    visible arc length divided by orbital speed."""
    arc_m = visible_arc_length(orbit, window) * KM_IN_M
    return arc_m / orbital_speed(orbit)
