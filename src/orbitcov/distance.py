"""Distribution of the distance from the user to the nearest visible
satellite on one orbit.

Satellites form a homogeneous Poisson process of density lambda (per km)
on the orbit circle, so in the arc-length coordinate ell = (length of
the visible arc within distance r of the user) the nearest-point law is
a truncated exponential on [0, L]:

    P(ell_nearest > t | at least one visible) =
        (exp(-lambda t) - exp(-lambda L)) / (1 - exp(-lambda L)).

All distance-domain quantities are obtained by pushing that law through
the monotone map `arc_to_distance`, which keeps every formula free of
the inverse-square-root endpoint singularities the raw distance density
carries. The test suite keeps distance-domain restatements of the CCDF
and the density as independent checks of that substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    d_min,
    distance_to_arc,
    visible_arc_length,
)
from .numerics import RandomSource

__all__ = [
    "NearestDistanceLaw",
    "nearest_ccdf",
    "nearest_pdf",
    "sample_nearest_distance",
]


@dataclass(frozen=True)
class NearestDistanceLaw:
    """Nearest visible-satellite distance law for one orbit.

    Frozen bundle of orbit, visibility window and density; the visible
    arc length is computed once at construction. Conditioned on at least
    one visible satellite, so the orbit must actually cross the window.
    """

    orbit: OrbitGeometry
    window: VisibilityWindow
    density_per_km: float
    arc_length_km: float = 0.0  # derived in __post_init__

    def __post_init__(self) -> None:
        if self.density_per_km <= 0:
            raise ValueError("satellite density must be positive")
        arc = visible_arc_length(self.orbit, self.window)
        if arc <= 0.0:
            raise ValueError("orbit never enters the visibility window")
        object.__setattr__(self, "arc_length_km", arc)

    @property
    def d_min_km(self) -> float:
        return d_min(self.orbit)

    @property
    def d_max_km(self) -> float:
        return self.window.d_max_km

    @property
    def visibility_probability(self) -> float:
        """P(at least one satellite visible) = 1 - exp(-lambda L)."""
        return -math.expm1(-self.density_per_km * self.arc_length_km)


def nearest_ccdf(law: NearestDistanceLaw, r):
    """P(nearest visible satellite is farther than r | one is visible).

    Clamps to 1 below d_min and 0 above d_max; in between this is the
    truncated exponential in the arc coordinate. Accepts scalars or
    arrays.
    """
    r = np.asarray(r, dtype=float)
    lam = law.density_per_km
    lo, hi = law.d_min_km, law.d_max_km
    ell = distance_to_arc(law.orbit, np.clip(r, lo, hi))
    ell = np.minimum(ell, law.arc_length_km)
    num = np.expm1(-lam * ell) - math.expm1(-lam * law.arc_length_km)
    val = num / law.visibility_probability
    val = np.where(r <= lo, 1.0, np.where(r >= hi, 0.0, val))
    val = np.clip(val, 0.0, 1.0)
    return val[()] if val.ndim == 0 else val


def _arc_derivative(law: NearestDistanceLaw, r, ell):
    # d ell / d r = 2 r / (R_E sin(theta) sin(ell / 2R)); finite on the
    # open range because ell > 0 strictly inside it
    orbit = law.orbit
    re = orbit.earth.radius_km
    sin_t = math.sin(orbit.theta_rad)
    return 2.0 * r / (re * sin_t * np.sin(ell / (2.0 * orbit.radius_km)))


def nearest_pdf(law: NearestDistanceLaw, r):
    """Density of the nearest visible-satellite distance at r.

    Defined on the open interval (d_min, d_max); raises outside it, where
    the density is zero or the arc derivative degenerates.
    """
    r = np.asarray(r, dtype=float)
    lo, hi = law.d_min_km, law.d_max_km
    if np.any(r <= lo) or np.any(r >= hi):
        raise ValueError("pdf is defined on the open interval (d_min, d_max)")
    lam = law.density_per_km
    ell = distance_to_arc(law.orbit, r)
    val = lam * np.exp(-lam * ell) * _arc_derivative(law, r, ell) / law.visibility_probability
    return val[()] if val.ndim == 0 else val


def sample_nearest_distance(law: NearestDistanceLaw, rng: RandomSource, size: int | None = None):
    """Draw nearest visible-satellite distances by inverting the arc CCDF.

    Exact inverse-transform sampling: T = -log(1 - U (1 - e^{-lambda L}))
    / lambda is truncated-exponential on [0, L], then mapped through
    `arc_to_distance`.
    """
    u = rng.generator.random(size)
    lam = law.density_per_km
    t = -np.log1p(u * np.expm1(-lam * law.arc_length_km)) / lam
    r = arc_to_distance(law.orbit, t)
    return float(r) if size is None else r
