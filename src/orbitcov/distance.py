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
carries. This module evaluates the law; `montecarlo` draws from it by
simulating the satellites, and the test suite holds the density and
restates it and the CCDF in the distance domain as checks of the
substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    OrbitGeometry,
    VisibilityWindow,
    d_min,
    distance_to_arc,
    visible_arc_length,
)

__all__ = [
    "NearestDistanceLaw",
    "nearest_ccdf",
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
    arc_length_km: float = field(init=False)  # derived in __post_init__

    def __post_init__(self) -> None:
        if not (self.density_per_km > 0 and math.isfinite(self.density_per_km)):
            raise ValueError("satellite density must be positive and finite")
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
