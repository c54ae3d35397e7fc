"""Laplace transform of the aggregate interference from one orbit.

Conditioned on the serving satellite sitting at distance r, the
interferers are the remaining Poisson points on the visible arc beyond
the serving arc coordinate ell(r). With unit-mean gamma fading powers
(Nakagami-m envelopes) and mean interferer antenna gain ratio
g_i_bar, the probability generating functional gives

    ln E[exp(-s I)] = -lambda * integral_{ell(r)}^{L}
        (1 - (1 + s * g_i_bar * u(t)^-alpha / m)^-m) dt,

with u(t) the arc-to-distance map. Everything is integrated in the arc
coordinate, where the integrand is smooth; the test suite evaluates the
same quantity in the distance domain (with its integrable
inverse-square-root endpoint weight) as an independent cross-check.

Derivatives in s, needed by the coverage expressions up to order m - 1,
follow the product recursion L^(t) = sum_j C(t-1, j) phi^(t-j) L^(j)
for L = exp(phi), with the phi derivatives available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (
    OrbitGeometry,
    VisibilityWindow,
    _scalar_distance_fn,
    d_min,
    distance_to_arc,
    visible_arc_length,
)
from .numerics import integrate

__all__ = [
    "ChannelParams",
    "log_laplace",
    "laplace_derivatives",
]

MAX_DERIVATIVE_ORDER = 10

# slack (km) for serving distances that hit the geometric range bounds
# only up to rounding
_RANGE_SLACK_KM = 1e-9


@dataclass(frozen=True)
class ChannelParams:
    """Propagation parameters: path-loss exponent, Nakagami figure m and
    the mean interferer-to-serving antenna gain ratio."""

    alpha: float = 2.0
    m: float = 1.0
    g_i_bar: float = 10.0 ** -1.3

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.m < 0.5:
            raise ValueError("fading parameter m must be at least 0.5")
        if not 0.0 < self.g_i_bar <= 1.0:
            raise ValueError("mean interferer gain ratio must lie in (0, 1]")

    @property
    def integer_m(self) -> int:
        """m as an integer, for the closed-form coverage paths."""
        if not float(self.m).is_integer():
            raise ValueError("closed-form coverage requires integer m")
        return int(self.m)


def _serving_arc(orbit: OrbitGeometry, window: VisibilityWindow, serving_distance_km: float) -> tuple[float, float]:
    """Validate the serving distance and return (ell(r), L)."""
    arc = visible_arc_length(orbit, window)
    if arc <= 0.0:
        raise ValueError("orbit never enters the visibility window")
    lo = d_min(orbit)
    hi = window.d_max_km
    if serving_distance_km < lo - _RANGE_SLACK_KM or serving_distance_km > hi + _RANGE_SLACK_KM:
        raise ValueError("serving distance outside the reachable range [d_min, d_max]")
    r = min(max(serving_distance_km, lo), hi)
    ell = float(distance_to_arc(orbit, r))
    return min(ell, arc), arc


def _log_laplace_arc(
    orbit: OrbitGeometry,
    density_per_km: float,
    channel: ChannelParams,
    ell0: float,
    arc: float,
    s: float,
) -> float:
    if s == 0.0 or ell0 >= arc:
        return 0.0
    dist = _scalar_distance_fn(orbit)
    gbar = channel.g_i_bar
    alpha = channel.alpha
    m = channel.m

    def integrand(t: float) -> float:
        a = gbar * dist(t) ** -alpha / m
        return 1.0 - (1.0 + s * a) ** -m

    return -density_per_km * integrate(integrand, ell0, arc)


def log_laplace(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    serving_distance_km: float,
    s: float,
) -> float:
    """ln of the interference Laplace transform at transform variable s.

    s carries units of km^alpha (it multiplies g_i_bar * u^-alpha with u
    in km). Always <= 0, exactly 0 at s = 0 or when the serving satellite
    sits on the far window rim and no interferer can exist.
    """
    if s < 0:
        raise ValueError("transform variable must be nonnegative")
    if density_per_km <= 0:
        raise ValueError("satellite density must be positive")
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    return _log_laplace_arc(orbit, density_per_km, channel, ell0, arc, s)


def laplace_derivatives(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    serving_distance_km: float,
    s: float,
    t_max: int,
) -> list[float]:
    """Derivatives d^t/ds^t of the interference Laplace transform.

    Returns [L(s), L'(s), ..., L^(t_max)(s)]. Orders are capped at
    MAX_DERIVATIVE_ORDER: the recursion is exact but each order adds a
    quadrature, and nothing downstream needs more than m - 1 <= 10.
    """
    if not isinstance(t_max, int) or isinstance(t_max, bool):
        raise ValueError("derivative order must be an integer")
    if not 0 <= t_max <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    if s < 0:
        raise ValueError("transform variable must be nonnegative")
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    return _laplace_derivatives_arc(orbit, density_per_km, channel, ell0, arc, s, t_max)


def _laplace_derivatives_arc(
    orbit: OrbitGeometry,
    density_per_km: float,
    channel: ChannelParams,
    ell0: float,
    arc: float,
    s: float,
    t_max: int,
) -> list[float]:
    value = math.exp(_log_laplace_arc(orbit, density_per_km, channel, ell0, arc, s))
    derivs = [value]
    if t_max == 0:
        return derivs
    dist = _scalar_distance_fn(orbit)
    gbar = channel.g_i_bar
    alpha = channel.alpha
    m = channel.m
    # phi^(k) = -g_k, g_k = (-1)^(k+1) lambda m (m+1) ... (m+k-1)
    #           * int a^k (1 + s a)^(-m-k) dt,  a = gbar u^-alpha / m
    g = [0.0]
    poch = 1.0
    for k in range(1, t_max + 1):
        poch *= m + (k - 1)

        def integrand(t: float, k: int = k) -> float:
            a = gbar * dist(t) ** -alpha / m
            return a ** k * (1.0 + s * a) ** (-(m + k))

        sign = 1.0 if k % 2 == 1 else -1.0
        if ell0 >= arc:
            g.append(0.0)
        else:
            g.append(sign * density_per_km * poch * integrate(integrand, ell0, arc))
    for t in range(1, t_max + 1):
        acc = 0.0
        for j in range(t):
            acc += math.comb(t - 1, j) * g[t - j] * derivs[j]
        derivs.append(-acc)
    return derivs
