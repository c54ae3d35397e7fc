"""Laplace transform of the aggregate interference from one orbit.

Conditioned on the serving satellite sitting at distance r, the
interferers are the remaining Poisson points on the visible arc beyond
the serving arc coordinate ell(r). With unit-mean gamma fading powers
(Nakagami-m envelopes) and mean interferer antenna gain ratio
g_i_bar, the probability generating functional gives

    ln E[exp(-s I)] = -lambda * integral_{ell(r)}^{L}
        (1 - (1 + s * g_i_bar * u(t)^-alpha / m)^-m) dt,

with u(t) the arc-to-distance map. Everything is integrated in the arc
coordinate, where the integrand is smooth, on one fixed Gauss-Legendre
rule mapped onto [ell(r), L]; the test suite evaluates the same
quantity in the distance domain (with its integrable
inverse-square-root endpoint weight) as an independent cross-check.

Derivatives in s follow the product recursion
L^(t) = sum_j C(t-1, j) phi^(t-j) L^(j) for L = exp(phi), with the phi
derivatives available in closed form. The coverage expressions need the
Taylor terms c_t = (-s)^t / t! * L^(t) for t < m, which the same
recursion gives as c_t = (1/t) sum_{j<t} psi_{t-j} c_j with

    psi_k = lambda m (m+1) ... (m+k-1) / (k-1)!
        * integral (s a)^k (1 + s a)^(-m-k) dt,   a = g_i_bar u^-alpha / m.

Every psi_k and c_t is nonnegative and c_t <= 1, so that form neither
cancels nor overflows at any threshold.

For integer m the coverage kernel `_taylor_sum` evaluates every
integrand from one reciprocal p = 1 / (1 + s a) per node:

    1 - (1 + s a)^-m = (s a p) sum_{j<m} p^j,
    (s a)^k (1 + s a)^(-m-k) = p^m (s a p)^k.

Each factor lies in [0, 1], and s a p = s a / (1 + s a) is a quotient,
not a difference: at small loads the first form keeps full relative
precision where 1 - (1 + s a)^-m would cancel, and at large loads it
saturates at 1 without overflow. Only the reduced exponent goes through
exp. `log_laplace` and `laplace_derivatives` accept any real m >= 0.5
and keep the log1p form, which the tests use as an independent
cross-check of the kernel.
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
from .numerics import ARC_NODES, gauss_legendre

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


def _interferer_load(orbit: OrbitGeometry, channel: ChannelParams, ell0: float, arc: float):
    """a(t) = g_i_bar u(t)^-alpha / m and the weights of the inner rule on [ell0, arc]."""
    t, weights = gauss_legendre(ell0, arc, ARC_NODES)
    return channel.g_i_bar * arc_to_distance(orbit, t) ** -channel.alpha / channel.m, weights


def _log_transform(log1p_load: np.ndarray, weights: np.ndarray, density: float, m: float) -> np.ndarray:
    """ln L from log(1 + s a(t)) on the inner rule (last axis)."""
    return density * np.sum(weights * np.expm1(-m * log1p_load), axis=-1)


def _row_sums(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The inner rule applied along the last axis."""
    return np.einsum("...i,...i->...", values, weights)


def _taylor_sum(load: np.ndarray, weights: np.ndarray, density: float, m: int) -> np.ndarray:
    """sum_{t<m} (-s)^t / t! * L^(t)(s) from the loads s a(t) on the inner
    rule (last axis): the probability that a unit-mean gamma(m) serving
    power beats s times the interference.

    Every integrand comes from p = 1 / (1 + s a) by products and sums
    (see the module docstring); the work runs in place on a few arrays
    of the load's shape.
    """
    p = np.add(load, 1.0)
    np.reciprocal(p, out=p)
    share = np.multiply(load, p)
    if m == 1:
        return np.exp(-density * _row_sums(share, weights))
    geometric = p + 1.0
    power = p * p
    for _ in range(2, m):
        geometric += power
        power *= p
    # geometric = sum_{j<m} p^j, power = p^m
    geometric *= share
    terms = [np.exp(-density * _row_sums(geometric, weights))]
    psi = [None]
    coef = density * m
    for k in range(1, m):
        if k > 1:
            coef *= (m + k - 1) / (k - 1)
        power *= share
        psi.append(coef * _row_sums(power, weights))
    for t in range(1, m):
        terms.append(sum(psi[t - j] * terms[j] for j in range(t)) / t)
    return sum(terms)


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
    a, weights = _interferer_load(orbit, channel, ell0, arc)
    return float(_log_transform(np.log1p(s * a), weights, density_per_km, channel.m))


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
    MAX_DERIVATIVE_ORDER, the most any m <= 10 coverage series uses.
    """
    if not isinstance(t_max, int) or isinstance(t_max, bool):
        raise ValueError("derivative order must be an integer")
    if not 0 <= t_max <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    if s < 0:
        raise ValueError("transform variable must be nonnegative")
    if density_per_km <= 0:
        raise ValueError("satellite density must be positive")
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    a, weights = _interferer_load(orbit, channel, ell0, arc)
    m = channel.m
    derivs = [math.exp(_log_transform(np.log1p(s * a), weights, density_per_km, m))]
    # phi^(k) = -g_k, g_k = (-1)^(k+1) lambda m (m+1) ... (m+k-1)
    #           * int a^k (1 + s a)^(-m-k) dt
    g = [0.0]
    poch = 1.0
    power = (1.0 + s * a) ** -m
    for k in range(1, t_max + 1):
        poch *= m + (k - 1)
        power = power * a / (1.0 + s * a)
        sign = 1.0 if k % 2 == 1 else -1.0
        g.append(sign * density_per_km * poch * float(np.sum(weights * power)))
    for t in range(1, t_max + 1):
        acc = 0.0
        for j in range(t):
            acc += math.comb(t - 1, j) * g[t - j] * derivs[j]
        derivs.append(-acc)
    return derivs
