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

The coverage expressions need the Taylor terms c_t = (-s)^t / t! * L^(t)
for t < m, which the product recursion for L = exp(phi) gives as
c_t = (1/t) sum_{j<t} psi_{t-j} c_j with

    psi_k = lambda m (m+1) ... (m+k-1) / (k-1)!
        * integral (s a)^k (1 + s a)^(-m-k) dt,   a = g_i_bar u^-alpha / m.

Every psi_k and c_t is nonnegative and c_t <= 1, so that form neither
cancels nor overflows at any threshold.

For integer m the coverage kernel evaluates every integrand from one
reciprocal p = 1 / (1 + s a) per node:

    1 - (1 + s a)^-m = (s a p) sum_{j<m} p^j,
    (s a)^k (1 + s a)^(-m-k) = p^m (s a p)^k.

Each factor lies in [0, 1], and s a p = s a / (1 + s a) is a quotient,
not a difference: at small loads the first form keeps full relative
precision where 1 - (1 + s a)^-m would cancel, and at large loads it
saturates at 1 without overflow. `_taylor_integrals` reduces a tile of
loads to the m integrals, in a workspace the caller reuses across tiles;
`_taylor_terms` turns them into the c_t, once per group of thresholds.
Only the reduced exponent goes through exp. With no interferer load and
a noise term q the recursion gives the SNR gamma tail e^(-q) q^t / t!;
`_point_terms` runs it at one serving distance and one s for validation.
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

__all__ = ["ChannelParams"]

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
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("path-loss exponent must be positive and finite")
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError("fading parameter m must be finite and at least 0.5")
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


def _taylor_integrals(load: np.ndarray, weights: np.ndarray, m: int, out: np.ndarray, work: np.ndarray) -> None:
    """Write out[0] = int (s a p) sum_{j<m} p^j and out[k] = int p^m (s a p)^k,
    k < m, for a (rows x nodes) tile of loads s a(t), each as one
    matrix-vector product against `weights`; the caller applies the
    density and any per-row factor of the rule. The work runs in place in
    `work`, four arrays of the load's shape; `load` is only read.
    """
    p, share, geometric, power = work
    np.add(load, 1.0, out=p)
    np.reciprocal(p, out=p)
    np.multiply(load, p, out=share)
    if m > 1:
        np.add(p, 1.0, out=geometric)
        np.multiply(p, p, out=power)
        for _ in range(2, m):
            geometric += power
            power *= p
        # geometric = sum_{j<m} p^j, power = p^m
        geometric *= share
    np.matmul(share if m == 1 else geometric, weights, out=out[0])
    for k in range(1, m):
        power *= share
        np.matmul(power, weights, out=out[k])


def _taylor_terms(integrals: np.ndarray, m: int, q: np.ndarray | None = None) -> list[np.ndarray]:
    """c_t = (-s)^t / t! * L^(t)(s), t < m, from `_taylor_integrals` scaled
    by the density; coverage sums them, the chance that a unit-mean gamma(m)
    serving power beats s I plus any noise. Validation's criterion 4 checks
    single terms: c_0 = L, L^(t) = t! c_t / (-s)^t. A finite noise term q
    per (threshold, serving node) multiplies L by e^(-q): it enters as
    e^(-q) on c_0 and +q on psi_1. Rows past the end of `integrals` are 0
    and cost nothing: the noise alone passes rows 0 and 1 as zeros."""
    rows = len(integrals)
    terms = [np.exp(-integrals[0] if q is None else -(integrals[0] + q))]
    psi = [None]
    coef = float(m)
    for k in range(1, rows):
        if k > 1:
            coef *= (m + k - 1) / (k - 1)
        psi.append(coef * integrals[k])
    if q is not None and m > 1:
        psi[1] = psi[1] + q
    for t in range(1, m):
        terms.append(sum(psi[t - j] * terms[j] for j in range(max(0, t - rows + 1), t)) / t)
    return terms


def _point_terms(orbit, window, density_per_km, channel, serving_distance_km, s) -> list[float]:
    """c_0 ... c_{m-1} of the coverage kernel at one serving distance and
    one transform variable s >= 0 (km^alpha), for integer m."""
    m = channel.integer_m
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    a, weights = _interferer_load(orbit, channel, ell0, arc)
    load = (s * a)[None, :]
    integrals = np.empty((m, 1))
    _taylor_integrals(load, weights, m, integrals, np.empty((4,) + load.shape))
    return [float(c[0]) for c in _taylor_terms(density_per_km * integrals, m)]


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

    Returns [L(s), L'(s), ..., L^(t_max)(s)] for any real m >= 0.5, from
    the log1p form and the product recursion
    L^(t) = sum_j C(t-1, j) phi^(t-j) L^(j) for L = exp(phi). Orders are
    capped at MAX_DERIVATIVE_ORDER, the most any m <= 10 coverage series
    uses. Not exported: it stays only while the benchmark's layer probe
    times the transform under this name; coverage and validation run
    `_point_terms` and `_taylor_terms`.
    """
    if not isinstance(t_max, int) or isinstance(t_max, bool):
        raise ValueError("derivative order must be an integer")
    if not 0 <= t_max <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    if s < 0:
        raise ValueError("transform variable must be nonnegative")
    if not (density_per_km > 0 and math.isfinite(density_per_km)):
        raise ValueError("satellite density must be positive and finite")
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    a, weights = _interferer_load(orbit, channel, ell0, arc)
    m = channel.m
    derivs = [math.exp(density_per_km * np.sum(weights * np.expm1(-m * np.log1p(s * a))))]
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
