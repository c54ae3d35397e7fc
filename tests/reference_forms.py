"""Independent restatements the tests compare the library against.

None of these run in the library. `eta` is the double-angle form
cos(ell / R) = 2 x^2 - 1 of the arc endpoint, x = cap / (R sin(theta)),
and `visible_arc_double_angle` the visible arc R arccos(eta) behind a
band test; the library takes the arc as 2 R arccos(x), from the window
half-angle the simulation draws in. `adaptive` is scipy's adaptive
Gauss-Kronrod `quad` behind explicit tolerances; the library's fixed
Gauss-Legendre rule is checked against it. The adaptive coverage forms
nest it the way the closed forms read: an outer integral over the
serving arc coordinate, inner integrals over the interferer arc, and the
alternating derivative series sum (-s)^t / t! L^(t)(s). `nearest_pdf`
is the nearest-distance density in the arc coordinate, the library's
CCDF differentiated through d ell / d r; the library needs only the
CCDF. `interferer_load` builds the load a(t) on the library's inner
rule from its nodes, not from the library's path-loss ratios;
`log_laplace` is the interference transform on it in the log1p form for
real m, and `snr_conditional_log_tail` the SNR coverage with its gamma
tail summed in logs; the library runs both through its Taylor recursion.
The distance-domain forms evaluate the nearest-distance law and
the interference transform directly in the distance variable, with the
inverse-square-root endpoint weight the arc coordinate removes, so they
check that substitution. `sample_orbit` builds explicit 3-D satellite
positions on the whole circle and applies the elevation-angle test, so
it checks the batch kernels' window draws, which work in the height
coordinate alone. `arc_length_bruteforce_one_shot` is validation's
brute-force arc count drawn and counted in one pass over full-size
arrays, the count and generator state its skip-ahead count must
reproduce bit for bit.
`window_draw` draws a batch's window in one piece, without chunks;
`satellite_distances` and `score_per_satellite` score drawn trials one
satellite and one trial at a time, with the law of cosines' cosine, the
square root, r^-alpha and exact sums beyond a cut offset, the form the
chunked kernel's half-angle squared-distance weights must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as sci_integrate

from orbitcov import (
    ChannelParams,
    LinkBudget,
    NearestDistanceLaw,
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    d_min,
    distance_to_arc,
    visible_arc_length,
)
from orbitcov.geometry import KM_IN_M, TWO_PI, _window_half_angle
from orbitcov.coverage import _serving_rule
from orbitcov.interference import _serving_arc
from orbitcov.numerics import ARC_NODES, gauss_legendre

# band-edge rounding window of eta, never real overshoot
_CLAMP_TOL = 1e-12


class ReferenceQuadratureError(RuntimeError):
    """The adaptive reference did not meet its tolerance; carries the
    best estimate and its error bound."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def adaptive(
    func,
    lower: float,
    upper: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_subdivisions: int = 200,
) -> float:
    """Adaptive Gauss-Kronrod on [lower, upper] that meets its tolerances
    or raises; an empty interval integrates to 0.0 without evaluating
    ``func``."""
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("quadrature tolerances must be positive")
    if max_subdivisions < 1:
        raise ValueError("max_subdivisions must be at least 1")
    if not lower <= upper:
        raise ValueError("integration bounds must satisfy lower <= upper")
    if lower == upper:
        return 0.0
    out = sci_integrate.quad(
        func, lower, upper, epsabs=abs_tol, epsrel=rel_tol, limit=max_subdivisions, full_output=1
    )
    if len(out) > 3:
        raise ReferenceQuadratureError(
            f"quad on [{lower!r}, {upper!r}] did not converge: {out[3]}",
            estimate=out[0],
            error_bound=out[1],
        )
    return out[0]


def laplace_derivatives_adaptive(
    orbit: OrbitGeometry, density: float, channel: ChannelParams, ell0: float, arc: float, s: float, t_max: int
) -> list[float]:
    """[L(s), ..., L^(t_max)(s)] with the interferers on [ell0, arc],
    each integral adaptive, through L^(t) = sum_j C(t-1, j) phi^(t-j) L^(j)."""
    gbar, alpha, m = channel.g_i_bar, channel.alpha, channel.m

    def load(t: float) -> float:
        return gbar * float(arc_to_distance(orbit, t)) ** -alpha / m

    derivs = [math.exp(-density * adaptive(lambda t: 1.0 - (1.0 + s * load(t)) ** -m, ell0, arc))]
    g = [0.0]
    poch = 1.0
    for k in range(1, t_max + 1):
        poch *= m + (k - 1)
        sign = 1.0 if k % 2 == 1 else -1.0
        integral = adaptive(lambda t, k=k: load(t) ** k * (1.0 + s * load(t)) ** (-(m + k)), ell0, arc)
        g.append(sign * density * poch * integral)
    for t in range(1, t_max + 1):
        derivs.append(-sum(math.comb(t - 1, j) * g[t - j] * derivs[j] for j in range(t)))
    return derivs


def _serving_average_adaptive(orbit, window, density, success) -> float:
    # the outer tolerance is looser than the inner one so the outer rule
    # never chases the inner rule's noise floor
    arc = visible_arc_length(orbit, window)
    total = adaptive(
        lambda tau: success(tau, float(arc_to_distance(orbit, tau)), arc) * density * math.exp(-density * tau),
        0.0,
        arc,
        1e-7,
        1e-10,
    )
    return total / -math.expm1(-density * arc)


def sir_coverage_adaptive(orbit, window, density: float, channel: ChannelParams, gamma: float) -> float:
    """P(SIR > gamma | visible) by nested adaptive quadrature, unclipped."""
    m = channel.integer_m

    def success(tau, r, arc):
        s = m * gamma * r**channel.alpha
        derivs = laplace_derivatives_adaptive(orbit, density, channel, tau, arc, s, m - 1)
        acc, coef = derivs[0], 1.0
        for t in range(1, m):
            coef *= -s / t
            acc += coef * derivs[t]
        return acc

    return _serving_average_adaptive(orbit, window, density, success)


def snr_coverage_adaptive(orbit, window, density: float, channel: ChannelParams, budget: LinkBudget, gamma: float) -> float:
    """P(SNR > gamma | visible) by adaptive quadrature, unclipped."""
    m = channel.integer_m

    def success(tau, r, arc):
        q = m * gamma * (KM_IN_M * r) ** channel.alpha / budget.snr_scale
        return math.exp(-q) * sum(q**t / math.factorial(t) for t in range(m))

    return _serving_average_adaptive(orbit, window, density, success)


def eta(radius_km: float, theta_rad: float, cap_base_km: float):
    """Cosine of the angular extent of the orbit arc inside a spherical cap.

    The cap is the portion of the orbit sphere above the plane at height
    ``cap_base_km`` along the cap axis; when the orbit reaches the cap, the
    intersection arc has length ``radius_km * arccos(eta)``.

    Values within _CLAMP_TOL of +/-1 are clamped so band-edge rounding
    noise cannot leak NaN through arccos; values farther outside are
    returned untouched so callers can detect out-of-band geometry.
    """
    sin_t = math.sin(theta_rad)
    if sin_t == 0.0:
        # orbit plane contains the cap axis only in the degenerate sense;
        # callers must gate on the visibility band before calling
        raise ValueError("eta is undefined for sin(theta) = 0")
    x = cap_base_km / (radius_km * sin_t)
    v = 2.0 * x * x - 1.0
    if abs(v - 1.0) <= _CLAMP_TOL:
        return 1.0
    if abs(v + 1.0) <= _CLAMP_TOL:
        return -1.0
    return v


def visible_arc_double_angle(orbit: OrbitGeometry, window: VisibilityWindow) -> float:
    """Visible arc R arccos(eta), zero past the band
    |theta - pi/2| <= arccos(cap_base / R)."""
    R = orbit.radius_km
    band = math.acos(window.cap_base_km / R)
    if abs(orbit.theta_rad - math.pi / 2) > band:
        return 0.0
    return R * math.acos(min(eta(R, orbit.theta_rad, window.cap_base_km), 1.0))


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


def nearest_ccdf_distance_form(law: NearestDistanceLaw, r: float) -> float:
    """CCDF evaluated directly in the distance domain.

    Uses R * arccos(eta) for the arc inside distance r, valid for the
    near branch r <= sqrt(R^2 + R_E^2) that the law's support lies on
    whenever the window keeps satellites above the horizon.
    """
    lo, hi = law.d_min_km, law.d_max_km
    if r <= lo:
        return 1.0
    if r >= hi:
        return 0.0
    orbit = law.orbit
    R = orbit.radius_km
    re = orbit.earth.radius_km
    cap = (R * R + re * re - r * r) / (2.0 * re)
    ell = R * math.acos(eta(R, orbit.theta_rad, cap))
    lam = law.density_per_km
    p_vis = 1.0 - math.exp(-lam * law.arc_length_km)
    return (math.exp(-lam * ell) - math.exp(-lam * law.arc_length_km)) / p_vis


def nearest_pdf_distance_form(law: NearestDistanceLaw, r: float) -> float:
    """Density evaluated directly in the distance domain."""
    lo, hi = law.d_min_km, law.d_max_km
    if r <= lo or r >= hi:
        raise ValueError("pdf is defined on the open interval (d_min, d_max)")
    orbit = law.orbit
    R = orbit.radius_km
    re = orbit.earth.radius_km
    sin_t = math.sin(orbit.theta_rad)
    lam = law.density_per_km
    cap = (R * R + re * re - r * r) / (2.0 * re)
    e = eta(R, orbit.theta_rad, cap)
    p_vis = 1.0 - math.exp(-lam * law.arc_length_km)
    return (
        2.0
        * r
        * lam
        * (R * R + re * re - r * r)
        * math.exp(-lam * R * math.acos(e))
        / (R * re * re * sin_t * sin_t * p_vis * math.sqrt(1.0 - e * e))
    )


def interferer_load(orbit: OrbitGeometry, channel: ChannelParams, ell0: float, arc: float):
    """a(t) = g_i_bar u(t)^-alpha / m at the nodes of the library's inner
    rule on [ell0, arc], and the rule's weights there, built straight from
    the rule and the arc-to-distance map rather than from the path-loss
    ratios the library scales."""
    t, weights = gauss_legendre(ell0, arc, ARC_NODES)
    return channel.g_i_bar * arc_to_distance(orbit, t) ** -channel.alpha / channel.m, weights


def log_laplace(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    serving_distance_km: float,
    s: float,
) -> float:
    """ln of the interference Laplace transform at transform variable s,
    on the library's inner rule but in the log1p form
    -lambda int (1 - exp(-m log1p(s a))) dt, for any real m >= 0.5.

    s carries units of km^alpha (it multiplies g_i_bar * u^-alpha with u
    in km). Always <= 0, exactly 0 at s = 0 or when the serving satellite
    sits on the far window rim and no interferer can exist.
    """
    if s < 0:
        raise ValueError("transform variable must be nonnegative")
    if not (density_per_km > 0 and math.isfinite(density_per_km)):
        raise ValueError("satellite density must be positive and finite")
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    a, weights = interferer_load(orbit, channel, ell0, arc)
    return float(density_per_km * np.sum(weights * np.expm1(-channel.m * np.log1p(s * a))))


def snr_conditional_log_tail(orbit, window, density: float, channel: ChannelParams, m: int, gammas, budget: LinkBudget):
    """P(SNR > gamma | visible) on the library's serving rule, with the
    gamma tail summed term by term in logs, exp(t log q - q - ln t!): a
    huge q gives 0, not NaN."""
    tau, weights, _ = _serving_rule(orbit, window, density)
    log_q = np.log(m * np.asarray(gammas, dtype=float) / budget.snr_scale)[:, None] + channel.alpha * np.log(
        KM_IN_M * arc_to_distance(orbit, tau)
    )
    q = np.exp(np.minimum(log_q, 700.0))
    tail = sum(np.exp(t * log_q - q - math.lgamma(t + 1)) for t in range(m))
    return tail @ weights


def log_laplace_distance_form(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    serving_distance_km: float,
    s: float,
) -> float:
    """Distance-domain evaluation of `log_laplace`.

    Integrates over the interferer distance u in [r, d_max] with the
    arc-measure Jacobian 2u(R^2 + R_E^2 - u^2) / (R R_E^2 sin^2(theta)
    sqrt(1 - eta_u^2)); the endpoint weight is integrable and left to the
    adaptive rule, which is the point of keeping this form around.
    """
    if s < 0:
        raise ValueError("transform variable must be nonnegative")
    ell0, arc = _serving_arc(orbit, window, serving_distance_km)
    if s == 0.0 or ell0 >= arc:
        return 0.0
    R = orbit.radius_km
    re = orbit.earth.radius_km
    sin_t = math.sin(orbit.theta_rad)
    gbar = channel.g_i_bar
    alpha = channel.alpha
    m = channel.m
    r = min(max(serving_distance_km, d_min(orbit)), window.d_max_km)

    def integrand(u: float) -> float:
        a = gbar * u ** -alpha / m
        e = eta(R, orbit.theta_rad, (R * R + re * re - u * u) / (2.0 * re))
        jac = 2.0 * u * (R * R + re * re - u * u) / (R * re * re * sin_t * sin_t * math.sqrt(1.0 - e * e))
        return (1.0 - (1.0 + s * a) ** -m) * jac

    return -density_per_km * adaptive(integrand, r, window.d_max_km)


def orbit_plane_basis(theta_rad: float, phi_rad: float):
    """Orthonormal basis (e1, e2, normal) of the orbit plane.

    The pair (e1, e2) spans the plane through the origin whose unit normal
    is (sin t cos p, sin t sin p, cos t); points on the orbit are
    R*(cos psi * e1 + sin psi * e2). The z-coordinate of such a point is
    -R sin(theta) cos(psi), which is what every height-based shortcut in
    the library relies on.
    """
    st, ct = math.sin(theta_rad), math.cos(theta_rad)
    sp, cp = math.sin(phi_rad), math.cos(phi_rad)
    e1 = np.array([ct * cp, ct * sp, -st])
    e2 = np.array([-sp, cp, 0.0])
    normal = np.array([st * cp, st * sp, ct])
    return e1, e2, normal


@dataclass
class SatelliteSnapshot:
    """One realization of an orbit's satellites, sorted by distance."""

    positions_km: np.ndarray  # (M, 3)
    distances_km: np.ndarray  # (M,)
    visible: np.ndarray  # (M,) bool

    @property
    def count(self) -> int:
        return self.distances_km.size

    @property
    def nearest_visible_km(self) -> float:
        """Distance to the nearest visible satellite, inf if none."""
        if not self.visible.any():
            return math.inf
        return float(self.distances_km[self.visible].min())


def sample_orbit(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    gen: np.random.Generator,
) -> SatelliteSnapshot:
    """Draw one Poisson snapshot of the orbit in explicit 3-D coordinates.

    Visibility here is the elevation-angle test against the user at
    (0, 0, R_E), not the cap-height shortcut the batch kernels use; the
    two must agree, and tests lean on that.
    """
    if density_per_km <= 0:
        raise ValueError("satellite density must be positive")
    R = orbit.radius_km
    re = orbit.earth.radius_km
    count = gen.poisson(TWO_PI * R * density_per_km)
    psi = gen.uniform(0.0, TWO_PI, count)
    e1, e2, _ = orbit_plane_basis(orbit.theta_rad, orbit.phi_rad)
    pos = R * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)
    delta = pos - np.array([0.0, 0.0, re])
    dist = np.linalg.norm(delta, axis=1)
    with np.errstate(invalid="ignore"):
        visible = delta[:, 2] >= dist * math.sin(window.omega_min_rad)
    order = np.argsort(dist, kind="stable")
    return SatelliteSnapshot(
        positions_km=pos[order],
        distances_km=dist[order],
        visible=visible[order],
    )


def arc_length_bruteforce_one_shot(orbit: OrbitGeometry, window: VisibilityWindow, points: int, gen) -> float:
    """Visible arc by jittered-stratified counting: one uniform angle per
    equal slice of the circle, counted where the height clears the cap."""
    psi = (np.arange(points) + gen.random(points)) * (TWO_PI / points)
    z = -orbit.radius_km * math.sin(orbit.theta_rad) * np.cos(psi)
    frac = np.count_nonzero(z > window.cap_base_km) / points
    return frac * TWO_PI * orbit.radius_km


def window_draw(orbit: OrbitGeometry, window: VisibilityWindow, gen, density: float, n: int):
    """Counts and offsets |psi - pi| of n trials, the window drawn in one
    piece: a Poisson(2 R beta lambda) count per trial, offsets U(0, beta)."""
    beta = _window_half_angle(orbit, window)
    counts = gen.poisson(2.0 * orbit.radius_km * beta * density, n)
    return counts, gen.uniform(0.0, beta, int(counts.sum()))


def satellite_distances(orbit: OrbitGeometry, window: VisibilityWindow, offsets) -> np.ndarray:
    """Distance (km) of each satellite at its offset from pi by the law
    of cosines, inf when the offset lies outside the window [0, beta].
    The kernel draws offsets in that window, beta itself included, and
    by the window rule a satellite there is visible; the cap-height test
    would hide some of those on the rim by rounding."""
    R = orbit.radius_km
    re = orbit.earth.radius_km
    z = R * math.sin(orbit.theta_rad) * np.cos(offsets)
    inside = (offsets >= 0.0) & (offsets <= _window_half_angle(orbit, window))
    return np.where(inside, np.sqrt(R * R + re * re - 2.0 * re * z), np.inf)


def score_per_satellite(
    orbit: OrbitGeometry, window: VisibilityWindow, alpha: float, counts, offsets, fading, cut=None
):
    """Per-trial nearest distance (km) and interference sum of drawn
    trials, one trial at a time: the distances, their -alpha power, and
    an exact sum over the satellites beyond the trial's offset in `cut`,
    ones outside the window weighing inf^-alpha = 0. Without `cut` the sum is over
    every satellite but the serving one. Near the top of the orbit many
    offsets round to one distance, so the serving satellite is named by
    its offset, the smallest, as it is nearest in exact arithmetic."""
    r = satellite_distances(orbit, window, offsets)
    nearest = np.full(len(counts), np.inf)
    interference = np.zeros(len(counts))
    start = 0
    for i, count in enumerate(counts):
        seg = slice(start, start + count)
        if count:
            nearest[i] = r[seg].min()
            weight = fading[seg] * r[seg] ** -alpha
            if cut is None:
                interference[i] = math.fsum(np.delete(weight, np.argmin(offsets[seg])))
            else:
                interference[i] = math.fsum(weight[offsets[seg] > cut[i]])
        start += count
    return nearest, interference
