"""Downlink coverage probability for Poisson satellite constellations.

The user attaches to the nearest visible satellite of an orbit. For an
SIR threshold gamma and Nakagami-m fading (integer m), conditioning on
the serving arc coordinate tau and averaging the gamma-distributed
serving power against the interference Laplace transform gives

    P(SIR > gamma | visible) = int_0^L sum_{t=0}^{m-1} ((-s)^t / t!)
        * L_I^(t)(s) * lambda e^(-lambda tau) / (1 - e^(-lambda L)) dtau,

with s = m gamma u(tau)^alpha evaluated at the serving distance u(tau).
The SNR expression replaces the Laplace factors by the gamma-tail sum
e^(-q) sum q^t / t! with q = m gamma sigma^2 u^alpha / (P G); path-loss
distances there are in meters, the one place absolute units matter.

Multiple orbits combine through the best visible satellite: conditioned
on every orbit being visible the per-orbit successes are independent,
and the unconditional form multiplies by the joint visibility
probability. All integrals run in the arc-length coordinate, where the
Poisson law is a plain exponential and the integrands stay smooth.

Each quantity has two entries: `*_coverage_conditional` maps linear
thresholds (a scalar, or an array returned in its shape) to the
visibility-conditioned coverage, and `*_coverage_curve` maps a dB grid
to the unconditional `CoverageCurve`, the unclipped conditional value
times the joint visibility probability. A single orbit is the one-orbit
constellation under the same rule: when any orbit never enters the
window the curve is 0, once its arguments are checked, while the
conditional entries raise, as they condition on an impossible event.

A whole grid runs on one fixed tensor Gauss-Legendre rule: graded
panels over tau, and for every tau one rule over the interferer arc
[tau, L]. The SIR tensor (thresholds x serving x interferer nodes) is
evaluated in cache-sized tiles, each through the reciprocal-form
nonnegative series of `interference`; a value that comes out non-finite
raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import (
    KM_IN_M,
    EarthConstants,
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    visible_arc_length,
)
from .interference import ChannelParams, _taylor_sum
from .numerics import ARC_NODES, PANEL_NODES, exponential_panels, gauss_legendre

__all__ = [
    "LinkBudget",
    "ConstellationSpec",
    "CoverageCurve",
    "CURVE_KINDS",
    "db_to_linear",
    "threshold_grid_db",
    "sir_coverage_conditional",
    "snr_coverage_conditional",
    "max_sir_coverage_conditional",
    "sir_coverage_curve",
    "snr_coverage_curve",
    "max_sir_coverage_curve",
]

CURVE_KINDS = frozenset(
    {
        "SIR-analytic",
        "SNR-analytic",
        "maxSIR-analytic",
        "SIR-MC",
        "SNR-MC",
        "SINR-MC",
        "maxSIR-MC",
    }
)

# tensor nodes (thresholds x serving x interferer) per tile of the SIR
# kernel. The kernel keeps five arrays of a tile's shape live; at 2^15
# float64 nodes that is 1.25 MiB, inside a 2 MiB per-core L2 cache, where
# 2^18 (2 MiB per array) made the kernel 1.9-3x slower. Tiles also bound
# memory for any threshold grid and any orbit density.
_BLOCK = 1 << 15


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def threshold_grid_db(start_db: float, stop_db: float, step_db: float) -> tuple[float, ...]:
    """Inclusive dB grid from start to stop in the given step."""
    if step_db <= 0:
        raise ValueError("threshold step must be positive")
    if stop_db < start_db:
        raise ValueError("threshold range must satisfy start <= stop")
    count = int(math.floor((stop_db - start_db) / step_db + 1e-9)) + 1
    return tuple(start_db + i * step_db for i in range(count))


@dataclass(frozen=True)
class LinkBudget:
    """Link budget for the noise-limited quantities.

    Noise power is density + noise figure + 10 log10(bandwidth); the
    linear `snr_scale` is P G / sigma^2 with path loss applied to
    distances in meters.
    """

    tx_power_dbm: float = 40.0
    serving_gain_db: float = 30.0
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 11.0
    bandwidth_hz: float = 1.0e7

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def noise_power_dbm(self) -> float:
        return self.noise_density_dbm_hz + self.noise_figure_db + 10.0 * math.log10(self.bandwidth_hz)

    @property
    def snr_scale_db(self) -> float:
        return self.tx_power_dbm + self.serving_gain_db - self.noise_power_dbm

    @property
    def snr_scale(self) -> float:
        """P G / sigma^2 as a linear ratio (meter-domain path loss)."""
        return db_to_linear(self.snr_scale_db)


@dataclass(frozen=True)
class ConstellationSpec:
    """One or more orbits sharing an altitude shell, window and channel."""

    orbits: tuple[OrbitGeometry, ...]
    densities_per_km: tuple[float, ...]
    window: VisibilityWindow
    channel: ChannelParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "orbits", tuple(self.orbits))
        object.__setattr__(self, "densities_per_km", tuple(float(x) for x in self.densities_per_km))
        if not self.orbits:
            raise ValueError("a constellation needs at least one orbit")
        if len(self.orbits) != len(self.densities_per_km):
            raise ValueError("orbits and densities must have the same length")
        if any(lam <= 0 for lam in self.densities_per_km):
            raise ValueError("satellite density must be positive")
        radius = self.orbits[0].radius_km
        if any(o.radius_km != radius for o in self.orbits):
            raise ValueError("all orbits must share one altitude shell")

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)

    @property
    def earth(self) -> EarthConstants:
        return self.orbits[0].earth


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability sampled on a dB threshold grid.

    ci_low / ci_high are per-point confidence bounds for Monte-Carlo
    curves and None for analytic ones; metadata records how the curve
    was produced (conditioning, parameters, trial counts).
    """

    thresholds_db: tuple[float, ...]
    values: tuple[float, ...]
    kind: str
    metadata: dict = field(default_factory=dict)
    ci_low: tuple[float, ...] | None = None
    ci_high: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds_db", tuple(float(x) for x in self.thresholds_db))
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if len(self.thresholds_db) != len(self.values):
            raise ValueError("thresholds and values must have the same length")
        if any(not -1e-9 <= v <= 1.0 + 1e-9 for v in self.values):
            raise ValueError("coverage values must lie in [0, 1]")
        object.__setattr__(self, "values", tuple(min(1.0, max(0.0, v)) for v in self.values))
        if (self.ci_low is None) != (self.ci_high is None):
            raise ValueError("confidence bounds must be given together")
        for name in ("ci_low", "ci_high"):
            ci = getattr(self, name)
            if ci is not None:
                ci = tuple(float(x) for x in ci)
                if len(ci) != len(self.values):
                    raise ValueError("confidence bounds must match the grid length")
                object.__setattr__(self, name, ci)

    def __len__(self) -> int:
        return len(self.values)


def _unit(values: np.ndarray) -> np.ndarray:
    """Coverage values clipped to [0, 1]; a non-finite value is an error,
    never a silent 0 or 1."""
    if not np.all(np.isfinite(values)):
        raise ValueError("analytic coverage is not finite")
    return np.clip(values, 0.0, 1.0)


def _shaped(values: np.ndarray, gamma):
    """Clipped coverage in the shape of gamma: a float for a scalar."""
    values = _unit(values).reshape(np.shape(gamma))
    return float(values) if values.ndim == 0 else values


def _checked(density_per_km: float, channel: ChannelParams, gammas, label: str) -> tuple[int, np.ndarray]:
    """Integer m and the linear thresholds as a flat array, once the
    density, m and thresholds are all valid."""
    if density_per_km <= 0:
        raise ValueError("satellite density must be positive")
    m = channel.integer_m
    gammas = np.asarray(gammas, dtype=float).ravel()
    if not np.all((gammas > 0) & np.isfinite(gammas)):
        raise ValueError(f"{label} threshold must be positive and finite")
    return m, gammas


def _unconditional(label: str, kernel, constellation: ConstellationSpec, gammas) -> np.ndarray:
    """Unconditional coverage at linear thresholds: the unclipped
    conditional kernel(gammas) times prod_n P(orbit n has a visible
    satellite) or, once the arguments are checked, zero when some orbit
    never enters the window."""
    arcs = [visible_arc_length(orbit, constellation.window) for orbit in constellation.orbits]
    if min(arcs) <= 0.0:
        # the spec has checked every density; this checks m and the thresholds
        _checked(constellation.densities_per_km[0], constellation.channel, gammas, label)
        return np.zeros(len(gammas))
    vis = math.prod(-math.expm1(-lam * arc) for lam, arc in zip(constellation.densities_per_km, arcs))
    return _unit(kernel(gammas) * vis)


def _serving_rule(orbit: OrbitGeometry, window: VisibilityWindow, density_per_km: float):
    """Nodes tau, weights and arc L of the serving-arc average.

    Given at least one visible satellite, tau has the truncated
    exponential density lambda e^(-lambda tau) / (1 - e^(-lambda L)) on
    [0, L]; the weights carry that density, normalised so they sum to 1.
    """
    arc = visible_arc_length(orbit, window)
    if arc <= 0.0:
        raise ValueError("orbit never enters the visibility window")
    tau, weights = exponential_panels(arc, density_per_km, PANEL_NODES)
    weights = weights * np.exp(-density_per_km * tau)
    return tau, weights / weights.sum(), arc


def _sir_conditional(orbit, window, density_per_km, channel, gammas) -> np.ndarray:
    """P(SIR > gamma | visible) for an array of linear thresholds, unclipped.

    With the serving satellite at tau, s a(t) = gamma g_i_bar
    (u(tau) / u(t))^alpha; the ratio stays in (0, 1] at any alpha. A
    tile of at most _BLOCK nodes holds several whole thresholds or, on a
    dense orbit, one threshold over a run of serving nodes.
    """
    m, gammas = _checked(density_per_km, channel, gammas, "SIR")
    tau, weights, arc = _serving_rule(orbit, window, density_per_km)
    t, inner = gauss_legendre(tau, arc, ARC_NODES)
    ratio = (arc_to_distance(orbit, tau)[:, None] / arc_to_distance(orbit, t)) ** channel.alpha
    rows = _BLOCK // ARC_NODES
    tau_step = min(tau.size, rows)
    gamma_step = max(1, rows // tau.size)
    given_tau = np.empty((gammas.size, tau.size))
    for i in range(0, gammas.size, gamma_step):
        scale = gammas[i : i + gamma_step, None, None] * channel.g_i_bar
        for j in range(0, tau.size, tau_step):
            run = slice(j, j + tau_step)
            given_tau[i : i + gamma_step, run] = _taylor_sum(scale * ratio[run], inner[run], density_per_km, m)
    return given_tau @ weights


def _snr_conditional(orbit, window, density_per_km, channel, budget, gammas) -> np.ndarray:
    """P(SNR > gamma | visible) for an array of linear thresholds, unclipped.

    The serving fading power's gamma tail is e^(-q) sum_{t<m} q^t / t!,
    summed in logs so a huge q gives 0, not NaN.
    """
    m, gammas = _checked(density_per_km, channel, gammas, "SNR")
    tau, weights, _ = _serving_rule(orbit, window, density_per_km)
    log_q = np.log(m * gammas / budget.snr_scale)[:, None] + channel.alpha * np.log(
        KM_IN_M * arc_to_distance(orbit, tau)
    )
    # past q = e^700 every tail term is 0 in double precision: capping
    # log q there keeps exp from overflowing without changing a value
    q = np.exp(np.minimum(log_q, 700.0))
    tail = sum(np.exp(t * log_q - q - math.lgamma(t + 1)) for t in range(m))
    return tail @ weights


def sir_coverage_conditional(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    gamma,
):
    """P(SIR > gamma | at least one satellite visible) for one orbit.

    Requires integer m: the series in the Laplace derivatives has m terms.
    """
    return _shaped(_sir_conditional(orbit, window, density_per_km, channel, gamma), gamma)


def snr_coverage_conditional(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    budget: LinkBudget,
    gamma,
):
    """P(SNR > gamma | at least one satellite visible), interference-free.

    The serving fading power's gamma tail gives e^(-q) sum_{t<m} q^t / t!
    with q = m gamma sigma^2 u^alpha / (P G) and u in meters.
    """
    return _shaped(_snr_conditional(orbit, window, density_per_km, channel, budget, gamma), gamma)


def _max_sir_conditional(constellation: ConstellationSpec, gammas) -> np.ndarray:
    """1 - prod_n (1 - p_n) over the orbits, unclipped; orbits that differ
    only in ascending node share one per-orbit curve."""
    curves: dict[tuple[float, float, float], np.ndarray] = {}
    fail = 1.0
    for index, (orbit, lam) in enumerate(zip(constellation.orbits, constellation.densities_per_km)):
        if visible_arc_length(orbit, constellation.window) <= 0.0:
            raise ValueError(f"orbit {index} never enters the visibility window")
        key = (orbit.theta_rad, orbit.altitude_km, lam)
        if key not in curves:
            curves[key] = _unit(_sir_conditional(orbit, constellation.window, lam, constellation.channel, gammas))
        fail = fail * (1.0 - curves[key])
    return 1.0 - fail


def max_sir_coverage_conditional(constellation: ConstellationSpec, gamma):
    """P(best per-orbit SIR > gamma | every orbit has a visible satellite).

    Interference is per-orbit, so conditioned on joint visibility the
    per-orbit successes are independent: 1 - prod_n (1 - p_n).
    """
    return _shaped(_max_sir_conditional(constellation, gamma), gamma)


def _metadata(orbit: OrbitGeometry, density_per_km: float, channel: ChannelParams) -> dict:
    return {
        "theta_rad": orbit.theta_rad,
        "altitude_km": orbit.altitude_km,
        "density_per_km": density_per_km,
        "alpha": channel.alpha,
        "m": channel.m,
        "conditioning": "none",
    }


def sir_coverage_curve(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    thresholds_db,
) -> CoverageCurve:
    """Unconditional SIR coverage on a dB threshold grid: the conditional
    coverage times the visibility probability, zero for an orbit that
    never enters the window."""
    kernel = partial(_sir_conditional, orbit, window, density_per_km, channel)
    gammas = [db_to_linear(g) for g in thresholds_db]
    values = _unconditional("SIR", kernel, ConstellationSpec((orbit,), (density_per_km,), window, channel), gammas)
    return CoverageCurve(thresholds_db, values, "SIR-analytic", _metadata(orbit, density_per_km, channel))


def snr_coverage_curve(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    channel: ChannelParams,
    budget: LinkBudget,
    thresholds_db,
) -> CoverageCurve:
    """Unconditional SNR coverage on a dB threshold grid, zero for an
    orbit that never enters the window."""
    kernel = partial(_snr_conditional, orbit, window, density_per_km, channel, budget)
    gammas = [db_to_linear(g) for g in thresholds_db]
    values = _unconditional("SNR", kernel, ConstellationSpec((orbit,), (density_per_km,), window, channel), gammas)
    meta = {**_metadata(orbit, density_per_km, channel), "snr_scale_db": budget.snr_scale_db}
    return CoverageCurve(thresholds_db, values, "SNR-analytic", meta)


def sir_coverage(orbit, window, density_per_km, channel, gamma: float) -> float:
    """Unconditional P(SIR > gamma) at one linear threshold. Not exported:
    it stays only while the benchmark's layer probe times single points
    under this name; use `sir_coverage_curve`."""
    kernel = partial(_sir_conditional, orbit, window, density_per_km, channel)
    spec = ConstellationSpec((orbit,), (density_per_km,), window, channel)
    return float(_unconditional("SIR", kernel, spec, [gamma])[0])


def snr_coverage(orbit, window, density_per_km, channel, budget, gamma: float) -> float:
    """Unconditional P(SNR > gamma) at one linear threshold; not exported,
    like `sir_coverage`."""
    kernel = partial(_snr_conditional, orbit, window, density_per_km, channel, budget)
    spec = ConstellationSpec((orbit,), (density_per_km,), window, channel)
    return float(_unconditional("SNR", kernel, spec, [gamma])[0])


def max_sir_coverage_curve(constellation: ConstellationSpec, thresholds_db) -> CoverageCurve:
    """Joint-visibility best-satellite SIR coverage across the
    constellation's orbits: the conditional combiner times
    prod_n P(orbit n visible), zero when some orbit never enters the
    window. Trials with any invisible orbit count as uncovered, matching
    the empirical estimator of the same name."""
    kernel = partial(_max_sir_conditional, constellation)
    gammas = [db_to_linear(g) for g in thresholds_db]
    values = _unconditional("SIR", kernel, constellation, gammas)
    meta = {
        "n_orbits": constellation.n_orbits,
        "alpha": constellation.channel.alpha,
        "m": constellation.channel.m,
        "conditioning": "joint",
    }
    return CoverageCurve(thresholds_db, values, "maxSIR-analytic", meta)
