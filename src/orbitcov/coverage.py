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
distances there are in meters, the one place absolute units matter. The
tail runs through the same Taylor recursion as SIR, with e^(-q) in place
of the transform and no interferer load.

SIR and SNR alike combine orbits through the best visible satellite:
conditioned on every orbit being visible the per-orbit successes are
independent, and the unconditional form multiplies by the joint
visibility probability. One combiner and one curve builder serve both
quantities, and a single orbit is the one-orbit constellation: for one
orbit the combiner returns the per-orbit value bit for bit. All
integrals run in the arc-length coordinate, where the Poisson law is a
plain exponential and the integrands stay smooth.

There are two kinds of entry. `coverage_conditional` maps linear
thresholds (a scalar, or an array returned in its shape) to the best
per-orbit SIR coverage, or SNR coverage under a link budget,
conditioned on every orbit of the constellation having a visible
satellite. The `*_coverage_curve` builders map a dB grid to the
unconditional `CoverageCurve`, the unclipped conditional value times
the joint visibility probability. Both check m and the thresholds
before visibility; then, when any orbit never enters the window, the
curve is 0 while `coverage_conditional` raises, as it conditions on an
impossible event. A curve holds numbers only: the kind a result file
names it by is spelled in `cli.coverage_rows` alone.

A whole grid runs on one fixed tensor Gauss-Legendre rule: graded
panels over tau, and for every tau one rule over the interferer arc
[tau, L]. The SIR tensor (thresholds x serving x interferer nodes) is
evaluated in cache-sized tiles that only integrate, in one workspace per
curve; the Taylor recursion of `interference` runs once per bounded group
of thresholds. A non-finite value, or one off [0, 1] beyond rounding, raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distance import NearestDistanceLaw
from .geometry import (
    KM_IN_M,
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    visible_arc_length,
)
from .interference import ChannelParams, _interferer_rule, _taylor_integrals, _taylor_terms
from .numerics import ARC_NODES, PANEL_NODES, exponential_panels

__all__ = [
    "LinkBudget",
    "ConstellationSpec",
    "CoverageCurve",
    "db_to_linear",
    "threshold_grid_db",
    "coverage_conditional",
    "sir_coverage_curve",
    "snr_coverage_curve",
    "max_sir_coverage_curve",
]

# tensor nodes (thresholds x serving x interferer) per tile of the SIR
# kernel. A curve allocates one workspace of five tile-sized rows (load,
# p, share, geometric, power) and every tile runs in it; at 2^15 float64
# nodes that is 1.25 MiB, inside a 2 MiB per-core L2 cache, where 2^18
# (2 MiB per row) made the kernel 1.9-3x slower. Tiles also bound memory
# for any threshold grid and any orbit density.
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
        entries = (
            self.tx_power_dbm,
            self.serving_gain_db,
            self.noise_density_dbm_hz,
            self.noise_figure_db,
            self.bandwidth_hz,
        )
        if not all(math.isfinite(x) for x in entries):
            raise ValueError("link budget entries must be finite")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        try:
            scale = self.snr_scale
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ValueError(f"P G / sigma^2 of {self.snr_scale_db:g} dB is not a finite, nonzero double")

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
        if not all(lam > 0 and math.isfinite(lam) for lam in self.densities_per_km):
            raise ValueError("satellite density must be positive and finite")
        radius = self.orbits[0].radius_km
        if any(o.radius_km != radius for o in self.orbits):
            raise ValueError("all orbits must share one altitude shell")

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability sampled on a dB threshold grid.

    ci_low / ci_high are per-point confidence bounds for Monte-Carlo
    curves and None for analytic ones. The curve does not name itself:
    its kind in a result file is spelled by `cli.coverage_rows`.
    """

    thresholds_db: tuple[float, ...]
    values: tuple[float, ...]
    ci_low: tuple[float, ...] | None = None
    ci_high: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds_db", tuple(float(x) for x in self.thresholds_db))
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        if len(self.thresholds_db) != len(self.values):
            raise ValueError("thresholds and values must have the same length")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("coverage values must lie in [0, 1]")
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
    """Coverage values clipped to [0, 1] from within 1e-12 of rounding; a
    non-finite value or a larger overshoot is an error, never a silent 0 or 1."""
    if not np.all(np.isfinite(values)):
        raise ValueError("analytic coverage is not finite")
    if np.any((values < -1e-12) | (values > 1.0 + 1e-12)):
        raise ValueError("analytic coverage leaves [0, 1] by more than 1e-12")
    return np.clip(values, 0.0, 1.0)


def _shaped(values: np.ndarray, gamma):
    """Clipped coverage in the shape of gamma: a float for a scalar."""
    values = _unit(values).reshape(np.shape(gamma))
    return float(values) if values.ndim == 0 else values


def _checked(channel: ChannelParams, gammas, budget: LinkBudget | None) -> tuple[int, np.ndarray]:
    """Integer m and the linear thresholds as a flat array, once m and
    every SIR (or, under a budget, SNR) threshold are valid."""
    m = channel.integer_m
    gammas = np.asarray(gammas, dtype=float).ravel()
    if not np.all((gammas > 0) & np.isfinite(gammas)):
        raise ValueError(f"{'SIR' if budget is None else 'SNR'} threshold must be positive and finite")
    return m, gammas


def _serving_rule(orbit: OrbitGeometry, window: VisibilityWindow, density_per_km: float):
    """Nodes tau, weights and arc L of the serving-arc average, for an
    orbit that enters the window.

    Given at least one visible satellite, tau has the truncated
    exponential density lambda e^(-lambda tau) / (1 - e^(-lambda L)) on
    [0, L]; the weights carry that density, normalised so they sum to 1.
    """
    arc = visible_arc_length(orbit, window)
    tau, weights = exponential_panels(arc, density_per_km, PANEL_NODES)
    weights = weights * np.exp(-density_per_km * tau)
    return tau, weights / weights.sum(), arc


def _sir_conditional(orbit, window, density_per_km, channel, m, gammas) -> np.ndarray:
    """P(SIR > gamma | visible) for checked m and a flat array of linear
    thresholds, unclipped.

    With the serving satellite at tau, s a(t) = gamma g_i_bar
    (u(tau) / u(t))^alpha; the ratio stays in (0, 1] at any alpha. A
    group holds at most _BLOCK (threshold, serving) rows or one threshold,
    a tile at most _BLOCK nodes: several whole thresholds or, on a dense
    orbit, one threshold over a run of serving nodes.
    """
    tau, weights, arc = _serving_rule(orbit, window, density_per_km)
    ratio, unit, half = _interferer_rule(orbit, channel.alpha, tau, arc)
    rows = _BLOCK // ARC_NODES
    tau_step = min(tau.size, rows)
    gamma_step = max(1, rows // tau.size)
    group = max(1, _BLOCK // tau.size)
    given_tau = np.empty((gammas.size, tau.size))
    # load, p, share, geometric and power rows of the largest tile; every tile
    # runs in their leading part, so the curve faults no fresh pages in per tile
    work = np.empty((5, min(gamma_step, gammas.size) * tau_step * ARC_NODES))
    integrals = np.empty((m, min(group, gammas.size) * tau.size))
    for g in range(0, gammas.size, group):
        end = min(g + group, gammas.size)
        for i in range(g, end, gamma_step):
            scale = gammas[i : min(i + gamma_step, end), None, None] * channel.g_i_bar
            for j in range(0, tau.size, tau_step):
                run = ratio[j : j + tau_step]
                n = scale.shape[0] * run.shape[0]
                tile = work[:, : n * ARC_NODES].reshape(5, n, ARC_NODES)
                np.multiply(scale, run, out=tile[0].reshape(scale.shape[0], -1, ARC_NODES))
                start = (i - g) * tau.size + j
                _taylor_integrals(tile[0], unit, m, integrals[:, start : start + n], tile[1:])
        scaled = integrals[:, : (end - g) * tau.size].reshape(m, end - g, tau.size)
        scaled *= density_per_km * half
        given_tau[g:end] = sum(_taylor_terms(scaled, m))
    return given_tau @ weights


def _snr_conditional(orbit, window, density_per_km, channel, m, gammas, budget) -> np.ndarray:
    """P(SNR > gamma | visible) for checked m and a flat array of linear
    thresholds, unclipped.

    The serving fading power's gamma tail e^(-q) sum_{t<m} q^t / t!, with
    q = m gamma sigma^2 u^alpha / (P G) and u in meters, is the Taylor
    recursion of the SIR kernel with no interferer load.
    """
    tau, weights, _ = _serving_rule(orbit, window, density_per_km)
    log_q = np.log(m * gammas / budget.snr_scale)[:, None] + channel.alpha * np.log(
        KM_IN_M * arc_to_distance(orbit, tau)
    )
    # past q = e^700 every tail term is 0 in double precision: capping
    # log q there keeps q finite, so c_1 = q c_0 reads 0, not inf * 0 = NaN
    q = np.exp(np.minimum(log_q, 700.0))
    return sum(_taylor_terms(np.zeros(2), m, q)) @ weights


def _best_conditional(constellation: ConstellationSpec, m: int, gammas, budget: LinkBudget | None) -> np.ndarray:
    """P(best per-orbit SIR, or SNR under a budget, > gamma | every orbit
    visible) for checked m and linear thresholds, unclipped: the union of
    the independent per-orbit successes as c <- c + p_n - c p_n, which is
    p_1 for one orbit and, unlike 1 - prod_n (1 - p_n), does not cancel
    at small p. Orbits that differ only in ascending node share one
    per-orbit curve."""
    kernel = _sir_conditional if budget is None else partial(_snr_conditional, budget=budget)
    curves: dict[tuple[float, float, float], np.ndarray] = {}
    covered = 0.0
    for index, (orbit, lam) in enumerate(zip(constellation.orbits, constellation.densities_per_km)):
        if visible_arc_length(orbit, constellation.window) <= 0.0:
            raise ValueError(f"orbit {index} never enters the visibility window")
        key = (orbit.theta_rad, orbit.altitude_km, lam)
        if key not in curves:
            curves[key] = kernel(orbit, constellation.window, lam, constellation.channel, m, gammas)
        covered = covered + curves[key] - covered * curves[key]
    return covered


def coverage_conditional(constellation: ConstellationSpec, gamma, budget: LinkBudget | None = None):
    """P(best per-orbit SIR > gamma | every orbit has a visible satellite),
    or the best SNR when a link budget is given, interference-free.

    Interference is per-orbit, so conditioned on joint visibility the
    per-orbit successes are independent; a single orbit is the one-orbit
    constellation. Takes a linear threshold or an array of them and
    returns coverage in the shape given. Requires integer m: the SIR
    series in the Laplace derivatives and the SNR gamma tail have m
    terms. Raises ValueError, after checking m and the thresholds, when
    an orbit never enters the window.
    """
    m, gammas = _checked(constellation.channel, gamma, budget)
    return _shaped(_best_conditional(constellation, m, gammas, budget), gamma)


def _coverage(constellation: ConstellationSpec, gammas, budget: LinkBudget | None = None) -> np.ndarray:
    """Unconditional best-satellite coverage at linear thresholds: the
    unclipped conditional combiner times prod_n P(orbit n has a visible
    satellite) or, once m and the thresholds are checked, zero when some
    orbit never enters the window. SIR, or SNR under a link budget."""
    m, gammas = _checked(constellation.channel, gammas, budget)
    window = constellation.window
    if any(visible_arc_length(orbit, window) <= 0.0 for orbit in constellation.orbits):
        return np.zeros(gammas.size)
    pairs = zip(constellation.orbits, constellation.densities_per_km)
    vis = math.prod(NearestDistanceLaw(orbit, window, lam).visibility_probability for orbit, lam in pairs)
    return _unit(_best_conditional(constellation, m, gammas, budget) * vis)


def _coverage_curve(constellation: ConstellationSpec, thresholds_db, budget: LinkBudget | None = None) -> CoverageCurve:
    """`_coverage` on a dB threshold grid as a curve: trials with any
    invisible orbit count as uncovered, as in the empirical estimators."""
    return CoverageCurve(thresholds_db, _coverage(constellation, [db_to_linear(g) for g in thresholds_db], budget))


def _single(orbit, window, density_per_km, channel) -> ConstellationSpec:
    return ConstellationSpec((orbit,), (density_per_km,), window, channel)


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
    return _coverage_curve(_single(orbit, window, density_per_km, channel), thresholds_db)


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
    return _coverage_curve(_single(orbit, window, density_per_km, channel), thresholds_db, budget)


def sir_coverage(orbit, window, density_per_km, channel, gamma: float) -> float:
    """Unconditional P(SIR > gamma) at one linear threshold. Not exported:
    it stays only while the benchmark's layer probe times single points
    under this name; use `sir_coverage_curve`."""
    return float(_coverage(_single(orbit, window, density_per_km, channel), [gamma])[0])


def snr_coverage(orbit, window, density_per_km, channel, budget, gamma: float) -> float:
    """Unconditional P(SNR > gamma) at one linear threshold; not exported,
    like `sir_coverage`."""
    return float(_coverage(_single(orbit, window, density_per_km, channel), [gamma], budget)[0])


def max_sir_coverage_curve(constellation: ConstellationSpec, thresholds_db) -> CoverageCurve:
    """Joint-visibility best-satellite SIR coverage across the
    constellation's orbits: the conditional combiner times
    prod_n P(orbit n visible), zero when some orbit never enters the
    window."""
    return _coverage_curve(constellation, thresholds_db)
