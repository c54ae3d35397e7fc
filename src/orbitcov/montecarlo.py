"""Monte-Carlo estimators that shadow every analytic quantity.

Each estimator simulates the actual point process: Poisson satellites at
density lambda along each orbit circle, independent unit-mean gamma
fading powers, the user served by the nearest visible satellite. A point
at orbit angle psi sits at height z = -R sin(theta) cos(psi) above the
user's horizon plane, and it is visible when z clears the cap base, that
is for psi in the window (pi - beta, pi + beta) with
beta = arccos(cap_base / (R sin(theta))). By the Poisson restriction
theorem the satellites inside that window are themselves Poisson with
density lambda, so the batch kernels draw only the window: a
Poisson(2 R beta lambda) count per trial and uniform angles in it. They
never build 3-D positions; the law of cosines turns z into the distance,
so a trial is a few vectorized passes over a flat array of satellites.
The test suite keeps an explicit 3-D construction of the whole circle,
with the elevation-angle visibility test, as an independent check of
that shortcut.

Reproducibility contract: a run is determined by (seed, trials, batch).
Each batch consumes its own child stream of the seed, so results do not
depend on how batches are scheduled, only on how the work is split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import ConstellationSpec, CoverageCurve, LinkBudget, db_to_linear
from .geometry import KM_IN_M, OrbitGeometry, VisibilityWindow
from .numerics import RandomSource

__all__ = [
    "McConfig",
    "DegenerateSampleError",
    "empirical_nearest_ccdf",
    "empirical_sir_coverage",
    "empirical_snr_sinr_coverage",
    "empirical_max_sir_coverage",
]

# trials that survive conditioning below this are too few for any
# statement at the package's tolerances
MIN_CONDITIONING_TRIALS = 100


class DegenerateSampleError(RuntimeError):
    """Raised when conditioning leaves too few trials to estimate from."""


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed and batch size for one estimator run.

    The batch size is part of the reproducibility contract: batches map
    to child random streams one-to-one.
    """

    trials: int = 100_000
    seed: int = 1729
    batch: int = 10_000

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.batch < 1:
            raise ValueError("batch size must be at least 1")

    def batch_sizes(self) -> list[int]:
        full, rem = divmod(self.trials, self.batch)
        return [self.batch] * full + ([rem] if rem else [])


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


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


def _visible_batch(
    orbit: OrbitGeometry, window: VisibilityWindow, gen: np.random.Generator, density: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw the visible window of n trials.

    Returns per-trial satellite counts, their segment starts in the flat
    arrays, per-satellite distances (km; inf for a satellite rounding
    put on or below the cap base) and the nearest visible distance per
    trial (inf when none).
    """
    R = orbit.radius_km
    re = orbit.earth.radius_km
    beta = _window_half_angle(orbit, window)
    counts = gen.poisson(2.0 * R * beta * density, n)
    total = int(counts.sum())
    psi = gen.uniform(math.pi - beta, math.pi + beta, total)
    z = -R * math.sin(orbit.theta_rad) * np.cos(psi)
    r = np.sqrt(R * R + re * re - 2.0 * re * z)
    r_vis = np.where(z > window.cap_base_km, r, np.inf)
    nearest = np.full(n, np.inf)
    occupied = counts > 0
    starts = _segment_starts(counts)
    if total:
        nearest[occupied] = np.minimum.reduceat(r_vis, starts[occupied])
    return counts, starts, r_vis, nearest


def _sir_batch(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    gen: np.random.Generator,
    density: float,
    m: float,
    alpha: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (nearest_km, serving fading power, interference sum).

    The interference sum is over visible satellites beyond the serving
    one, of fading_power * r^-alpha with r in km and no gain factor; the
    caller applies units and the mean interferer gain.
    """
    counts, starts, r_vis, nearest = _visible_batch(orbit, window, gen, density, n)
    total = r_vis.size
    fading = gen.gamma(m, 1.0 / m, total)
    # hidden satellites have r_vis = inf, so they weigh inf^-alpha = 0
    weight = np.where(r_vis > np.repeat(nearest, counts), fading * r_vis ** -alpha, 0.0)
    interference = np.zeros(n)
    if total:
        occupied = counts > 0
        interference[occupied] = np.add.reduceat(weight, starts[occupied])
    serving_fading = gen.gamma(m, 1.0 / m, n)
    return nearest, serving_fading, interference


def _wilson_bounds(successes: np.ndarray, trials: int, z: float = 1.96) -> tuple[np.ndarray, np.ndarray]:
    k = np.asarray(successes, dtype=float)
    n = float(trials)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def empirical_nearest_ccdf(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density_per_km: float,
    r_grid_km,
    cfg: McConfig,
) -> tuple[np.ndarray, int]:
    """Empirical CCDF of the nearest visible distance on a grid of radii.

    Conditioned on at least one visible satellite; returns the CCDF
    values and the number of trials that survived the conditioning.
    """
    if density_per_km <= 0:
        raise ValueError("satellite density must be positive")
    grid = np.asarray(r_grid_km, dtype=float)
    rng = RandomSource(cfg.seed)
    exceed = np.zeros(grid.size, dtype=np.int64)
    survivors = 0
    for index, size in enumerate(cfg.batch_sizes()):
        gen = rng.child(index).generator
        nearest = _visible_batch(orbit, window, gen, density_per_km, size)[3]
        finite = np.sort(nearest[np.isfinite(nearest)])
        survivors += finite.size
        exceed += finite.size - np.searchsorted(finite, grid, side="right")
    if survivors < MIN_CONDITIONING_TRIALS:
        raise DegenerateSampleError(
            f"only {survivors} of {cfg.trials} trials had a visible satellite; "
            f"need at least {MIN_CONDITIONING_TRIALS}"
        )
    return exceed / survivors, survivors


def _mc_metadata(cfg: McConfig, conditioning: str, **extra) -> dict:
    meta = {"trials": cfg.trials, "seed": cfg.seed, "batch": cfg.batch, "conditioning": conditioning}
    meta.update(extra)
    return meta


def _curve_pair(
    thresholds_db,
    covered_cond: np.ndarray,
    survivors: int,
    covered_total: np.ndarray,
    total: int,
    kind: str,
    cfg: McConfig,
    **extra,
) -> tuple[CoverageCurve, CoverageCurve]:
    if survivors < MIN_CONDITIONING_TRIALS:
        raise DegenerateSampleError(
            f"only {survivors} of {total} trials survived conditioning; "
            f"need at least {MIN_CONDITIONING_TRIALS}"
        )
    lo_c, hi_c = _wilson_bounds(covered_cond, survivors)
    lo_u, hi_u = _wilson_bounds(covered_total, total)
    conditional = CoverageCurve(
        thresholds_db=tuple(thresholds_db),
        values=tuple(covered_cond / survivors),
        kind=kind,
        metadata=_mc_metadata(cfg, "visible", **extra),
        ci_low=tuple(lo_c),
        ci_high=tuple(hi_c),
    )
    unconditional = CoverageCurve(
        thresholds_db=tuple(thresholds_db),
        values=tuple(covered_total / total),
        kind=kind,
        metadata=_mc_metadata(cfg, "none", **extra),
        ci_low=tuple(lo_u),
        ci_high=tuple(hi_u),
    )
    return conditional, unconditional


def _single_orbit(constellation: ConstellationSpec) -> tuple[OrbitGeometry, float]:
    if constellation.n_orbits != 1:
        raise ValueError("this estimator handles a single orbit; use the max-SIR form")
    return constellation.orbits[0], constellation.densities_per_km[0]


def _covered(vis: np.ndarray, score: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Per threshold, how many visible trials score above it."""
    return np.array([np.count_nonzero(vis & (score > gamma)) for gamma in gammas], dtype=np.int64)


def _single_orbit_curves(
    constellation: ConstellationSpec, budgets, thresholds_db, cfg: McConfig
) -> tuple[tuple[CoverageCurve, CoverageCurve], list[tuple[CoverageCurve, ...]]]:
    """SIR coverage and, per link budget, SNR and SINR coverage of a
    single orbit, all scored on the same draws: one kernel call per batch.

    Returns the SIR pair (conditional on visibility, unconditional) and
    one (snr conditional, snr unconditional, sinr conditional, sinr
    unconditional) tuple per budget. A budget only rescales the noise
    term, and shared draws make SINR <= SIR and SINR <= SNR hold trial by
    trial. Distances enter the SNR path loss in meters.
    """
    orbit, density = _single_orbit(constellation)
    channel = constellation.channel
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    unit = KM_IN_M ** -channel.alpha
    rng = RandomSource(cfg.seed)
    sir_cond = np.zeros(gammas.size, dtype=np.int64)
    snr_cond = np.zeros((len(budgets), gammas.size), dtype=np.int64)
    sinr_cond = np.zeros_like(snr_cond)
    survivors = 0
    for index, size in enumerate(cfg.batch_sizes()):
        gen = rng.child(index).generator
        nearest, serving, interference = _sir_batch(
            orbit, constellation.window, gen, density, channel.m, channel.alpha, size
        )
        vis = np.isfinite(nearest)
        survivors += int(np.count_nonzero(vis))
        with np.errstate(divide="ignore", invalid="ignore"):
            sir = serving * nearest ** -channel.alpha / (channel.g_i_bar * interference)
        sir_cond += _covered(vis, sir, gammas)
        signal = np.where(vis, serving * nearest ** -channel.alpha * unit, 0.0)
        for j, budget in enumerate(budgets):
            scale = budget.snr_scale
            snr_cond[j] += _covered(vis, signal * scale, gammas)
            sinr = signal / (channel.g_i_bar * interference * unit + 1.0 / scale)
            sinr_cond[j] += _covered(vis, sinr, gammas)
    sir_pair = _curve_pair(thresholds_db, sir_cond, survivors, sir_cond, cfg.trials, "SIR-MC", cfg)
    per_budget = []
    for j, budget in enumerate(budgets):
        extra = {"snr_scale_db": budget.snr_scale_db}
        snr_pair = _curve_pair(
            thresholds_db, snr_cond[j], survivors, snr_cond[j], cfg.trials, "SNR-MC", cfg, **extra
        )
        sinr_pair = _curve_pair(
            thresholds_db, sinr_cond[j], survivors, sinr_cond[j], cfg.trials, "SINR-MC", cfg, **extra
        )
        per_budget.append((*snr_pair, *sinr_pair))
    return sir_pair, per_budget


def empirical_sir_coverage(
    constellation: ConstellationSpec, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve]:
    """Empirical SIR coverage of a single orbit.

    Returns (conditional on visibility, unconditional). Nakagami figure
    may be any real m >= 0.5 here; only the analytic path needs integers.
    """
    sir_pair, _ = _single_orbit_curves(constellation, (), thresholds_db, cfg)
    return sir_pair


def empirical_snr_sinr_coverage(
    constellation: ConstellationSpec, budget: LinkBudget, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve, CoverageCurve, CoverageCurve]:
    """Empirical SNR and SINR coverage of a single orbit under a budget.

    Returns (snr conditional, snr unconditional, sinr conditional,
    sinr unconditional). Distances enter the path loss in meters.
    """
    _, (curves,) = _single_orbit_curves(constellation, (budget,), thresholds_db, cfg)
    return curves


def empirical_max_sir_coverage(
    constellation: ConstellationSpec, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve, CoverageCurve]:
    """Empirical best-satellite SIR coverage over the constellation.

    Returns (conditional on every orbit visible, the same successes over
    all trials, and an any-visible variant). The first two mirror the
    analytic combiner. The third scores the best SIR across whichever
    orbits happen to be visible, over all trials: that is the operational
    quantity a receiver free to skip empty orbits would see. The orbits
    are independent and interference is counted per orbit, so it equals
    1 - prod_n (1 - p_vis,n p_n), with p_vis,n the visibility probability
    of orbit n and p_n its `sir_coverage_conditional`.
    """
    channel = constellation.channel
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    rng = RandomSource(cfg.seed)
    covered_all = np.zeros(gammas.size, dtype=np.int64)
    covered_any = np.zeros(gammas.size, dtype=np.int64)
    survivors = 0
    for index, size in enumerate(cfg.batch_sizes()):
        gen = rng.child(index).generator
        best = np.full(size, -np.inf)
        all_vis = np.ones(size, dtype=bool)
        any_vis = np.zeros(size, dtype=bool)
        for orbit, density in zip(constellation.orbits, constellation.densities_per_km):
            nearest, serving, interference = _sir_batch(
                orbit, constellation.window, gen, density, channel.m, channel.alpha, size
            )
            vis = np.isfinite(nearest)
            with np.errstate(divide="ignore", invalid="ignore"):
                sir = serving * nearest ** -channel.alpha / (channel.g_i_bar * interference)
            best = np.maximum(best, np.where(vis, sir, -np.inf))
            all_vis &= vis
            any_vis |= vis
        survivors += int(np.count_nonzero(all_vis))
        covered_all += _covered(all_vis, best, gammas)
        covered_any += _covered(any_vis, best, gammas)
    conditional, joint = _curve_pair(
        thresholds_db,
        covered_all,
        survivors,
        covered_all,
        cfg.trials,
        "maxSIR-MC",
        cfg,
        n_orbits=constellation.n_orbits,
    )
    lo, hi = _wilson_bounds(covered_any, cfg.trials)
    any_visible = CoverageCurve(
        thresholds_db=tuple(thresholds_db),
        values=tuple(covered_any / cfg.trials),
        kind="maxSIR-MC",
        metadata=_mc_metadata(cfg, "any-visible", n_orbits=constellation.n_orbits),
        ci_low=tuple(lo),
        ci_high=tuple(hi),
    )
    return conditional, joint, any_visible
