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

Every coverage estimator is one scoring pass over a constellation: per
batch the kernel draws each orbit in turn and the best SIR over the
visible orbits is scored against the thresholds. A single orbit is the
one-orbit constellation, whose any-visible curve is its joint one; only
there are SNR and SINR scored too, on the same draws.

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


def _batches(cfg: McConfig):
    """(generator, size) per batch; batch i draws from child stream i of
    the seed."""
    rng = RandomSource(cfg.seed)
    for index, size in enumerate(cfg.batch_sizes()):
        yield rng.child(index).generator, size


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
    exceed = np.zeros(grid.size, dtype=np.int64)
    survivors = 0
    for gen, size in _batches(cfg):
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


def _covered(vis: np.ndarray, score: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Per threshold, how many visible trials score above it."""
    return np.array([np.count_nonzero(vis & (score > gamma)) for gamma in gammas], dtype=np.int64)


def _curve(
    thresholds_db, covered: np.ndarray, trials: int, kind: str, cfg: McConfig, conditioning: str, **extra
) -> CoverageCurve:
    """Success counts over `trials` as a curve with Wilson bounds."""
    lo, hi = _wilson_bounds(covered, trials)
    meta = {"trials": cfg.trials, "seed": cfg.seed, "batch": cfg.batch, "conditioning": conditioning, **extra}
    return CoverageCurve(thresholds_db, covered / trials, kind, meta, lo, hi)


def _coverage_pass(
    constellation: ConstellationSpec, budgets, thresholds_db, cfg: McConfig, sir_kind: str = "SIR-MC"
) -> tuple[tuple[CoverageCurve, CoverageCurve, CoverageCurve], list[tuple[CoverageCurve, ...]]]:
    """Best-satellite SIR coverage of any constellation and, for a single
    orbit, SNR and SINR coverage per link budget, all scored on the same
    draws: per batch, one kernel call per orbit in orbit order.

    Returns the SIR triple (conditional on every orbit visible, the same
    successes over all trials, any-visible over all trials) and one
    (snr conditional, snr unconditional, sinr conditional, sinr
    unconditional) tuple per budget. A budget only rescales the noise
    term, and shared draws make SINR <= SIR and SINR <= SNR hold trial by
    trial. Distances enter the SNR path loss in meters.
    """
    if budgets and constellation.n_orbits != 1:
        raise ValueError("SNR and SINR are estimated for a single orbit only")
    channel = constellation.channel
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    unit = KM_IN_M ** -channel.alpha
    covered_all = np.zeros(gammas.size, dtype=np.int64)
    # one orbit: "some orbit visible" is the joint event, so the any-visible
    # curve shares the joint counts and needs no scan of its own
    covered_any = covered_all if constellation.n_orbits == 1 else np.zeros_like(covered_all)
    snr_cond = np.zeros((len(budgets), gammas.size), dtype=np.int64)
    sinr_cond = np.zeros_like(snr_cond)
    survivors = 0
    for gen, size in _batches(cfg):
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
        if constellation.n_orbits > 1:
            covered_any += _covered(any_vis, best, gammas)
        if budgets:  # one orbit: the draws of the loop's only pass
            signal = np.where(vis, serving * nearest ** -channel.alpha * unit, 0.0)
            for j, budget in enumerate(budgets):
                scale = budget.snr_scale
                snr_cond[j] += _covered(vis, signal * scale, gammas)
                sinr = signal / (channel.g_i_bar * interference * unit + 1.0 / scale)
                sinr_cond[j] += _covered(vis, sinr, gammas)
    if survivors < MIN_CONDITIONING_TRIALS:
        raise DegenerateSampleError(
            f"only {survivors} of {cfg.trials} trials survived conditioning; "
            f"need at least {MIN_CONDITIONING_TRIALS}"
        )

    def pair(covered, kind, **extra):
        return (
            _curve(thresholds_db, covered, survivors, kind, cfg, "visible", **extra),
            _curve(thresholds_db, covered, cfg.trials, kind, cfg, "none", **extra),
        )

    n_orbits = constellation.n_orbits
    any_visible = _curve(thresholds_db, covered_any, cfg.trials, sir_kind, cfg, "any-visible", n_orbits=n_orbits)
    sir = (*pair(covered_all, sir_kind, n_orbits=n_orbits), any_visible)
    per_budget = []
    for j, budget in enumerate(budgets):
        extra = {"snr_scale_db": budget.snr_scale_db}
        per_budget.append((*pair(snr_cond[j], "SNR-MC", **extra), *pair(sinr_cond[j], "SINR-MC", **extra)))
    return sir, per_budget


def empirical_sir_coverage(
    constellation: ConstellationSpec, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve]:
    """Empirical SIR coverage of a single orbit.

    Returns (conditional on visibility, unconditional). Nakagami figure
    may be any real m >= 0.5 here; only the analytic path needs integers.
    """
    if constellation.n_orbits != 1:
        raise ValueError("this estimator handles a single orbit; use the max-SIR form")
    (conditional, unconditional, _), _ = _coverage_pass(constellation, (), thresholds_db, cfg)
    return conditional, unconditional


def empirical_snr_sinr_coverage(
    constellation: ConstellationSpec, budget: LinkBudget, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve, CoverageCurve, CoverageCurve]:
    """Empirical SNR and SINR coverage of a single orbit under a budget.

    Returns (snr conditional, snr unconditional, sinr conditional,
    sinr unconditional). Distances enter the path loss in meters.
    """
    _, (curves,) = _coverage_pass(constellation, (budget,), thresholds_db, cfg)
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
    of orbit n and p_n its `sir_coverage_conditional`. For one orbit the
    any-visible curve is the joint one.
    """
    sir, _ = _coverage_pass(constellation, (), thresholds_db, cfg, "maxSIR-MC")
    return sir
