"""Monte-Carlo estimators that shadow every analytic quantity.

Each estimator simulates the actual point process: Poisson satellites at
density lambda along each orbit circle, independent unit-mean gamma
fading powers, the user served by the nearest visible satellite. A point
at orbit angle psi is visible for psi in the window (pi - beta, pi + beta)
about the orbit's highest point, and its offset o = |psi - pi| fixes its
distance. The half-angle beta and the rule that turns an offset into the
squared distance r^2 come from `geometry`, the same ones the analytic
side reads. By the Poisson restriction theorem the satellites in the
window are themselves Poisson with density lambda, so the kernel draws
only the window: a Poisson(2 R beta lambda) count N per trial and
offsets uniform on [0, beta], the same law on both sides of pi. Every
offset drawn is visible, so no trial needs a rim test, and a trial sees
a satellite exactly when N > 0. The distance grows with o, so the
nearest satellite has the smallest offset, which exceeds x with
probability (1 - x / beta)^N: it is drawn first, from one uniform, and
the other N - 1 down from beta, at beta - U (beta - o_1). Interferers
weigh (r^2)^(-alpha/2), a division at alpha = 2, with no square root
per satellite. The independent checks of the window are elsewhere: the
tests build explicit 3-D positions on the whole circle with the
elevation-angle test, and validation criterion 2 counts brute-force
points of the circle against the arc length.

Per orbit a batch draws (1) the counts of all its trials as one
multinomial histogram over the Poisson pmf, laid out in ascending
order, and shuffled with `Generator.shuffle` for every orbit after a
pass's first, (2) one uniform per occupied trial for its nearest
offset, (3) in `_interference`, the one interferer sampler, per chunk
of whole trials with at most _CHUNK_SATELLITES interferers, their
offsets and then their fadings, summed by trial as they are drawn, and
(4) the serving fadings of all its trials. A larger trial is drawn in
pieces of that size, so only per-trial arrays grow with the batch or
the window. Every
estimator sums over trials, so the order of one orbit's trials changes
nothing; only the pairing of trials across orbits does, and the shuffle
makes that pairing uniformly random. The nearest-distance estimator
draws (1) and (2) only; `_laplace_direct`, criterion 4's transform
average, draws on the same batch streams the counts beyond a fixed
serving radius, unshuffled, then (3), each trial cut at its offset.

Every coverage estimator is one scoring pass over a constellation: per
batch the kernel draws each orbit in turn, and each trial's best SIR
and, per link budget, best SNR and SINR over the visible orbits are
scored against the thresholds, all on the same draws. A single orbit is
the one-orbit constellation, whose any-visible curve is its joint one.

Reproducibility contract: a run is determined by (seed, trials, batch).
Batch i consumes the PCG64 stream of numpy's
`SeedSequence(seed, spawn_key=(i,))`, which is
`SeedSequence(seed).spawn(n)[i]` for any batch count n, in the order
above; each stream is made when its batch is reached. Only coverage
passes run batches on threads: up to one per CPU in the process's
affinity, the calling thread and helpers it starts and joins within the
pass. Each batch reduces to integer counts that every thread adds to
its own total, so results do not depend on how batches are scheduled or
on how many threads run them, only on how the work is split; the chunk
size is a module constant, not an option.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .coverage import ConstellationSpec, CoverageCurve, LinkBudget, db_to_linear
from .geometry import KM_IN_M, OrbitGeometry, VisibilityWindow, _squared_distance, _window_half_angle, distance_to_arc

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
# satellites scored at once: a chunk's arrays stay cache-sized and a
# batch's memory no longer grows with its satellites
_CHUNK_SATELLITES = 2**14
# below the smallest normal double a serving path loss loses precision
# and the interferer weights, smaller still, go to 0 with it
_TINY = np.finfo(float).tiny


class DegenerateSampleError(RuntimeError):
    """Raised when conditioning leaves too few trials to estimate from."""


def _require_survivors(survivors: int, trials: int, what: str) -> None:
    """Raise unless at least MIN_CONDITIONING_TRIALS of the trials `what`."""
    if survivors < MIN_CONDITIONING_TRIALS:
        message = f"only {survivors} of {trials} trials {what}; need at least {MIN_CONDITIONING_TRIALS}"
        raise DegenerateSampleError(message)


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed and batch size for one estimator run.

    The batch size is part of the reproducibility contract: batches map
    to spawned seed sequences one-to-one.
    """

    trials: int = 100_000
    seed: int = 1729
    batch: int = 10_000

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.batch < 1:
            raise ValueError("batch size must be at least 1")


def _poisson_table(mean: float) -> tuple[int, np.ndarray]:
    """The lowest count and the Poisson(mean) pmf over
    mean +- (12 sqrt(mean) + 40), clipped at 0 and normalised: the counts
    it leaves out weigh under 1e-30 together. Built outward from the
    mode floor(mean) by cumulative log ratios log(mean / k), each within
    an ulp or two, so the table keeps its digits at any mean, and its
    size grows as sqrt(mean)."""
    if mean == 0.0:
        return 0, np.ones(1)
    spread = 12.0 * math.sqrt(mean) + 40.0
    lo = max(0, math.ceil(mean - spread))
    mode = math.floor(mean) - lo
    step = np.log(mean / np.arange(lo + 1, math.floor(mean + spread) + 1))  # log p_k - log p_(k-1)
    log_pmf = np.zeros(step.size + 1)
    np.cumsum(step[mode:], out=log_pmf[mode + 1 :])
    log_pmf[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    pmf = np.exp(log_pmf, out=log_pmf)
    pmf /= pmf.sum()
    return lo, pmf


def _poisson_counts(gen: np.random.Generator, mean: float, n: int, shuffle: bool = False) -> np.ndarray:
    """n Poisson(mean) counts, drawn as one multinomial histogram over
    `_poisson_table` and laid out in ascending order; in random order
    when `shuffle`, one draw of `gen.shuffle` after the histogram."""
    lo, pmf = _poisson_table(mean)
    counts = np.repeat(np.arange(lo, lo + pmf.size), gen.multinomial(n, pmf))
    if shuffle:
        gen.shuffle(counts)
    return counts


def _nearest_first(gen: np.random.Generator, beta: float, counts: np.ndarray):
    """Per trial, its smallest window offset (inf for an empty trial) and
    how many satellites lie beyond it, written over `counts`. Of N
    offsets uniform on (0, beta) the smallest exceeds x with probability
    (1 - x / beta)^N: one uniform U per occupied trial gives it as
    -beta expm1(log1p(-U) / N), which never exceeds beta."""
    occupied = counts > 0
    closest = np.full(counts.size, np.inf)
    u = np.log1p(-gen.random(np.count_nonzero(occupied)))
    u /= counts[occupied]
    closest[occupied] = -beta * np.expm1(u, out=u)
    counts -= occupied
    return closest, counts


def _nearest_distance(orbit: OrbitGeometry, closest: np.ndarray) -> np.ndarray:
    """Nearest distance (km) per trial from its smallest offset, inf for
    an empty trial (offset inf)."""
    nearest = np.full(closest.size, np.inf)
    occupied = closest < np.inf
    r2 = closest[occupied]
    nearest[occupied] = np.sqrt(_squared_distance(orbit, r2, out=r2), out=r2)
    return nearest


def _interference(gen: np.random.Generator, orbit: OrbitGeometry, alpha: float, beta: float, counts, cut, fading):
    """Per-trial sum of fading * (r^2)^(-alpha/2), r in km, over counts[i]
    satellites at offsets beta - U (beta - cut[i]) for trial i, U uniform
    on [0, 1), so uniform on (cut[i], beta] and never past beta; the
    caller applies units and the mean interferer gain. Drawn per chunk of
    whole trials with at most _CHUNK_SATELLITES satellites, a larger
    trial in pieces of that size: the chunk's offsets, then `fading(k)`
    for its k satellites."""
    sums = np.zeros(counts.size)
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        before = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + _CHUNK_SATELLITES, side="right")))
        for done in range(0, max(int(counts[lo]), 1), _CHUNK_SATELLITES):  # one piece unless trial lo is larger
            sizes = np.minimum(counts[lo:hi] - done, _CHUNK_SATELLITES)
            offsets = gen.random(int(sizes.sum()))
            offsets *= np.repeat(beta - cut[lo:hi], sizes)
            r2 = _squared_distance(orbit, np.subtract(beta, offsets, out=offsets), out=offsets)
            if alpha == 2.0:
                weight = np.divide(fading(r2.size), r2, out=r2)
            else:
                weight = np.power(r2, -0.5 * alpha, out=r2)
                weight *= fading(r2.size)
            if weight.size:
                occupied = sizes > 0
                sizes = sizes[occupied]
                sums[lo:hi][occupied] += np.add.reduceat(weight, np.cumsum(sizes) - sizes)
        lo = hi
    return sums


def _fading(gen: np.random.Generator, m: float):
    """The sampler fading(n) of n unit-mean gamma(m) powers that every fading
    draw uses; at m = 1 the standard exponential, gamma(1, 1)'s draws, faster."""
    return gen.standard_exponential if m == 1.0 else functools.partial(gen.gamma, m, 1.0 / m)


def _sir_batch(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    gen: np.random.Generator,
    density: float,
    m: float,
    alpha: float,
    n: int,
    shuffle: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (nearest_km, serving fading power, interference sum) of
    n trials, drawn in the order the module docstring gives, the counts
    shuffled when `shuffle`."""
    fading = _fading(gen, m)
    beta = _window_half_angle(orbit, window)
    counts = _poisson_counts(gen, 2.0 * orbit.radius_km * beta * density, n, shuffle)
    closest, others = _nearest_first(gen, beta, counts)
    interference = _interference(gen, orbit, alpha, beta, others, closest, fading)
    return _nearest_distance(orbit, closest), fading(n), interference


def _wilson_bounds(successes: np.ndarray, trials: int, z: float = 1.96) -> tuple[np.ndarray, np.ndarray]:
    k = np.asarray(successes, dtype=float)
    n = float(trials)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def _batches(cfg: McConfig):
    """(generator, size) per batch, each made when it is reached: batch i
    draws from `SeedSequence(seed, spawn_key=(i,))`, the stream
    `SeedSequence(seed).spawn(n)[i]` gives, so no batch count's worth of
    streams is built before the first trial."""
    full, rem = divmod(cfg.trials, cfg.batch)
    for i in range(full + (rem > 0)):
        yield np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,))), cfg.batch if i < full else rem


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_sum(fn, items):
    """sum(map(fn, items)) on the calling thread and up to one helper
    thread per other usable CPU. The caller takes the first item, then
    starts a helper for each further item it can take, handing it that
    item, so a pass never starts more threads than it has items. Every
    thread adds the next item, taken under one lock, to its own running
    total until the items run out or one has raised. The caller then
    joins every helper and raises the first exception in item order. fn
    returns integers or integer arrays, so the sum does not depend on
    which thread ran which item.
    """
    items = enumerate(items)
    lock = threading.Lock()
    errors = {}  # item index -> its exception
    totals = []

    def take():
        with lock:
            return None if errors else next(items, None)

    def run(task):
        total = 0
        while task is not None:
            index, item = task
            try:
                total += fn(item)
            except BaseException as exc:  # raised by the caller, in item order
                errors[index] = exc
            task = take()
        totals.append(total)

    first = take()
    helpers = []
    for _ in range(_usable_cpus() - 1):
        task = take()
        if task is None:
            break
        helper = threading.Thread(target=run, args=(task,))
        helper.start()
        helpers.append(helper)
    run(first)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return sum(totals)


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
    if not (density_per_km > 0 and math.isfinite(density_per_km)):
        raise ValueError("satellite density must be positive and finite")
    grid = np.asarray(r_grid_km, dtype=float)
    beta = _window_half_angle(orbit, window)
    mean = 2.0 * orbit.radius_km * beta * density_per_km

    exceed = np.zeros(grid.size, dtype=np.int64)
    survivors = 0
    for gen, size in _batches(cfg):
        closest, _ = _nearest_first(gen, beta, _poisson_counts(gen, mean, size))
        nearest = _nearest_distance(orbit, closest)
        finite = np.sort(nearest[np.isfinite(nearest)])
        survivors += finite.size
        exceed += finite.size - np.searchsorted(finite, grid, side="right")
    _require_survivors(survivors, cfg.trials, "had a visible satellite")
    return exceed / survivors, survivors


def _laplace_direct(orbit, window, density_per_km, channel, serving_km, s_values, cfg: McConfig) -> np.ndarray:
    """E[exp(-s I)] for each s, with the serving satellite at `serving_km`:
    per batch, the counts of the arc beyond its offset, which by Poisson
    restriction hold its interferers, then their sums from `_interference`.
    Every s averages the same sums, so each reads as a run for it alone."""
    beta = _window_half_angle(orbit, window)
    cut = min(float(distance_to_arc(orbit, serving_km)) / (2.0 * orbit.radius_km), beta)
    mean = 2.0 * orbit.radius_km * (beta - cut) * density_per_km
    acc = np.zeros(len(s_values))
    for gen, size in _batches(cfg):
        counts = _poisson_counts(gen, mean, size)
        sums = _interference(gen, orbit, channel.alpha, beta, counts, np.full(size, cut), _fading(gen, channel.m))
        acc += [np.exp(-s * channel.g_i_bar * sums).sum() for s in s_values]
    return acc / cfg.trials


def _covered(vis: np.ndarray, score: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Per threshold, how many visible trials score above it."""
    return np.array([np.count_nonzero(vis & (score > gamma)) for gamma in gammas], dtype=np.int64)


def _curve(thresholds_db, covered: np.ndarray, trials: int) -> CoverageCurve:
    """Success counts over `trials` as a curve with Wilson bounds; over
    no trials at all the values are 0 and the bounds the unit interval."""
    if trials:
        values = covered / trials
        lo, hi = _wilson_bounds(covered, trials)
    else:
        values = lo = np.zeros(covered.size)
        hi = np.ones(covered.size)
    return CoverageCurve(thresholds_db, values, lo, hi)


def _coverage_pass(
    constellation: ConstellationSpec, budgets, thresholds_db, cfg: McConfig
) -> tuple[int, tuple[CoverageCurve, CoverageCurve, CoverageCurve], list[tuple[CoverageCurve, ...]]]:
    """Best-satellite SIR coverage and, per link budget, best-satellite
    SNR and SINR coverage, all scored on the same draws: per batch, one
    kernel call per orbit in orbit order, each trial keeping its best
    value of every quantity over the visible orbits. Interference is
    counted within the serving satellite's orbit, as in the SIR model.

    Returns the number of trials with every orbit visible, the SIR
    triple (conditional on every orbit visible, the same successes over
    all trials, any-visible over all trials) and one (snr conditional,
    snr unconditional, sinr conditional, sinr unconditional) tuple per
    budget. The curves carry numbers only; `cli.coverage_rows` names
    them in a result file. A budget only rescales the noise term, and
    shared draws make SINR <= SIR and SINR <= SNR hold trial by trial,
    orbit by orbit and so for the best. Distances enter the SNR path
    loss in meters. The batches run on `_parallel_sum`, whose thread
    count the curves do not depend on.

    The pass never raises for a thin sample: each view that returns a
    conditional curve checks the survivor count with
    `_require_survivors`. The curves over all trials stay well defined
    when nothing survives, as for an orbit that never enters the window,
    where they are 0.

    Raises ValueError when alpha is so steep that a visible trial's
    serving path loss (r in km) underflows the smallest normal double:
    its SIR would be 0 / 0 and the trial silently uncovered.
    """
    channel = constellation.channel
    gammas = np.array([db_to_linear(g) for g in thresholds_db])
    unit = KM_IN_M ** -channel.alpha
    scales = [budget.snr_scale for budget in budgets]

    def score(batch) -> np.ndarray:
        """A batch's survivors, then its covered counts per threshold in
        rows: SIR over all visible, SIR over any visible, then SNR and
        SINR over all visible per budget."""
        gen, size = batch
        best = np.full(size, -np.inf)
        best_snr = np.zeros((len(budgets), size))
        best_sinr = np.zeros_like(best_snr)
        all_vis = np.ones(size, dtype=bool)
        any_vis = np.zeros(size, dtype=bool)
        for index, (orbit, density) in enumerate(zip(constellation.orbits, constellation.densities_per_km)):
            # the counts come sorted: a later orbit's are shuffled, so that
            # its trials pair with the earlier orbits' at random; the first
            # orbit pairs with nothing, and at 20 ns a count its shuffle
            # would add 40 % to a sparse orbit's kernel
            nearest, serving, interference = _sir_batch(
                orbit, constellation.window, gen, density, channel.m, channel.alpha, size, index > 0
            )
            vis = np.isfinite(nearest)
            # 0 for a trial with no visible satellite of this orbit
            signal = nearest ** -channel.alpha
            if np.any(vis & (signal < _TINY)):
                raise ValueError(
                    f"path-loss exponent alpha={channel.alpha!r} underflows the serving path loss: "
                    "the simulated SIR would read 0"
                )
            signal *= serving
            with np.errstate(divide="ignore", invalid="ignore"):
                sir = signal / (channel.g_i_bar * interference)
            best = np.maximum(best, np.where(vis, sir, -np.inf))
            all_vis &= vis
            any_vis |= vis
            if budgets:
                signal *= unit
                noise = channel.g_i_bar * interference * unit
                for j, scale in enumerate(scales):
                    np.maximum(best_snr[j], signal * scale, out=best_snr[j])
                    np.maximum(best_sinr[j], signal / (noise + 1.0 / scale), out=best_sinr[j])
        rows = [(all_vis, best), (any_vis, best), *((all_vis, v) for v in (*best_snr, *best_sinr))]
        return np.concatenate([[np.count_nonzero(all_vis)], *(_covered(vis, v, gammas) for vis, v in rows)])

    total = _parallel_sum(score, _batches(cfg))
    survivors, covered = int(total[0]), total[1:].reshape(2 + 2 * len(budgets), gammas.size)
    covered_all, covered_any = covered[:2]
    snr_cond, sinr_cond = covered[2 : 2 + len(budgets)], covered[2 + len(budgets) :]

    def pair(covered):
        return _curve(thresholds_db, covered, survivors), _curve(thresholds_db, covered, cfg.trials)

    sir = (*pair(covered_all), _curve(thresholds_db, covered_any, cfg.trials))
    per_budget = [(*pair(snr_cond[j]), *pair(sinr_cond[j])) for j in range(len(budgets))]
    return survivors, sir, per_budget


def empirical_sir_coverage(
    constellation: ConstellationSpec, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve]:
    """Empirical SIR coverage, through the best visible satellite when
    the constellation has several orbits.

    Returns (conditional on every orbit visible, unconditional). Nakagami
    figure may be any real m >= 0.5 here; only the analytic path needs
    integers.
    """
    survivors, (conditional, unconditional, _), _ = _coverage_pass(constellation, (), thresholds_db, cfg)
    _require_survivors(survivors, cfg.trials, "survived conditioning")
    return conditional, unconditional


def empirical_snr_sinr_coverage(
    constellation: ConstellationSpec, budget: LinkBudget, thresholds_db, cfg: McConfig
) -> tuple[CoverageCurve, CoverageCurve, CoverageCurve, CoverageCurve]:
    """Empirical SNR and SINR coverage under a budget, through the best
    visible satellite when the constellation has several orbits.

    Returns (snr conditional, snr unconditional, sinr conditional,
    sinr unconditional). Distances enter the path loss in meters.
    """
    survivors, _, (curves,) = _coverage_pass(constellation, (budget,), thresholds_db, cfg)
    _require_survivors(survivors, cfg.trials, "survived conditioning")
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
    of orbit n and p_n the `coverage_conditional` of its one-orbit
    constellation. For one orbit the any-visible curve is the joint one.
    """
    survivors, sir, _ = _coverage_pass(constellation, (), thresholds_db, cfg)
    _require_survivors(survivors, cfg.trials, "survived conditioning")
    return sir
