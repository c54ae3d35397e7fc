"""Self-validation: every analytic result checked against an independent
estimate at stated tolerances.

Nine criteria, each a function `(result, seed, scale)` that makes its
checks on the `CriterionResult` it is given: `result.near` (within a
tolerance of a target), `result.below` (at most a bound) and
`result.holds` (a yes/no fact). Those methods write every report line
and clear `passed` on a miss. The table `_CRITERIA` gives each
criterion its index, its name and its function, and `run_criterion`
builds the result, times the call and returns it:

1. closed-form geometry anchors (frozen reference values)
2. visible arc length vs brute-force circle sampling
3. nearest-distance law vs simulation on a parameter grid
4. interference Laplace transform vs direct averaging, plus
   finite-difference checks of its derivatives; both read the Taylor
   terms c_t of the kernel coverage runs, L = c_0 and
   L^(t) = t! c_t / (-s)^t
5. SIR coverage vs simulation across path-loss/fading combinations
6. SNR and SINR coverage vs simulation across bandwidths
7. the multi-orbit combiner: analytic identity at N = 1, simulation
   agreement and monotonicity for N up to 4
8. parameter-trend orderings the closed forms imply
9. seeded rerun determinism

`run_all` runs the nine criteria in index order on the calling thread;
only their coverage passes spread batches over one thread per CPU in
the process's affinity, and the report does not depend on how many.

Criterion 2 draws and scores only the brute-force points in the few
slices next to each band edge, counts the run between the edges by
arithmetic and skips the generator over the rest: a pair draws ten
doubles, not its 10^7, and gets the count and leaves the stream of one
full-size draw. Criterion 3 draws only each trial's nearest satellite,
as the Monte-Carlo kernel does first. Criterion 4 draws and sums its
interferers with the kernel's interferer sampler, in batches of
_DIRECT_BATCH trials: by Poisson restriction the window's satellites
beyond the offset of the serving radius are those of the leftover arc,
so it draws Poisson counts for that arc, one histogram a batch as the
kernel does, and only those offsets, whose kernel interference sum is
the direct one, and its memory is that of one batch at any trial count. It draws the sums once
per serving radius and averages every transform variable s over them
(common random numbers): its checks share their draws, and each value
is what a run for that s alone would give.

Monte-Carlo tolerances are stated for the default trial counts; when a
run is scaled down the tolerances widen by sqrt(default / actual), so a
reduced run still separates real defects from sample noise. Reports
deliberately contain no timings: two runs with one seed must produce
byte-identical report text.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coverage import (
    ConstellationSpec,
    LinkBudget,
    coverage_conditional,
    db_to_linear,
    max_sir_coverage_curve,
    sir_coverage_curve,
    threshold_grid_db,
)
from .distance import NearestDistanceLaw, nearest_ccdf
from .geometry import (
    TWO_PI,
    OrbitGeometry,
    VisibilityWindow,
    _window_half_angle,
    d_min,
    distance_to_arc,
    orbital_speed,
    visible_arc_length,
    visible_time,
)
from .interference import ChannelParams, _point_terms
from .montecarlo import (
    McConfig,
    _coverage_pass,
    _interference,
    _poisson_counts,
    _require_survivors,
    empirical_max_sir_coverage,
    empirical_nearest_ccdf,
    empirical_sir_coverage,
)

__all__ = [
    "CriterionResult",
    "ValidationReport",
    "run_criterion",
    "run_all",
    "render_report",
    "CRITERION_NAMES",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729

# reference configuration: 500 km shell, 10 degree minimum elevation
ALTITUDE_KM = 500.0
OMEGA_MIN_RAD = math.radians(10.0)
DENSITY_PER_KM = 0.005
GAMMA_GRID_DB = threshold_grid_db(-10.0, 30.0, 5.0)
GAMMAS = np.array([db_to_linear(g) for g in GAMMA_GRID_DB])  # the same grid, linear
GAMMAS.setflags(write=False)  # shared by every criterion

# path-loss / fading combinations exercised by the coverage criteria
ALPHA_M_COMBOS = ((2.0, 1), (3.0, 1), (4.0, 1), (2.0, 2), (2.0, 3))

THETA_GRID = (
    math.pi / 2,
    math.pi / 2 - math.pi / 36,
    math.pi / 2 + math.pi / 36,
    math.pi / 2 - math.pi / 18,
    math.pi / 2 + math.pi / 18,
)
DENSITY_GRID = (0.01, 0.001, 0.0001)

# trials per batch of criterion 4's direct average: its per-trial sums
# stay small next to the kernel's chunks
_DIRECT_BATCH = 10_000

# least reach of the brute-force arc count's edge windows past each edge:
# float noise in the height blurs an edge by ~2e-8 rad at the band edge
_ARC_EDGE_RAD = 1e-6


@dataclass
class CriterionResult:
    """One criterion's outcome. Its check methods write every report line
    and clear `passed` on a miss, so a criterion only makes checks."""

    index: int
    name: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def near(self, label: str, value: float, target: float, tol: float) -> None:
        """Check |value - target| <= tol."""
        diff = abs(value - target)
        self._record(
            diff <= tol, f"{label}: value={_fmt(value)} target={_fmt(target)} |diff|={_fmt(diff)} tol={_fmt(tol)}"
        )

    def below(self, label: str, value: float, bound: float) -> None:
        """Check value <= bound."""
        self._record(value <= bound, f"{label}: value={_fmt(value)} bound={_fmt(bound)}")

    def holds(self, label: str, ok: bool) -> None:
        """Check a yes/no fact, reported as yes or NO."""
        self.lines.append(f"  {label}: {'yes' if ok else 'NO'}")
        self.passed = self.passed and bool(ok)

    def _record(self, ok: bool, text: str) -> None:
        self.lines.append(f"  {text} [{'ok' if ok else 'FAIL'}]")
        self.passed = self.passed and bool(ok)


@dataclass
class ValidationReport:
    seed: int
    trials_scale: float
    results: list[CriterionResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _orbit(theta_rad: float = math.pi / 2, phi_rad: float = 0.0, altitude_km: float = ALTITUDE_KM) -> OrbitGeometry:
    return OrbitGeometry(altitude_km=altitude_km, theta_rad=theta_rad, phi_rad=phi_rad)


def _window(orbit: OrbitGeometry, omega_rad: float = OMEGA_MIN_RAD) -> VisibilityWindow:
    return VisibilityWindow.from_min_elevation(omega_rad, orbit)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _scaled_tol(tol: float, default_trials: int, actual_trials: int) -> float:
    if actual_trials >= default_trials:
        return tol
    return tol * math.sqrt(default_trials / actual_trials)


def _scaled_count(default: int, scale: float, floor: int) -> int:
    return max(floor, int(round(default * scale)))


def criterion_geometry_anchors(result: CriterionResult, seed: int, scale: float) -> None:
    """Frozen closed-form values for the reference shell."""
    orbit = _orbit()
    window = _window(orbit)
    result.near("max slant range d_max (km)", window.d_max_km, 1694.6, 0.05)
    result.near("cap base height (km)", window.cap_base_km, 6665.3, 0.05)
    arc = visible_arc_length(orbit, window)
    result.near("visible arc length (km)", arc, 3371.4, 0.05)
    result.near("orbital speed (m/s)", orbital_speed(orbit), 7616.5, 0.05)
    result.near("visible time per pass (s)", visible_time(orbit, window), 442.64, 0.005)
    zero_omega = _window(orbit, 0.0)
    result.near("horizon visible arc (km)", visible_arc_length(orbit, zero_omega), 5274.8, 0.05)
    result.near("closest approach d_min (km)", d_min(orbit), 500.0, 1e-9)


def _arc_length_bruteforce(orbit: OrbitGeometry, window: VisibilityWindow, points: int, gen) -> float:
    """Visible arc by jittered-stratified counting: one uniform angle
    psi_i = (u_i + i) * step in each of `points` equal slices of the
    circle, counted where the height reach * cos(psi_i) clears the cap.

    `gen` must be a PCG64 `Generator`: it spends one 64-bit word per
    double, so `bit_generator.advance(k)` skips k draws. The count, and
    the state `gen` is left in, are those of drawing all `points` angles
    at once, so the pairs drawn after this one see the same stream.

    Only the slices next to the band edges psi = a and 2 pi - a, with
    a = acos(cap / reach), depend on their draw: every slice further in
    is inside and every slice further out is outside. So the slices
    within a margin of each edge are drawn and scored with the float ops
    of a full draw, the run between the two windows is counted by
    arithmetic and the rest of the stream is skipped. The margin is two
    slices, widened to _ARC_EDGE_RAD above ~1.26e7 points, where two
    slices span less than that. Beyond the margin (in rad) the height is
    off the cap by at least |reach| * margin^2 / 2 even where sin a -> 0
    at the band edge: 8e-13 of |reach| for two slices at 10^7 points, some
    7,000 ulps of cos, against a float error of a few ulps per slice.
    Rounding cap / reach moves a by at most ~1.5e-8 rad in that same
    worst case, 0.024 slice at 10^7 points.
    """
    step = TWO_PI / points
    # theta in [0, pi] makes reach <= 0: the inside run is around psi = pi
    reach = -orbit.radius_km * math.sin(orbit.theta_rad)
    cap = window.cap_base_km
    bits = gen.bit_generator
    if -reach <= cap:
        # |height| <= |reach| <= cap at every angle
        bits.advance(points)
        return 0.0
    edge = math.acos(cap / reach)
    margin = max(2, math.ceil(_ARC_EDGE_RAD / step))
    first, last = int(edge / step), int((TWO_PI - edge) / step)
    # [lo, hi) slice ranges around the two edges, one range where they meet
    lo, hi = max(0, first - margin), min(points, last + margin + 1)
    inside = last - first - 2 * margin - 1
    if inside > 0:
        windows = ((lo, first + margin + 1), (last - margin, hi))
    else:
        windows = ((lo, hi),)
        inside = 0
    drawn = 0
    for start, stop in windows:
        bits.advance(start - drawn)
        z = np.cos((gen.random(stop - start) + np.arange(start, stop)) * step) * reach
        inside += int(np.count_nonzero(z > cap))
        drawn = stop
    bits.advance(points - drawn)
    return inside / points * TWO_PI * orbit.radius_km


def criterion_arc_bruteforce(result: CriterionResult, seed: int, scale: float) -> None:
    """Random (elevation, inclination) pairs vs indicator counting."""
    points = _scaled_count(10_000_000, scale, 500_000)
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    worst = 0.0
    for _ in range(20):
        omega = gen.uniform(0.0, math.radians(45.0))
        orbit_ref = _orbit()
        window = _window(orbit_ref, omega)
        band = math.acos(window.cap_base_km / orbit_ref.radius_km)
        theta = math.pi / 2 + gen.uniform(-0.98, 0.98) * band
        orbit = _orbit(theta)
        analytic = visible_arc_length(orbit, window)
        brute = _arc_length_bruteforce(orbit, window, points, gen)
        worst = max(worst, abs(analytic - brute) / analytic)
    # agreement to three significant figures
    tol = 5e-4 * max(1.0, math.sqrt(10_000_000 / points))
    result.below(f"worst relative error over 20 pairs ({points} points each)", worst, tol)


def criterion_nearest_distance(result: CriterionResult, seed: int, scale: float) -> None:
    """Sup-norm CCDF agreement on the inclination/density grid."""
    target = _scaled_count(1_000_000, scale, 2_000)
    combo = 0
    for theta in THETA_GRID:
        for density in DENSITY_GRID:
            orbit = _orbit(theta)
            window = _window(orbit)
            law = NearestDistanceLaw(orbit, window, density)
            # oversize the raw run so the conditioned sample hits the target
            raw = int(math.ceil(1.05 * target / law.visibility_probability))
            grid = np.linspace(law.d_min_km, law.d_max_km, 202)[1:-1]
            cfg = McConfig(trials=raw, seed=seed + 31 * combo, batch=5_000)
            empirical, survivors = empirical_nearest_ccdf(orbit, window, density, grid, cfg)
            sup = float(np.max(np.abs(empirical - nearest_ccdf(law, grid))))
            tol = _scaled_tol(0.004, 1_000_000, survivors)
            label = f"sup|ccdf diff| theta={_fmt(theta)} density={_fmt(density)} survivors={survivors}"
            result.below(label, sup, tol)
            combo += 1


def _laplace_direct_average(
    orbit: OrbitGeometry,
    window: VisibilityWindow,
    density: float,
    channel: ChannelParams,
    serving_km: float,
    s_values,
    trials: int,
    gen,
) -> np.ndarray:
    """E[exp(-s I)] for each s by simulating the interferers with the
    Monte-Carlo kernel: each batch draws its trials' Poisson counts for
    the leftover arc beyond the serving radius's offset ell0 / 2R, and
    each trial only the offsets there, which by Poisson restriction are
    exactly its satellites. Every s is averaged over the same
    interference sums (common random numbers), drawn in batches of
    _DIRECT_BATCH trials, so memory stays that of one batch."""
    beta = _window_half_angle(orbit, window)
    cut = min(float(distance_to_arc(orbit, serving_km)) / (2.0 * orbit.radius_km), beta)
    s_values = np.asarray(s_values, dtype=float)
    fading = functools.partial(gen.gamma, channel.m, 1.0 / channel.m)
    acc = np.zeros(s_values.size)
    for done in range(0, trials, _DIRECT_BATCH):
        size = min(_DIRECT_BATCH, trials - done)
        counts = _poisson_counts(gen, 2.0 * orbit.radius_km * (beta - cut) * density, size)
        sums = _interference(gen, orbit, channel.alpha, beta, counts, np.full(size, cut), fading)
        for k, s in enumerate(s_values):
            acc[k] += float(np.exp(-s * channel.g_i_bar * sums).sum())
    return acc / trials


def criterion_laplace(result: CriterionResult, seed: int, scale: float) -> None:
    """Transform values vs direct averaging; derivatives vs differences."""
    trials = _scaled_count(1_000_000, scale, 2_000)
    orbit = _orbit()
    window = _window(orbit)
    channel = ChannelParams(alpha=2.0, m=1.0)
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    lo = d_min(orbit)
    mid = 0.5 * (lo + window.d_max_km)
    tol = _scaled_tol(0.005, 1_000_000, trials)
    for serving in (lo, mid):
        # raw transform-variable probes plus values on the coverage scale
        # s = m gamma r^alpha, where the transform actually gets used
        scales = [0.1, 1.0, 10.0] + [g * serving**2 for g in (0.1, 1.0, 10.0)]
        directs = _laplace_direct_average(orbit, window, DENSITY_PER_KM, channel, serving, scales, trials, gen)
        for s, direct in zip(scales, directs):
            analytic = _point_terms(orbit, window, DENSITY_PER_KM, channel, serving, s)[0]
            result.near(f"transform r={_fmt(serving)} s={_fmt(s)}", analytic, direct, tol)
    # the kernel's derivative L^(t) = t! c_t / (-s)^t, t = m - 1, against
    # finite differences of its transform c_0: the first at m = 2 (central
    # difference), the third at m = 4 (five-point stencil)
    def transform(ch: ChannelParams, s: float) -> float:
        return _point_terms(orbit, window, DENSITY_PER_KM, ch, lo, s)[0]

    for m, step, bound in ((2, 1e-5, 1e-4), (4, 2e-4, 1e-3)):
        ch = ChannelParams(alpha=2.0, m=float(m))
        t = m - 1
        s0 = m * 1.0 * lo**2
        h = step * s0
        deriv = math.factorial(t) * _point_terms(orbit, window, DENSITY_PER_KM, ch, lo, s0)[t] / (-s0) ** t
        if t == 1:
            fd = (transform(ch, s0 + h) - transform(ch, s0 - h)) / (2.0 * h)
        else:
            fd = (
                -transform(ch, s0 - 2 * h)
                + 2 * transform(ch, s0 - h)
                - 2 * transform(ch, s0 + h)
                + transform(ch, s0 + 2 * h)
            ) / (2.0 * h**3)
        result.below(f"order-{t} derivative rel error (m={m})", abs(deriv - fd) / abs(fd), bound)


def _reference_constellation(
    theta: float, density: float, alpha: float, m: float, altitude_km: float = ALTITUDE_KM
) -> ConstellationSpec:
    orbit = _orbit(theta, altitude_km=altitude_km)
    return ConstellationSpec(
        orbits=(orbit,),
        densities_per_km=(density,),
        window=_window(orbit),
        channel=ChannelParams(alpha=alpha, m=m),
    )


def criterion_sir_coverage(result: CriterionResult, seed: int, scale: float) -> None:
    """Conditional SIR coverage vs simulation on the (alpha, m) grid."""
    trials = _scaled_count(100_000, scale, 2_000)
    tol = _scaled_tol(0.015, 100_000, trials)
    for index, (alpha, m) in enumerate(ALPHA_M_COMBOS):
        spec = _reference_constellation(math.pi / 2, DENSITY_PER_KM, alpha, float(m))
        cfg = McConfig(trials=trials, seed=seed + 53 * index, batch=10_000)
        conditional, _ = empirical_sir_coverage(spec, GAMMA_GRID_DB, cfg)
        analytic = coverage_conditional(spec, GAMMAS)
        worst = max(abs(a - s) for a, s in zip(analytic, conditional.values))
        result.below(f"max|coverage diff| alpha={_fmt(alpha)} m={m}", worst, tol)


def criterion_snr_coverage(result: CriterionResult, seed: int, scale: float) -> None:
    """SNR curves vs simulation per bandwidth, plus exact orderings."""
    trials = _scaled_count(1_000_000, scale, 2_000)
    tol = _scaled_tol(0.01, 1_000_000, trials)
    spec = _reference_constellation(math.pi / 2, DENSITY_PER_KM, 2.0, 1.0)
    cfg = McConfig(trials=trials, seed=seed + 71, batch=10_000)
    budgets = tuple(LinkBudget(bandwidth_hz=bandwidth) for bandwidth in (1.0e7, 1.0e8, 1.0e9))
    survivors, (sir_conditional, _, _), per_budget = _coverage_pass(spec, budgets, GAMMA_GRID_DB, cfg)
    _require_survivors(survivors, cfg.trials, "survived conditioning")
    previous_sinr = None
    for budget, (snr_c, _, sinr_c, _) in zip(budgets, per_budget):
        bandwidth = budget.bandwidth_hz
        analytic = coverage_conditional(spec, GAMMAS, budget)
        worst = max(abs(a - s) for a, s in zip(analytic, snr_c.values))
        result.below(f"max|SNR diff| bandwidth={_fmt(bandwidth)}", worst, tol)
        # one pass scores all curves on the same draws, so these orderings
        # are exact, not statistical
        sir_floor = min(s - x for s, x in zip(sir_conditional.values, sinr_c.values))
        result.below(f"SINR above SIR by (bandwidth={_fmt(bandwidth)})", -sir_floor, 0.0)
        snr_floor = min(s - x for s, x in zip(snr_c.values, sinr_c.values))
        result.below(f"SINR above SNR by (bandwidth={_fmt(bandwidth)})", -snr_floor, 0.0)
        if previous_sinr is not None:
            widen = min(p - c for p, c in zip(previous_sinr, sinr_c.values))
            result.below(f"noise gap shrank at bandwidth={_fmt(bandwidth)}", -widen, 0.0)
        previous_sinr = sinr_c.values


def criterion_orbit_diversity(result: CriterionResult, seed: int, scale: float) -> None:
    """Best-satellite combiner: N = 1 identity, simulation, monotonicity."""
    trials = _scaled_count(100_000, scale, 2_000)
    tol = _scaled_tol(0.015, 100_000, trials)
    channel = ChannelParams(alpha=2.0, m=1.0)
    base = _orbit()
    window = _window(base)

    def constellation(count: int, theta: float = math.pi / 2) -> ConstellationSpec:
        orbits = tuple(
            OrbitGeometry(ALTITUDE_KM, theta, phi_rad=TWO_PI * k / count) for k in range(count)
        )
        return ConstellationSpec(orbits, (DENSITY_PER_KM,) * count, window, channel)

    combined = max_sir_coverage_curve(constellation(1), GAMMA_GRID_DB).values
    direct = sir_coverage_curve(base, window, DENSITY_PER_KM, channel, GAMMA_GRID_DB).values
    worst = max(abs(c - d) for c, d in zip(combined, direct))
    result.below("single-orbit combiner identity", worst, 1e-12)
    previous = None
    for count in (2, 3, 4):
        spec = constellation(count)
        cfg = McConfig(trials=trials, seed=seed + 97 * count, batch=10_000)
        conditional, _, _ = empirical_max_sir_coverage(spec, GAMMA_GRID_DB, cfg)
        analytic = coverage_conditional(spec, GAMMAS)
        worst = max(abs(a - s) for a, s in zip(analytic, conditional.values))
        result.below(f"max|coverage diff| orbits={count}", worst, tol)
        if previous is not None:
            drop = min(a - p for a, p in zip(analytic, previous))
            result.below(f"conditional coverage fell adding orbit {count}", -drop, 0.0)
        previous = analytic
    # three tilted orbits beat one overhead orbit at the 10 dB threshold
    tilted = constellation(3, theta=math.pi / 2 + math.pi / 18)
    gain = max_sir_coverage_curve(tilted, (10.0,)).values[0] - direct[GAMMA_GRID_DB.index(10.0)]
    result.below("tilted trio behind single overhead orbit by", -gain, 0.0)


def criterion_trends(result: CriterionResult, seed: int, scale: float) -> None:
    """Orderings the closed forms imply across parameters."""
    base = _orbit()
    # visible arc: symmetric in the tilt, peaked overhead, shrinking with
    # elevation floor, zero outside the band
    thetas = np.linspace(0.0, math.pi, 181)
    arcs = {}
    for omega_deg in (10.0, 20.0, 30.0):
        window = _window(base, math.radians(omega_deg))
        arcs[omega_deg] = np.array([visible_arc_length(_orbit(t), window) for t in thetas])
    for omega_deg, values in arcs.items():
        asym = float(np.max(np.abs(values - values[::-1])))
        result.below(f"arc symmetry misfit omega={_fmt(omega_deg)}", asym, 1e-9)
        peak_off = float(values.max() - values[90])
        result.below(f"arc peak away from overhead omega={_fmt(omega_deg)}", peak_off, 1e-9)
    result.below("arc grew when elevation floor rose 10->20", float(np.max(arcs[20.0] - arcs[10.0])), 0.0)
    result.below("arc grew when elevation floor rose 20->30", float(np.max(arcs[30.0] - arcs[20.0])), 0.0)
    window = _window(base)
    band = math.acos(window.cap_base_km / base.radius_km)
    outside = [t for t in thetas if abs(t - math.pi / 2) > band * 1.001]
    worst_outside = max(visible_arc_length(_orbit(t), window) for t in outside)
    result.below("arc outside the visibility band", worst_outside, 0.0)
    # nearest-distance CCDF: denser orbits pull the nearest satellite in
    laws = {d: NearestDistanceLaw(base, window, d) for d in DENSITY_GRID}
    grid = np.linspace(laws[0.01].d_min_km, laws[0.01].d_max_km, 102)[1:-1]
    ccdfs = {d: nearest_ccdf(law, grid) for d, law in laws.items()}
    result.below("ccdf rose with density 0.001->0.01", float(np.max(ccdfs[0.01] - ccdfs[0.001])), 0.0)
    result.below("ccdf rose with density 0.0001->0.001", float(np.max(ccdfs[0.001] - ccdfs[0.0001])), 0.0)
    # a tilted orbit keeps satellites farther out than the overhead one
    tilted_orbit = _orbit(math.pi / 2 + math.pi / 18)
    tilted = NearestDistanceLaw(tilted_orbit, window, 0.001)
    shared = np.linspace(tilted.d_min_km, tilted.d_max_km, 102)[1:-1]
    gap = float(np.max(nearest_ccdf(laws[0.001], shared) - nearest_ccdf(tilted, shared)))
    result.below("overhead ccdf above tilted ccdf", gap, 0.0)
    # interference transform: more satellites, smaller transform
    channel = ChannelParams(alpha=2.0, m=1.0)
    lo = d_min(base)
    for s in (1.0e4, 1.0e5, 1.0e6):
        sparse = math.log(_point_terms(base, window, 0.005, channel, lo, s)[0])
        dense = math.log(_point_terms(base, window, 0.01, channel, lo, s)[0])
        result.below(f"transform rose with density at s={_fmt(s)}", dense - sparse, 0.0)
    # coverage at 10 dB: improves with steeper path loss, sparser orbits,
    # lower shells, overhead inclination; symmetric in the tilt sign
    gamma = db_to_linear(10.0)

    def conditional(theta=math.pi / 2, density=DENSITY_PER_KM, alpha=2.0, altitude_km=ALTITUDE_KM) -> float:
        return coverage_conditional(_reference_constellation(theta, density, alpha, 1.0, altitude_km), gamma)

    by_alpha = [conditional(alpha=a) for a in (2.0, 3.0, 4.0)]
    result.below("coverage fell from alpha=2 to 3", by_alpha[0] - by_alpha[1], 0.0)
    result.below("coverage fell from alpha=3 to 4", by_alpha[1] - by_alpha[2], 0.0)
    sparse = conditional(density=0.001)
    dense = conditional(density=0.01)
    result.below("coverage rose with density at 10 dB", dense - sparse, 0.0)
    by_altitude = [conditional(altitude_km=altitude) for altitude in (500.0, 1000.0, 1500.0)]
    result.below("coverage rose with altitude 500->1000", by_altitude[1] - by_altitude[0], 0.0)
    result.below("coverage rose with altitude 1000->1500", by_altitude[2] - by_altitude[1], 0.0)
    overhead = conditional()
    up = conditional(math.pi / 2 + math.pi / 18)
    down = conditional(math.pi / 2 - math.pi / 18)
    result.below("tilted orbit beat overhead at 10 dB", max(up, down) - overhead, 0.0)
    result.below("tilt-sign asymmetry", abs(up - down), 1e-9)


def criterion_determinism(result: CriterionResult, seed: int, scale: float) -> None:
    """Identical seeds must reproduce results bit for bit."""
    spec = _reference_constellation(math.pi / 2, DENSITY_PER_KM, 2.0, 1.0)
    cfg = McConfig(trials=2_000, seed=seed + 11, batch=500)
    first, first_u = empirical_sir_coverage(spec, GAMMA_GRID_DB, cfg)
    second, second_u = empirical_sir_coverage(spec, GAMMA_GRID_DB, cfg)
    same = first.values == second.values and first_u.values == second_u.values
    result.holds("repeated run identical", same)
    child_a = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,))).random(8)
    child_b = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,))).random(8)
    result.holds("child streams identical", bool(np.all(child_a == child_b)))


# each criterion's index, its name in the report, and the function that
# makes its checks
_CRITERIA = {
    1: ("closed-form geometry anchors", criterion_geometry_anchors),
    2: ("visible arc vs brute-force circle sampling", criterion_arc_bruteforce),
    3: ("nearest-distance law vs simulation", criterion_nearest_distance),
    4: ("interference transform vs direct averaging", criterion_laplace),
    5: ("SIR coverage vs simulation", criterion_sir_coverage),
    6: ("SNR and SINR coverage vs simulation", criterion_snr_coverage),
    7: ("orbit diversity combiner", criterion_orbit_diversity),
    8: ("parameter-trend orderings", criterion_trends),
    9: ("seeded rerun determinism", criterion_determinism),
}
CRITERION_NAMES = {index: name for index, (name, _) in _CRITERIA.items()}


def run_criterion(index: int, seed: int = DEFAULT_SEED, trials_scale: float = 1.0) -> CriterionResult:
    """Run one criterion by index with timing attached."""
    if index not in _CRITERIA:
        raise ValueError(f"no criterion {index}")
    name, make_checks = _CRITERIA[index]
    result = CriterionResult(index, name)
    start = time.perf_counter()
    make_checks(result, seed, trials_scale)
    result.elapsed_s = time.perf_counter() - start
    return result


def run_all(seed: int = DEFAULT_SEED, trials_scale: float = 1.0) -> ValidationReport:
    """Run all nine criteria in index order and report them."""
    results = [run_criterion(index, seed, trials_scale) for index in _CRITERIA]
    return ValidationReport(seed=seed, trials_scale=trials_scale, results=results)


def render_report(report: ValidationReport) -> str:
    """Deterministic report text: no timings, identical for equal seeds."""
    out = [
        "coverage validation report",
        f"seed={report.seed} trials_scale={_fmt(report.trials_scale)}",
        "",
    ]
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        out.append(f"criterion {result.index} ({result.name}): {status}")
        out.extend(result.lines)
    passed = sum(1 for r in report.results if r.passed)
    out.append("")
    out.append(f"result: {'PASS' if report.passed else 'FAIL'} ({passed}/{len(report.results)})")
    return "\n".join(out) + "\n"
