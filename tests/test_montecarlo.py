"""Simulation kernels: snapshots, nearest-distance and coverage estimators."""

import functools
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

from orbitcov import (
    ChannelParams,
    ConstellationSpec,
    DegenerateSampleError,
    LinkBudget,
    McConfig,
    OrbitGeometry,
    VisibilityWindow,
    coverage_conditional,
    db_to_linear,
    distance_to_arc,
    empirical_max_sir_coverage,
    empirical_nearest_ccdf,
    empirical_sir_coverage,
    empirical_snr_sinr_coverage,
    nearest_ccdf,
    sir_coverage_curve,
    threshold_grid_db,
    visible_arc_length,
)
from orbitcov.distance import NearestDistanceLaw
from orbitcov.geometry import TWO_PI, EarthConstants, _squared_distance, _window_half_angle
from orbitcov import montecarlo
from orbitcov.montecarlo import (
    _batches,
    _coverage_pass,
    _interference,
    _nearest_distance,
    _nearest_first,
    _parallel_sum,
    _poisson_counts,
    _poisson_table,
    _sir_batch,
    _wilson_bounds,
)
from reference_forms import (
    orbit_plane_basis,
    sample_orbit,
    satellite_distances,
    score_per_satellite,
    visible_arc_double_angle,
    window_draw,
)

LAM = 0.005


class FixedCounts:
    """A generator whose draws come from a seeded generator, each logged
    as (method, copy of the array) in `draws`. Given `monkeypatch`, the
    kernel's count draw is patched to return (a copy of) fixed counts in
    their order; given `plant`, each uniform draw passes through it, in
    place, before it is logged and used."""

    def __init__(self, counts, seed, monkeypatch=None, plant=None):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.gen = np.random.default_rng(seed)
        self.draws = []
        self.plant = plant
        if monkeypatch is not None:
            monkeypatch.setattr(montecarlo, "_poisson_counts", self.poisson_counts)

    def poisson_counts(self, gen, mean, n, shuffle=False):
        assert gen is self and n == self.counts.size
        return self.counts.copy()

    def __getattr__(self, name):
        def draw(*args):
            values = getattr(self.gen, name)(*args)
            if name == "random" and self.plant is not None:
                self.plant(values)
            self.draws.append((name, values.copy()))
            return values

        return draw

    def sizes(self, name="random"):
        """The sizes of the logged draws of one method, in order."""
        return [values.size for method, values in self.draws if method == name]


def drawn_offsets(beta, counts, cut, draws):
    """Each interferer's offset, trial by trial, from the uniform draws
    `_interference` logged: chunks come in trial order, so those draws
    laid end to end hold each trial's offsets in turn, beta - U (beta -
    cut_i), the kernel's float ops."""
    u = np.concatenate([values for name, values in draws if name == "random"])
    return beta - (beta - np.repeat(cut, counts)) * u


def kernel_draw(orbit, window, seed, density, n):
    """A batch's satellites as the SIR kernel draws them: each trial's
    nearest offset (inf when empty), its count of others, their offsets
    as one array per trial, and the satellite count of each chunk."""
    gen = FixedCounts((), seed)
    beta = _window_half_angle(orbit, window)
    counts = _poisson_counts(gen, 2.0 * orbit.radius_km * beta * density, n)
    closest, others = _nearest_first(gen, beta, counts)
    logged = len(gen.draws)
    _interference(gen, orbit, 2.0, beta, others, closest, np.ones)
    offsets = drawn_offsets(beta, others, closest, gen.draws[logged:])
    return closest, others, np.split(offsets, np.cumsum(others)[:-1]), gen.sizes()[1:]


def chunk_sizes(counts, limit):
    """The satellite count of each chunk, by the rule of the kernel:
    whole trials together while they fit in `limit`, a larger trial alone
    in pieces of `limit` and what is left of it."""
    sizes, run = [], None
    for count in map(int, counts):
        if run is not None and run + count <= limit:
            run += count
            continue
        if run is not None:
            sizes.append(run)
        run = count
        if count > limit:
            sizes += [limit] * (count // limit) + [count % limit] * (count % limit > 0)
            run = None
    return sizes if run is None else [*sizes, run]


def single(theta=math.pi / 2, lam=LAM, m=1.0, alpha=2.0):
    orbits = (OrbitGeometry(500.0, theta),)
    window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
    return ConstellationSpec(
        orbits=orbits,
        densities_per_km=(lam,),
        window=window,
        channel=ChannelParams(alpha=alpha, m=m),
    )


class TestSnapshot:
    def test_positions_on_orbit_sphere(self, ref_orbit, ref_window):
        snap = sample_orbit(ref_orbit, ref_window, LAM, np.random.default_rng(3))
        radii = np.linalg.norm(snap.positions_km, axis=1)
        assert np.allclose(radii, ref_orbit.radius_km, rtol=1e-12, atol=0.0)

    def test_positions_in_orbit_plane(self, ref_window):
        orbit = OrbitGeometry(500.0, 1.0, phi_rad=2.3)
        snap = sample_orbit(orbit, ref_window, LAM, np.random.default_rng(4))
        _, _, normal = orbit_plane_basis(orbit.theta_rad, orbit.phi_rad)
        off_plane = snap.positions_km @ normal
        assert np.max(np.abs(off_plane)) < 1e-9 * orbit.radius_km

    def test_distances_sorted_and_consistent(self, ref_orbit, ref_window):
        snap = sample_orbit(ref_orbit, ref_window, LAM, np.random.default_rng(5))
        assert np.all(np.diff(snap.distances_km) >= 0.0)
        user = np.array([0.0, 0.0, ref_orbit.earth.radius_km])
        direct = np.linalg.norm(snap.positions_km - user, axis=1)
        assert np.allclose(direct, snap.distances_km, rtol=1e-12)

    def test_deterministic(self, ref_orbit, ref_window):
        a = sample_orbit(ref_orbit, ref_window, LAM, np.random.default_rng(6))
        b = sample_orbit(ref_orbit, ref_window, LAM, np.random.default_rng(6))
        assert np.array_equal(a.positions_km, b.positions_km)
        assert np.array_equal(a.visible, b.visible)

    def test_plane_rotation_preserves_distances(self, ref_window):
        # distances depend only on the height coordinate, so spinning the
        # ascending node must not change them
        a = sample_orbit(OrbitGeometry(500.0, 1.2, phi_rad=0.0), ref_window, LAM, np.random.default_rng(7))
        b = sample_orbit(OrbitGeometry(500.0, 1.2, phi_rad=4.0), ref_window, LAM, np.random.default_rng(7))
        assert np.allclose(a.distances_km, b.distances_km, rtol=1e-12)
        assert np.array_equal(a.visible, b.visible)

    def test_snapshot_summaries(self, ref_orbit, ref_window):
        snap = sample_orbit(ref_orbit, ref_window, 0.01, np.random.default_rng(8))
        assert snap.count == len(snap.distances_km)
        if snap.visible.any():
            nearest = snap.distances_km[snap.visible].min()
            assert snap.nearest_visible_km == nearest
        else:
            assert math.isinf(snap.nearest_visible_km)

    def test_elevation_test_matches_cap_height(self, ref_orbit, ref_window):
        # the batch kernels cut on the cap height; the snapshot path cuts
        # on the elevation angle; both define the same window
        gen = np.random.default_rng(9)
        psi = gen.uniform(0.0, TWO_PI, 1_000_000)
        R = ref_orbit.radius_km
        re = ref_orbit.earth.radius_km
        z = R * np.cos(psi)  # theta = pi/2: height is R cos(psi)
        dist = np.sqrt(R * R + re * re - 2.0 * re * z)
        by_cap = z > ref_window.cap_base_km
        by_elevation = (z - re) >= dist * math.sin(ref_window.omega_min_rad)
        assert np.array_equal(by_cap, by_elevation)


GEO_ALTITUDE_KM = 35786.0


def _band_thetas(altitude_km, window):
    """Inclinations at the centre, near both band edges, on the poles and
    outside the band."""
    radius = OrbitGeometry(altitude_km, math.pi / 2).radius_km
    band = math.acos(window.cap_base_km / radius)
    edge = math.pi / 2 + band
    return (
        math.pi / 2,
        0.999999 * edge,
        math.pi - 0.999999 * edge,
        0.0,
        math.pi,
        min(math.pi, edge + 0.01),
        max(0.0, math.pi / 2 - band - 0.01),
    )


class TestVisibleWindow:
    @pytest.mark.parametrize("altitude_km", [500.0, 1200.0, GEO_ALTITUDE_KM])
    @pytest.mark.parametrize("omega_deg", [0.0, 10.0, 45.0, 85.0])
    def test_window_length_is_the_visible_arc(self, altitude_km, omega_deg):
        # the kernel's window 2 R beta is worked out from the cap height
        # alone; the double-angle form R arccos(eta) behind the band test
        # must give the same length
        window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), OrbitGeometry(altitude_km, math.pi / 2))
        for theta in _band_thetas(altitude_km, window):
            orbit = OrbitGeometry(altitude_km, theta)
            window_km = 2.0 * orbit.radius_km * _window_half_angle(orbit, window)
            assert window_km == pytest.approx(visible_arc_double_angle(orbit, window), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 2 + math.pi / 18])
    def test_mean_visible_count(self, ref_window, theta):
        orbit = OrbitGeometry(500.0, theta)
        n = 200_000
        closest, _, others, _ = kernel_draw(orbit, ref_window, 22, LAM, n)
        offsets = np.concatenate([closest[np.isfinite(closest)], *others])
        r_vis = satellite_distances(orbit, ref_window, offsets)
        mean = LAM * visible_arc_length(orbit, ref_window)
        assert np.count_nonzero(np.isfinite(r_vis)) / n == pytest.approx(mean, abs=5.0 * math.sqrt(mean / n))

    def test_lowest_offset_draws_only_beyond_it(self, ref_orbit, ref_window):
        # each trial's offsets beta - U (beta - cut), uniform on
        # (cut, beta] and never past beta, for one cut and for a cut per
        # trial. One satellite per trial at unit fading and alpha 2 sums
        # to 1 / r^2, from which distance_to_arc recovers its offset; a
        # cut of 0 is the whole window's draw down from beta, bit for
        # bit, and a cut on beta puts every offset there
        beta = _window_half_angle(ref_orbit, ref_window)
        n = 50_000

        def draw(cut):
            cuts = np.broadcast_to(cut, n)
            return _interference(np.random.default_rng(37), ref_orbit, 2.0, beta, np.ones(n, dtype=np.int64), cuts, np.ones)

        def recovered(cut):
            return distance_to_arc(ref_orbit, np.sqrt(1.0 / draw(cut))) / (2.0 * ref_orbit.radius_km)

        u = np.random.default_rng(37).random(n)
        assert np.array_equal(draw(0.0), 1.0 / _squared_distance(ref_orbit, beta - beta * u))
        offsets = recovered(0.5 * beta)
        assert offsets.min() >= 0.5 * beta * (1.0 - 1e-9) and offsets.max() <= beta * (1.0 + 1e-9)
        assert stats.kstest(offsets, stats.uniform(0.5 * beta, 0.5 * beta).cdf).pvalue > 1e-3
        cuts = np.random.default_rng(38).uniform(0.0, beta, n)
        offsets = recovered(cuts)
        # arccos near the top of the orbit keeps about half the digits
        assert np.all(offsets >= cuts - 1e-7) and offsets.max() <= beta * (1.0 + 1e-9)
        assert stats.kstest((offsets - cuts) / (beta - cuts), stats.uniform().cdf).pvalue > 1e-3
        assert np.all(draw(beta) == 1.0 / _squared_distance(ref_orbit, np.array([beta])))

    def test_nearest_agrees_with_snapshots(self, ref_window):
        # whole-circle 3-D snapshots with the elevation test against the
        # kernel's window draws, at a density where a third of trials see
        # nothing
        orbit = OrbitGeometry(500.0, math.pi / 2 + math.pi / 36)
        lam = 0.0005
        gen = np.random.default_rng(23)
        snapshots = np.array([sample_orbit(orbit, ref_window, lam, gen).nearest_visible_km for _ in range(4000)])
        # the nearest-distance estimator's draw: the nearest offsets alone
        beta = _window_half_angle(orbit, ref_window)
        gen = np.random.default_rng(24)
        closest, _ = _nearest_first(gen, beta, _poisson_counts(gen, 2.0 * orbit.radius_km * beta * lam, 20_000))
        kernel = _nearest_distance(orbit, closest)
        p_vis = NearestDistanceLaw(orbit, ref_window, lam).visibility_probability
        for sample in (snapshots, kernel):
            seen = np.count_nonzero(np.isfinite(sample))
            assert seen / sample.size == pytest.approx(p_vis, abs=5.0 * math.sqrt(p_vis * (1 - p_vis) / sample.size))
        result = stats.ks_2samp(snapshots[np.isfinite(snapshots)], kernel[np.isfinite(kernel)])
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize(
        "altitude_km, omega_deg, theta",
        [
            (500.0, 10.0, math.pi / 2),
            (500.0, 10.0, math.pi / 2 + math.pi / 18),
            (GEO_ALTITUDE_KM, 10.0, math.pi / 2),
            (500.0, 85.0, math.pi / 2),
            (500.0, 10.0, None),
            (GEO_ALTITUDE_KM, 45.0, None),
        ],
    )
    def test_closest_offset_is_the_per_satellite_minimum(self, altitude_km, omega_deg, theta):
        # on the same draws, the offset drawn first must be the satellite
        # the per-satellite distances put nearest; theta None sits at
        # 0.999999 of the upper band edge, where the window is a sliver
        window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), OrbitGeometry(altitude_km, math.pi / 2))
        if theta is None:
            theta = _band_thetas(altitude_km, window)[1]
        orbit = OrbitGeometry(altitude_km, theta)
        n = 20_000
        # about 3 satellites per trial, so most trials have others
        density = 3.0 / visible_arc_length(orbit, window)
        closest, _, others, _ = kernel_draw(orbit, window, 29, density, n)
        expected = np.full(n, np.inf)
        for i in np.flatnonzero(np.isfinite(closest)):
            expected[i] = satellite_distances(orbit, window, np.append(others[i], closest[i])).min()
        nearest = _nearest_distance(orbit, closest)
        seen = np.isfinite(expected)
        assert sum(o.size > 0 for o in others) > n // 2
        assert np.array_equal(np.isfinite(nearest), seen)
        assert np.count_nonzero(seen) > n // 2
        assert np.allclose(nearest[seen], expected[seen], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("theta", [0.0, math.pi, 0.3, math.pi - 0.3])
    def test_out_of_band_is_degenerate_without_warnings(self, theta):
        spec = single(theta=theta)
        orbit, window = spec.orbits[0], spec.window
        assert visible_arc_length(orbit, window) == 0.0
        cfg = McConfig(trials=2_000, seed=25, batch=500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSampleError):
                empirical_nearest_ccdf(orbit, window, LAM, np.array([600.0]), cfg)
            with pytest.raises(DegenerateSampleError):
                empirical_sir_coverage(spec, (0.0,), cfg)
            with pytest.raises(DegenerateSampleError):
                empirical_snr_sinr_coverage(spec, LinkBudget(), (0.0,), cfg)
            with pytest.raises(DegenerateSampleError):
                empirical_max_sir_coverage(spec, (0.0,), cfg)
            # the pass itself never raises: the CLI writes its curves over
            # all trials, which are 0 when no trial sees a satellite
            survivors, sir, (snr_sinr,) = _coverage_pass(spec, (LinkBudget(),), (0.0, 10.0), cfg)
        assert survivors == 0
        for curve in (*sir[1:], *snr_sinr[1::2]):
            assert curve.values == (0.0, 0.0)

    def test_band_edge_arc_is_the_simulated_window(self):
        # 1e-12 of the band inside its edge the arc is a sliver, but a dense
        # orbit still sees it in about one trial in twenty: the analytic
        # arc must be the window drawn, and the coverage must follow it
        band = math.acos(single().window.cap_base_km / single().orbits[0].radius_km)
        spec = single(theta=math.pi / 2 + band * (1.0 - 1e-12), lam=10.0)
        orbit, window = spec.orbits[0], spec.window
        arc = visible_arc_length(orbit, window)
        assert arc > 0.0
        assert arc == 2.0 * orbit.radius_km * _window_half_angle(orbit, window)
        analytic = sir_coverage_curve(orbit, window, 10.0, spec.channel, (-10.0,)).values[0]
        _, simulated = empirical_sir_coverage(spec, (-10.0,), McConfig(trials=20_000, seed=7))
        half_width = (simulated.ci_high[0] - simulated.ci_low[0]) / 2.0
        assert abs(analytic - simulated.values[0]) <= 4.0 * half_width


class TestChunkedKernel:
    @staticmethod
    def _rim(u):
        # every 41st uniform planted within 50 ulps of 0: an interferer
        # U = 0 lies on the window's rim at beta itself, and a nearest
        # offset at 0 on the top of the orbit
        u[::41] = np.arange(u[::41].size) % 50 * 2.0**-53

    @pytest.mark.parametrize("alpha", [2.0, 3.5])
    @pytest.mark.parametrize("sliver", [False, True])
    @pytest.mark.parametrize("cut", ["nearest", "mid-window"])
    def test_score_matches_the_per_satellite_form(self, monkeypatch, ref_window, alpha, sliver, cut):
        # half-angle squared-distance weights against the cosine form's
        # sqrt, then r^-alpha, on the satellites the kernel draws, rebuilt
        # from its logged draws; the sliver sits 1e-12 of the band inside
        # its edge, where the window is a few meters wide. The trials hold
        # runs of empty ones and one larger than a chunk, and the
        # interferers lie beyond each trial's own nearest offset, as in
        # the SIR kernel, or beyond half the window, as in a fixed serving
        # radius's transform
        theta = math.pi / 2
        if sliver:
            theta += math.acos(ref_window.cap_base_km / OrbitGeometry(500.0, theta).radius_km) * (1.0 - 1e-12)
        orbit = OrbitGeometry(500.0, theta)
        beta = _window_half_angle(orbit, ref_window)
        trials = np.random.default_rng(31).poisson(3.0, 300)
        counts = np.concatenate([trials, [0, 0, montecarlo._CHUNK_SATELLITES + 3_000, 0, 1, 0]])
        gen = FixedCounts(counts, 31, monkeypatch, self._rim)
        if cut == "nearest":
            nearest, _, interference = _sir_batch(orbit, ref_window, gen, LAM, 2.0, alpha, counts.size)
            (_, u), *draws, _ = gen.draws
            cuts = np.full(counts.size, np.inf)
            cuts[counts > 0] = -beta * np.expm1(np.log1p(-u) / counts[counts > 0])
            others, reference_cuts = counts - (counts > 0), None
        else:
            reference_cuts = np.full(counts.size, 0.5 * beta)
            fading = functools.partial(gen.gamma, 2.0, 0.5)
            interference = _interference(gen, orbit, alpha, beta, counts, reference_cuts, fading)
            draws, cuts, others = gen.draws, reference_cuts, counts
        assert max(gen.sizes()) == montecarlo._CHUNK_SATELLITES
        edges = np.cumsum(others)[:-1]
        offsets = np.split(drawn_offsets(beta, others, cuts, draws), edges)
        fading = np.split(np.concatenate([v for name, v in draws if name == "gamma"]), edges)
        if cut == "nearest":
            # each trial's nearest first, at a fading the form leaves out
            offsets = [np.append(c, o) if n else o for c, o, n in zip(cuts, offsets, counts)]
            fading = [np.append(1.0, f) if n else f for f, n in zip(fading, counts)]
        else:
            nearest = _nearest_distance(orbit, np.array([o.min() if o.size else np.inf for o in offsets]))
        offsets, fading = np.concatenate(offsets), np.concatenate(fading)
        assert np.count_nonzero(offsets == beta) > 0
        expected_nearest, expected_interference = score_per_satellite(
            orbit, ref_window, alpha, counts, offsets, fading, reference_cuts
        )
        seen = np.isfinite(expected_nearest)
        assert np.array_equal(np.isfinite(nearest), seen)
        assert np.count_nonzero(seen) > 250
        assert np.allclose(nearest[seen], expected_nearest[seen], rtol=1e-12, atol=0.0)
        assert np.array_equal(interference == 0.0, expected_interference == 0.0)
        assert np.allclose(interference, expected_interference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("density", [LAM, 0.05, 10.0])
    def test_chunks_tile_the_batch(self, ref_orbit, ref_window, density):
        # whole trials together up to _CHUNK_SATELLITES satellites, and a
        # larger trial in pieces: at 10 per km each of the 4 trials has
        # ~33,700 satellites beyond its nearest. After the draw of the
        # nearest offsets each uniform draw is one chunk
        n = 3_000 if density < 1.0 else 4
        _, others, _, sizes = kernel_draw(ref_orbit, ref_window, 32, density, n)
        assert sizes == chunk_sizes(others, montecarlo._CHUNK_SATELLITES)
        assert max(sizes) <= montecarlo._CHUNK_SATELLITES and sum(sizes) == others.sum()
        assert len(sizes) > 1

    def test_small_chunks_keep_the_law(self, monkeypatch):
        # chunks of 64 satellites hold about four trials each, so a batch
        # is scored in hundreds of pieces
        monkeypatch.setattr(montecarlo, "_CHUNK_SATELLITES", 64)
        spec = single()
        grid = threshold_grid_db(-10.0, 20.0, 5.0)
        _, simulated = empirical_sir_coverage(spec, grid, McConfig(trials=20_000, seed=33, batch=5_000))
        analytic = sir_coverage_curve(spec.orbits[0], spec.window, LAM, spec.channel, grid).values
        half_width = (np.asarray(simulated.ci_high) - np.asarray(simulated.ci_low)) / 2.0
        assert np.all(np.abs(analytic - np.asarray(simulated.values)) <= 4.0 * half_width)

    def test_split_trial_matches_the_per_satellite_form(self, monkeypatch, ref_orbit, ref_window):
        # at chunks of 64 satellites a trial with 1,000 interferers is
        # scored in 16 pieces whose sums the kernel adds up. The draws,
        # logged in their order, rebuild every satellite: after the
        # counts, one uniform per occupied trial for its nearest offset,
        # per chunk the other offsets, down from beta, and then their
        # fadings, the serving fadings last
        monkeypatch.setattr(montecarlo, "_CHUNK_SATELLITES", 64)
        counts = np.array([3, 0, 1_001, 5, 0, 40, 30, 2])
        gen = FixedCounts(counts, 39, monkeypatch)
        nearest, serving, interference = _sir_batch(ref_orbit, ref_window, gen, LAM, 2.0, 3.5, counts.size)
        (first, u), *chunk_draws, (last, serving_draw) = gen.draws
        assert (first, u.size, last) == ("random", 6, "gamma")
        assert np.array_equal(serving, serving_draw)
        assert [name for name, _ in chunk_draws] == ["random", "gamma"] * (len(chunk_draws) // 2)
        assert len(chunk_draws) // 2 > 16
        beta = _window_half_angle(ref_orbit, ref_window)
        occupied = counts > 0
        closest = -beta * np.expm1(np.log1p(-u) / counts[occupied])
        beyond = np.concatenate([v for name, v in chunk_draws if name == "random"])
        low = np.repeat(closest, counts[occupied] - 1)
        beyond = beta - (beta - low) * beyond
        fading = np.concatenate([v for name, v in chunk_draws if name == "gamma"])
        # each trial's satellites with its nearest first; the form scores
        # all but that one as interferers
        ends = np.cumsum(counts[occupied] - 1)
        offsets = np.concatenate([np.append(c, b) for c, b in zip(closest, np.split(beyond, ends[:-1]))])
        fading = np.concatenate([np.append(1.0, f) for f in np.split(fading, ends[:-1])])
        expected_nearest, expected_interference = score_per_satellite(
            ref_orbit, ref_window, 3.5, counts, offsets, fading
        )
        assert np.array_equal(np.isfinite(nearest), occupied)
        assert np.allclose(nearest[occupied], expected_nearest[occupied], rtol=1e-12, atol=0.0)
        assert np.array_equal(interference == 0.0, expected_interference == 0.0)
        assert np.allclose(interference, expected_interference, rtol=1e-12, atol=0.0)

    def test_huge_trial_memory_is_bounded(self):
        # an Earth radius of 1e7 km puts ~2.8e6 satellites in each trial's
        # window at 10 per km, 1000 km up with omega_min 0: one such
        # trial's 8-byte array takes ~22.6 MB. Scored in pieces, a pass
        # over 3 trials peaks under a quarter of that
        orbit = OrbitGeometry(1000.0, math.pi / 2, earth=EarthConstants(radius_km=1e7))
        window = VisibilityWindow.from_min_elevation(0.0, orbit)
        spec = ConstellationSpec((orbit,), (10.0,), window, ChannelParams(alpha=2.0, m=1.0))
        unsplit_bytes = 8.0 * 2.0 * orbit.radius_km * _window_half_angle(orbit, window) * 10.0
        assert unsplit_bytes > 2e7
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _coverage_pass(spec, (), (0.0,), McConfig(trials=3, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * unsplit_bytes

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
    def test_dense_batch_memory_is_bounded(self, tmp_path):
        # 10 satellites per km at omega_min 0 put ~52,700 satellites in each
        # trial's window: scored all at once, 200 trials of one batch
        # peaked at 368 MB; in chunks they stay near the interpreter's own.
        # The run goes through the coverage verb, which simulates them in
        # one batch next to the analytic curve
        scenario = {
            "scenario_id": "dense",
            "window": {"omega_min_deg": 0.0},
            "orbits": [{"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 10.0}],
            "thresholds": {"start_db": -10.0, "stop_db": 10.0, "step_db": 10.0},
            "mc": {"trials": 200, "seed": 7},
        }
        config = tmp_path / "dense.json"
        config.write_text(json.dumps(scenario))
        code = textwrap.dedent(
            """
            import resource, sys
            from orbitcov.cli import main
            rc = main(["coverage", "--config", sys.argv[1], "--out", sys.argv[2]])
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            sys.exit(rc)
            """
        )
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        # at exec Linux carries the old address space's peak into the new
        # process's ru_maxrss, so a child of this (large) test process
        # would report its peak: the run is a grandchild, under a small
        # interpreter
        launcher = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)"
        done = subprocess.run(
            [sys.executable, "-c", launcher, code, str(config), str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # SIR-analytic, SIR-MC and SIR-delta at three thresholds
        assert len((tmp_path / "out" / "dense_coverage.csv").read_text().splitlines()) == 1 + 9
        peak_mb = int(done.stdout.splitlines()[-1]) / 1024.0
        assert peak_mb < 120.0


class TestWholeWindowLaw:
    """The SIR kernel draws each trial's nearest offset first and its
    others uniform beyond it; the whole-window draw of the reference
    forms draws every offset uniform on (0, beta) and scores each trial
    one satellite at a time. Both must give one law of SIR coverage.

    4 densities x 2 fadings x 9 thresholds make 72 comparisons of
    covered counts over all trials. A false failure of at most 1e-6 per
    run leaves 1e-6 / 72 = 1.4e-8 to each (Bonferroni). Each is Fisher's
    exact test, whose two-sided p-value falls below a level with at most
    that probability when both samples share one coverage probability.
    A normal two-sample z would be as strict (|z| <= 5.67) only where
    counts are large: near the top thresholds a sample covers a handful
    of trials, and there 4 reference successes against none give |z| 6.3
    but p 7e-5.
    """

    GRID = threshold_grid_db(-10.0, 30.0, 5.0)
    DENSITIES = (1e-4, 0.001, 0.005, 0.02)
    FADINGS = (1.0, 2.0)
    LEVEL = 1e-6 / (len(DENSITIES) * len(FADINGS) * len(GRID))
    KERNEL_TRIALS = 200_000
    REFERENCE_TRIALS = 20_000

    @pytest.mark.parametrize("m", FADINGS)
    @pytest.mark.parametrize("lam", DENSITIES)
    def test_nearest_first_keeps_the_whole_window_law(self, lam, m):
        spec = single(lam=lam, m=m)
        orbit, window, channel = spec.orbits[0], spec.window, spec.channel
        seed = 50 + 2 * self.DENSITIES.index(lam) + self.FADINGS.index(m)
        cfg = McConfig(trials=self.KERNEL_TRIALS, seed=seed, batch=50_000)
        _, kernel = empirical_sir_coverage(spec, self.GRID, cfg)
        gen = np.random.default_rng(seed)
        n = self.REFERENCE_TRIALS
        counts, offsets = window_draw(orbit, window, gen, lam, n)
        fading = gen.gamma(m, 1.0 / m, offsets.size)
        nearest, interference = score_per_satellite(orbit, window, channel.alpha, counts, offsets, fading)
        seen = np.isfinite(nearest)
        # the serving fading is independent of every offset
        signal = gen.gamma(m, 1.0 / m, n)[seen] * nearest[seen] ** -channel.alpha
        with np.errstate(divide="ignore"):
            sir = signal / (channel.g_i_bar * interference[seen])
        reference = np.array([np.count_nonzero(sir > db_to_linear(g)) for g in self.GRID])
        covered = np.rint(np.asarray(kernel.values) * cfg.trials).astype(int)
        for k, r in zip(covered, reference):
            assert stats.fisher_exact([[k, cfg.trials - k], [r, n - r]])[1] >= self.LEVEL
        assert reference[0] > n // 4


class TestInterferenceDraws:
    """`_interference` on fixed counts, its draws logged: chunks of whole
    trials in trial order, a larger trial in pieces, and per chunk its
    offsets and then its fadings."""

    @staticmethod
    def _draw(orbit, window, counts, seed=34, cut=0.0):
        """The per-trial sums at alpha 2 and gamma(2, 1/2) fadings, one
        cut for all trials, and the logging generator."""
        gen = FixedCounts((), seed)
        counts = np.asarray(counts, dtype=np.int64)
        beta = _window_half_angle(orbit, window)
        fading = functools.partial(gen.gamma, 2.0, 0.5)
        return _interference(gen, orbit, 2.0, beta, counts, np.full(counts.size, cut), fading), gen

    @staticmethod
    def _expected(orbit, window, counts, gen):
        """The per-satellite form's sums over the logged satellites."""
        cuts = np.zeros(len(counts))
        offsets = drawn_offsets(_window_half_angle(orbit, window), counts, cuts, gen.draws)
        fading = np.concatenate([v for name, v in gen.draws if name == "gamma"])
        return score_per_satellite(orbit, window, 2.0, counts, offsets, fading, cuts)[1]

    def test_each_trial_sums_its_own_satellites(self, ref_orbit, ref_window):
        counts = [3, 0, 2, 5]
        sums, gen = self._draw(ref_orbit, ref_window, counts)
        assert gen.sizes() == [10]
        assert sums[1] == 0.0
        assert np.allclose(sums, self._expected(ref_orbit, ref_window, counts, gen), rtol=1e-12, atol=0.0)

    def test_empty(self, ref_orbit, ref_window):
        # no trials draw nothing; empty trials draw one empty chunk
        sums, gen = self._draw(ref_orbit, ref_window, [])
        assert sums.size == 0 and gen.draws == []
        sums, gen = self._draw(ref_orbit, ref_window, [0, 0, 0])
        assert np.array_equal(sums, np.zeros(3))
        assert [(name, values.size) for name, values in gen.draws] == [("random", 0), ("gamma", 0)]

    def test_chunks_hold_whole_trials(self, ref_orbit, ref_window):
        # runs of empty trials, one trial larger than a chunk between
        # them, which comes in pieces, and chunk edges wherever the counts
        # put them: the sizes of the uniform draws are the chunks, and
        # every trial sums its own satellites across them
        gen = np.random.default_rng(35)
        limit = montecarlo._CHUNK_SATELLITES
        large = 2 * limit + 3_000
        counts = np.concatenate([[0, 0], gen.poisson(3.0, 8_000), [0, large, 0, 0], gen.poisson(0.5, 300), [0]])
        sums, log = self._draw(ref_orbit, ref_window, counts)
        sizes = log.sizes()
        assert sizes == chunk_sizes(counts, limit)
        assert len(sizes) > 4 and max(sizes) <= limit
        assert any(sizes[i : i + 3] == [limit, limit, 3_000] for i in range(len(sizes)))
        expected = self._expected(ref_orbit, ref_window, counts, log)
        assert np.array_equal(sums == 0.0, expected == 0.0)
        assert np.allclose(sums, expected, rtol=1e-12, atol=0.0)

    def test_one_cut_draws_down_from_beta(self, ref_orbit, ref_window):
        # validation criterion 4's draws: one cut for all trials and a
        # gamma fading draw after each chunk's offsets, on one stream.
        # With one satellite per trial each sum at alpha 2 is its fading
        # over r^2 at the offset beta - (beta - cut) U, bit for bit
        beta = _window_half_angle(ref_orbit, ref_window)
        cut = 0.35 * beta
        ones = np.ones(2 * montecarlo._CHUNK_SATELLITES + 5_000, dtype=np.int64)
        sums, gen = self._draw(ref_orbit, ref_window, ones, seed=41, cut=cut)
        assert [name for name, _ in gen.draws] == ["random", "gamma"] * 3
        twin = np.random.default_rng(41)
        for name, values in gen.draws:
            assert np.array_equal(values, twin.random(values.size) if name == "random" else twin.gamma(2.0, 0.5, values.size))
        u, fading = (np.concatenate([v for n, v in gen.draws if n == name]) for name in ("random", "gamma"))
        assert np.array_equal(sums, fading / _squared_distance(ref_orbit, beta - (beta - cut) * u))


class TestPoissonCounts:
    """The count sampler: one multinomial histogram per batch over the
    Poisson table, laid out in ascending order.

    The means run from 0, an orbit that never enters the window, and
    1e-300, where a count above 0 has probability 1e-300, to ~2.8e6, the
    satellites of a trial on a 1e7 km Earth. The histogram checks are 5
    chi-square tests and 2 exact ones; a false failure of at most 1e-6
    per run leaves 2e-7 to each chi-square test (Bonferroni). The exact
    ones fail only when a count above 0 comes up, with probability at
    most n mean <= 2e-295.
    """

    MEANS = (0.0, 1e-300, 0.34, 3.4, 34.0, 3.4e4, 2.8e6)
    LEVEL = 1e-6 / 5
    TRIALS = 200_000

    @pytest.mark.parametrize("mean", MEANS)
    def test_table_matches_mpmath(self, mean):
        # up to ~400 entries on a stride, both ends and the mode, against
        # e^-mean mean^k / k! at 50 digits; entries below the smallest
        # normal double may read 0
        lo, pmf = _poisson_table(mean)
        picked = {0, pmf.size - 1, math.floor(mean) - lo, *range(0, pmf.size, max(1, pmf.size // 400))}
        tiny = np.finfo(float).tiny
        with mpmath.workdps(50):
            m = mpmath.mpf(mean)
            for i in sorted(picked):
                k = lo + i
                if mean:
                    exact = mpmath.exp(k * mpmath.log(m) - m - mpmath.loggamma(k + 1))
                else:
                    exact = mpmath.mpf(k == 0)
                if exact >= tiny:
                    assert float(abs(pmf[i] - exact) / exact) <= 1e-11, k
                else:
                    assert pmf[i] < tiny, k
            # the counts below and above the table
            hi = lo + pmf.size - 1
            dropped = mpmath.gammainc(lo, m, mpmath.inf, regularized=True) if lo else 0
            if mean:
                dropped += mpmath.gammainc(hi + 1, 0, m, regularized=True)
            assert dropped <= 1e-30

    @pytest.mark.parametrize("mean", MEANS)
    def test_histogram_is_poisson(self, mean):
        n = self.TRIALS
        counts = _poisson_counts(np.random.default_rng(60 + self.MEANS.index(mean)), mean, n)
        assert counts.size == n and np.all(np.diff(counts) >= 0)
        if mean < 1e-200:
            assert not counts.any()
            return
        # cells split at the law's percentiles, so each expects >= 0.5 % of n
        law = stats.poisson(mean)
        edges = np.unique(law.ppf(np.linspace(0.01, 0.99, 99)))
        expected = np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]]))
        observed = np.bincount(np.searchsorted(edges, counts, side="left"), minlength=expected.size)
        assert stats.chisquare(observed, n * expected / expected.sum()).pvalue >= self.LEVEL

    @pytest.mark.parametrize("mean", [0.34, 34.0])
    def test_shuffle_only_reorders(self, mean):
        # from one stream state the shuffled counts are the sorted ones in
        # another order
        sorted_counts = _poisson_counts(np.random.default_rng(67), mean, 10_000)
        shuffled = _poisson_counts(np.random.default_rng(67), mean, 10_000, shuffle=True)
        assert np.array_equal(np.sort(shuffled), sorted_counts)
        assert not np.array_equal(shuffled, sorted_counts)

    def test_orbits_pair_at_random(self, monkeypatch, set_workers):
        # a pass over two identical orbits: each batch's counts come
        # sorted, and a later orbit's must be independent of the first's.
        # Under independence Spearman's rho times sqrt(n - 1) is about
        # standard normal, so each of the 3 batches exceeds the bound with
        # probability 5.7e-7; sorted counts for both would read rho ~ 1
        drawn = []

        def logged(gen, mean, n, shuffle=False):
            counts = _poisson_counts(gen, mean, n, shuffle)
            drawn.append(counts)
            return counts

        monkeypatch.setattr(montecarlo, "_poisson_counts", logged)
        orbits = (OrbitGeometry(500.0, math.pi / 2),) * 2
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        spec = ConstellationSpec(orbits, (LAM, LAM), window, ChannelParams(alpha=2.0, m=1.0))
        n = 10_000
        set_workers(1)  # one thread draws the batches, each orbit's counts in turn
        _coverage_pass(spec, (), (0.0,), McConfig(trials=3 * n, seed=68, batch=n))
        assert len(drawn) == 6
        for first, second in zip(drawn[::2], drawn[1::2]):
            assert np.all(np.diff(first) >= 0)
            assert abs(stats.spearmanr(first, second)[0]) <= 5.0 / math.sqrt(n - 1)


class TestWilson:
    def test_brackets_the_estimate(self):
        lo, hi = _wilson_bounds(np.array([437]), 1000)
        assert lo[0] < 0.437 < hi[0]
        assert hi[0] - lo[0] < 0.07

    def test_extremes_stay_in_unit_interval(self):
        lo, hi = _wilson_bounds(np.array([0, 1000]), 1000)
        assert lo[0] >= 0.0 and hi[0] <= 1.0
        assert lo[1] >= 0.0 and hi[1] <= 1.0


class TestNearestDistance:
    @pytest.mark.slow
    def test_void_probability(self, ref_orbit, ref_window):
        # survivors / trials estimates the visibility probability
        lam = 0.001
        cfg = McConfig(trials=1_000_000, seed=11, batch=100_000)
        grid = np.array([600.0])
        _, survivors = empirical_nearest_ccdf(ref_orbit, ref_window, lam, grid, cfg)
        arc = visible_arc_length(ref_orbit, ref_window)
        p_vis = -math.expm1(-lam * arc)
        assert survivors / cfg.trials == pytest.approx(p_vis, abs=0.002)

    def test_ccdf_tracks_analytic_law(self, ref_orbit, ref_window):
        law = NearestDistanceLaw(ref_orbit, ref_window, LAM)
        grid = np.linspace(law.d_min_km + 1.0, law.d_max_km - 1.0, 64)
        cfg = McConfig(trials=200_000, seed=12, batch=50_000)
        emp, survivors = empirical_nearest_ccdf(ref_orbit, ref_window, LAM, grid, cfg)
        assert survivors > 100
        sup = np.max(np.abs(emp - nearest_ccdf(law, grid)))
        assert sup < 0.01

    def test_batch_distances_are_the_per_chunk_distances(self, ref_orbit, ref_window):
        # pins the estimator's draws bit for bit: per batch the counts of
        # its trials, one multinomial histogram over the Poisson table laid
        # out in ascending order, then one uniform U per occupied trial,
        # whose nearest offset of N is -beta expm1(log1p(-U) / N), and
        # nothing more; the per-satellite form turns the offsets into
        # distances
        lam = 0.01
        cfg = McConfig(trials=12_000, seed=19, batch=5_000)
        law = NearestDistanceLaw(ref_orbit, ref_window, lam)
        grid = np.linspace(law.d_min_km, law.d_max_km, 52)[1:-1]
        beta = _window_half_angle(ref_orbit, ref_window)
        lo, pmf = _poisson_table(2.0 * ref_orbit.radius_km * beta * lam)
        # batch i draws from child i of the seed's SeedSequence
        streams = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,))) for i in range(3)]
        nearest = []
        for gen, size in zip(streams, (5_000, 5_000, 2_000), strict=True):
            counts = np.repeat(np.arange(lo, lo + pmf.size), gen.multinomial(size, pmf))
            counts = counts[counts > 0]
            closest = -beta * np.expm1(np.log1p(-gen.random(counts.size)) / counts)
            nearest.append(satellite_distances(ref_orbit, ref_window, closest))
        nearest = np.concatenate(nearest)
        finite = np.sort(nearest[np.isfinite(nearest)])
        emp, survivors = empirical_nearest_ccdf(ref_orbit, ref_window, lam, grid, cfg)
        assert survivors == finite.size
        assert np.array_equal(emp, (finite.size - np.searchsorted(finite, grid, side="right")) / finite.size)

    @pytest.mark.parametrize("density", [math.inf, math.nan])
    def test_non_finite_density_rejected(self, ref_orbit, ref_window, density):
        # lam <= 0 let both through to numpy's Poisson draw
        cfg = McConfig(trials=1000, seed=13, batch=1000)
        with pytest.raises(ValueError, match="positive and finite"):
            empirical_nearest_ccdf(ref_orbit, ref_window, density, np.array([600.0]), cfg)

    def test_degenerate_conditioning(self, ref_orbit, ref_window):
        cfg = McConfig(trials=1000, seed=13, batch=1000)
        with pytest.raises(DegenerateSampleError):
            empirical_nearest_ccdf(ref_orbit, ref_window, 1e-6, np.array([600.0]), cfg)


class TestCoverageEstimators:
    GRID = (-5.0, 0.0, 5.0, 10.0)

    def test_sir_within_mc_error(self):
        cfg = McConfig(trials=100_000, seed=14, batch=25_000)
        cond, unc = empirical_sir_coverage(single(), self.GRID, cfg)
        for g_db, v in zip(cond.thresholds_db, cond.values):
            direct = coverage_conditional(single(), db_to_linear(g_db))
            assert v == pytest.approx(direct, abs=0.01)
        assert all(u <= c for u, c in zip(unc.values, cond.values))

    def test_sir_deterministic(self):
        cfg = McConfig(trials=20_000, seed=15, batch=5_000)
        a, _ = empirical_sir_coverage(single(), self.GRID, cfg)
        b, _ = empirical_sir_coverage(single(), self.GRID, cfg)
        assert a.values == b.values
        assert a.ci_low == b.ci_low

    def test_batch_size_does_not_change_the_answer(self):
        # stream indexing is per batch index, so this is only equal when
        # the batch layout matches; changing it must still stay in the CI
        base = McConfig(trials=40_000, seed=16, batch=10_000)
        alt = McConfig(trials=40_000, seed=16, batch=8_000)
        a, _ = empirical_sir_coverage(single(), self.GRID, base)
        b, _ = empirical_sir_coverage(single(), self.GRID, alt)
        for va, vb in zip(a.values, b.values):
            assert va == pytest.approx(vb, abs=0.02)

    def test_curves_carry_wilson_intervals(self):
        cfg = McConfig(trials=20_000, seed=17, batch=5_000)
        cond, unc = empirical_sir_coverage(single(), self.GRID, cfg)
        for curve in (cond, unc):
            assert curve.ci_low is not None and curve.ci_high is not None
            for lo, v, hi in zip(curve.ci_low, curve.values, curve.ci_high):
                assert lo <= v <= hi

    def test_snr_sinr_orderings_are_exact(self, rayleigh):
        # same seed, same batch layout: the three estimators reuse the
        # identical satellite draws, so the orderings hold pointwise
        cfg = McConfig(trials=30_000, seed=18, batch=10_000)
        spec = single()
        budget = LinkBudget()
        sir_c, _ = empirical_sir_coverage(spec, self.GRID, cfg)
        snr_c, _, sinr_c, _ = empirical_snr_sinr_coverage(spec, budget, self.GRID, cfg)
        for sinr, sir, snr in zip(sinr_c.values, sir_c.values, snr_c.values):
            assert sinr <= sir
            assert sinr <= snr

    def test_single_pass_equals_the_public_estimators(self):
        # the CLI and validation score every curve in one pass; the public
        # estimators run it per curve and must give identical curves
        cfg = McConfig(trials=20_000, seed=26, batch=6_000)
        spec = single(m=2.0)
        budgets = tuple(LinkBudget(bandwidth_hz=bw) for bw in (1e7, 1e8, 1e9))
        _, sir, per_budget = _coverage_pass(spec, budgets, self.GRID, cfg)
        assert sir[:2] == empirical_sir_coverage(spec, self.GRID, cfg)
        for budget, curves in zip(budgets, per_budget):
            assert curves == empirical_snr_sinr_coverage(spec, budget, self.GRID, cfg)

    def test_sinr_decreases_with_bandwidth(self):
        cfg = McConfig(trials=30_000, seed=19, batch=10_000)
        spec = single()
        curves = [
            empirical_snr_sinr_coverage(spec, LinkBudget(bandwidth_hz=bw), self.GRID, cfg)[2]
            for bw in (1e7, 1e8, 1e9)
        ]
        for narrow, wide in zip(curves, curves[1:]):
            for a, b in zip(narrow.values, wide.values):
                assert b <= a

    def test_max_sir_single_orbit_collapses(self):
        cfg = McConfig(trials=25_000, seed=20, batch=5_000)
        spec = single()
        sir_c, sir_u = empirical_sir_coverage(spec, self.GRID, cfg)
        max_c, max_joint, _ = empirical_max_sir_coverage(spec, self.GRID, cfg)
        assert max_c.values == sir_c.values
        assert max_joint.values == sir_u.values

    def test_one_orbit_any_visible_is_the_joint_curve(self):
        # with one orbit, "every orbit visible" and "some orbit visible"
        # are the same event, so the two curves agree to the bit
        cfg = McConfig(trials=25_000, seed=20, batch=5_000)
        _, joint, any_vis = empirical_max_sir_coverage(single(), self.GRID, cfg)
        assert any_vis.values == joint.values
        assert any_vis.ci_low == joint.ci_low
        assert any_vis.ci_high == joint.ci_high

    @staticmethod
    def two_orbits():
        # sparse enough that some trials see neither orbit, so a curve
        # conditioned on visibility differs from its unconditional twin
        orbits = (OrbitGeometry(500.0, math.pi / 2), OrbitGeometry(500.0, math.pi / 2 + 0.05))
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        return ConstellationSpec(orbits, (0.0005, 0.0005), window, ChannelParams(alpha=2.0, m=1.0))

    def test_estimators_accept_two_orbits(self):
        # every estimator scores the best visible satellite of the
        # constellation; the SIR ones share the pass and its draws
        spec = self.two_orbits()
        cfg = McConfig(trials=2_000, seed=28, batch=1_000)
        sir_c, sir_u = empirical_sir_coverage(spec, self.GRID, cfg)
        max_c, max_u, _ = empirical_max_sir_coverage(spec, self.GRID, cfg)
        assert (sir_c.values, sir_u.values) == (max_c.values, max_u.values)
        curves = empirical_snr_sinr_coverage(spec, LinkBudget(), self.GRID, cfg)
        survivors, _, ((*passed,),) = _coverage_pass(spec, (LinkBudget(),), self.GRID, cfg)
        assert 0 < survivors < cfg.trials
        assert passed == list(curves)
        # a conditional curve counts over the survivors, its twin over all trials
        for conditional, unconditional in (passed[:2], passed[2:]):
            assert np.multiply(conditional.values, survivors) == pytest.approx(
                np.multiply(unconditional.values, cfg.trials), rel=1e-12
            )

    def test_max_snr_sinr_orderings_are_exact(self):
        # per orbit SINR <= SIR and SINR <= SNR on the same draws, so the
        # best over the orbits keeps both orderings, threshold by threshold
        spec = self.two_orbits()
        cfg = McConfig(trials=20_000, seed=29, batch=5_000)
        budgets = (LinkBudget(tx_power_dbm=0.0), LinkBudget())
        _, sir, per_budget = _coverage_pass(spec, budgets, self.GRID, cfg)
        for snr_c, snr_u, sinr_c, sinr_u in per_budget:
            for sir_curve, snr_curve, sinr_curve in ((sir[0], snr_c, sinr_c), (sir[1], snr_u, sinr_u)):
                for s, n, i in zip(sir_curve.values, snr_curve.values, sinr_curve.values):
                    assert i <= s
                    assert i <= n

    def test_max_sir_multi_orbit(self):
        orbits = (
            OrbitGeometry(500.0, math.pi / 2),
            OrbitGeometry(500.0, math.pi / 2 + 0.05),
        )
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        spec = ConstellationSpec(
            orbits=orbits,
            densities_per_km=(LAM, LAM),
            window=window,
            channel=ChannelParams(alpha=2.0, m=1.0),
        )
        cfg = McConfig(trials=25_000, seed=21, batch=5_000)
        cond, joint, any_vis = empirical_max_sir_coverage(spec, self.GRID, cfg)
        # conditioning can only help, and joint visibility is rarer
        for c, j, a in zip(cond.values, joint.values, any_vis.values):
            assert j <= c
            assert j <= a

    @pytest.mark.parametrize("lam", [0.0005, 0.002])
    def test_any_visible_matches_the_product_form(self, lam):
        # independent orbits, interference counted per orbit:
        # P(best visible SIR > gamma) = 1 - prod_n (1 - p_vis,n p_n(gamma))
        theta = math.pi / 2 + math.pi / 18
        orbits = tuple(OrbitGeometry(500.0, theta, phi_rad=TWO_PI * k / 3) for k in range(3))
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        channel = ChannelParams(alpha=2.0, m=1.0)
        spec = ConstellationSpec(orbits, (lam,) * 3, window, channel)
        grid = threshold_grid_db(-10.0, 30.0, 5.0)
        _, _, any_vis = empirical_max_sir_coverage(spec, grid, McConfig(trials=100_000, seed=27, batch=10_000))
        for k, gamma_db in enumerate(grid):
            miss = 1.0
            for orbit in orbits:
                p_vis = NearestDistanceLaw(orbit, window, lam).visibility_probability
                p_n = coverage_conditional(ConstellationSpec((orbit,), (lam,), window, channel), db_to_linear(gamma_db))
                miss *= 1.0 - p_vis * p_n
            half_width = 0.5 * (any_vis.ci_high[k] - any_vis.ci_low[k])
            assert abs(any_vis.values[k] - (1.0 - miss)) <= 2.0 * half_width

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(trials=100, seed=1, batch=0)

    def test_negative_seed_rejected(self):
        # numpy seed sequences take nonnegative entropy only
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1)
        McConfig(seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2500.5), ("trials", True), ("seed", True), ("seed", 7.0), ("batch", 1000.0), ("batch", False)],
    )
    def test_non_integer_field_rejected(self, field, value):
        # a float trial count once failed deep in the batch layout with a
        # TypeError, and seed=True ran as seed 1
        with pytest.raises(ValueError, match=field):
            McConfig(**{field: value})
        McConfig(**{field: np.int64(5)})

    def test_batch_streams_are_the_spawned_streams(self):
        cfg = McConfig(trials=6_500, seed=1729, batch=1_000)
        spawned = np.random.SeedSequence(cfg.seed).spawn(7)
        batches = list(_batches(cfg))
        assert [size for _, size in batches] == [1_000] * 6 + [500]
        for (gen, _), seq in zip(batches, spawned, strict=True):
            assert np.array_equal(gen.bit_generator.random_raw(8), np.random.default_rng(seq).bit_generator.random_raw(8))

    def test_first_batch_arrives_at_once(self):
        # spawning every stream first took 0.59 s and 45 MB at 10^5
        # batches; here there are 10^12
        cfg = McConfig(trials=10**12, seed=3, batch=1)
        start = time.perf_counter()
        gen, size = next(_batches(cfg))
        assert time.perf_counter() - start < 0.5
        assert size == 1
        assert np.array_equal(
            gen.bit_generator.random_raw(4),
            np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,))).bit_generator.random_raw(4),
        )

    def test_batch_layout(self):
        cfg = McConfig(trials=10_500, seed=1, batch=4_000)
        assert [size for _, size in _batches(cfg)] == [4_000, 4_000, 2_500]

    def test_seed_to_stream_map_is_pinned(self):
        # PCG64's raw output is stable across numpy releases, so these
        # words change only if the way batch streams derive from the seed
        # does; every seeded result rests on that map
        batches = list(_batches(McConfig(trials=30_000, seed=1729, batch=10_000)))
        assert [size for _, size in batches] == [10_000] * 3
        assert batches[0][0].bit_generator.random_raw(4).tolist() == [
            15916092490219712002,
            13932053270452482620,
            108437483340918472,
            18177539543382106641,
        ]
        assert batches[2][0].bit_generator.random_raw(4).tolist() == [
            714074507615832941,
            17271648553731976946,
            10732758887181439999,
            7382602035231607526,
        ]


class TestWorkerPool:
    """`_parallel_sum` and the estimators on its threads: every item
    summed once, the same bytes at any worker count, the first exception
    in item order, no batch left running when a pass raises, and no
    helper thread started beyond the items or left alive after the pass."""

    @staticmethod
    def spy_threads(monkeypatch) -> list:
        """The helper threads `_parallel_sum` starts from now on."""
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(montecarlo.threading, "Thread", Spy)
        return started

    def test_sums_every_item_once(self, set_workers):
        set_workers(3)

        def uneven(i):
            time.sleep(0.02 if i % 3 == 1 else 0.0)
            return np.array([1, i * i])

        assert _parallel_sum(uneven, range(20)).tolist() == [20, sum(i * i for i in range(20))]

    def test_one_thread_is_the_calling_thread(self, monkeypatch, set_workers):
        set_workers(1)
        started = self.spy_threads(monkeypatch)
        threads = []
        assert _parallel_sum(lambda _: threads.append(threading.get_ident()) or 1, range(6)) == 6
        assert threads == [threading.get_ident()] * 6
        assert started == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("items", [1, 2, 5])
    def test_starts_one_helper_per_further_item_and_cpu(self, monkeypatch, set_workers, cpus, items):
        # the helpers' items wait for the first, which the caller runs only
        # once it has started them, so no helper drains the items early
        set_workers(cpus)
        started = self.spy_threads(monkeypatch)
        first_running = threading.Event()

        def item(i):
            if i == 0:
                first_running.set()
            first_running.wait(5)
            return 1

        assert _parallel_sum(item, range(items)) == items
        assert len(started) == min(items, cpus) - 1

    def test_no_thread_outlives_its_pass(self, set_workers):
        set_workers(3)
        before = threading.enumerate()
        assert _parallel_sum(lambda i: time.sleep(0.01) or i, range(9)) == 36
        assert threading.enumerate() == before

        def fail(i):
            time.sleep(0.01)
            if i == 4:
                raise ValueError("item 4")
            return i

        with pytest.raises(ValueError, match="item 4"):
            _parallel_sum(fail, range(9))
        assert threading.enumerate() == before

    def test_sum_inside_an_item_completes(self, set_workers):
        # the inner sum must not wait for threads the outer one holds; the
        # outer sum runs on a daemon thread so that a hang fails the test
        # instead of stalling the suite
        set_workers(2)
        result = []

        def inner(_):
            return _parallel_sum(lambda _: 1, range(4))

        outer = threading.Thread(target=lambda: result.append(_parallel_sum(inner, range(4))), daemon=True)
        outer.start()
        outer.join(30)
        assert result == [16]

    @staticmethod
    def spy_batches(monkeypatch, behave):
        """Run `behave(index)` in each batch's kernel call before the kernel;
        a batch is known by the generator `_batches` made for it."""
        batches, sir_batch = montecarlo._batches, montecarlo._sir_batch
        index_of = {}

        def numbered(cfg):
            for index, (gen, size) in enumerate(batches(cfg)):
                index_of[id(gen)] = index
                yield gen, size

        def spy(orbit, window, gen, *args):
            behave(index_of[id(gen)])
            return sir_batch(orbit, window, gen, *args)

        monkeypatch.setattr(montecarlo, "_batches", numbered)
        monkeypatch.setattr(montecarlo, "_sir_batch", spy)

    def test_failed_pass_leaves_no_batch_running(self, monkeypatch, set_workers):
        # one of the two threads fails batch 0 50 ms after the other has
        # taken batch 1, which runs for 300 ms: the pass raises only once
        # batch 1 is done, and no thread takes a batch after batch 0 failed
        set_workers(2)
        started, finished = [], []
        one_started = threading.Event()

        def behave(index):
            started.append(index)
            if index == 0:
                one_started.wait(5)
                time.sleep(0.05)
                raise ValueError("batch 0")
            one_started.set()
            time.sleep(0.3)
            finished.append(index)

        self.spy_batches(monkeypatch, behave)
        with pytest.raises(ValueError, match="batch 0"):
            _coverage_pass(single(), (), (0.0,), McConfig(trials=5_000, seed=7, batch=500))
        assert sorted(finished) == sorted(started)[1:] == [1]

    def test_first_exception_in_batch_order(self, monkeypatch, set_workers):
        # a later batch's earlier failure does not overtake an earlier one's
        set_workers(3)

        def behave(index):
            if index == 1:
                time.sleep(0.05)
            if index in (1, 2):
                raise ValueError(f"batch {index}")

        self.spy_batches(monkeypatch, behave)
        with pytest.raises(ValueError, match="batch 1"):
            _coverage_pass(single(), (), (0.0,), McConfig(trials=5_000, seed=7, batch=500))

    def test_interrupt_in_a_batch_reaches_the_caller(self, monkeypatch, set_workers):
        # an interrupt is not an Exception, but it stops the pass the same
        # way: the other batches in flight finish, then the caller raises it
        set_workers(2)
        started, finished = [], []

        def behave(index):
            started.append(index)
            if index == 2:
                raise KeyboardInterrupt
            time.sleep(0.01)
            finished.append(index)

        self.spy_batches(monkeypatch, behave)
        with pytest.raises(KeyboardInterrupt):
            _coverage_pass(single(), (), (0.0,), McConfig(trials=5_000, seed=7, batch=500))
        assert sorted(finished) == [i for i in sorted(started) if i != 2]

    @pytest.mark.parametrize("workers", [2, 9])
    def test_batch_exception_propagates(self, set_workers, workers):
        # every batch's serving path loss underflows at alpha = 150
        set_workers(workers)
        spec = single(alpha=150.0)
        with pytest.raises(ValueError, match="alpha=150.0"):
            _coverage_pass(spec, (), (0.0,), McConfig(trials=4_000, seed=7, batch=500))

    def test_nearest_ccdf_runs_on_the_calling_thread(self, monkeypatch, set_workers, ref_orbit, ref_window):
        # its batches are small numpy calls that lose to the interpreter
        # lock on threads, so it starts no helper
        set_workers(9)
        started = self.spy_threads(monkeypatch)
        law = NearestDistanceLaw(ref_orbit, ref_window, LAM)
        empirical_nearest_ccdf(ref_orbit, ref_window, LAM, [law.d_min_km], McConfig(trials=4_000, seed=3, batch=500))
        assert started == []

    def test_nearest_ccdf_does_not_depend_on_the_workers(self, set_workers, ref_orbit, ref_window):
        law = NearestDistanceLaw(ref_orbit, ref_window, LAM)
        grid = np.linspace(law.d_min_km, law.d_max_km, 42)[1:-1]
        cfg = McConfig(trials=9_000, seed=41, batch=1_000)
        runs = []
        for workers in (1, 2, 9):
            set_workers(workers)
            emp, survivors = empirical_nearest_ccdf(ref_orbit, ref_window, LAM, grid, cfg)
            runs.append((emp.tobytes(), survivors))
        assert runs[1] == runs[0] and runs[2] == runs[0]
