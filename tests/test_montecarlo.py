"""Simulation kernels: snapshots, nearest-distance and coverage estimators."""

import math
import warnings

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
    RandomSource,
    VisibilityWindow,
    db_to_linear,
    empirical_max_sir_coverage,
    empirical_nearest_ccdf,
    empirical_sir_coverage,
    empirical_snr_sinr_coverage,
    nearest_ccdf,
    sir_coverage_conditional,
    threshold_grid_db,
    visible_arc_length,
)
from orbitcov.distance import NearestDistanceLaw
from orbitcov.geometry import TWO_PI
from orbitcov.montecarlo import (
    _coverage_pass,
    _segment_starts,
    _visible_batch,
    _wilson_bounds,
    _window_half_angle,
)
from reference_forms import orbit_plane_basis, sample_orbit

LAM = 0.005


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
        snap = sample_orbit(ref_orbit, ref_window, LAM, RandomSource(3))
        radii = np.linalg.norm(snap.positions_km, axis=1)
        assert np.allclose(radii, ref_orbit.radius_km, rtol=1e-12, atol=0.0)

    def test_positions_in_orbit_plane(self, ref_window):
        orbit = OrbitGeometry(500.0, 1.0, phi_rad=2.3)
        snap = sample_orbit(orbit, ref_window, LAM, RandomSource(4))
        _, _, normal = orbit_plane_basis(orbit.theta_rad, orbit.phi_rad)
        off_plane = snap.positions_km @ normal
        assert np.max(np.abs(off_plane)) < 1e-9 * orbit.radius_km

    def test_distances_sorted_and_consistent(self, ref_orbit, ref_window):
        snap = sample_orbit(ref_orbit, ref_window, LAM, RandomSource(5))
        assert np.all(np.diff(snap.distances_km) >= 0.0)
        user = np.array([0.0, 0.0, ref_orbit.earth.radius_km])
        direct = np.linalg.norm(snap.positions_km - user, axis=1)
        assert np.allclose(direct, snap.distances_km, rtol=1e-12)

    def test_deterministic(self, ref_orbit, ref_window):
        a = sample_orbit(ref_orbit, ref_window, LAM, RandomSource(6))
        b = sample_orbit(ref_orbit, ref_window, LAM, RandomSource(6))
        assert np.array_equal(a.positions_km, b.positions_km)
        assert np.array_equal(a.visible, b.visible)

    def test_plane_rotation_preserves_distances(self, ref_window):
        # distances depend only on the height coordinate, so spinning the
        # ascending node must not change them
        a = sample_orbit(OrbitGeometry(500.0, 1.2, phi_rad=0.0), ref_window, LAM, RandomSource(7))
        b = sample_orbit(OrbitGeometry(500.0, 1.2, phi_rad=4.0), ref_window, LAM, RandomSource(7))
        assert np.allclose(a.distances_km, b.distances_km, rtol=1e-12)
        assert np.array_equal(a.visible, b.visible)

    def test_snapshot_summaries(self, ref_orbit, ref_window):
        snap = sample_orbit(ref_orbit, ref_window, 0.01, RandomSource(8))
        assert snap.count == len(snap.distances_km)
        if snap.visible.any():
            nearest = snap.distances_km[snap.visible].min()
            assert snap.nearest_visible_km == nearest
        else:
            assert math.isinf(snap.nearest_visible_km)

    def test_elevation_test_matches_cap_height(self, ref_orbit, ref_window):
        # the batch kernels cut on the cap height; the snapshot path cuts
        # on the elevation angle; both define the same window
        gen = RandomSource(9).generator
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
        # alone; the analytic arc map must give the same length
        window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), OrbitGeometry(altitude_km, math.pi / 2))
        for theta in _band_thetas(altitude_km, window):
            orbit = OrbitGeometry(altitude_km, theta)
            window_km = 2.0 * orbit.radius_km * _window_half_angle(orbit, window)
            assert window_km == pytest.approx(visible_arc_length(orbit, window), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 2 + math.pi / 18])
    def test_mean_visible_count(self, ref_window, theta):
        orbit = OrbitGeometry(500.0, theta)
        n = 200_000
        _, _, r_vis, _ = _visible_batch(orbit, ref_window, RandomSource(22).generator, LAM, n)
        mean = LAM * visible_arc_length(orbit, ref_window)
        assert np.count_nonzero(np.isfinite(r_vis)) / n == pytest.approx(mean, abs=5.0 * math.sqrt(mean / n))

    def test_nearest_agrees_with_snapshots(self, ref_window):
        # whole-circle 3-D snapshots with the elevation test against the
        # kernel's window draws, at a density where a third of trials see
        # nothing
        orbit = OrbitGeometry(500.0, math.pi / 2 + math.pi / 36)
        lam = 0.0005
        rng = RandomSource(23)
        snapshots = np.array([sample_orbit(orbit, ref_window, lam, rng).nearest_visible_km for _ in range(4000)])
        kernel = _visible_batch(orbit, ref_window, RandomSource(24).generator, lam, 20_000)[3]
        p_vis = NearestDistanceLaw(orbit, ref_window, lam).visibility_probability
        for sample in (snapshots, kernel):
            seen = np.count_nonzero(np.isfinite(sample))
            assert seen / sample.size == pytest.approx(p_vis, abs=5.0 * math.sqrt(p_vis * (1 - p_vis) / sample.size))
        result = stats.ks_2samp(snapshots[np.isfinite(snapshots)], kernel[np.isfinite(kernel)])
        assert result.pvalue > 1e-3

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


class TestSegmentStarts:
    def test_offsets(self):
        counts = np.array([3, 0, 2, 5])
        assert np.array_equal(_segment_starts(counts), np.array([0, 3, 3, 5]))

    def test_empty(self):
        assert _segment_starts(np.array([], dtype=np.int64)).size == 0


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

    def test_degenerate_conditioning(self, ref_orbit, ref_window):
        cfg = McConfig(trials=1000, seed=13, batch=1000)
        with pytest.raises(DegenerateSampleError):
            empirical_nearest_ccdf(ref_orbit, ref_window, 1e-6, np.array([600.0]), cfg)


class TestCoverageEstimators:
    GRID = (-5.0, 0.0, 5.0, 10.0)

    def test_sir_within_mc_error(self, ref_orbit, ref_window, rayleigh):
        from orbitcov import sir_coverage_conditional, db_to_linear

        cfg = McConfig(trials=100_000, seed=14, batch=25_000)
        cond, unc = empirical_sir_coverage(single(), self.GRID, cfg)
        for g_db, v in zip(cond.thresholds_db, cond.values):
            direct = sir_coverage_conditional(
                ref_orbit, ref_window, LAM, rayleigh, db_to_linear(g_db)
            )
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
        sir, per_budget = _coverage_pass(spec, budgets, self.GRID, cfg)
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
        assert any_vis.metadata["conditioning"] == "any-visible"

    def test_single_orbit_estimators_reject_two_orbits(self):
        orbits = (OrbitGeometry(500.0, math.pi / 2), OrbitGeometry(500.0, math.pi / 2 + 0.05))
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        spec = ConstellationSpec(orbits, (LAM, LAM), window, ChannelParams(alpha=2.0, m=1.0))
        cfg = McConfig(trials=2_000, seed=28, batch=1_000)
        with pytest.raises(ValueError, match="single orbit"):
            empirical_sir_coverage(spec, self.GRID, cfg)
        with pytest.raises(ValueError, match="single orbit"):
            empirical_snr_sinr_coverage(spec, LinkBudget(), self.GRID, cfg)

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
                p_n = sir_coverage_conditional(orbit, window, lam, channel, db_to_linear(gamma_db))
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

    def test_batch_layout(self):
        cfg = McConfig(trials=10_500, seed=1, batch=4_000)
        sizes = cfg.batch_sizes()
        assert sum(sizes) == 10_500
        assert sizes == [4_000, 4_000, 2_500]
