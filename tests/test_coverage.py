"""Analytic coverage probabilities and threshold curves."""

import math

import pytest

from orbitcov import (
    ChannelParams,
    ConstellationSpec,
    CoverageCurve,
    LinkBudget,
    OrbitGeometry,
    VisibilityWindow,
    db_to_linear,
    max_sir_coverage,
    max_sir_coverage_conditional,
    sir_coverage,
    sir_coverage_conditional,
    sir_coverage_curve,
    snr_coverage,
    snr_coverage_conditional,
    snr_coverage_curve,
    threshold_grid_db,
    visible_arc_length,
)
from orbitcov.coverage import max_sir_coverage_curve
from orbitcov.numerics import integrate


LAM = 0.005


class TestDecibels:
    def test_round_trip(self):
        for v in (-20.0, 0.0, 13.7):
            assert 10.0 * math.log10(db_to_linear(v)) == pytest.approx(v, abs=1e-12)

    def test_grid_inclusive(self):
        grid = threshold_grid_db(-10.0, 30.0, 5.0)
        assert grid == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_grid_partial_last_step(self):
        grid = threshold_grid_db(0.0, 1.0, 0.3)
        assert grid == pytest.approx((0.0, 0.3, 0.6, 0.9))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            threshold_grid_db(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            threshold_grid_db(1.0, 0.0, 0.5)


class TestSirCoverage:
    def test_tiny_threshold_saturates(self, ref_orbit, ref_window, rayleigh):
        p = sir_coverage_conditional(ref_orbit, ref_window, LAM, rayleigh, 1e-12)
        assert p >= 1.0 - 1e-6

    def test_monotone_in_threshold(self, ref_orbit, ref_window, rayleigh):
        vals = [
            sir_coverage_conditional(ref_orbit, ref_window, LAM, rayleigh, db_to_linear(g))
            for g in (-10.0, 0.0, 10.0, 20.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_unconditional_factor(self, ref_orbit, ref_window, rayleigh):
        gamma = db_to_linear(5.0)
        cond = sir_coverage_conditional(ref_orbit, ref_window, LAM, rayleigh, gamma)
        arc = visible_arc_length(ref_orbit, ref_window)
        vis = -math.expm1(-LAM * arc)
        assert sir_coverage(ref_orbit, ref_window, LAM, rayleigh, gamma) == pytest.approx(
            cond * vis, rel=1e-12
        )

    def test_dense_orbit_conditioning_washes_out(self, ref_orbit, ref_window, rayleigh):
        # at 10 satellites per km visibility is certain for all doubles
        gamma = db_to_linear(0.0)
        cond = sir_coverage_conditional(ref_orbit, ref_window, 10.0, rayleigh, gamma)
        unc = sir_coverage(ref_orbit, ref_window, 10.0, rayleigh, gamma)
        assert abs(cond - unc) <= 1e-10

    def test_invisible_orbit_covers_nothing(self, ref_window, rayleigh):
        orbit = OrbitGeometry(500.0, 0.3)
        assert sir_coverage(orbit, ref_window, LAM, rayleigh, 1.0) == 0.0

    def test_heavier_fading_figures_run(self, ref_orbit, ref_window):
        for m in (2.0, 3.0):
            ch = ChannelParams(alpha=2.0, m=m)
            p = sir_coverage_conditional(ref_orbit, ref_window, LAM, ch, db_to_linear(10.0))
            assert 0.0 < p < 1.0

    def test_non_integer_m_rejected(self, ref_orbit, ref_window):
        ch = ChannelParams(alpha=2.0, m=1.5)
        with pytest.raises(ValueError, match="integer"):
            sir_coverage_conditional(ref_orbit, ref_window, LAM, ch, 1.0)


class TestSnrCoverage:
    def test_rayleigh_reduces_to_single_exponential(self, ref_orbit, ref_window, rayleigh):
        # with m = 1 the conditional coverage is one exponential integral;
        # restate it directly and compare
        budget = LinkBudget()
        gamma = db_to_linear(0.0)
        lam = LAM
        arc = visible_arc_length(ref_orbit, ref_window)
        scale = budget.snr_scale
        from orbitcov.geometry import _scalar_distance_fn

        dist = _scalar_distance_fn(ref_orbit)

        def integrand(tau):
            u_m = 1000.0 * dist(tau)
            return math.exp(-gamma * u_m**2 / scale) * lam * math.exp(-lam * tau)

        direct = integrate(integrand, 0.0, arc) / -math.expm1(-lam * arc)
        got = snr_coverage_conditional(ref_orbit, ref_window, lam, rayleigh, budget, gamma)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_more_bandwidth_more_noise(self, ref_orbit, ref_window, rayleigh):
        gamma = db_to_linear(5.0)
        vals = [
            snr_coverage_conditional(
                ref_orbit, ref_window, LAM, rayleigh, LinkBudget(bandwidth_hz=bw), gamma
            )
            for bw in (1e7, 1e8, 1e9)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_unconditional_factor(self, ref_orbit, ref_window, rayleigh):
        budget = LinkBudget()
        gamma = db_to_linear(5.0)
        cond = snr_coverage_conditional(ref_orbit, ref_window, LAM, rayleigh, budget, gamma)
        arc = visible_arc_length(ref_orbit, ref_window)
        unc = snr_coverage(ref_orbit, ref_window, LAM, rayleigh, budget, gamma)
        assert unc == pytest.approx(cond * -math.expm1(-LAM * arc), rel=1e-12)

    def test_snr_ignores_interference_gain(self, ref_orbit, ref_window):
        a = ChannelParams(alpha=2.0, m=1.0, g_i_bar=10**-1.3)
        b = ChannelParams(alpha=2.0, m=1.0, g_i_bar=10**-3.0)
        budget = LinkBudget()
        pa = snr_coverage_conditional(ref_orbit, ref_window, LAM, a, budget, 1.0)
        pb = snr_coverage_conditional(ref_orbit, ref_window, LAM, b, budget, 1.0)
        assert pa == pb


class TestLinkBudget:
    def test_noise_power(self):
        # -174 dBm/Hz + 11 dB figure + 70 dB of 10 MHz bandwidth
        assert LinkBudget().noise_power_dbm == pytest.approx(-93.0, abs=1e-12)

    def test_snr_scale(self):
        b = LinkBudget()
        assert b.snr_scale_db == pytest.approx(40.0 + 30.0 + 93.0, abs=1e-12)
        assert b.snr_scale == pytest.approx(10.0 ** (163.0 / 10.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)


class TestConstellation:
    def make(self, thetas, lam=LAM):
        orbits = tuple(OrbitGeometry(500.0, t) for t in thetas)
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        return ConstellationSpec(
            orbits=orbits,
            densities_per_km=tuple(lam for _ in orbits),
            window=window,
            channel=ChannelParams(alpha=2.0, m=1.0),
        )

    def test_single_orbit_reduces_to_sir(self, ref_orbit, ref_window, rayleigh):
        spec = self.make([math.pi / 2])
        gamma = db_to_linear(10.0)
        direct = sir_coverage_conditional(ref_orbit, ref_window, LAM, rayleigh, gamma)
        assert max_sir_coverage_conditional(spec, gamma) == pytest.approx(direct, abs=1e-12)
        unc = sir_coverage(ref_orbit, ref_window, LAM, rayleigh, gamma)
        assert max_sir_coverage(spec, gamma) == pytest.approx(unc, abs=1e-12)

    def test_identical_orbits_combine_independently(self):
        gamma = db_to_linear(10.0)
        p1 = max_sir_coverage_conditional(self.make([math.pi / 2]), gamma)
        for n in (2, 3, 4):
            pn = max_sir_coverage_conditional(self.make([math.pi / 2] * n), gamma)
            assert pn == pytest.approx(1.0 - (1.0 - p1) ** n, rel=1e-12)

    def test_more_orbits_help(self):
        gamma = db_to_linear(10.0)
        vals = [max_sir_coverage(self.make([math.pi / 2] * n), gamma) for n in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_invisible_member_is_an_error(self):
        spec = self.make([math.pi / 2, 0.3])
        with pytest.raises(ValueError, match="orbit 1"):
            max_sir_coverage_conditional(spec, 1.0)

    def test_validation(self, ref_window, rayleigh):
        with pytest.raises(ValueError):
            ConstellationSpec(
                orbits=(), densities_per_km=(), window=ref_window, channel=rayleigh
            )
        orbits = (OrbitGeometry(500.0, math.pi / 2), OrbitGeometry(600.0, math.pi / 2))
        with pytest.raises(ValueError):
            ConstellationSpec(
                orbits=orbits,
                densities_per_km=(LAM, LAM),
                window=ref_window,
                channel=rayleigh,
            )
        with pytest.raises(ValueError):
            ConstellationSpec(
                orbits=(orbits[0],),
                densities_per_km=(LAM, LAM),
                window=ref_window,
                channel=rayleigh,
            )


class TestCurves:
    def test_sir_curve_matches_pointwise(self, ref_orbit, ref_window, rayleigh):
        grid = (-5.0, 0.0, 5.0)
        curve = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, grid)
        assert curve.kind == "SIR-analytic"
        assert len(curve) == 3
        for g_db, v in zip(curve.thresholds_db, curve.values):
            direct = sir_coverage(ref_orbit, ref_window, LAM, rayleigh, db_to_linear(g_db))
            assert v == pytest.approx(direct, rel=1e-12)

    def test_conditional_flag_in_metadata(self, ref_orbit, ref_window, rayleigh):
        # curves are unconditional; the conditioned value is a per-threshold call
        u = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, (0.0,))
        assert u.metadata["conditioning"] == "none"
        assert sir_coverage_conditional(ref_orbit, ref_window, LAM, rayleigh, 1.0) > u.values[0]

    def test_snr_curve(self, ref_orbit, ref_window, rayleigh):
        curve = snr_coverage_curve(
            ref_orbit, ref_window, LAM, rayleigh, LinkBudget(), (0.0, 10.0)
        )
        assert curve.kind == "SNR-analytic"
        assert curve.values[0] > curve.values[1]

    def test_max_sir_curve(self):
        helper = TestConstellation()
        spec = helper.make([math.pi / 2, math.pi / 2])
        curve = max_sir_coverage_curve(spec, (0.0, 10.0))
        assert curve.kind == "maxSIR-analytic"
        assert all(0.0 <= v <= 1.0 for v in curve.values)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            CoverageCurve(thresholds_db=(0.0,), values=(0.5, 0.6), kind="SIR-analytic")
        with pytest.raises(ValueError):
            CoverageCurve(thresholds_db=(0.0,), values=(0.5,), kind="nonsense")
        with pytest.raises(ValueError):
            CoverageCurve(thresholds_db=(0.0,), values=(1.5,), kind="SIR-analytic")
        with pytest.raises(ValueError):
            CoverageCurve(
                thresholds_db=(0.0,),
                values=(0.5,),
                kind="SIR-MC",
                ci_low=(0.4,),
                ci_high=None,
            )

    def test_curve_clips_rounding_noise(self):
        curve = CoverageCurve(
            thresholds_db=(0.0,), values=(1.0 + 5e-10,), kind="SIR-analytic"
        )
        assert curve.values[0] == 1.0
