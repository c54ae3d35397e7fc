"""Analytic coverage probabilities and threshold curves."""

import math
import tracemalloc
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest

from orbitcov import (
    ChannelParams,
    ConstellationSpec,
    CoverageCurve,
    LinkBudget,
    McConfig,
    NearestDistanceLaw,
    OrbitGeometry,
    VisibilityWindow,
    arc_to_distance,
    coverage_conditional,
    d_min,
    db_to_linear,
    empirical_sir_coverage,
    max_sir_coverage_curve,
    sir_coverage_curve,
    snr_coverage_curve,
    threshold_grid_db,
    visible_arc_length,
)
import orbitcov.coverage as coverage
from orbitcov.interference import (
    _interferer_load,
    _point_terms,
    _serving_arc,
    _taylor_integrals,
    _taylor_terms,
    laplace_derivatives,
)
from orbitcov.numerics import ARC_NODES, gauss_legendre
from reference_forms import (
    adaptive,
    laplace_derivatives_adaptive,
    sir_coverage_adaptive,
    snr_conditional_log_tail,
    snr_coverage_adaptive,
)


LAM = 0.005


def taylor_sum(load, weights, density, m):
    """The coverage kernel on one row of loads: the tile integrals against
    `weights`, scaled by the density, then the sum of the Taylor terms."""
    rows = np.reshape(load, (1, -1))
    integrals = np.empty((m, 1))
    _taylor_integrals(rows, weights, m, integrals, np.empty((4,) + rows.shape))
    return float(sum(_taylor_terms(density * integrals, m))[0])


def shell(altitude_km=500.0, theta_rad=math.pi / 2, omega_min_deg=10.0):
    orbit = OrbitGeometry(altitude_km, theta_rad)
    return orbit, VisibilityWindow.from_min_elevation(math.radians(omega_min_deg), orbit)


def one_orbit(orbit, window, lam, channel):
    """A single orbit, which is the one-orbit constellation."""
    return ConstellationSpec((orbit,), (lam,), window, channel)


QUANTITIES = ["sir", "snr", "max_sir"]


def entries(quantity, channel, altitude_km=500.0, lam=LAM):
    """One quantity's conditional coverage (of linear thresholds), its curve
    builder (of a dB grid) and the orbits whose joint visibility links the
    two. The max-SIR constellation has two distinct inclinations and one
    repeated orbit."""
    orbit, window = shell(altitude_km)
    if quantity == "sir":
        spec = one_orbit(orbit, window, lam, channel)
        return partial(coverage_conditional, spec), partial(sir_coverage_curve, orbit, window, lam, channel), (orbit,)
    if quantity == "snr":
        spec = one_orbit(orbit, window, lam, channel)
        budget = LinkBudget()
        curve = partial(snr_coverage_curve, orbit, window, lam, channel, budget)
        return partial(coverage_conditional, spec, budget=budget), curve, (orbit,)
    tilted = OrbitGeometry(altitude_km, math.pi / 2 + 0.1, phi_rad=1.0)
    orbits = (orbit, tilted, OrbitGeometry(altitude_km, math.pi / 2, phi_rad=2.0))
    spec = ConstellationSpec(orbits, (lam,) * 3, window, channel)
    return partial(coverage_conditional, spec), partial(max_sir_coverage_curve, spec), orbits


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
        p = coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), 1e-12)
        assert p >= 1.0 - 1e-6

    def test_monotone_in_threshold(self, ref_orbit, ref_window, rayleigh):
        vals = [
            coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), db_to_linear(g))
            for g in (-10.0, 0.0, 10.0, 20.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_unconditional_factor(self, ref_orbit, ref_window, rayleigh):
        cond = coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), db_to_linear(5.0))
        arc = visible_arc_length(ref_orbit, ref_window)
        vis = -math.expm1(-LAM * arc)
        unc = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, (5.0,)).values[0]
        assert unc == pytest.approx(cond * vis, rel=1e-12)

    def test_dense_orbit_conditioning_washes_out(self, ref_orbit, ref_window, rayleigh):
        # at 10 satellites per km visibility is certain for all doubles
        cond = coverage_conditional(one_orbit(ref_orbit, ref_window, 10.0, rayleigh), db_to_linear(0.0))
        unc = sir_coverage_curve(ref_orbit, ref_window, 10.0, rayleigh, (0.0,)).values[0]
        assert abs(cond - unc) <= 1e-10

    def test_invisible_orbit_covers_nothing(self, ref_window, rayleigh):
        orbit = OrbitGeometry(500.0, 0.3)
        assert sir_coverage_curve(orbit, ref_window, LAM, rayleigh, (-10.0, 0.0)).values == (0.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_threshold_validation(self, ref_orbit, ref_window, rayleigh, gamma):
        with pytest.raises(ValueError, match="SIR threshold"):
            coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), gamma)
        with pytest.raises(ValueError, match="SNR threshold"):
            coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), gamma, LinkBudget())

    def test_heavier_fading_figures_run(self, ref_orbit, ref_window):
        for m in (2.0, 3.0):
            ch = ChannelParams(alpha=2.0, m=m)
            p = coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ch), db_to_linear(10.0))
            assert 0.0 < p < 1.0

    def test_non_integer_m_rejected(self, ref_orbit, ref_window):
        ch = ChannelParams(alpha=2.0, m=1.5)
        with pytest.raises(ValueError, match="integer"):
            coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ch), 1.0)


class TestSnrCoverage:
    def test_rayleigh_reduces_to_single_exponential(self, ref_orbit, ref_window, rayleigh):
        # with m = 1 the conditional coverage is one exponential integral;
        # restate it directly and compare
        budget = LinkBudget()
        gamma = db_to_linear(0.0)
        lam = LAM
        arc = visible_arc_length(ref_orbit, ref_window)
        scale = budget.snr_scale

        def integrand(tau):
            u_m = 1000.0 * float(arc_to_distance(ref_orbit, tau))
            return math.exp(-gamma * u_m**2 / scale) * lam * math.exp(-lam * tau)

        direct = adaptive(integrand, 0.0, arc, rel_tol=2e-14) / -math.expm1(-lam * arc)
        got = coverage_conditional(one_orbit(ref_orbit, ref_window, lam, rayleigh), gamma, budget)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_more_bandwidth_more_noise(self, ref_orbit, ref_window, rayleigh):
        gamma = db_to_linear(5.0)
        spec = one_orbit(ref_orbit, ref_window, LAM, rayleigh)
        vals = [coverage_conditional(spec, gamma, LinkBudget(bandwidth_hz=bw)) for bw in (1e7, 1e8, 1e9)]
        assert vals[0] > vals[1] > vals[2]

    def test_unconditional_factor(self, ref_orbit, ref_window, rayleigh):
        budget = LinkBudget()
        cond = coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), db_to_linear(5.0), budget)
        arc = visible_arc_length(ref_orbit, ref_window)
        unc = snr_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, budget, (5.0,)).values[0]
        assert unc == pytest.approx(cond * -math.expm1(-LAM * arc), rel=1e-12)

    def test_snr_ignores_interference_gain(self, ref_orbit, ref_window):
        a = ChannelParams(alpha=2.0, m=1.0, g_i_bar=10**-1.3)
        b = ChannelParams(alpha=2.0, m=1.0, g_i_bar=10**-3.0)
        budget = LinkBudget()
        pa = coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, a), 1.0, budget)
        pb = coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, b), 1.0, budget)
        assert pa == pb

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_steep_path_loss_tail_underflows_quietly(self, ref_orbit, ref_window, m):
        # at alpha = 60 the tail parameter q exceeds e^709 at every serving
        # distance: the coverage is 0, reached without an overflow warning;
        # q is capped at e^700, where q = inf would make c_1 = inf * 0 = NaN
        ch = ChannelParams(alpha=60.0, m=float(m))
        assert coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ch), 1.0, LinkBudget()) == 0.0
        assert snr_coverage_curve(ref_orbit, ref_window, LAM, ch, LinkBudget(), (-10.0, 0.0, 10.0)).values == (0.0,) * 3


class TestSnrTail:
    """The gamma tail e^(-q) sum_{t<m} q^t / t! runs through the SIR
    kernel's Taylor recursion with no interferer load; held here to the
    tail summed term by term in logs."""

    GAMMAS = np.array([db_to_linear(g) for g in threshold_grid_db(-40.0, 60.0, 1.0)])

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    @pytest.mark.parametrize("altitude", [500.0, 2000.0, 35786.0])
    def test_matches_log_tail(self, altitude, m):
        orbit, window = shell(altitude)
        for lam in (1e-6, 0.005, 10.0):
            for alpha in (0.5, 2.0, 8.0):
                ch = ChannelParams(alpha=alpha, m=float(m))
                for tx in (-60.0, 0.0, 40.0, 90.0):
                    budget = LinkBudget(tx_power_dbm=tx)
                    value = coverage._snr_conditional(orbit, window, lam, ch, m, self.GAMMAS, budget)
                    reference = snr_conditional_log_tail(orbit, window, lam, ch, m, self.GAMMAS, budget)
                    assert np.all(np.abs(value - reference) <= 1e-15)
                    big = reference >= 1e-290
                    assert np.all(np.abs(value[big] - reference[big]) <= 1e-12 * reference[big])


class TestInvisibleOrbitArguments:
    """An orbit that never enters the window covers nothing, alone or next
    to a visible orbit, and the other arguments are checked all the same:
    the `sir` and `snr` entries put the varied threshold last in a
    three-point grid, the `_curve` entries make it the whole grid."""

    @staticmethod
    def evaluate(entry, window, density=LAM, m=1.0, threshold_db=0.0):
        orbit = OrbitGeometry(500.0, 0.3)
        channel = ChannelParams(m=m)
        grid = (threshold_db,) if entry.endswith("_curve") else (-10.0, 0.0, threshold_db)
        if entry.startswith("sir"):
            curve = sir_coverage_curve(orbit, window, density, channel, grid)
        elif entry.startswith("snr"):
            curve = snr_coverage_curve(orbit, window, density, channel, LinkBudget(), grid)
        else:
            orbits = (orbit, OrbitGeometry(500.0, math.pi / 2))
            curve = max_sir_coverage_curve(ConstellationSpec(orbits, (density, LAM), window, channel), grid)
        return sorted(set(curve.values))

    ENTRIES = ["sir", "snr", "sir_curve", "snr_curve", "max_sir_curve"]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_valid_arguments_give_zero(self, ref_window, entry):
        assert self.evaluate(entry, ref_window) == [0.0]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_density_checked(self, ref_window, entry):
        with pytest.raises(ValueError, match="density"):
            self.evaluate(entry, ref_window, density=-1.0)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_integer_m_checked(self, ref_window, entry):
        with pytest.raises(ValueError, match="integer"):
            self.evaluate(entry, ref_window, m=1.5)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_threshold_checked(self, ref_window, entry):
        # -inf dB is a linear threshold of 0
        with pytest.raises(ValueError, match="threshold"):
            self.evaluate(entry, ref_window, threshold_db=-math.inf)

    def test_conditional_combiner_raises(self, ref_window, rayleigh):
        # conditioning on every orbit being visible conditions on an
        # event of probability zero, for one orbit or several, SIR or SNR;
        # a bad m or threshold is reported first, as on the curve path
        hidden = OrbitGeometry(500.0, 0.3)
        for orbits in ((hidden,), (hidden, OrbitGeometry(500.0, math.pi / 2))):
            densities = (LAM,) * len(orbits)
            spec = ConstellationSpec(orbits, densities, ref_window, rayleigh)
            fractional_m = ConstellationSpec(orbits, densities, ref_window, ChannelParams(m=1.5))
            for budget in (None, LinkBudget()):
                with pytest.raises(ValueError, match="orbit 0 never enters"):
                    coverage_conditional(spec, 1.0, budget)
                with pytest.raises(ValueError, match="threshold"):
                    coverage_conditional(spec, [1.0, 0.0], budget)
                with pytest.raises(ValueError, match="integer"):
                    coverage_conditional(fractional_m, 1.0, budget)


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "name", ["tx_power_dbm", "serving_gain_db", "noise_density_dbm_hz", "noise_figure_db", "bandwidth_hz"]
    )
    def test_non_finite_rejected(self, name, value):
        # a nan power would simulate to SNR coverage 0 and +inf to 1
        with pytest.raises(ValueError, match="finite"):
            LinkBudget(**{name: value})

    @pytest.mark.parametrize(
        "entries",
        [
            {"tx_power_dbm": 4000.0},  # 10 ** 416.3 overflows
            {"tx_power_dbm": -4000.0},  # underflows to 0
            {"tx_power_dbm": 1e308, "serving_gain_db": 1e308},  # the dB sum is inf
            {"tx_power_dbm": 1e308, "serving_gain_db": 1e308, "noise_density_dbm_hz": 1e308, "noise_figure_db": 1e308},
        ],
        ids=["overflow", "underflow", "inf-db", "nan-db"],
    )
    def test_linear_scale_must_be_a_finite_nonzero_double(self, entries):
        # finite dB entries whose linear P G / sigma^2 is 0, inf or NaN
        with pytest.raises(ValueError, match="finite, nonzero"):
            LinkBudget(**entries)

    def test_widest_parsed_budget_constructs(self):
        # the scenario parser bounds P G / sigma^2 to +/-1000 dB
        assert 0.0 < LinkBudget(tx_power_dbm=1000.0 - 163.0 + 40.0).snr_scale < math.inf
        assert 0.0 < LinkBudget(tx_power_dbm=-1000.0 - 163.0 + 40.0).snr_scale < math.inf


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
        # the combiner returns the per-orbit kernel's value bit for bit
        spec = self.make([math.pi / 2])
        gamma = db_to_linear(10.0)
        (direct,) = coverage._sir_conditional(ref_orbit, ref_window, LAM, rayleigh, 1, np.array([gamma]))
        assert coverage_conditional(spec, gamma) == direct
        unc = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, (10.0,)).values
        assert max_sir_coverage_curve(spec, (10.0,)).values == pytest.approx(unc, abs=1e-12)

    def test_identical_orbits_combine_independently(self):
        gamma = db_to_linear(10.0)
        p1 = coverage_conditional(self.make([math.pi / 2]), gamma)
        for n in (2, 3, 4):
            pn = coverage_conditional(self.make([math.pi / 2] * n), gamma)
            assert pn == pytest.approx(1.0 - (1.0 - p1) ** n, rel=1e-12)

    def test_more_orbits_help(self):
        vals = [max_sir_coverage_curve(self.make([math.pi / 2] * n), (10.0,)).values[0] for n in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("gamma_db", [20.0, 25.0, 30.0])
    def test_combiner_keeps_relative_precision_at_small_coverage(self, gamma_db):
        # 1 - prod_n (1 - p_n) cancels once the p_n are small: on this
        # four-orbit shell it was off by 8e-10 relative at 20 dB and
        # 4e-6 at 30 dB from the exact union of the same per-orbit values
        thetas_deg, phis_deg = (90.0, 90.0, 84.0, 98.0), (0.0, 45.0, 90.0, 135.0)
        orbits = tuple(OrbitGeometry(500.0, math.radians(t), math.radians(p)) for t, p in zip(thetas_deg, phis_deg))
        window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
        channel = ChannelParams(alpha=2.0, m=1.0)
        spec = ConstellationSpec(orbits, (0.01,) * 4, window, channel)
        gamma = db_to_linear(gamma_db)
        miss = Fraction(1)
        for orbit in orbits:
            miss *= 1 - Fraction(coverage_conditional(one_orbit(orbit, window, 0.01, channel), gamma))
        exact = 1 - miss
        assert abs(Fraction(coverage_conditional(spec, gamma)) - exact) <= Fraction(1e-14) * exact

    def test_single_orbit_snr_is_the_one_orbit_constellation(self, ref_orbit, ref_window, rayleigh):
        # the combiner returns the per-orbit value bit for bit at N = 1
        budget = LinkBudget(tx_power_dbm=0.0)
        grid = tuple(range(-10, 31, 5))
        spec = ConstellationSpec((ref_orbit,), (LAM,), ref_window, rayleigh)
        curve = coverage._coverage_curve(spec, grid, "maxSNR-analytic", budget)
        assert curve.values == snr_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, budget, grid).values
        assert max_sir_coverage_curve(spec, grid).values == sir_coverage_curve(
            ref_orbit, ref_window, LAM, rayleigh, grid
        ).values

    def test_invisible_member_is_an_error(self):
        spec = self.make([math.pi / 2, 0.3])
        with pytest.raises(ValueError, match="orbit 1"):
            coverage_conditional(spec, 1.0)

    @pytest.mark.parametrize("density", [math.inf, math.nan])
    @pytest.mark.parametrize("build", ["spec", "law"])
    def test_non_finite_density_rejected(self, ref_orbit, ref_window, rayleigh, build, density):
        # lam <= 0 is False for both, so both were accepted: the curves
        # then failed converting inf or nan to a panel count, and the
        # nearest-distance CCDF gave 0 at inf and nan at nan
        with pytest.raises(ValueError, match="positive and finite"):
            if build == "spec":
                ConstellationSpec((ref_orbit,), (density,), ref_window, rayleigh)
            else:
                NearestDistanceLaw(ref_orbit, ref_window, density)

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
            (direct,) = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, (g_db,)).values
            assert v == pytest.approx(direct, rel=1e-15)

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_values_are_conditional_times_visibility(self, quantity):
        conditional, curve, orbits = entries(quantity, ChannelParams(alpha=2.0, m=2.0))
        grid = tuple(range(-10, 61, 5))
        window = shell()[1]
        visibility = math.prod(-math.expm1(-LAM * visible_arc_length(o, window)) for o in orbits)
        expected = conditional([db_to_linear(g) for g in grid]) * visibility
        assert curve(grid).values == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_single_point_names_match_the_curves(self, ref_orbit, ref_window, rayleigh):
        # kept unexported for callers that time one threshold at a time
        assert {"sir_coverage", "snr_coverage"}.isdisjoint(coverage.__all__)
        budget = LinkBudget()
        for g_db in (-5.0, 5.0):
            gamma = db_to_linear(g_db)
            sir = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, (g_db,))
            snr = snr_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, budget, (g_db,))
            assert coverage.sir_coverage(ref_orbit, ref_window, LAM, rayleigh, gamma) == sir.values[0]
            assert coverage.snr_coverage(ref_orbit, ref_window, LAM, rayleigh, budget, gamma) == snr.values[0]
        hidden = OrbitGeometry(500.0, 0.3)
        assert coverage.sir_coverage(hidden, ref_window, LAM, rayleigh, 1.0) == 0.0
        with pytest.raises(ValueError, match="SNR threshold"):
            coverage.snr_coverage(hidden, ref_window, LAM, rayleigh, budget, -1.0)

    def test_conditional_flag_in_metadata(self, ref_orbit, ref_window, rayleigh):
        # curves are unconditional; the conditioned values come from
        # coverage_conditional
        u = sir_coverage_curve(ref_orbit, ref_window, LAM, rayleigh, (0.0,))
        assert u.metadata["conditioning"] == "none"
        assert coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), 1.0) > u.values[0]

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

    @pytest.mark.parametrize("value", [1.0 + 5e-10, -5e-10, math.nan])
    def test_curve_rejects_rounding_noise(self, value):
        # analytic values reach a curve through _unit and MC values are
        # k/n, so anything outside [0, 1] is a defect, never clipped
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CoverageCurve(thresholds_db=(0.0,), values=(value,), kind="SIR-analytic")


def band_edge_theta(altitude_km, omega_min_deg, fraction):
    """Inclination at ``fraction`` of the visibility band's half-width."""
    orbit, window = shell(altitude_km, math.pi / 2, omega_min_deg)
    return math.pi / 2 + fraction * math.acos(window.cap_base_km / orbit.radius_km)


def assert_matches_reference(value, reference):
    # the adaptive reference's own outer tolerance
    assert abs(value - reference) <= 1e-7 * abs(reference) + 1e-10, (value, reference)


GAMMA_GRID_DB = tuple(range(-10, 31, 5))


class TestAgainstAdaptiveReference:
    """The fixed rule against nested adaptive quadrature, wherever the
    latter converges."""

    @pytest.mark.parametrize("alpha,m", [(2.0, 1), (3.0, 1), (4.0, 1), (2.0, 2), (2.0, 3)])
    def test_criterion_5_grid(self, ref_orbit, ref_window, alpha, m):
        ch = ChannelParams(alpha=alpha, m=float(m))
        for g in GAMMA_GRID_DB:
            gamma = db_to_linear(g)
            assert_matches_reference(
                coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ch), gamma),
                sir_coverage_adaptive(ref_orbit, ref_window, LAM, ch, gamma),
            )

    def test_criterion_6_grid(self, ref_orbit, ref_window, rayleigh):
        for bandwidth in (1e7, 1e8, 1e9):
            budget = LinkBudget(bandwidth_hz=bandwidth)
            for g in GAMMA_GRID_DB:
                gamma = db_to_linear(g)
                assert_matches_reference(
                    coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, rayleigh), gamma, budget),
                    snr_coverage_adaptive(ref_orbit, ref_window, LAM, rayleigh, budget, gamma),
                )

    def test_criterion_8_grid(self, ref_orbit, ref_window, rayleigh):
        gamma = db_to_linear(10.0)
        cases = [(ref_orbit, ref_window, LAM, ChannelParams(alpha=a, m=1.0)) for a in (2.0, 3.0, 4.0)]
        cases += [(ref_orbit, ref_window, lam, rayleigh) for lam in (0.001, 0.01)]
        cases += [(*shell(altitude), LAM, rayleigh) for altitude in (1000.0, 1500.0)]
        cases += [(OrbitGeometry(500.0, math.pi / 2 + d), ref_window, LAM, rayleigh) for d in (-math.pi / 18, math.pi / 18)]
        for orbit, window, lam, ch in cases:
            assert_matches_reference(
                coverage_conditional(one_orbit(orbit, window, lam, ch), gamma),
                sir_coverage_adaptive(orbit, window, lam, ch, gamma),
            )
        lo = d_min(ref_orbit)
        ell0, arc = _serving_arc(ref_orbit, ref_window, lo)
        for lam in (0.005, 0.01):
            for s in (1.0e4, 1.0e5, 1.0e6):
                reference = laplace_derivatives_adaptive(ref_orbit, lam, rayleigh, ell0, arc, s, 0)[0]
                value = math.log(_point_terms(ref_orbit, ref_window, lam, rayleigh, lo, s)[0])
                assert value == pytest.approx(math.log(reference), rel=1e-9)

    @pytest.mark.parametrize(
        "label,altitude,theta_fraction,omega,lam,m",
        [
            ("m=10", 500.0, 0.0, 10.0, LAM, 10),
            ("sparse", 500.0, 0.0, 10.0, 1e-6, 2),
            ("geo", 35786.0, 0.0, 10.0, LAM, 2),
            ("high floor", 500.0, 0.0, 85.0, LAM, 2),
            ("band edge", 500.0, 0.999999, 10.0, LAM, 2),
        ],
    )
    def test_edge_cases(self, label, altitude, theta_fraction, omega, lam, m):
        orbit, window = shell(altitude, band_edge_theta(altitude, omega, theta_fraction), omega)
        ch = ChannelParams(alpha=2.0, m=float(m))
        budget = LinkBudget()
        for g in (-10.0, 10.0, 30.0):
            gamma = db_to_linear(g)
            assert_matches_reference(
                coverage_conditional(one_orbit(orbit, window, lam, ch), gamma),
                sir_coverage_adaptive(orbit, window, lam, ch, gamma),
            )
        # SNR thresholds where the noise-limited coverage is neither 0 nor 1
        for g in (0.0, 20.0, 40.0, 60.0):
            gamma = db_to_linear(g)
            assert_matches_reference(
                coverage_conditional(one_orbit(orbit, window, lam, ch), gamma, budget),
                snr_coverage_adaptive(orbit, window, lam, ch, budget, gamma),
            )


def snr_mpmath(orbit, window, lam, m, budget, gamma, alpha=2.0):
    """P(SNR > gamma | visible) as one 1-D mpmath integral, split where
    the lambda e^(-lambda tau) weight bends."""
    mpmath.mp.dps = 30
    R = mpmath.mpf(orbit.radius_km)
    re = mpmath.mpf(orbit.earth.radius_km)
    c2 = 2 * re * R * mpmath.sin(mpmath.mpf(orbit.theta_rad))
    lam = mpmath.mpf(lam)
    arc = mpmath.mpf(visible_arc_length(orbit, window))

    def integrand(tau):
        u = mpmath.sqrt(R * R + re * re - c2 * mpmath.cos(tau / (2 * R)))
        q = m * mpmath.mpf(gamma) * (1000 * u) ** alpha / mpmath.mpf(budget.snr_scale)
        tail = mpmath.exp(-q) * sum(q**t / mpmath.factorial(t) for t in range(m))
        return tail * lam * mpmath.exp(-lam * tau)

    total = mpmath.quad(integrand, [0, 1 / lam, 10 / lam, arc])
    return float(total / -mpmath.expm1(-lam * arc))


class TestBeyondTheAdaptiveReach:
    """Dense orbits, GEO and steep path loss: the nested adaptive rule
    missed the e^(-lambda tau) boundary layer or failed to converge here."""

    @pytest.mark.parametrize(
        "altitude,lam,thresholds_db",
        [(500.0, 10.0, (0.0, 45.0, 50.0, 55.0)), (35786.0, 1.0, (0.0, 5.0, 10.0, 20.0))],
    )
    @pytest.mark.parametrize("m", [1, 2])
    def test_dense_snr_matches_mpmath(self, altitude, lam, thresholds_db, m):
        orbit, window = shell(altitude)
        budget = LinkBudget()
        ch = ChannelParams(alpha=2.0, m=float(m))
        for g in thresholds_db:
            gamma = db_to_linear(g)
            value = coverage_conditional(one_orbit(orbit, window, lam, ch), gamma, budget)
            reference = snr_mpmath(orbit, window, lam, m, budget, gamma)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("altitude,lam", [(500.0, LAM), (35786.0, 1e-4)])
    def test_steep_path_loss_heavy_fading(self, altitude, lam):
        orbit, window = shell(altitude)
        ch = ChannelParams(alpha=8.0, m=10.0)
        spec = one_orbit(orbit, window, lam, ch)
        values = [coverage_conditional(spec, db_to_linear(g)) for g in GAMMA_GRID_DB]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
        _, simulated = empirical_sir_coverage(spec, GAMMA_GRID_DB, McConfig(trials=20_000, seed=8, batch=10_000))
        analytic = sir_coverage_curve(orbit, window, lam, ch, GAMMA_GRID_DB)
        for a, p, lo, hi in zip(analytic.values, simulated.values, simulated.ci_low, simulated.ci_high):
            assert abs(a - p) <= 4.0 * 0.5 * (hi - lo), (a, p, lo, hi)


def criterion_4_points():
    """(serving km, s, m) where validation's criterion 4 reads the kernel's
    terms: the transform at m = 1 at d_min and mid-range, six s each, and
    the order-1 (m = 2) and order-3 (m = 4) derivatives at d_min."""
    orbit, window = shell()
    lo = d_min(orbit)
    mid = 0.5 * (lo + window.d_max_km)
    points = [(r, s, 1) for r in (lo, mid) for s in (0.1, 1.0, 10.0, 0.1 * r**2, r**2, 10.0 * r**2)]
    return points + [(lo, m * lo**2, m) for m in (2, 4)]


class TestTaylorSeries:
    @pytest.mark.parametrize("serving_km,s,m", criterion_4_points())
    def test_single_terms_match_derivatives(self, ref_orbit, ref_window, serving_km, s, m):
        # the single-term identities L = c_0 and L^(t) = t! c_t / (-s)^t
        ch = ChannelParams(alpha=2.0, m=float(m))
        terms = _point_terms(ref_orbit, ref_window, LAM, ch, serving_km, s)
        identities = [terms[0]] + [math.factorial(t) * terms[t] / (-s) ** t for t in range(1, m)]
        derivs = laplace_derivatives(ref_orbit, ref_window, LAM, ch, serving_km, s, m - 1)
        assert identities == pytest.approx(derivs, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("serving_km,gamma_db", [(500.0, 0.0), (800.0, 10.0), (1200.0, -5.0)])
    def test_matches_derivative_series(self, ref_orbit, ref_window, m, serving_km, gamma_db):
        # sum_t c_t of the nonnegative recursion against
        # sum_t (-s)^t / t! L^(t)(s) built from laplace_derivatives
        ch = ChannelParams(alpha=2.0, m=float(m))
        s = m * db_to_linear(gamma_db) * serving_km**2
        derivs = laplace_derivatives(ref_orbit, ref_window, LAM, ch, serving_km, s, m - 1)
        alternating = sum((-s) ** t / math.factorial(t) * d for t, d in enumerate(derivs))
        ell0, arc = _serving_arc(ref_orbit, ref_window, serving_km)
        load, weights = _interferer_load(ref_orbit, ch, ell0, arc)
        assert taylor_sum(s * load, weights, LAM, m) == pytest.approx(alternating, rel=1e-9)

    def test_non_finite_value_raises(self, ref_orbit, ref_window, monkeypatch):
        monkeypatch.setattr(coverage, "_taylor_integrals", lambda load, weights, m, out, work: out.fill(np.nan))
        with pytest.raises(ValueError, match="not finite"):
            coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ChannelParams(m=2.0)), 1.0)
        with pytest.raises(ValueError, match="not finite"):
            sir_coverage_curve(ref_orbit, ref_window, LAM, ChannelParams(m=2.0), (0.0,))


def taylor_sum_mpmath(load, weights, density, m):
    """sum_{t<m} (-1)^t / t! * L^(t)(1) in 50-digit arithmetic, for
    L(sigma) = exp(-density sum_i w_i (1 - (1 + sigma x_i)^-m)) with
    loads x_i: the derivatives of phi = ln L in closed form, then the
    product recursion L^(t) = sum_j C(t-1, j) phi^(t-j) L^(j)."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in load]
        w = [mpmath.mpf(float(v)) for v in weights]
        lam = mpmath.mpf(density)
        phi = [-lam * mpmath.fsum(wi * (1 - (1 + xi) ** -m) for wi, xi in zip(w, x))]
        for k in range(1, m):
            rising = mpmath.rf(m, k)
            phi.append((-1) ** k * lam * rising * mpmath.fsum(wi * xi**k * (1 + xi) ** (-m - k) for wi, xi in zip(w, x)))
        derivs = [mpmath.exp(phi[0])]
        for t in range(1, m):
            derivs.append(mpmath.fsum(mpmath.binomial(t - 1, j) * phi[t - j] * derivs[j] for j in range(t)))
        return float(mpmath.fsum((-1) ** t / mpmath.factorial(t) * derivs[t] for t in range(m)))


class TestKernelAgainstMpmath:
    """The reciprocal-form kernel against a 50-digit evaluation of the same
    rule. The density puts the exponent near 1 at every load scale, so a
    kernel whose integrand cancelled at small loads (1 - p^m in place of
    (s a p) sum p^j) would be off by far more than 1e-12 there."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("top", [1e-12, 1e-8, 1e-4, 1.0, 1e2, 1e4, 1e6])
    def test_inner_rule_loads(self, ref_orbit, ref_window, m, top):
        ch = ChannelParams(alpha=2.0, m=float(m))
        ell0, arc = _serving_arc(ref_orbit, ref_window, 600.0)
        a, weights = _interferer_load(ref_orbit, ch, ell0, arc)
        load = a * (top / a.max())
        density = 1.0 / float(np.sum(weights * load / (1.0 + load)))
        value = taylor_sum(load, weights, density, m)
        assert value == pytest.approx(taylor_sum_mpmath(load, weights, density, m), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_loads_spanning_eighteen_decades(self, m):
        # one rule whose loads run from 1e-12 to 1e6
        load = np.logspace(-12.0, 6.0, ARC_NODES)
        _, weights = gauss_legendre(0.0, 1.0, ARC_NODES)
        for density in (1e-3, 1.0, 1e3):
            value = taylor_sum(load, weights, density, m)
            assert value == pytest.approx(taylor_sum_mpmath(load, weights, density, m), rel=1e-12, abs=0.0)


class TestTiling:
    """The SIR tensor (thresholds x serving x interferer nodes) runs in
    tiles of at most `_BLOCK` nodes; where a tile edge falls must not move
    a value, and a whole grid gives what its thresholds give one by one."""

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize(
        "altitude,lam,low_db,block",
        [
            # several thresholds per tile, the last tile partly filled
            (500.0, LAM, -10.0, None),
            # runs of 50 serving nodes, cut where the tau weights still count
            (500.0, LAM, -10.0, 50 * ARC_NODES),
            # one threshold's tensor needs more than one tile of the default size
            (35786.0, 1e4, -110.0, None),
        ],
    )
    def test_values_do_not_depend_on_tiles(self, monkeypatch, altitude, lam, low_db, block, m):
        orbit, window = shell(altitude)
        ch = ChannelParams(alpha=2.0, m=float(m))
        gammas = [db_to_linear(low_db + g) for g in range(41)]
        tau, _, _ = coverage._serving_rule(orbit, window, lam)
        per_threshold = tau.size * ARC_NODES
        if block is not None:
            monkeypatch.setattr(coverage, "_BLOCK", block)
        if lam > 1.0:
            assert per_threshold > coverage._BLOCK
        spec = one_orbit(orbit, window, lam, ch)
        grid = coverage_conditional(spec, gammas)
        single = [coverage_conditional(spec, g) for g in gammas]
        assert grid == pytest.approx(single, rel=1e-15, abs=0.0)
        monkeypatch.setattr(coverage, "_BLOCK", len(gammas) * per_threshold)
        whole = np.clip(coverage._sir_conditional(orbit, window, lam, ch, m, np.array(gammas)), 0.0, 1.0)
        assert grid == pytest.approx(whole, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize(
        "quantity,low_db,block",
        [
            # the SNR tail has no tensor: only grid against single calls
            ("snr", 20.0, None),
            # the combiner's per-orbit curves run on the SIR tiles
            ("max_sir", -10.0, None),
            ("max_sir", -10.0, 50 * ARC_NODES),
        ],
    )
    def test_snr_and_max_sir_grids_match_single_calls(self, monkeypatch, quantity, low_db, block, m):
        if block is not None:
            monkeypatch.setattr(coverage, "_BLOCK", block)
        conditional, _, _ = entries(quantity, ChannelParams(alpha=2.0, m=float(m)))
        gammas = [db_to_linear(low_db + g) for g in range(41)]
        single = [conditional(g) for g in gammas]
        assert min(single) < 0.5 < max(single)
        assert conditional(gammas) == pytest.approx(single, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("altitude,lam", [(500.0, LAM), (35786.0, 1e4)])
    def test_tiles_cover_the_tensor_within_the_block(self, monkeypatch, altitude, lam):
        sizes = []

        def recording(load, *rest):
            sizes.append(load.size)
            return _taylor_integrals(load, *rest)

        monkeypatch.setattr(coverage, "_taylor_integrals", recording)
        orbit, window = shell(altitude)
        grid = threshold_grid_db(-10.0, 30.0, 1.0)
        sir_coverage_curve(orbit, window, lam, ChannelParams(m=3.0), grid)
        tau, _, _ = coverage._serving_rule(orbit, window, lam)
        assert max(sizes) <= coverage._BLOCK
        assert sum(sizes) == len(grid) * tau.size * ARC_NODES

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_one_workspace_serves_every_tile(self, monkeypatch, m):
        # every tile writes its load and intermediates into the rows one
        # workspace allocated for the curve, and the kernel only reads load
        loads, works = [], []

        def recording(load, weights, order, out, work):
            before = load.copy()
            _taylor_integrals(load, weights, order, out, work)
            assert np.array_equal(load, before)
            loads.append(load)
            works.append(work)

        monkeypatch.setattr(coverage, "_taylor_integrals", recording)
        orbit, window = shell(35786.0)
        tau, _, _ = coverage._serving_rule(orbit, window, 1e4)
        assert tau.size * ARC_NODES > coverage._BLOCK
        sir_coverage_curve(orbit, window, 1e4, ChannelParams(m=float(m)), threshold_grid_db(-110.0, -70.0, 1.0))
        assert len(loads) > 41
        assert all(np.shares_memory(load, loads[0]) for load in loads)
        assert len(works) == len(loads)
        assert all(np.shares_memory(work, works[0]) for work in works)


    @pytest.mark.parametrize(
        "altitude,lam,block",
        [
            # one group of eleven tiles
            (500.0, LAM, None),
            # groups of 25 thresholds, three tiles per threshold
            (500.0, LAM, 50 * ARC_NODES),
            # one group, several tiles per threshold
            (35786.0, 1e4, None),
        ],
    )
    def test_taylor_terms_run_once_per_threshold_group(self, monkeypatch, altitude, lam, block):
        if block is not None:
            monkeypatch.setattr(coverage, "_BLOCK", block)
        tiles, groups = [], []

        def integrals(load, *rest):
            tiles.append(load.size)
            return _taylor_integrals(load, *rest)

        def terms(scaled, order):
            groups.append(scaled.shape[1])
            return _taylor_terms(scaled, order)

        monkeypatch.setattr(coverage, "_taylor_integrals", integrals)
        monkeypatch.setattr(coverage, "_taylor_terms", terms)
        orbit, window = shell(altitude)
        grid = threshold_grid_db(-10.0, 30.0, 1.0)
        sir_coverage_curve(orbit, window, lam, ChannelParams(m=3.0), grid)
        tau, _, _ = coverage._serving_rule(orbit, window, lam)
        size = max(1, coverage._BLOCK // tau.size)
        assert groups == [min(size, len(grid) - g) for g in range(0, len(grid), size)]
        assert len(tiles) > len(groups)

    def test_curve_rows_match_mpmath(self, monkeypatch, ref_orbit, ref_window):
        # three (threshold, serving node) rows of a real m = 5 curve, read
        # from the terms the kernel sums, against the 50-digit series on
        # the same inner rule
        m = 5
        ch = ChannelParams(alpha=2.0, m=float(m))
        rows = []

        def recording(scaled, order):
            values = _taylor_terms(scaled, order)
            rows.append(sum(values))
            return values

        monkeypatch.setattr(coverage, "_taylor_terms", recording)
        grid = threshold_grid_db(-10.0, 30.0, 1.0)
        sir_coverage_curve(ref_orbit, ref_window, LAM, ch, grid)
        (given_tau,) = rows
        tau, _, arc = coverage._serving_rule(ref_orbit, ref_window, LAM)
        for i, j in [(0, 0), (20, tau.size // 2), (40, tau.size - 1)]:
            t, weights = gauss_legendre(tau[j], arc, ARC_NODES)
            ratio = (arc_to_distance(ref_orbit, tau[j]) / arc_to_distance(ref_orbit, t)) ** ch.alpha
            load = db_to_linear(grid[i]) * ch.g_i_bar * ratio
            reference = taylor_sum_mpmath(load, weights, LAM, m)
            assert given_tau[i, j] == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_memory_does_not_grow_with_the_grid(self, monkeypatch):
        # a group holds at most _BLOCK (threshold, serving node) rows, so
        # beyond the (thresholds x serving) output a curve holds a few
        # m x _BLOCK arrays (integrals, psi, terms) however long its grid.
        # Integrals for the whole grid would take m times the output.
        monkeypatch.setattr(coverage, "_BLOCK", 1 << 12)
        m = 10
        orbit, window = shell()
        tau, _, _ = coverage._serving_rule(orbit, window, 1e-4)
        gammas = np.logspace(-3.0, 3.0, 1500)
        output = gammas.size * tau.size * 8
        tracemalloc.start()
        try:
            coverage._sir_conditional(orbit, window, 1e-4, ChannelParams(m=float(m)), m, gammas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = output + 5 * m * coverage._BLOCK * 8
        assert m * output > 2 * bound
        assert peak <= bound


class TestOvershoot:
    """A raw analytic value is clipped into [0, 1] only from within 1e-12,
    the rounding slack the property tests assert on raw values; further
    out it is an error, never a silent 0 or 1."""

    @pytest.mark.parametrize("raw,clipped", [(1.0 + 5e-13, 1.0), (-5e-13, 0.0)])
    def test_rounding_is_clipped(self, monkeypatch, ref_orbit, ref_window, raw, clipped):
        monkeypatch.setattr(coverage, "_sir_conditional", lambda *args: np.full(args[-1].size, raw))
        assert coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ChannelParams()), [1.0, 10.0]).tolist() == [
            clipped,
            clipped,
        ]

    @pytest.mark.parametrize("raw", [1.0 + 2e-12, -2e-12])
    def test_overshoot_raises(self, monkeypatch, ref_orbit, ref_window, raw):
        monkeypatch.setattr(coverage, "_sir_conditional", lambda *args: np.full(args[-1].size, raw))
        with pytest.raises(ValueError, match=r"leaves \[0, 1\] by more than 1e-12"):
            coverage_conditional(one_orbit(ref_orbit, ref_window, LAM, ChannelParams()), 1.0)

    def test_curve_overshoot_raises(self, monkeypatch, ref_orbit, ref_window):
        monkeypatch.setattr(coverage, "_sir_conditional", lambda *args: np.full(args[-1].size, -1e-9))
        with pytest.raises(ValueError, match="leaves"):
            sir_coverage_curve(ref_orbit, ref_window, LAM, ChannelParams(), (0.0, 10.0))


class TestThresholdShapes:
    """Conditional coverage comes back in the shape of its thresholds."""

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_scalar_gives_float(self, quantity):
        conditional, _, _ = entries(quantity, ChannelParams(m=2.0))
        value = conditional(db_to_linear(10.0))
        assert isinstance(value, float)
        assert value == conditional([db_to_linear(10.0)])[0]

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_sequence_gives_array(self, quantity):
        conditional, _, _ = entries(quantity, ChannelParams(m=2.0))
        values = conditional([0.1, 1.0, 10.0, 100.0])
        assert isinstance(values, np.ndarray) and values.shape == (4,)
        assert conditional(np.full((2, 3), 1.0)).shape == (2, 3)
        assert conditional([]).shape == (0,)

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_every_threshold_is_checked(self, quantity):
        conditional, _, _ = entries(quantity, ChannelParams(m=2.0))
        with pytest.raises(ValueError, match="threshold"):
            conditional([1.0, 10.0, 0.0])
