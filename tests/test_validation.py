"""Validation internals: the brute-force arc count and the direct
transform average, against the forms they replace, and the concurrent
`run_all` against the criteria run one after another."""

import math
import sys

import numpy as np
import pytest

from orbitcov import ChannelParams, OrbitGeometry, VisibilityWindow, d_min
from orbitcov import validation
from orbitcov.validation import (
    _ARC_CHUNK,
    CriterionResult,
    ValidationReport,
    _arc_length_bruteforce,
    _laplace_direct_average,
    criterion_arc_bruteforce,
    render_report,
    run_all,
    run_criterion,
)
from reference_forms import arc_length_bruteforce_one_shot


def _shell(omega_deg, theta):
    window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), OrbitGeometry(500.0, math.pi / 2))
    return OrbitGeometry(500.0, theta), window


class TestArcBruteforce:
    @pytest.mark.parametrize("points", [1_000, _ARC_CHUNK, 3 * _ARC_CHUNK + 17])
    @pytest.mark.parametrize(
        "omega_deg, theta",
        # three pairs inside the visibility band and one outside it
        [(10.0, math.pi / 2), (0.0, math.pi / 2 + 0.3), (30.0, math.pi / 2 - 0.1), (45.0, 1.2)],
    )
    def test_chunked_count_is_the_one_shot_count(self, points, omega_deg, theta):
        # same count, and the generator left in the same state, so the
        # pairs drawn after this one see the same stream
        orbit, window = _shell(omega_deg, theta)
        chunked, one_shot = np.random.default_rng(31), np.random.default_rng(31)
        assert _arc_length_bruteforce(orbit, window, points, chunked) == arc_length_bruteforce_one_shot(
            orbit, window, points, one_shot
        )
        assert chunked.bit_generator.state == one_shot.bit_generator.state


class TestSeedStreams:
    def test_arc_bruteforce_stream_is_pinned(self, monkeypatch):
        # criterion 2 draws from child 2 of the seed; PCG64's raw output
        # is stable across numpy releases, so these words change only if
        # the way that stream derives from the seed does
        seeds = []

        def recording(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", recording)
        criterion_arc_bruteforce(7, SCALE)
        assert len(seeds) == 1
        assert default_rng(seeds[0]).bit_generator.random_raw(4).tolist() == [
            11659158256815307285,
            8979474222016441428,
            632058844048246702,
            12509314781568160963,
        ]


class TestLaplaceDirectAverage:
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_shared_draws_match_one_s_at_a_time(self, m):
        # every s sees the sums a one-s run on the same stream would draw:
        # sharing the draws only correlates the checks
        orbit, window = _shell(10.0, math.pi / 2)
        channel = ChannelParams(alpha=2.0, m=m)
        serving = d_min(orbit)
        scales = [0.1, 10.0] + [g * serving**2 for g in (0.1, 1.0, 10.0)]
        trials = 210_000  # more than one batch
        shared = _laplace_direct_average(
            orbit, window, 0.001, channel, serving, scales, trials, np.random.default_rng(33)
        )
        assert shared.shape == (len(scales),)
        for s, value in zip(scales, shared):
            alone = _laplace_direct_average(
                orbit, window, 0.001, channel, serving, [s], trials, np.random.default_rng(33)
            )
            assert value == pytest.approx(alone[0], rel=1e-15, abs=0.0)


SCALE = 0.002


@pytest.fixture(scope="module")
def sequential_reports():
    """The report of each seed with criteria 1 to 9 run in order on this thread."""
    return {
        seed: render_report(ValidationReport(seed, SCALE, [run_criterion(k, seed, SCALE) for k in range(1, 10)]))
        for seed in (7, 1729)
    }


class TestRunAll:
    @pytest.mark.parametrize("seed", [7, 1729])
    def test_report_is_the_sequential_report(self, sequential_reports, seed):
        assert render_report(run_all(seed, SCALE)) == sequential_reports[seed]

    @pytest.mark.parametrize("cpus", [1, 9])
    def test_report_does_not_depend_on_the_worker_count(self, sequential_reports, monkeypatch, cpus):
        # one worker runs the criteria in order; nine on fewer cores, with a
        # short switch interval, interleave them as finely as they get
        monkeypatch.setattr(validation, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_all(7, SCALE)
        finally:
            sys.setswitchinterval(interval)
        assert [r.index for r in report.results] == list(range(1, 10))
        assert render_report(report) == sequential_reports[7]

    def test_criterion_exception_propagates(self, monkeypatch):
        def run_criterion(index, seed, trials_scale):
            if index == 4:
                raise ZeroDivisionError("criterion 4")
            return CriterionResult(index, validation.CRITERION_NAMES[index], True)

        monkeypatch.setattr(validation, "run_criterion", run_criterion)
        with pytest.raises(ZeroDivisionError, match="criterion 4"):
            run_all(7, SCALE)
