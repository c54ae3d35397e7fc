"""Validation internals: the brute-force arc count, against the form it
replaces, and `run_all`, which runs the criteria one after another on
the calling thread."""

import collections
import math
import sys
import threading

import numpy as np
import pytest

from orbitcov import McConfig, OrbitGeometry, VisibilityWindow, cli
from orbitcov import validation
from orbitcov.validation import (
    CriterionResult,
    ValidationReport,
    _arc_length_bruteforce,
    render_report,
    run_all,
    run_criterion,
)
from reference_forms import arc_length_bruteforce_one_shot


def _shell(omega_deg, theta, altitude_km=500.0):
    window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), OrbitGeometry(altitude_km, math.pi / 2))
    return OrbitGeometry(altitude_km, theta), window


def _band(omega_deg, altitude_km=500.0):
    """Half-width of the visibility band in theta around pi/2."""
    orbit, window = _shell(omega_deg, math.pi / 2, altitude_km)
    return math.acos(window.cap_base_km / orbit.radius_km)


GEO_KM = 35_786.0


def _assert_skip_ahead_is_one_shot(orbit, window, points, seed):
    skipped, one_shot = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _arc_length_bruteforce(orbit, window, points, skipped) == arc_length_bruteforce_one_shot(
        orbit, window, points, one_shot
    )


class TestArcBruteforce:
    @pytest.mark.parametrize("points", [1, 2, 7, 1_000, 3 * 2**16 + 17])
    @pytest.mark.parametrize(
        "omega_deg, theta, altitude_km",
        [
            (10.0, math.pi / 2, 500.0),
            (0.0, math.pi / 2 + 0.3, 500.0),
            (30.0, math.pi / 2 - 0.1, 500.0),
            (85.0, math.pi / 2, 500.0),
            (10.0, math.pi / 2 + 0.2, 1_200.0),
            (10.0, math.pi / 2 - 1.0, GEO_KM),
            # at the band edge the inside run is narrower than the margins
            (10.0, math.pi / 2 + _band(10.0), 500.0),
            (10.0, math.pi / 2 + (1 - 1e-12) * _band(10.0), 500.0),
            (10.0, math.pi / 2 - (1 - 1e-12) * _band(10.0), 500.0),
            # outside the band: nothing is inside
            (45.0, 1.2, 500.0),
        ],
    )
    def test_skip_ahead_count_is_the_one_shot_count(self, points, omega_deg, theta, altitude_km):
        orbit, window = _shell(omega_deg, theta, altitude_km)
        _assert_skip_ahead_is_one_shot(orbit, window, points, 31)

    def test_skip_ahead_count_at_full_scale(self):
        # criterion 2's point count at trial scale 1
        orbit, window = _shell(10.0, math.pi / 2 + 0.5 * _band(10.0))
        _assert_skip_ahead_is_one_shot(orbit, window, 10_000_000, 31)

    def test_seeded_grid(self):
        # fixed random cases over altitude, elevation floor, inclination
        # (half of them near a band edge), point count and seed
        grid = np.random.default_rng(2024)
        for case in range(240):
            altitude_km = float(grid.uniform(300.0, GEO_KM))
            omega_deg = float(grid.uniform(0.0, 85.0))
            band = _band(omega_deg, altitude_km)
            if case % 2:
                offset = band * (1.0 - 10.0 ** grid.uniform(-13.0, -1.0))
            else:
                offset = min(band * grid.uniform(0.0, 1.2), math.pi / 2)
            theta = math.pi / 2 + float(grid.choice([-1.0, 1.0])) * offset
            points = int(10.0 ** grid.uniform(0.0, 5.0))
            orbit, window = _shell(omega_deg, theta, altitude_km)
            _assert_skip_ahead_is_one_shot(orbit, window, points, int(grid.integers(2**32)))

    @pytest.mark.parametrize(
        "seed, scale, line",
        # the lines of full-size draws, which the skip-ahead count reproduces
        [
            (7, 0.002, "(500000 points each): value=6.80549478e-05 bound=0.00223606798"),
            (7, 0.01, "(500000 points each): value=6.80549478e-05 bound=0.00223606798"),
            (7, 1.0, "(10000000 points each): value=4.25701409e-06 bound=0.0005"),
            (1729, 0.002, "(500000 points each): value=7.67536389e-05 bound=0.00223606798"),
            (1729, 0.01, "(500000 points each): value=7.67536389e-05 bound=0.00223606798"),
            (1729, 1.0, "(10000000 points each): value=2.17467299e-06 bound=0.0005"),
        ],
    )
    def test_report_lines_are_pinned(self, seed, scale, line):
        result = run_criterion(2, seed, scale)
        assert result.passed
        assert result.lines == [f"  worst relative error over 20 pairs {line} [ok]"]


class TestSeedStreams:
    def test_arc_bruteforce_stream_is_pinned(self, monkeypatch):
        # criterion 2 draws each pair from a generator of its own; PCG64's
        # raw output is stable across numpy releases, so these words of the
        # first pair's change only if the way its stream derives from the
        # gate seed does
        seeds = []

        def recording(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", recording)
        run_criterion(2, 7, SCALE)
        assert len(seeds) == 20
        assert default_rng(seeds[0]).bit_generator.random_raw(4).tolist() == [
            14538725049873081467,
            15635470227048689357,
            17633299175227879055,
            4043175229360343917,
        ]

    def test_no_two_checks_draw_one_stream(self, monkeypatch):
        # one entry per run: its criterion and its streams, named (entropy,
        # spawn key): an McConfig's batch streams SeedSequence(seed,
        # spawn_key=(i,)), or the one stream of a seed validation hands
        # default_rng itself; criterion 9's rerun of one seed is one run
        runs = []
        default_rng = np.random.default_rng

        def config(**kwargs):
            cfg = McConfig(**kwargs)
            runs.append((index, frozenset((cfg.seed, (i,)) for i in range(-(-cfg.trials // cfg.batch)))))
            return cfg

        def rng(seed):
            if sys._getframe(1).f_globals["__name__"] == validation.__name__:
                seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
                runs.append((index, frozenset({(seq.entropy, tuple(seq.spawn_key))})))
            return default_rng(seed)

        monkeypatch.setattr(validation, "McConfig", config)
        monkeypatch.setattr(np.random, "default_rng", rng)
        for index in range(1, 10):
            run_criterion(index, 7, SCALE)
        runs = [run for run in runs if run[0] != 9] + list(set(run for run in runs if run[0] == 9))
        assert collections.Counter(k for k, _ in runs) == {2: 20, 3: 15, 4: 2, 5: 5, 6: 1, 7: 3, 9: 2}
        drawn = [stream for _, streams in runs for stream in streams]
        assert len(drawn) == len(set(drawn))

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

    @pytest.mark.parametrize("cpus", [1, 2, 9])
    def test_report_does_not_depend_on_the_worker_count(self, sequential_reports, set_workers, cpus):
        # one CPU runs the criteria and their batches in order on this
        # thread; nine on fewer cores, with a short switch interval,
        # interleave the coverage passes' batches as finely as they get
        set_workers(cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_all(7, SCALE)
        finally:
            sys.setswitchinterval(interval)
        assert [r.index for r in report.results] == list(range(1, 10))
        assert render_report(report) == sequential_reports[7]

    def test_criteria_run_in_order_on_the_calling_thread(self, monkeypatch, set_workers):
        set_workers(4)
        calls = []

        def run_criterion(index, seed, trials_scale):
            calls.append((index, threading.get_ident()))
            return CriterionResult(index, validation.CRITERION_NAMES[index], True)

        monkeypatch.setattr(validation, "run_criterion", run_criterion)
        report = run_all(7, SCALE)
        assert calls == [(index, threading.get_ident()) for index in range(1, 10)]
        assert [r.index for r in report.results] == list(range(1, 10))

    def test_criterion_exception_propagates(self, monkeypatch):
        def run_criterion(index, seed, trials_scale):
            if index == 4:
                raise ZeroDivisionError("criterion 4")
            return CriterionResult(index, validation.CRITERION_NAMES[index], True)

        monkeypatch.setattr(validation, "run_criterion", run_criterion)
        with pytest.raises(ZeroDivisionError, match="criterion 4"):
            run_all(7, SCALE)


class TestFailingGate:
    """A missed check fails its criterion, the report and the CLI's exit
    code, and leaves every other line as it was."""

    @pytest.fixture
    def wrong_speed(self, monkeypatch):
        monkeypatch.setattr(validation, "orbital_speed", lambda orbit: 7000.0)

    def test_missed_near_fails_its_criterion(self, wrong_speed):
        result = run_criterion(1, 7, SCALE)
        assert not result.passed
        failed = [line for line in result.lines if line.endswith("[FAIL]")]
        assert len(failed) == 1
        assert failed[0].startswith("  orbital speed (m/s): value=7000 target=7616.5 ")
        assert all(line.endswith("[ok]") for line in result.lines if line not in failed)
        assert len(result.lines) == 7

    def test_missed_near_fails_the_report(self, wrong_speed):
        assert render_report(run_all(7, SCALE)).endswith("\nresult: FAIL (8/9)\n")

    def test_missed_near_fails_the_cli(self, wrong_speed, tmp_path, capsys):
        assert cli.main(["validate", "--trials", "2000", "--seed", "7", "--out", str(tmp_path)]) == 1
        report = (tmp_path / "validate_report.txt").read_text(encoding="utf-8")
        assert "criterion 1 (closed-form geometry anchors): FAIL" in report
        assert report.endswith("\nresult: FAIL (8/9)\n")
        assert report in capsys.readouterr().out

    def test_missed_bound_fails_its_criterion(self, monkeypatch):
        arc = validation.visible_arc_length
        monkeypatch.setattr(validation, "visible_arc_length", lambda orbit, window: 1.01 * arc(orbit, window))
        result = run_criterion(2, 7, SCALE)
        assert not result.passed
        assert len(result.lines) == 1
        assert result.lines[0].startswith("  worst relative error over 20 pairs (500000 points each): value=0.0099")
        assert result.lines[0].endswith(" bound=0.00223606798 [FAIL]")

    @pytest.mark.parametrize("index", [0, 10])
    def test_unknown_criterion_is_refused(self, index):
        with pytest.raises(ValueError, match=f"^no criterion {index}$"):
            run_criterion(index)
