"""Full-scale acceptance gate.

Each test runs one numbered validation criterion at its default trial
budget, prints a single pass/fail line to the terminal, and fails with
the criterion's own check lines when something is off. Criterion 9 also
exercises the installed command line end to end.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbitcov import OrbitGeometry, VisibilityWindow, orbital_speed, visible_arc_length, visible_time
from orbitcov.validation import CRITERION_NAMES, DEFAULT_SEED, run_criterion

pytestmark = pytest.mark.acceptance


def run_and_report(index, capsys, budget_s=None):
    result = run_criterion(index)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[criterion {index}] {result.name}: {status} ({result.elapsed_s:.1f} s)")
    detail = "\n".join(result.lines)
    assert result.passed, f"criterion {index} failed:\n{detail}"
    if budget_s is not None:
        assert result.elapsed_s < budget_s, (
            f"criterion {index} took {result.elapsed_s:.1f} s, budget {budget_s} s"
        )
    return result


def test_criterion_1_geometry_anchors(capsys):
    assert CRITERION_NAMES[1] == "closed-form geometry anchors"
    # the closed forms themselves are sub-millisecond
    orbit = OrbitGeometry(500.0, math.pi / 2)
    window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbit)
    t0 = time.perf_counter()
    visible_arc_length(orbit, window)
    orbital_speed(orbit)
    visible_time(orbit, window)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    run_and_report(1, capsys)


def test_criterion_2_arc_bruteforce(capsys):
    run_and_report(2, capsys, budget_s=1.0)


def test_criterion_3_nearest_distance(capsys):
    run_and_report(3, capsys, budget_s=20.0)


def test_criterion_4_interference_transform(capsys):
    run_and_report(4, capsys, budget_s=8.0)


def test_criterion_5_sir_coverage(capsys):
    run_and_report(5, capsys, budget_s=600.0)


def test_criterion_6_snr_sinr_coverage(capsys):
    run_and_report(6, capsys)


def test_criterion_7_orbit_diversity(capsys):
    run_and_report(7, capsys)


def test_criterion_8_parameter_trends(capsys):
    run_and_report(8, capsys)


def test_criterion_9_determinism(capsys, tmp_path):
    run_and_report(9, capsys)
    # same seed and trial budget through the real entry point: the report
    # must come back byte for byte identical, with matching exit codes; at
    # 20,000 trials criteria 3, 4 and 6 draw several batches each, and
    # criterion 6 spreads its batches over threads
    def run(out_dir: Path, seed: int, trials: int):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "orbitcov.cli",
                "validate",
                "--seed",
                str(seed),
                "--trials",
                str(trials),
                "--out",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        report = (out_dir / "validate_report.txt").read_bytes()
        return proc.returncode, report

    for seed, trials in ((DEFAULT_SEED, 2_000), (7, 20_000)):
        rc_a, report_a = run(tmp_path / f"{trials}a", seed, trials)
        rc_b, report_b = run(tmp_path / f"{trials}b", seed, trials)
        with capsys.disabled():
            print(
                f"[criterion 9] command line rerun, seed {seed}, {trials} trials: "
                f"exit {rc_a}/{rc_b}, reports equal: {report_a == report_b}"
            )
        assert rc_a == rc_b
        assert report_a == report_b
        assert rc_a == 0, report_a.decode()
