"""Command line interface: verbs, result files, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import orbitcov.coverage as coverage
from orbitcov import LinkBudget, cli, empirical_sir_coverage, empirical_snr_sinr_coverage, montecarlo
from orbitcov.cli import (
    GEOMETRY_HEADER,
    RESULT_HEADER,
    ResultRow,
    main,
    read_result_rows,
    write_result_rows,
)
from orbitcov.config import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def write_scenario(tmp_path, name="scn.json", **extra):
    data = {
        "scenario_id": "cli_test",
        "window": {"omega_min_deg": 10.0},
        "orbits": [{"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005}],
        "thresholds": {"start_db": -10.0, "stop_db": 10.0, "step_db": 10.0},
    }
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestResultFile:
    def test_header_is_frozen(self):
        assert RESULT_HEADER == (
            "scenario_id,curve_kind,gamma_db,value,ci_low,ci_high,"
            "theta_deg,lambda_per_km,alpha,m,n_orbits,seed"
        )

    def test_round_trip(self, tmp_path):
        rows = [
            ResultRow(
                scenario_id="x",
                curve_kind="SIR-analytic",
                gamma_db=0.0,
                value=0.25,
                ci_low=None,
                ci_high=None,
                theta_deg=90.0,
                lambda_per_km=0.005,
                alpha=2.0,
                m=1.0,
                n_orbits=1,
                seed=None,
            ),
            ResultRow(
                scenario_id="x",
                curve_kind="SIR-MC",
                gamma_db=0.0,
                value=0.2501,
                ci_low=0.2475,
                ci_high=0.2527,
                theta_deg=90.0,
                lambda_per_km=0.005,
                alpha=2.0,
                m=1.0,
                n_orbits=1,
                seed=1729,
            ),
        ]
        path = tmp_path / "rows.csv"
        write_result_rows(path, rows)
        text = path.read_text()
        assert text.splitlines()[0] == RESULT_HEADER
        assert read_result_rows(path) == rows

    def test_floats_keep_full_precision(self, tmp_path):
        value = 0.123456789012345678
        row = ResultRow(
            scenario_id="x",
            curve_kind="SIR-analytic",
            gamma_db=-10.0,
            value=value,
            ci_low=None,
            ci_high=None,
            theta_deg=None,
            lambda_per_km=None,
            alpha=2.0,
            m=1.0,
            n_orbits=2,
            seed=None,
        )
        path = tmp_path / "rows.csv"
        write_result_rows(path, [row])
        assert read_result_rows(path)[0].value == value

    @pytest.mark.parametrize(
        "verb,extra",
        [
            (
                "coverage",
                {
                    "orbits": [
                        {"altitude_km": 500.0, "theta_deg": theta, "density_per_km": 0.005} for theta in (90.0, 80.0)
                    ],
                    "budget": {"tx_power_dbm": 0.0},
                    "mc": {"trials": 2000, "seed": 7, "batch": 1000},
                },
            ),
            ("sweep", {"sweep": {"parameter": "theta_deg", "values": [80.0, 90.0]}, "channel": {"m": 3}}),
        ],
        ids=["two-orbit-budget-mc", "analytic-sweep"],
    )
    def test_writer_reproduces_the_verbs_bytes(self, tmp_path, verb, extra):
        # the verbs format curves straight into lines; writing the rows read
        # back from their file must give the same bytes (one cell rule)
        cfg = write_scenario(tmp_path, **extra)
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
        written = out / f"cli_test_{verb}.csv"
        rows = read_result_rows(written)
        if verb == "coverage":
            assert all(r.theta_deg is None and r.lambda_per_km == 0.005 for r in rows)
            assert any(r.ci_low is not None for r in rows)
            deltas = [r for r in rows if r.curve_kind.endswith("-delta")]
            assert deltas and all(r.seed == 7 and r.ci_low is None and r.ci_high is None for r in deltas)
        else:
            assert {r.theta_deg for r in rows} == {80.0, 90.0}
        again = tmp_path / "again.csv"
        write_result_rows(again, rows)
        assert again.read_bytes() == written.read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_result_rows(path)

    @pytest.mark.parametrize(
        "line",
        [
            "x,SIR-analytic,0.0,0.25,,,90.0,0.005,2.0,1.0,1",
            "x,SIR-analytic,0.0,0.25,,,90.0,0.005,2.0,1.0,1,,7",
        ],
        ids=["short", "long"],
    )
    def test_rejects_row_of_wrong_length(self, tmp_path, line):
        path = tmp_path / "rows.csv"
        good = "x,SIR-analytic,-10.0,0.5,,,90.0,0.005,2.0,1.0,1,"
        path.write_text(f"{RESULT_HEADER}\n{good}\n{line}\n")
        with pytest.raises(ValueError, match="line 3"):
            read_result_rows(path)


class TestGeometryVerb:
    def test_writes_grid(self, tmp_path):
        cfg = write_scenario(
            tmp_path,
            geometry={
                "theta_start_deg": 80.0,
                "theta_stop_deg": 100.0,
                "theta_step_deg": 5.0,
                "omega_min_deg": [0.0, 10.0],
            },
        )
        out = tmp_path / "out"
        assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "cli_test_geometry.csv").read_text().splitlines()
        assert lines[0] == GEOMETRY_HEADER
        assert len(lines) == 1 + 2 * 5  # two windows, five inclinations
        # overhead row carries the frozen arc length
        overhead = [l for l in lines[1:] if l.split(",")[1] == "10.0" and l.split(",")[2] == "90.0"]
        assert len(overhead) == 1
        arc = float(overhead[0].split(",")[3])
        assert arc == pytest.approx(3371.3636249080196, abs=1e-6)

    def test_default_grid_spans_everything(self, tmp_path):
        # the default 1 degree grid and a 0.1 degree one: both end on 180
        for geometry, rows in (({}, 181), ({"geometry": {"theta_step_deg": 0.1}}, 1801)):
            cfg = write_scenario(tmp_path, **geometry)
            out = tmp_path / str(rows)
            assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0
            lines = (out / "cli_test_geometry.csv").read_text().splitlines()
            assert len(lines) == 1 + rows
            assert lines[1].split(",")[2] == "0.0" and lines[-1].split(",")[2] == "180.0"

    def test_empty_section_is_the_default_grid(self, tmp_path):
        bare = write_scenario(tmp_path, "bare.json")
        empty = write_scenario(tmp_path, "empty.json", geometry={})
        assert main(["geometry", "--config", str(bare), "--out", str(tmp_path / "a")]) == 0
        assert main(["geometry", "--config", str(empty), "--out", str(tmp_path / "b")]) == 0
        written = (tmp_path / "b" / "cli_test_geometry.csv").read_bytes()
        assert written == (tmp_path / "a" / "cli_test_geometry.csv").read_bytes()
        assert all(line.split(",")[1] == "10.0" for line in written.decode().splitlines()[1:])


class TestCoverageVerb:
    def test_analytic_only(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        kinds = {r.curve_kind for r in rows}
        assert kinds == {"SIR-analytic"}
        assert len(rows) == 3
        assert all(r.seed is None for r in rows)

    def test_with_simulation_and_deltas(self, tmp_path):
        cfg = write_scenario(tmp_path, mc={"trials": 4000, "seed": 5, "batch": 2000})
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        kinds = [r.curve_kind for r in rows]
        assert kinds == ["SIR-analytic"] * 3 + ["SIR-MC"] * 3 + ["SIR-delta"] * 3
        mc_rows = [r for r in rows if r.curve_kind == "SIR-MC"]
        assert all(r.seed == 5 for r in mc_rows)
        assert all(r.ci_low is not None and r.ci_high is not None for r in mc_rows)
        deltas = {r.gamma_db: r.value for r in rows if r.curve_kind == "SIR-delta"}
        analytic = {r.gamma_db: r.value for r in rows if r.curve_kind == "SIR-analytic"}
        sim = {r.gamma_db: r.value for r in rows if r.curve_kind == "SIR-MC"}
        for g, d in deltas.items():
            assert d == pytest.approx(analytic[g] - sim[g], abs=1e-15)

    def test_budget_adds_snr_and_sinr(self, tmp_path):
        cfg = write_scenario(
            tmp_path, budget={}, mc={"trials": 4000, "seed": 5, "batch": 2000}
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        kinds = [r.curve_kind for r in read_result_rows(out / "cli_test_coverage.csv")]
        expect = (
            ["SIR-analytic"] * 3
            + ["SNR-analytic"] * 3
            + ["SIR-MC"] * 3
            + ["SNR-MC"] * 3
            + ["SINR-MC"] * 3
            + ["SIR-delta"] * 3
            + ["SNR-delta"] * 3
        )
        assert kinds == expect

    def test_mc_rows_equal_the_public_estimators(self, tmp_path):
        # the verb scores SIR, SNR and SINR in one pass; calling the public
        # estimators one curve at a time must reproduce its rows exactly
        cfg_path = write_scenario(
            tmp_path, budget={"bandwidth_hz": 1e8}, mc={"trials": 6000, "seed": 8, "batch": 2500}
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        cfg = load_scenario(cfg_path)
        spec = cfg.constellation()
        assert cfg.budget == LinkBudget(bandwidth_hz=1e8)
        _, sir_u = empirical_sir_coverage(spec, cfg.thresholds_db, cfg.mc)
        _, snr_u, _, sinr_u = empirical_snr_sinr_coverage(spec, cfg.budget, cfg.thresholds_db, cfg.mc)
        for kind, curve in (("SIR-MC", sir_u), ("SNR-MC", snr_u), ("SINR-MC", sinr_u)):
            written = [r for r in rows if r.curve_kind == kind]
            assert tuple(r.value for r in written) == curve.values
            assert tuple(r.ci_low for r in written) == curve.ci_low
            assert tuple(r.ci_high for r in written) == curve.ci_high

    def test_multi_orbit_uses_best_satellite(self, tmp_path):
        cfg = write_scenario(
            tmp_path,
            orbits=[
                {"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005},
                {"altitude_km": 500.0, "theta_deg": 95.0, "density_per_km": 0.005},
            ],
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        assert {r.curve_kind for r in rows} == {"maxSIR-analytic"}
        assert all(r.n_orbits == 2 for r in rows)
        # the two rows differ in theta, so the shared column goes empty
        assert all(r.theta_deg is None for r in rows)

    def test_invisible_orbit_in_a_constellation_covers_nothing(self, tmp_path):
        # at 500 km and 10 deg, an orbit tilted 20 deg never enters the
        # window: the joint-visibility curve is 0, as for that orbit alone
        cfg = write_scenario(
            tmp_path,
            orbits=[
                {"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005},
                {"altitude_km": 500.0, "theta_deg": 20.0, "density_per_km": 0.005},
            ],
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        assert [r.curve_kind for r in rows] == ["maxSIR-analytic"] * 3
        assert all(r.value == 0.0 for r in rows)

    def test_invisible_orbit_in_a_constellation_simulates_to_nothing(self, tmp_path):
        # the simulation writes the joint curve over all trials, which is 0
        # when one orbit is never visible, although no trial survives the
        # conditioning of the curve it does not write
        cfg = write_scenario(
            tmp_path,
            orbits=[
                {"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005},
                {"altitude_km": 500.0, "theta_deg": 20.0, "density_per_km": 0.005},
            ],
            mc={"trials": 2000, "seed": 5, "batch": 500},
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        assert [r.curve_kind for r in rows] == ["maxSIR-analytic"] * 3 + ["maxSIR-MC"] * 3 + ["maxSIR-delta"] * 3
        assert all(r.value == 0.0 for r in rows)

    def test_two_orbit_snr_agrees_with_simulation(self, tmp_path):
        # at 0 dBm the best-satellite SNR curve falls through 0.5 inside
        # the grid, so the comparison is not made only on saturated values
        cfg = write_scenario(
            tmp_path,
            orbits=[{"altitude_km": 500.0, "theta_deg": theta, "density_per_km": 0.005} for theta in (90.0, 80.0)],
            thresholds={"start_db": -10.0, "stop_db": 30.0, "step_db": 5.0},
            budget={"tx_power_dbm": 0.0},
            mc={"trials": 20_000, "seed": 3, "batch": 5000},
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        analytic = [r.value for r in rows if r.curve_kind == "maxSNR-analytic"]
        assert analytic[0] > 0.5 > analytic[-1]
        simulated = [r for r in rows if r.curve_kind == "maxSNR-MC"]
        deltas = [r.value for r in rows if r.curve_kind == "maxSNR-delta"]
        assert len(deltas) == len(simulated) == 9
        for delta, mc in zip(deltas, simulated):
            assert abs(delta) <= 4.0 * 0.5 * (mc.ci_high - mc.ci_low)

    def test_out_of_band_orbit_zeroes_the_snr_curves(self, tmp_path):
        # joint visibility never happens, so no noise-limited curve can
        # cover anything either
        cfg = write_scenario(
            tmp_path,
            orbits=[
                {"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005},
                {"altitude_km": 500.0, "theta_deg": 20.0, "density_per_km": 0.005},
            ],
            budget={},
            mc={"trials": 2000, "seed": 5, "batch": 500},
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        kinds = ["maxSNR-analytic", "maxSNR-MC", "maxSINR-MC", "maxSNR-delta"]
        noise_limited = [r for r in rows if r.curve_kind in kinds]
        assert [r.curve_kind for r in noise_limited] == [k for k in kinds for _ in range(3)]
        assert all(r.value == 0.0 for r in noise_limited)

    def test_non_integer_m_with_several_orbits_and_budget(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path,
            orbits=[{"altitude_km": 500.0, "theta_deg": theta, "density_per_km": 0.005} for theta in (90.0, 80.0)],
            channel={"m": 1.5},
            budget={},
            mc={"trials": 2000, "seed": 5, "batch": 1000},
        )
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        assert "analytic curves skipped" in capsys.readouterr().out
        kinds = [r.curve_kind for r in read_result_rows(out / "cli_test_coverage.csv")]
        assert kinds == [k for k in ("maxSIR-MC", "maxSNR-MC", "maxSINR-MC") for _ in range(3)]

    def test_trials_flag_enables_simulation(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["coverage", "--config", str(cfg), "--out", str(out), "--trials", "2000", "--seed", "9"]
        )
        assert rc == 0
        kinds = {r.curve_kind for r in read_result_rows(out / "cli_test_coverage.csv")}
        assert "SIR-MC" in kinds

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_scenario(tmp_path, mc={"trials": 3000, "seed": 11, "batch": 1000})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["coverage", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["coverage", "--config", str(cfg), "--out", str(out_b)]) == 0
        a = (out_a / "cli_test_coverage.csv").read_bytes()
        b = (out_b / "cli_test_coverage.csv").read_bytes()
        assert a == b

    def test_seeded_reruns_in_separate_processes_match(self, tmp_path):
        # a budget on two orbits: fresh interpreters draw the same streams
        # for maxSIR, maxSNR and maxSINR and write the same bytes
        cfg = tmp_path / "two.json"
        orbits = [{"altitude_km": 500.0, "theta_deg": theta, "density_per_km": 0.005} for theta in (90.0, 80.0)]
        cfg.write_text(
            json.dumps(
                {
                    "scenario_id": "two",
                    "window": {"omega_min_deg": 10.0},
                    "orbits": orbits,
                    "budget": {"tx_power_dbm": 0.0},
                    "mc": {"trials": 2000, "seed": 7},
                }
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        written = []
        for run in ("a", "b"):
            out = tmp_path / run
            done = subprocess.run(
                [sys.executable, "-m", "orbitcov.cli", "coverage", "--config", str(cfg), "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            written.append((out / "two_coverage.csv").read_bytes())
        assert written[0] == written[1]
        assert "maxSINR-MC" in {r.curve_kind for r in read_result_rows(tmp_path / "a" / "two_coverage.csv")}

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        # the analytic kernel reduces its tiles through BLAS matrix-vector
        # products; one BLAS thread or the library's default must write the
        # same m = 3 sweep, byte for byte
        cfg = tmp_path / "map.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario_id": "map",
                    "window": {"omega_min_deg": 10.0},
                    "orbits": [{"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005}],
                    "channel": {"alpha": 2.0, "m": 3, "g_i_bar_db": -13.0},
                    "budget": {"tx_power_dbm": 40.0},
                    "thresholds": {"start_db": -10.0, "stop_db": 30.0, "step_db": 1.0},
                    "sweep": {"parameter": "theta_deg", "values": [76.5 + 3.0 * k for k in range(10)]},
                }
            )
        )
        written = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
            if threads is not None:
                env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = tmp_path / f"threads-{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "orbitcov.cli", "sweep", "--config", str(cfg), "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            written.append((out / "map_sweep.csv").read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"SIR-analytic") == 41 * 10

    def test_seed_changes_simulated_rows(self, tmp_path):
        cfg = write_scenario(tmp_path, mc={"trials": 3000, "seed": 11, "batch": 1000})
        out = tmp_path / "out"
        main(["coverage", "--config", str(cfg), "--out", str(out)])
        base = read_result_rows(out / "cli_test_coverage.csv")
        main(["coverage", "--config", str(cfg), "--out", str(out), "--seed", "12"])
        alt = read_result_rows(out / "cli_test_coverage.csv")
        base_mc = [r.value for r in base if r.curve_kind == "SIR-MC"]
        alt_mc = [r.value for r in alt if r.curve_kind == "SIR-MC"]
        assert base_mc != alt_mc

    def test_non_integer_m_needs_simulation(self, tmp_path):
        cfg = write_scenario(tmp_path, channel={"m": 1.5})
        out = tmp_path / "out"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 1
        rc = main(["coverage", "--config", str(cfg), "--out", str(out), "--trials", "2000"])
        assert rc == 0
        kinds = {r.curve_kind for r in read_result_rows(out / "cli_test_coverage.csv")}
        assert kinds == {"SIR-MC"}


class TestSweepVerb:
    def test_combined_file_in_value_order(self, tmp_path):
        cfg = write_scenario(
            tmp_path,
            sweep={"parameter": "density_per_km", "values": [0.001, 0.005, 0.01]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "3"]) == 0
        rows = read_result_rows(out / "cli_test_sweep.csv")
        ids = [r.scenario_id for r in rows]
        assert ids == (
            ["cli_test__density_per_km_0.001"] * 3
            + ["cli_test__density_per_km_0.005"] * 3
            + ["cli_test__density_per_km_0.01"] * 3
        )
        assert [r.lambda_per_km for r in rows] == [0.001] * 3 + [0.005] * 3 + [0.01] * 3

    @pytest.mark.parametrize(
        "extra",
        [
            {"sweep": {"parameter": "alpha", "values": [2.0, 3.0]}, "mc": {"trials": 2000, "seed": 3, "batch": 1000}},
            # analytic only: --jobs draws no batches here, so it must change nothing
            {
                "sweep": {"parameter": "theta_deg", "values": [80.0, 85.0, 90.0, 95.0]},
                "channel": {"m": 3},
                "thresholds": {"start_db": -10.0, "stop_db": 30.0, "step_db": 1.0},
            },
        ],
        ids=["mc", "analytic"],
    )
    def test_jobs_do_not_change_bytes(self, tmp_path, extra):
        cfg = write_scenario(tmp_path, **extra)
        # one job simulates on the calling thread, more also on the pool
        written = []
        for jobs in ("1", "2", "4"):
            out = tmp_path / jobs
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
            written.append((out / "cli_test_sweep.csv").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_variants_run_in_order_on_the_calling_thread(self, tmp_path, monkeypatch, set_workers):
        # the variants never leave the calling thread; --jobs caps the
        # threads that run one variant's batches, and one is this thread
        set_workers(3)
        variants, batch_threads, running = [], set(), [0, 0]  # now, most at once
        lock = threading.Lock()
        coverage_rows, sir_batch = cli.coverage_rows, montecarlo._sir_batch

        def spy(cfg, mc, jobs):
            variants.append((cfg.channel.alpha, threading.get_ident()))
            return coverage_rows(cfg, mc, jobs)

        def batch_spy(*args):
            with lock:
                batch_threads.add(threading.get_ident())
                running[0] += 1
                running[1] = max(running)
            try:
                return sir_batch(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(cli, "coverage_rows", spy)
        monkeypatch.setattr(montecarlo, "_sir_batch", batch_spy)
        mc = {"trials": 3000, "seed": 3, "batch": 500}
        cfg = write_scenario(tmp_path, sweep={"parameter": "alpha", "values": [2.0, 3.0, 4.0]}, mc=mc)
        me = threading.get_ident()
        for jobs in ("1", "2"):
            variants.clear()
            batch_threads.clear()
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
            assert variants == [(2.0, me), (3.0, me), (4.0, me)]
            if jobs == "1":
                assert batch_threads == {me}
        assert running[1] <= 2

    def test_worker_count_does_not_change_bytes(self, tmp_path, set_workers):
        # a two-orbit coverage with a budget over six batches, and an MC
        # sweep, at one, two and nine workers
        orbits = [
            {"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005},
            {"altitude_km": 500.0, "theta_deg": 84.0, "density_per_km": 0.002},
        ]
        budget = {"tx_power_dbm": 40.0, "serving_gain_db": 30.0, "bandwidth_hz": 1.0e7}
        mc = {"trials": 3000, "seed": 5, "batch": 500}
        coverage_cfg = write_scenario(tmp_path, "two.json", orbits=orbits, budget=budget, mc=mc)
        sweep = {"parameter": "density_per_km", "values": [0.001, 0.005]}
        sweep_cfg = write_scenario(tmp_path, "sweep.json", sweep=sweep, mc=mc)
        written = []
        for workers in (1, 2, 9):
            set_workers(workers)
            out = tmp_path / str(workers)
            assert main(["coverage", "--config", str(coverage_cfg), "--out", str(out)]) == 0
            assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out), "--jobs", "9"]) == 0
            written.append([(out / name).read_bytes() for name in ("cli_test_coverage.csv", "cli_test_sweep.csv")])
        assert written[1] == written[0] and written[2] == written[0]
        assert b"maxSINR-MC" in written[0][0]

    def test_sweep_needs_section(self, tmp_path):
        cfg = write_scenario(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_sweep_value(self, tmp_path):
        cfg = write_scenario(
            tmp_path, sweep={"parameter": "density_per_km", "values": [0.001, -1.0]}
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


    @pytest.mark.parametrize("verb", ["sweep", "coverage"])
    @pytest.mark.parametrize("parameter,good", [("density_per_km", 0.005), ("alpha", 2.0), ("m", 1.0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sweep_value_fails_every_verb(self, tmp_path, capsys, verb, parameter, good, bad):
        cfg = write_scenario(tmp_path, sweep={"parameter": parameter, "values": [good, bad]})
        out = tmp_path / "o"
        assert main([verb, "--config", str(cfg), "--out", str(out), "--trials", "2000"]) == 2
        assert "sweep.values[1]" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_colliding_scenario_ids_rejected(self, tmp_path, capsys):
        # ids print the value with {:g}: these two would share one id
        cfg = write_scenario(tmp_path, sweep={"parameter": "alpha", "values": [2.0, 1.0, 1.0000001]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "sweep.values[2]" in err and "sweep.values[1]" in err
        assert not (tmp_path / "o" / "cli_test_sweep.csv").exists()


class TestReadmeScenario:
    def test_documented_scenario_sweeps(self, tmp_path, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Scenario files", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "readme.json"
        path.write_text(block, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--trials", "2000"]) == 0
        ids = {row.scenario_id for row in read_result_rows(out / "leo500_sweep.csv")}
        assert ids == {"leo500__density_per_km_0.001", "leo500__density_per_km_0.005", "leo500__density_per_km_0.01"}


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_scenario(tmp_path)
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_compute_error_is_one(self, tmp_path):
        # a visible-window mismatch surfaces during the computation
        cfg = write_scenario(tmp_path, channel={"m": 2.5})
        assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_analytic_overshoot_is_one(self, tmp_path, capsys, monkeypatch):
        # a raw analytic value beyond the 1e-12 rounding slack of [0, 1]
        # fails the run rather than being clipped into the result file
        monkeypatch.setattr(coverage, "_sir_conditional", lambda *args: np.full(args[-1].size, 1.5))
        cfg = write_scenario(tmp_path)
        out = tmp_path / "o"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "leaves [0, 1]" in err and err.count("\n") == 1
        assert not list(out.iterdir())

    def test_steep_path_loss_fails_only_the_simulation(self, tmp_path, capsys):
        # at alpha = 150 every simulated serving path loss underflows and
        # SIR-MC would read 0 at every threshold, against an analytic
        # 0.9988 at -10 dB; the analytic curve alone is well defined
        grid = {"start_db": -10.0, "stop_db": 30.0, "step_db": 20.0}
        cfg = write_scenario(tmp_path, channel={"alpha": 150.0}, thresholds=grid)
        out = tmp_path / "o"
        assert main(["coverage", "--config", str(cfg), "--out", str(out), "--trials", "4000", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert "alpha=150.0" in err
        assert err.count("\n") == 1
        assert not list(out.iterdir())
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_result_rows(out / "cli_test_coverage.csv")
        assert [row.curve_kind for row in rows] == ["SIR-analytic"] * 3
        assert rows[0].value == pytest.approx(0.9988, abs=1e-4)

    def test_config_error_is_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"orbits": []}))
        assert main(["coverage", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        missing = tmp_path / "absent.json"
        assert main(["coverage", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "section,value,path",
        [
            ("thresholds", {"start_db": -10.0, "stop_db": 4000.0, "step_db": 500.0}, "thresholds.stop_db"),
            ("thresholds", {"start_db": -4000.0, "stop_db": 10.0, "step_db": 500.0}, "thresholds.start_db"),
            ("budget", {"tx_power_dbm": 1e300}, "budget.tx_power_dbm"),
        ],
    )
    def test_decibel_overflow_is_two(self, tmp_path, capsys, section, value, path):
        cfg = write_scenario(tmp_path, **{section: value})
        assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,value,path",
        [
            ("channel", {"m": 200}, "channel.m"),
            ("orbits", [{"altitude_km": 1e6, "theta_deg": 90.0, "density_per_km": 0.005}], "orbits[0].altitude_km"),
            ("orbits", [{"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 1e3}], "orbits[0].density_per_km"),
            ("mc", {"trials": 1000, "batch": 10**9}, "mc.batch"),
        ],
    )
    def test_past_the_stated_domain_is_two(self, tmp_path, capsys, section, value, path):
        cfg = write_scenario(tmp_path, **{section: value})
        out = tmp_path / "o"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 2
        assert path in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("verb", ["geometry", "coverage"])
    @pytest.mark.parametrize("constant", [1e-300, 1e300])
    def test_earth_without_a_finite_orbital_speed_is_two(self, tmp_path, capsys, verb, constant):
        # G M underflows to 0 (the geometry verb once died dividing by the
        # speed) or overflows to inf (it once wrote an inf speed)
        cfg = write_scenario(tmp_path, earth={"gravitational_constant": constant, "mass_kg": constant})
        out = tmp_path / "o"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "earth: " in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("earth,altitude_km", [({}, 1e-12), ({"radius_km": 1e6}, 0.01), ({"radius_km": 1e9}, 10.0)])
    def test_orbit_too_low_for_its_earth_radius_is_two(self, tmp_path, capsys, earth, altitude_km):
        # these once printed a numpy warning and exited 1, or exited 0 after
        # a divide by zero in the simulation
        orbits = [{"altitude_km": altitude_km, "theta_deg": 90.0, "density_per_km": 0.005}]
        cfg = write_scenario(tmp_path, earth=earth, window={"omega_min_deg": 0.0}, orbits=orbits, mc={"trials": 1000})
        out = tmp_path / "o"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "orbits[0].altitude_km: must be >= 1e-06 x earth.radius_km" in err
        assert not list(out.iterdir())

    def test_budget_on_several_orbits_is_zero(self, tmp_path):
        # the budget was once dropped without notice, then refused; now it
        # adds the best-satellite SNR and SINR curves
        orbits = [{"altitude_km": 500.0, "theta_deg": theta, "density_per_km": 0.005} for theta in (90.0, 80.0)]
        cfg = write_scenario(tmp_path, orbits=orbits, budget={}, mc={"trials": 2000, "seed": 5, "batch": 1000})
        out = tmp_path / "o"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
        kinds = [r.curve_kind for r in read_result_rows(out / "cli_test_coverage.csv")]
        expect = ["maxSIR-analytic", "maxSNR-analytic", "maxSIR-MC", "maxSNR-MC", "maxSINR-MC"]
        assert kinds == [k for k in expect + ["maxSIR-delta", "maxSNR-delta"] for _ in range(3)]

    def test_id_with_trailing_newline_is_two(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scenario_id="leo\n")
        out = tmp_path / "o"
        assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 2
        assert "scenario_id" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_usage_error_is_three(self, tmp_path):
        assert main(["coverage"]) == 3  # --config is required
        assert main(["unknown-verb"]) == 3
        cfg = write_scenario(tmp_path)
        rc = main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "o"), "--trials", "0"])
        assert rc == 3

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        cfg = write_scenario(tmp_path, sweep={"parameter": "alpha", "values": [2.0]})
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 3
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error_on_validate(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 3
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o" / "validate_report.txt").exists()

    def test_negative_seed_is_usage_error_on_scenario_verbs(self, tmp_path):
        cfg = write_scenario(
            tmp_path,
            sweep={"parameter": "alpha", "values": [2.0]},
            mc={"trials": 2000, "seed": 3, "batch": 1000},
        )
        for verb in ("geometry", "coverage", "sweep"):
            out = tmp_path / verb
            assert main([verb, "--config", str(cfg), "--out", str(out), "--seed", "-3"]) == 3
            assert not out.exists()

    def test_geometry_takes_no_simulation_flags(self, tmp_path, capsys):
        # geometry simulates nothing, so --seed and --trials are not options there
        cfg = write_scenario(tmp_path)
        for flag in ("--seed", "--trials"):
            out = tmp_path / flag.strip("-")
            assert main(["geometry", "--config", str(cfg), "--out", str(out), flag, "5"]) == 3
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "geometry" in out and "validate" in out
