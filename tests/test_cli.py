"""Command line interface: verbs, result files, exit codes."""

import json
import math

import pytest

from orbitcov import LinkBudget, empirical_sir_coverage, empirical_snr_sinr_coverage
from orbitcov.cli import (
    GEOMETRY_HEADER,
    RESULT_HEADER,
    ResultRow,
    main,
    read_result_rows,
    write_result_rows,
)
from orbitcov.config import load_scenario


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

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
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
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "cli_test_geometry.csv").read_text().splitlines()
        assert len(lines) == 1 + 181


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

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write_scenario(
            tmp_path,
            sweep={"parameter": "alpha", "values": [2.0, 3.0]},
            mc={"trials": 2000, "seed": 3, "batch": 1000},
        )
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["sweep", "--config", str(cfg), "--out", str(a), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(b), "--jobs", "4"]) == 0
        assert (a / "cli_test_sweep.csv").read_bytes() == (b / "cli_test_sweep.csv").read_bytes()

    def test_sweep_needs_section(self, tmp_path):
        cfg = write_scenario(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_sweep_value(self, tmp_path):
        cfg = write_scenario(
            tmp_path, sweep={"parameter": "density_per_km", "values": [0.001, -1.0]}
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


    def test_colliding_scenario_ids_rejected(self, tmp_path, capsys):
        # ids print the value with {:g}: these two would share one id
        cfg = write_scenario(tmp_path, sweep={"parameter": "alpha", "values": [2.0, 1.0, 1.0000001]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "sweep.values[2]" in err and "sweep.values[1]" in err
        assert not (tmp_path / "o" / "cli_test_sweep.csv").exists()


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_scenario(tmp_path)
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_compute_error_is_one(self, tmp_path):
        # a visible-window mismatch surfaces during the computation
        cfg = write_scenario(tmp_path, channel={"m": 2.5})
        assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

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
