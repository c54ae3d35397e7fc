"""Scenario file parsing and validation."""

import json
import math

import pytest

from orbitcov.config import ConfigError, load_scenario, parse_scenario


def minimal(**extra):
    data = {
        "scenario_id": "unit",
        "orbits": [{"altitude_km": 500.0, "theta_deg": 90.0, "density_per_km": 0.005}],
    }
    data.update(extra)
    return data


class TestParse:
    def test_minimal_scenario_defaults(self):
        cfg = parse_scenario(minimal())
        assert cfg.scenario_id == "unit"
        assert cfg.omega_min_deg == 0.0
        assert cfg.earth.radius_km == 6371.0
        assert cfg.channel.alpha == 2.0
        assert cfg.channel.m == 1.0
        assert cfg.budget is None
        assert cfg.mc is None
        assert cfg.thresholds_db[0] == -10.0
        assert cfg.thresholds_db[-1] == 30.0
        assert len(cfg.thresholds_db) == 9

    def test_constellation_round_trip(self):
        cfg = parse_scenario(
            minimal(window={"omega_min_deg": 10.0})
        )
        spec = cfg.constellation()
        assert spec.n_orbits == 1
        assert spec.orbits[0].theta_rad == pytest.approx(math.pi / 2)
        assert spec.window.omega_min_rad == pytest.approx(math.radians(10.0))
        assert spec.densities_per_km == (0.005,)

    def test_boundary_inclination_stays_legal(self):
        # 180 degrees must not round past pi when converted
        data = minimal()
        data["orbits"][0]["theta_deg"] = 180.0
        cfg = parse_scenario(data)
        assert cfg.orbits()[0].theta_rad <= math.pi

    def test_mc_section(self):
        cfg = parse_scenario(minimal(mc={"trials": 5000, "seed": 7, "batch": 1000}))
        assert cfg.mc is not None
        assert (cfg.mc.trials, cfg.mc.seed, cfg.mc.batch) == (5000, 7, 1000)

    def test_budget_presence_toggles(self):
        cfg = parse_scenario(minimal(budget={}))
        assert cfg.budget is not None
        assert cfg.budget.tx_power_dbm == 40.0
        assert cfg.budget.noise_power_dbm == pytest.approx(-93.0)

    def test_channel_gain_in_decibels(self):
        cfg = parse_scenario(minimal(channel={"g_i_bar_db": -20.0}))
        assert cfg.channel.g_i_bar == pytest.approx(0.01, rel=1e-12)

    def test_sweep_section(self):
        cfg = parse_scenario(
            minimal(sweep={"parameter": "altitude_km", "values": [400, 500, 600]})
        )
        assert cfg.sweep is not None
        assert cfg.sweep.values == (400.0, 500.0, 600.0)

    def test_geometry_section(self):
        cfg = parse_scenario(
            minimal(geometry={"theta_start_deg": 45.0, "theta_stop_deg": 135.0,
                              "theta_step_deg": 5.0, "omega_min_deg": [0.0, 10.0]})
        )
        assert cfg.geometry is not None
        assert cfg.geometry.omega_min_deg == (0.0, 10.0)


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario(minimal(extra_knob=1))

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="channel"):
            parse_scenario(minimal(channel={"alpha": 2.0, "spread": 1.0}))

    def test_unknown_orbit_key(self):
        data = minimal()
        data["orbits"][0]["eccentricity"] = 0.1
        with pytest.raises(ConfigError, match=r"orbits\[0\]"):
            parse_scenario(data)

    def test_missing_orbits(self):
        with pytest.raises(ConfigError, match="orbits"):
            parse_scenario({"scenario_id": "x"})

    def test_empty_orbits(self):
        with pytest.raises(ConfigError):
            parse_scenario({"scenario_id": "x", "orbits": []})

    def test_mixed_altitudes(self):
        data = minimal()
        data["orbits"].append(
            {"altitude_km": 600.0, "theta_deg": 90.0, "density_per_km": 0.005}
        )
        with pytest.raises(ConfigError, match="altitude"):
            parse_scenario(data)

    def test_bad_scenario_id(self):
        for bad in ("", "has space", "-leading", 7):
            with pytest.raises(ConfigError):
                parse_scenario(minimal(scenario_id=bad))

    def test_range_checks(self):
        data = minimal()
        data["orbits"][0]["theta_deg"] = 181.0
        with pytest.raises(ConfigError, match="<= 180"):
            parse_scenario(data)
        with pytest.raises(ConfigError, match="< 90"):
            parse_scenario(minimal(window={"omega_min_deg": 90.0}))
        with pytest.raises(ConfigError):
            parse_scenario(minimal(channel={"m": 0.4}))

    def test_boolean_is_not_a_number(self):
        data = minimal()
        data["orbits"][0]["density_per_km"] = True
        with pytest.raises(ConfigError, match="number"):
            parse_scenario(data)

    def test_non_finite_rejected(self):
        data = minimal()
        data["orbits"][0]["altitude_km"] = float("inf")
        with pytest.raises(ConfigError):
            parse_scenario(data)

    def test_mc_types(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_scenario(minimal(mc={"trials": 1000.5}))
        with pytest.raises(ConfigError):
            parse_scenario(minimal(mc={"trials": True}))

    def test_bad_sweep_parameter(self):
        with pytest.raises(ConfigError, match="sweep.parameter"):
            parse_scenario(minimal(sweep={"parameter": "color", "values": [1.0]}))

    def test_invisible_constellation_parses(self):
        # an orbit outside the window band is still a valid scenario; the
        # geometry sweep wants it, and coverage rejects it at compute time
        data = minimal(window={"omega_min_deg": 10.0})
        data["orbits"][0]["theta_deg"] = 20.0
        cfg = parse_scenario(data)
        with pytest.raises(ValueError, match="window"):
            from orbitcov.coverage import max_sir_coverage_conditional

            max_sir_coverage_conditional(cfg.constellation(), 1.0)

    def test_thresholds_order(self):
        with pytest.raises(ConfigError, match="stop_db"):
            parse_scenario(minimal(thresholds={"start_db": 10.0, "stop_db": 0.0}))

    def test_non_mapping_input(self):
        with pytest.raises(ConfigError):
            parse_scenario([1, 2, 3])


class TestDecibelBounds:
    """Every dB field keeps its linear value finite and nonzero; a field
    out of range is a ConfigError naming it, never an OverflowError or a
    threshold of 0 found later by the library."""

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("channel", "g_i_bar_db", -4000.0),
            ("budget", "tx_power_dbm", 1e300),
            ("budget", "serving_gain_db", 4000.0),
            ("budget", "noise_density_dbm_hz", -4000.0),
            ("budget", "noise_figure_db", 4000.0),
            ("thresholds", "start_db", -4000.0),
            ("thresholds", "stop_db", 4000.0),
        ],
    )
    def test_field_out_of_range(self, section, key, value):
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(**{section: {key: value}}))
        assert caught.value.path == f"{section}.{key}"

    def test_link_budget_ratio_out_of_range(self):
        # each field is in range, but a 1e-300 Hz bandwidth puts
        # P G / sigma^2 at 3233 dB
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(budget={"bandwidth_hz": 1e-300}))
        assert caught.value.path == "budget"

    def test_grid_size_is_capped(self):
        cfg = parse_scenario(minimal(thresholds={"start_db": -500.0, "stop_db": 499.9, "step_db": 0.1}))
        assert len(cfg.thresholds_db) == 10_000
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(thresholds={"start_db": -500.0, "stop_db": 500.0, "step_db": 0.1}))
        assert caught.value.path == "thresholds.step_db"


class TestLoad:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal(window={"omega_min_deg": 10.0})))
        cfg = load_scenario(path)
        assert cfg.scenario_id == "unit"
        assert cfg.omega_min_deg == 10.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            load_scenario(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(path)
