"""Scenario file parsing and validation."""

import dataclasses
import json
import math

import pytest

from orbitcov import ChannelParams, EarthConstants, LinkBudget, McConfig
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
        # left-out keys take the library types' defaults, every one of them
        assert cfg.earth == EarthConstants()
        assert cfg.channel == ChannelParams()
        given = parse_scenario(minimal(budget={}, mc={}))
        assert given.budget == LinkBudget()
        assert given.mc == McConfig()

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
        for bad in ("", "has space", "-leading", "trailing\n", 7):
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
        # the upper ends of the stated domain
        with pytest.raises(ConfigError, match=r"^channel\.m: must be <= 10"):
            parse_scenario(minimal(channel={"m": 200.0}))
        for key, value in (("altitude_km", 1e6), ("altitude_km", 35786.001), ("density_per_km", 1e3)):
            data = minimal()
            data["orbits"][0][key] = value
            with pytest.raises(ConfigError, match=rf"^orbits\[0\]\.{key}: must be <="):
                parse_scenario(data)
        with pytest.raises(ConfigError, match=r"^mc\.batch: must be <= 1000000"):
            parse_scenario(minimal(mc={"batch": 10**9}))

    def test_upper_ends_are_accepted(self):
        data = minimal(channel={"m": 10}, mc={"batch": 1_000_000})
        data["orbits"][0].update(altitude_km=35786.0, density_per_km=10.0)
        cfg = parse_scenario(data)
        densities = cfg.constellation().densities_per_km
        assert (cfg.channel.m, cfg.orbit_rows[0].altitude_km, densities) == (10.0, 35786.0, (10.0,))
        assert cfg.mc.batch == 1_000_000

    def test_budget_on_several_orbits_parses(self):
        # SNR and SINR combine orbits through the best satellite, as SIR does
        data = minimal(budget={"tx_power_dbm": 0.0})
        data["orbits"].append({"altitude_km": 500.0, "theta_deg": 80.0, "density_per_km": 0.005})
        cfg = parse_scenario(data)
        assert cfg.budget == LinkBudget(tx_power_dbm=0.0)
        assert cfg.constellation().n_orbits == 2

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
        # an orbit outside the window band is still a valid scenario: the
        # geometry verb wants it and the coverage curves give 0 for it; only
        # the coverage conditioned on visibility raises
        data = minimal(window={"omega_min_deg": 10.0})
        data["orbits"][0]["theta_deg"] = 20.0
        cfg = parse_scenario(data)
        with pytest.raises(ValueError, match="window"):
            from orbitcov.coverage import coverage_conditional

            coverage_conditional(cfg.constellation(), 1.0)

    @pytest.mark.parametrize("constant", [1e-300, 1e300])
    def test_earth_whose_orbital_speed_is_not_finite_and_positive(self, constant):
        # each constant is legal, but G M underflows to 0 or overflows to
        # inf: the geometry verb would divide by a zero speed or write inf
        with pytest.raises(ConfigError, match="not a finite, positive double") as caught:
            parse_scenario(minimal(earth={"gravitational_constant": constant, "mass_kg": constant}))
        assert caught.value.path == "earth"

    @pytest.mark.parametrize(
        "radius_km,altitude_km,least",
        [(None, 1e-12, "0.006371 km"), (1e6, 0.01, "1 km"), (1e9, 10.0, "1000 km")],
    )
    def test_orbit_too_low_for_its_earth_radius(self, radius_km, altitude_km, least):
        # below 1e-6 earth radii the distance from the orbit cancels near
        # d_min: these ran into 0/0 or 1/0 in the coverage kernels
        earth = {} if radius_km is None else {"radius_km": radius_km}
        data = minimal(earth=earth, window={"omega_min_deg": 0.0})
        data["orbits"][0]["altitude_km"] = altitude_km
        with pytest.raises(ConfigError) as caught:
            parse_scenario(data)
        assert caught.value.path == "orbits[0].altitude_km"
        assert str(caught.value) == f"orbits[0].altitude_km: must be >= 1e-06 x earth.radius_km ({least})"
        # a swept altitude meets the bound through the variant's parse
        data["orbits"][0]["altitude_km"] = 5000.0
        data["sweep"] = {"parameter": "altitude_km", "values": [5000.0, altitude_km]}
        with pytest.raises(ConfigError, match=r"^sweep.values\[1\]: orbits\[0\].altitude_km: must be >= 1e-06"):
            parse_scenario(data)

    def test_least_altitude_is_accepted(self):
        data = minimal(earth={"radius_km": 1e6})
        data["orbits"][0]["altitude_km"] = 1.0
        assert parse_scenario(data).orbit_rows[0].altitude_km == 1.0

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


class TestSweepVariants:
    """Each sweep value is parsed as the scenario with that value written
    into the swept field, so it is checked like the field itself."""

    @pytest.mark.parametrize(
        "parameter,value",
        [
            ("density_per_km", 0.01),
            ("altitude_km", 600.0),
            ("theta_deg", 80.0),
            ("omega_min_deg", 20.0),
            ("alpha", 3.5),
            ("m", 2),
        ],
    )
    def test_variant_is_the_hand_edited_scenario(self, parameter, value):
        data = minimal(
            window={"omega_min_deg": 10.0},
            channel={"g_i_bar_db": -10.0},
            mc={"trials": 2000},
            sweep={"parameter": parameter, "values": [value]},
        )
        data["orbits"].append({"altitude_km": 500.0, "theta_deg": 95.0, "density_per_km": 0.002})
        (variant,) = parse_scenario(data).sweep.variants
        edited = json.loads(json.dumps(data))
        del edited["sweep"]
        if parameter in ("density_per_km", "altitude_km", "theta_deg"):
            for row in edited["orbits"]:
                row[parameter] = value
        elif parameter == "omega_min_deg":
            edited["window"][parameter] = value
        else:
            edited["channel"][parameter] = value
        assert variant.scenario_id == f"unit__{parameter}_{float(value):g}"
        assert dataclasses.replace(variant, scenario_id="unit") == parse_scenario(edited)

    def test_variants_follow_value_order(self):
        cfg = parse_scenario(minimal(sweep={"parameter": "alpha", "values": [4, 2.5, 1e6]}))
        assert cfg.sweep.values == (4.0, 2.5, 1e6)
        assert [v.channel.alpha for v in cfg.sweep.variants] == [4.0, 2.5, 1e6]
        # the id pattern rejects '+', but a variant id is set after parsing
        assert [v.scenario_id for v in cfg.sweep.variants] == ["unit__alpha_4", "unit__alpha_2.5", "unit__alpha_1e+06"]
        assert all(v.sweep is None for v in cfg.sweep.variants)

    @pytest.mark.parametrize(
        "parameter,good,bad,field",
        [
            ("density_per_km", 0.01, -1.0, "orbits[0].density_per_km: must be > 0.0"),
            ("altitude_km", 600.0, 0.0, "orbits[0].altitude_km: must be > 0.0"),
            ("theta_deg", 80.0, 181.0, "orbits[0].theta_deg: must be <= 180.0"),
            ("omega_min_deg", 20.0, 90.0, "window.omega_min_deg: must be < 90.0"),
            ("alpha", 3.0, 0.0, "channel.alpha: must be > 0.0"),
            ("m", 2.0, 0.4, "channel.m: must be >= 0.5"),
            ("density_per_km", 0.01, 1e3, "orbits[0].density_per_km: must be <= 10.0"),
            ("altitude_km", 600.0, 1e6, "orbits[0].altitude_km: must be <= 35786.0"),
            ("m", 2.0, 200.0, "channel.m: must be <= 10.0"),
        ],
    )
    def test_out_of_range_value_names_the_field(self, parameter, good, bad, field):
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(sweep={"parameter": parameter, "values": [good, bad]}))
        assert caught.value.path == "sweep.values[1]"
        assert str(caught.value) == f"sweep.values[1]: {field}"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "2"])
    def test_non_finite_or_non_number_value(self, bad):
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(sweep={"parameter": "alpha", "values": [2.0, bad]}))
        assert caught.value.path == "sweep.values[1]"

    def test_value_that_breaks_the_constellation(self):
        # a 1 km shell is a legal altitude, but under an 89.999 degree floor
        # its window has no cap in double precision
        data = minimal(window={"omega_min_deg": 89.999}, sweep={"parameter": "altitude_km", "values": [500.0, 1.0]})
        with pytest.raises(ConfigError) as caught:
            parse_scenario(data)
        assert str(caught.value) == "sweep.values[1]: orbits: degenerate visibility cap"

    def test_colliding_ids_rejected(self):
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(sweep={"parameter": "alpha", "values": [2.0, 1.0, 1.0000001]}))
        assert caught.value.path == "sweep.values[2]"
        assert "sweep.values[1]" in str(caught.value)


class TestGeometryGrid:
    def test_defaults_take_the_window_omega(self):
        bare = parse_scenario(minimal(window={"omega_min_deg": 10.0}))
        empty = parse_scenario(minimal(window={"omega_min_deg": 10.0}, geometry={}))
        assert bare.geometry == empty.geometry
        assert bare.geometry.omega_min_deg == (10.0,)
        assert bare.geometry.theta_deg == tuple(float(k) for k in range(181))

    def test_theta_is_start_plus_index_times_step(self):
        cfg = parse_scenario(minimal(geometry={"theta_start_deg": 10.0, "theta_stop_deg": 11.0, "theta_step_deg": 0.1}))
        assert cfg.geometry.theta_deg == tuple(10.0 + k * 0.1 for k in range(11))

    def test_theta_never_passes_stop(self):
        # 2 step lies 9e-11 past 180, inside the grid's 1e-9 step slack
        cfg = parse_scenario(minimal(geometry={"theta_step_deg": 90.0 * (1.0 + 5e-13)}))
        assert cfg.geometry.theta_deg == (0.0, 90.0 * (1.0 + 5e-13), 180.0)

    @pytest.mark.parametrize(
        "grid",
        [
            {"theta_step_deg": 5e-15},
            {"theta_step_deg": 1e-6},
            {"theta_start_deg": 100.0, "theta_stop_deg": 100.001, "theta_step_deg": 5e-15},
        ],
    )
    def test_grid_size_is_capped(self, grid):
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(geometry=grid))
        assert caught.value.path == "geometry.theta_step_deg"

    def test_single_point_grid_takes_any_step(self):
        cfg = parse_scenario(minimal(geometry={"theta_start_deg": 100.0, "theta_stop_deg": 100.0, "theta_step_deg": 5e-15}))
        assert cfg.geometry.theta_deg == (100.0,)

    @pytest.mark.parametrize("bad", [90.0, -1.0, float("nan"), True])
    def test_omega_checked_element_by_element(self, bad):
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(geometry={"omega_min_deg": [10.0, bad]}))
        assert caught.value.path == "geometry.omega_min_deg[1]"

    def test_omega_without_a_window_is_rejected(self):
        # below 90 degrees, yet a 500 km shell's window has no cap in double
        # precision: the same angle in window.omega_min_deg is rejected too
        with pytest.raises(ConfigError) as caught:
            parse_scenario(minimal(geometry={"omega_min_deg": [10.0, 89.99999]}))
        assert str(caught.value) == "geometry.omega_min_deg[1]: degenerate visibility cap"
        with pytest.raises(ConfigError, match="degenerate visibility cap"):
            parse_scenario(minimal(window={"omega_min_deg": 89.99999}))


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
