"""Scenario files: a strict JSON schema for the command-line tools.

A scenario bundles everything one run needs: orbits, visibility window,
channel, optional link budget, the threshold grid, optional Monte-Carlo
settings and optional geometry/sweep sections. Validation is strict on
purpose: unknown keys and out-of-range values raise `ConfigError` with
the dotted path of the offending field, because a silently ignored typo
in a scenario file is a corrupted study, not a convenience. A section
of numbers is one table of keys and bounds, read by `_given`: a key left
out of `earth`, `channel`, `budget` or `mc` takes its type's default.

This module is the only one that knows what a scenario file means. It
also resolves the two derived parts the verbs run over: the geometry
grid (inclinations start + i step, each omega checked like the window's
and defaulting to it) and the sweep variants. Each sweep value is written into a copy of the
decoded file, which is parsed again; an error there is re-raised under
`sweep.values[i]`, so a swept value meets exactly the bounds of the
field it replaces.

Angles are degrees in files (people write degrees) and radians in code;
the builder methods do the conversion exactly once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass

from .coverage import ConstellationSpec, LinkBudget, db_to_linear, threshold_grid_db
from .geometry import EarthConstants, OrbitGeometry, VisibilityWindow, orbital_speed
from .interference import ChannelParams
from .montecarlo import McConfig

__all__ = [
    "ConfigError",
    "OrbitRow",
    "GeometryGrid",
    "SweepSpec",
    "ScenarioConfig",
    "parse_scenario",
    "load_scenario",
]

_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

# every dB field lies within +/- this many dB, so its linear value (and
# the ratio of two of them) is finite and nonzero in double precision
_DB_LIMIT = 1000.0
_MAX_GRID_POINTS = 10_000
# the upper ends of the stated domain: Nakagami m, satellites per km of
# orbit, and altitude (km) up to GEO
_MAX_M = 10.0
_MAX_DENSITY = 10.0
_MAX_ALTITUDE_KM = 35786.0
# least altitude in earth radii: below it the window's cap base and d_max, and
# so beta, lose their digits to cancellation, and serving distances of 0
# divided 0/0 and 1/0 in the kernels
_MIN_ALTITUDE_RATIO = 1e-6
# trials per Monte-Carlo batch: the simulation scores satellites in
# bounded chunks, so a batch costs a few 8-byte arrays per trial
_MAX_BATCH = 1_000_000

# each field a sweep may vary, and the section that holds it
SWEEP_PARAMETERS = {
    "density_per_km": "orbits",
    "altitude_km": "orbits",
    "theta_deg": "orbits",
    "omega_min_deg": "window",
    "alpha": "channel",
    "m": "channel",
}

# the bounds of a section's keys, in the order they are read; a key with
# no `default` here takes the default of the type built from the section
_POSITIVE = {"lo": 0.0, "lo_open": True}
_DB = {"lo": -_DB_LIMIT, "hi": _DB_LIMIT}
_WINDOW = {"omega_min_deg": {"lo": 0.0, "hi": 90.0, "hi_open": True, "default": 0.0}}
_EARTH = dict.fromkeys(("radius_km", "gravitational_constant", "mass_kg"), _POSITIVE)
_CHANNEL = {"g_i_bar_db": {"lo": -_DB_LIMIT, "hi": 0.0}, "alpha": _POSITIVE, "m": {"lo": 0.5, "hi": _MAX_M}}
_BUDGET = dict.fromkeys(("tx_power_dbm", "serving_gain_db", "noise_density_dbm_hz", "noise_figure_db"), _DB)
_BUDGET["bandwidth_hz"] = _POSITIVE
_THRESHOLDS = {
    "start_db": {**_DB, "default": -10.0}, "stop_db": {**_DB, "default": 30.0}, "step_db": {**_POSITIVE, "default": 5.0}
}
_MC = {"trials": {"lo": 1}, "seed": {"lo": 0}, "batch": {"lo": 1, "hi": _MAX_BATCH}}


class ConfigError(ValueError):
    """Scenario validation failure, carrying the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(path, f"unknown key(s): {', '.join(unknown)}")


def _where(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _number(container, key, path: str, default=None, *, lo=None, hi=None, lo_open=False, hi_open=False):
    """`container[key]` as a bounded float; `key` is an object key or an array index."""
    where = _where(path, key)
    if isinstance(container, dict) and key not in container:
        if default is None:
            raise ConfigError(where, "missing required value")
        return default
    value = container[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(where, "expected a finite number")
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(where, f"must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(where, f"must be {'<' if hi_open else '<='} {hi}")
    return value


def _integer(mapping: dict, key: str, path: str, *, lo=None, hi=None):
    where = _where(path, key)
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, "expected an integer")
    if lo is not None and value < lo:
        raise ConfigError(where, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigError(where, f"must be <= {hi}")
    return value


def _given(data: dict, name: str, table: dict, read=_number) -> dict:
    """Section `name` of `data` checked against `table`: its given keys,
    and those with a default in `table`, read in table order."""
    section = _require_mapping(data.get(name, {}), name)
    _check_keys(section, set(table), name)
    read_keys = [key for key, limits in table.items() if key in section or "default" in limits]
    return {key: read(section, key, name, **table[key]) for key in read_keys}


@dataclass(frozen=True)
class OrbitRow:
    altitude_km: float
    theta_deg: float
    phi_deg: float
    density_per_km: float


@dataclass(frozen=True)
class GeometryGrid:
    theta_start_deg: float
    theta_stop_deg: float
    theta_step_deg: float
    omega_min_deg: tuple[float, ...]
    theta_deg: tuple[float, ...]


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]
    variants: tuple[ScenarioConfig, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario. Construct through `parse_scenario`."""

    scenario_id: str
    earth: EarthConstants
    omega_min_deg: float
    orbit_rows: tuple[OrbitRow, ...]
    channel: ChannelParams
    budget: LinkBudget | None
    thresholds_db: tuple[float, ...]
    mc: McConfig | None
    geometry: GeometryGrid
    sweep: SweepSpec | None

    def orbits(self) -> tuple[OrbitGeometry, ...]:
        return tuple(
            OrbitGeometry(
                altitude_km=row.altitude_km,
                theta_rad=math.radians(row.theta_deg),
                phi_rad=math.radians(row.phi_deg),
                earth=self.earth,
            )
            for row in self.orbit_rows
        )

    def constellation(self) -> ConstellationSpec:
        orbits = self.orbits()
        return ConstellationSpec(
            orbits=orbits,
            densities_per_km=tuple(row.density_per_km for row in self.orbit_rows),
            window=VisibilityWindow.from_min_elevation(math.radians(self.omega_min_deg), orbits[0]),
            channel=self.channel,
        )


def _parse_orbits(data: dict, earth: EarthConstants) -> tuple[OrbitRow, ...]:
    if "orbits" not in data:
        raise ConfigError("orbits", "missing required value")
    rows = data["orbits"]
    if not isinstance(rows, list) or not rows:
        raise ConfigError("orbits", "expected a non-empty array")
    parsed = []
    for i, row in enumerate(rows):
        path = f"orbits[{i}]"
        row = _require_mapping(row, path)
        _check_keys(row, {"altitude_km", "theta_deg", "phi_deg", "density_per_km"}, path)
        altitude = _number(row, "altitude_km", path, lo=0.0, hi=_MAX_ALTITUDE_KM, lo_open=True)
        least = _MIN_ALTITUDE_RATIO * earth.radius_km
        if altitude < least:
            message = f"must be >= {_MIN_ALTITUDE_RATIO:g} x earth.radius_km ({least:g} km)"
            raise ConfigError(f"{path}.altitude_km", message)
        parsed.append(
            OrbitRow(
                altitude_km=altitude,
                theta_deg=_number(row, "theta_deg", path, lo=0.0, hi=180.0),
                phi_deg=_number(row, "phi_deg", path, 0.0, lo=0.0, hi=360.0, hi_open=True),
                density_per_km=_number(row, "density_per_km", path, lo=0.0, hi=_MAX_DENSITY, lo_open=True),
            )
        )
    altitudes = {row.altitude_km for row in parsed}
    if len(altitudes) > 1:
        raise ConfigError("orbits", "all orbits must share one altitude shell")
    return tuple(parsed)


def _parse_channel(data: dict) -> ChannelParams:
    given = _given(data, "channel", _CHANNEL)
    if "g_i_bar_db" in given:
        given["g_i_bar"] = db_to_linear(given.pop("g_i_bar_db"))
    return ChannelParams(**given)


def _parse_budget(data: dict) -> LinkBudget | None:
    if "budget" not in data:
        return None
    given = _given(data, "budget", _BUDGET)
    try:
        budget = LinkBudget(**given)
    except ValueError as exc:  # a linear P G / sigma^2 that no double holds
        raise ConfigError("budget", str(exc)) from None
    if abs(budget.snr_scale_db) > _DB_LIMIT:
        raise ConfigError("budget", f"P G / sigma^2 of {budget.snr_scale_db:g} dB is not within +/-{_DB_LIMIT:g} dB")
    return budget


def _grid(start: float, stop: float, step: float, step_path: str) -> tuple[float, ...]:
    # the grid holds floor((stop - start) / step + 1e-9) + 1 points
    if (stop - start) / step + 1e-9 >= _MAX_GRID_POINTS:
        raise ConfigError(step_path, f"the grid would hold more than {_MAX_GRID_POINTS} points")
    return threshold_grid_db(start, stop, step)


def _parse_thresholds(data: dict) -> tuple[float, ...]:
    start, stop, step = _given(data, "thresholds", _THRESHOLDS).values()
    if stop < start:
        raise ConfigError("thresholds.stop_db", "must be >= start_db")
    return _grid(start, stop, step, "thresholds.step_db")


def _parse_geometry(data: dict, window_omega_deg: float) -> GeometryGrid:
    section = _require_mapping(data.get("geometry", {}), "geometry")
    _check_keys(section, {"theta_start_deg", "theta_stop_deg", "theta_step_deg", "omega_min_deg"}, "geometry")
    start = _number(section, "theta_start_deg", "geometry", 0.0, lo=0.0, hi=180.0)
    stop = _number(section, "theta_stop_deg", "geometry", 180.0, lo=0.0, hi=180.0)
    step = _number(section, "theta_step_deg", "geometry", 1.0, lo=0.0, lo_open=True)
    if stop < start:
        raise ConfigError("geometry.theta_stop_deg", "must be >= theta_start_deg")
    thetas = _grid(start, stop, step, "geometry.theta_step_deg")
    # the last point, start + i step, can land a rounding error past stop
    thetas = thetas[:-1] + (min(thetas[-1], stop),)
    omegas = section.get("omega_min_deg", [window_omega_deg])
    if not isinstance(omegas, list) or not omegas:
        raise ConfigError("geometry.omega_min_deg", "expected a non-empty array")
    parsed = tuple(
        _number(omegas, i, "geometry.omega_min_deg", lo=0.0, hi=90.0, hi_open=True) for i in range(len(omegas))
    )
    return GeometryGrid(start, stop, step, parsed, thetas)


def _sweep_copy(data: dict, parameter: str, value: float) -> dict:
    """The decoded scenario with `value` in the swept field and no sweep section."""
    copy = {key: section for key, section in data.items() if key != "sweep"}
    section = SWEEP_PARAMETERS[parameter]
    if section == "orbits":
        copy["orbits"] = [{**row, parameter: value} for row in data["orbits"]]
    else:
        copy[section] = {**data.get(section, {}), parameter: value}
    return copy


def _parse_sweep(data: dict, scenario_id: str) -> SweepSpec:
    section = _require_mapping(data["sweep"], "sweep")
    _check_keys(section, {"parameter", "values"}, "sweep")
    parameter = section.get("parameter")
    if not isinstance(parameter, str) or parameter not in SWEEP_PARAMETERS:
        raise ConfigError("sweep.parameter", f"expected one of {', '.join(SWEEP_PARAMETERS)}")
    values = section.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values", "expected a non-empty array")
    parsed = tuple(_number(values, i, "sweep.values") for i in range(len(values)))
    variants = []
    first_position: dict[str, int] = {}
    for position, value in enumerate(parsed):
        where = f"sweep.values[{position}]"
        try:
            variant = parse_scenario(_sweep_copy(data, parameter, value))
        except ConfigError as exc:
            raise ConfigError(where, str(exc)) from None
        # set after parsing: {:g} can print a '+' the id pattern rejects,
        # and values that agree to 6 digits print the same id
        variant_id = f"{scenario_id}__{parameter}_{value:g}"
        first = first_position.setdefault(variant_id, position)
        if first != position:
            raise ConfigError(where, f"gives the same scenario id {variant_id!r} as sweep.values[{first}]")
        variants.append(dataclasses.replace(variant, scenario_id=variant_id))
    return SweepSpec(parameter, parsed, tuple(variants))


def parse_scenario(data) -> ScenarioConfig:
    """Validate a decoded scenario object into a ScenarioConfig."""
    data = _require_mapping(data, "")
    allowed = {
        "scenario_id",
        "earth",
        "window",
        "orbits",
        "channel",
        "budget",
        "thresholds",
        "mc",
        "geometry",
        "sweep",
    }
    _check_keys(data, allowed, "")
    scenario_id = data.get("scenario_id", "scenario")
    if not isinstance(scenario_id, str) or not _ID_PATTERN.fullmatch(scenario_id):
        raise ConfigError("scenario_id", "expected a name of letters, digits, '._-'")
    omega = _given(data, "window", _WINDOW)["omega_min_deg"]
    earth = EarthConstants(**_given(data, "earth", _EARTH))
    config = ScenarioConfig(
        scenario_id=scenario_id,
        earth=earth,
        omega_min_deg=omega,
        orbit_rows=_parse_orbits(data, earth),
        channel=_parse_channel(data),
        budget=_parse_budget(data),
        thresholds_db=_parse_thresholds(data),
        mc=McConfig(**_given(data, "mc", _MC, _integer)) if "mc" in data else None,
        geometry=_parse_geometry(data, omega),
        sweep=None,
    )
    try:
        config.constellation()
    except ValueError as exc:
        raise ConfigError("orbits", str(exc)) from None
    reference = config.orbits()[0]
    try:
        orbital_speed(reference)
    except ValueError as exc:
        raise ConfigError("earth", str(exc)) from None
    for i, omega_deg in enumerate(config.geometry.omega_min_deg):
        try:  # the geometry verb builds each grid angle's window on the reference orbit
            VisibilityWindow.from_min_elevation(math.radians(omega_deg), reference)
        except ValueError as exc:
            raise ConfigError(f"geometry.omega_min_deg[{i}]", str(exc)) from None
    if "sweep" in data:
        config = dataclasses.replace(config, sweep=_parse_sweep(data, scenario_id))
    return config


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError("", f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None
    return parse_scenario(data)
