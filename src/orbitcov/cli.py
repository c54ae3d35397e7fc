"""Command-line front end.

Four verbs:

* ``geometry``  - visible arc length / pass duration over an inclination
  grid, one CSV row per (elevation floor, inclination).
* ``coverage``  - analytic and simulated coverage curves for a scenario,
  written as result rows.
* ``validate``  - the built-in acceptance criteria; writes a
  deterministic report and exits nonzero on any failure.
* ``sweep``     - the coverage verb repeated over one swept parameter,
  concatenated into a single file.

Exit codes: 0 success, 1 computation or validation failure, 2 bad
scenario file, 3 usage error. Output files are deterministic byte for
byte for a fixed scenario and seed; floats are written with repr so
parsing them back loses nothing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError, GeometryGrid, ScenarioConfig, SweepSpec, load_scenario
from .coverage import (
    CoverageCurve,
    max_sir_coverage_curve,
    sir_coverage_curve,
    snr_coverage_curve,
)
from .geometry import OrbitGeometry, VisibilityWindow, orbital_speed, visible_arc_length, visible_time
from .montecarlo import McConfig, _coverage_pass
from .validation import DEFAULT_SEED, render_report, run_all

__all__ = [
    "ResultRow",
    "RESULT_HEADER",
    "write_result_rows",
    "read_result_rows",
    "coverage_rows",
    "main",
]

RESULT_FIELDS = (
    "scenario_id",
    "curve_kind",
    "gamma_db",
    "value",
    "ci_low",
    "ci_high",
    "theta_deg",
    "lambda_per_km",
    "alpha",
    "m",
    "n_orbits",
    "seed",
)
RESULT_HEADER = ",".join(RESULT_FIELDS)

GEOMETRY_HEADER = "scenario_id,omega_min_deg,theta_deg,arc_length_km,visible_time_s,orbital_speed_m_s"


@dataclass(frozen=True)
class ResultRow:
    """One point of one curve, flat enough for any plotting tool."""

    scenario_id: str
    curve_kind: str
    gamma_db: float
    value: float
    ci_low: float | None = None
    ci_high: float | None = None
    theta_deg: float | None = None
    lambda_per_km: float | None = None
    alpha: float | None = None
    m: float | None = None
    n_orbits: int | None = None
    seed: int | None = None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_line(row: ResultRow) -> str:
    return ",".join(_cell(getattr(row, name)) for name in RESULT_FIELDS)


def write_result_rows(path, rows) -> None:
    """Write result rows; a fixed header and repr'd floats keep reruns
    byte-identical and round-trips lossless."""
    lines = [RESULT_HEADER]
    lines.extend(_row_line(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_cell(text: str, kind):
    if text == "":
        return None
    return kind(text)


def read_result_rows(path) -> list[ResultRow]:
    """Read rows written by `write_result_rows`."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(RESULT_FIELDS):
            raise ValueError(f"unexpected result header in {path}")
        rows = []
        for record in reader:
            rows.append(
                ResultRow(
                    scenario_id=record["scenario_id"],
                    curve_kind=record["curve_kind"],
                    gamma_db=float(record["gamma_db"]),
                    value=float(record["value"]),
                    ci_low=_parse_cell(record["ci_low"], float),
                    ci_high=_parse_cell(record["ci_high"], float),
                    theta_deg=_parse_cell(record["theta_deg"], float),
                    lambda_per_km=_parse_cell(record["lambda_per_km"], float),
                    alpha=_parse_cell(record["alpha"], float),
                    m=_parse_cell(record["m"], float),
                    n_orbits=_parse_cell(record["n_orbits"], int),
                    seed=_parse_cell(record["seed"], int),
                )
            )
    return rows


def _shared(values) -> float | None:
    unique = set(values)
    return unique.pop() if len(unique) == 1 else None


def _curve_rows(cfg: ScenarioConfig, curve: CoverageCurve, kind: str, seed: int | None) -> list[ResultRow]:
    theta = _shared(row.theta_deg for row in cfg.orbit_rows)
    density = _shared(row.density_per_km for row in cfg.orbit_rows)
    rows = []
    for i, gamma_db in enumerate(curve.thresholds_db):
        rows.append(
            ResultRow(
                scenario_id=cfg.scenario_id,
                curve_kind=kind,
                gamma_db=gamma_db,
                value=curve.values[i],
                ci_low=curve.ci_low[i] if curve.ci_low else None,
                ci_high=curve.ci_high[i] if curve.ci_high else None,
                theta_deg=theta,
                lambda_per_km=density,
                alpha=cfg.channel.alpha,
                m=cfg.channel.m,
                n_orbits=len(cfg.orbit_rows),
                seed=seed,
            )
        )
    return rows


def _delta_rows(kind: str, analytic: list[ResultRow], simulated: list[ResultRow]) -> list[ResultRow]:
    return [
        dataclasses.replace(s, curve_kind=kind, value=a.value - s.value, ci_low=None, ci_high=None)
        for a, s in zip(analytic, simulated)
    ]


def _effective_mc(cfg: ScenarioConfig, args) -> McConfig | None:
    if cfg.mc is None and args.trials is None and args.seed is None:
        return None
    base = cfg.mc or McConfig()
    if args.trials is not None:
        base = dataclasses.replace(base, trials=args.trials)
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    return base


def coverage_rows(cfg: ScenarioConfig, mc: McConfig | None) -> tuple[list[ResultRow], list[str]]:
    """All result rows for one scenario, plus human-readable notices.

    Curves are the unconditional coverage probabilities; the library
    exposes the visibility-conditioned variants. Analytic curves need an
    integer Nakagami figure, otherwise the run downgrades to simulation
    only and says so.
    """
    constellation = cfg.constellation()
    window = constellation.window
    orbit = constellation.orbits[0]
    density = constellation.densities_per_km[0]
    channel = constellation.channel
    single = constellation.n_orbits == 1
    analytic_ok = float(channel.m).is_integer()
    notices: list[str] = []
    if not analytic_ok:
        notices.append(
            f"channel m={channel.m!r} is not an integer: analytic curves skipped, simulation only"
        )
        if mc is None:
            raise ValueError("non-integer m needs an mc section or --trials to simulate")
    sir_key = "SIR" if single else "maxSIR"
    budgets = (cfg.budget,) if single and cfg.budget is not None else ()
    analytic: dict[str, list[ResultRow]] = {}
    if analytic_ok:
        if single:
            curve = sir_coverage_curve(orbit, window, density, channel, cfg.thresholds_db)
        else:
            curve = max_sir_coverage_curve(constellation, cfg.thresholds_db)
        analytic[sir_key] = _curve_rows(cfg, curve, f"{sir_key}-analytic", None)
        if budgets:
            curve = snr_coverage_curve(orbit, window, density, channel, cfg.budget, cfg.thresholds_db)
            analytic["SNR"] = _curve_rows(cfg, curve, "SNR-analytic", None)
    simulated: dict[str, list[ResultRow]] = {}
    if mc is not None:
        (_, joint, _), per_budget = _coverage_pass(constellation, budgets, cfg.thresholds_db, mc)
        simulated[sir_key] = _curve_rows(cfg, joint, f"{sir_key}-MC", mc.seed)
        for _, snr_u, _, sinr_u in per_budget:
            simulated["SNR"] = _curve_rows(cfg, snr_u, "SNR-MC", mc.seed)
            simulated["SINR"] = _curve_rows(cfg, sinr_u, "SINR-MC", mc.seed)
    rows = [row for curve_rows in (*analytic.values(), *simulated.values()) for row in curve_rows]
    for key in analytic:
        if key in simulated:
            rows.extend(_delta_rows(f"{key}-delta", analytic[key], simulated[key]))
    return rows, notices


def _theta_grid(cfg: ScenarioConfig) -> list[float]:
    grid = cfg.geometry
    values = []
    theta = grid.theta_start_deg
    while theta <= grid.theta_stop_deg + 1e-9:
        values.append(min(theta, 180.0))
        theta += grid.theta_step_deg
    return values


def cmd_geometry(cfg: ScenarioConfig, out_dir: Path) -> int:
    """Visible arc, pass duration and speed over an inclination grid."""
    if cfg.geometry is None:
        cfg = dataclasses.replace(cfg, geometry=GeometryGrid(0.0, 180.0, 1.0, (cfg.omega_min_deg,)))
    reference = cfg.orbits()[0]
    speed = orbital_speed(reference)
    lines = [GEOMETRY_HEADER]
    for omega_deg in cfg.geometry.omega_min_deg:
        window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), reference)
        for theta_deg in _theta_grid(cfg):
            orbit = OrbitGeometry(
                altitude_km=reference.altitude_km,
                theta_rad=min(math.radians(theta_deg), math.pi),
                earth=cfg.earth,
            )
            arc = visible_arc_length(orbit, window)
            duration = visible_time(orbit, window)
            lines.append(
                ",".join(
                    (
                        cfg.scenario_id,
                        repr(float(omega_deg)),
                        repr(float(theta_deg)),
                        repr(arc),
                        repr(duration),
                        repr(speed),
                    )
                )
            )
    path = out_dir / f"{cfg.scenario_id}_geometry.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} rows to {path}")
    return 0


def cmd_coverage(cfg: ScenarioConfig, out_dir: Path, mc: McConfig | None) -> int:
    rows, notices = coverage_rows(cfg, mc)
    for notice in notices:
        print(f"note: {notice}")
    path = out_dir / f"{cfg.scenario_id}_coverage.csv"
    write_result_rows(path, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _sweep_variant(cfg: ScenarioConfig, parameter: str, value: float, position: int) -> ScenarioConfig:
    where = f"sweep.values[{position}]"
    rows = cfg.orbit_rows
    omega = cfg.omega_min_deg
    channel = cfg.channel
    if parameter == "density_per_km":
        if value <= 0:
            raise ConfigError(where, "must be > 0")
        rows = tuple(dataclasses.replace(r, density_per_km=value) for r in rows)
    elif parameter == "altitude_km":
        if value <= 0:
            raise ConfigError(where, "must be > 0")
        rows = tuple(dataclasses.replace(r, altitude_km=value) for r in rows)
    elif parameter == "theta_deg":
        if not 0.0 <= value <= 180.0:
            raise ConfigError(where, "must lie in [0, 180]")
        rows = tuple(dataclasses.replace(r, theta_deg=value) for r in rows)
    elif parameter == "omega_min_deg":
        if not 0.0 <= value < 90.0:
            raise ConfigError(where, "must lie in [0, 90)")
        omega = value
    elif parameter == "alpha":
        if value <= 0:
            raise ConfigError(where, "must be > 0")
        channel = dataclasses.replace(channel, alpha=value)
    else:  # m
        if value < 0.5:
            raise ConfigError(where, "must be >= 0.5")
        channel = dataclasses.replace(channel, m=value)
    variant = dataclasses.replace(
        cfg,
        scenario_id=f"{cfg.scenario_id}__{parameter}_{value:g}",
        orbit_rows=rows,
        omega_min_deg=omega,
        channel=channel,
        sweep=None,
    )
    try:
        variant.constellation()
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None
    return variant


def cmd_sweep(cfg: ScenarioConfig, out_dir: Path, mc: McConfig | None, jobs: int) -> int:
    """Coverage over each value of the swept parameter, one combined file."""
    sweep: SweepSpec | None = cfg.sweep
    if sweep is None:
        raise ConfigError("sweep", "the sweep verb needs a sweep section")
    variants = [_sweep_variant(cfg, sweep.parameter, v, i) for i, v in enumerate(sweep.values)]
    # ids print values with {:g}, so values that agree to 6 digits collide
    first_position: dict[str, int] = {}
    for position, variant in enumerate(variants):
        first = first_position.setdefault(variant.scenario_id, position)
        if first != position:
            raise ConfigError(
                f"sweep.values[{position}]",
                f"gives the same scenario id {variant.scenario_id!r} as sweep.values[{first}]",
            )
    rows: list[ResultRow] = []
    notices: list[str] = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(coverage_rows, variant, mc) for variant in variants]
        # collect in submission order: the output must not depend on timing
        for future in futures:
            variant_rows, variant_notices = future.result()
            rows.extend(variant_rows)
            notices.extend(variant_notices)
    for notice in notices:
        print(f"note: {notice}")
    path = out_dir / f"{cfg.scenario_id}_sweep.csv"
    write_result_rows(path, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_validate(out_dir: Path, seed: int | None, trials: int | None) -> int:
    scale = 1.0 if trials is None else trials / 1_000_000
    report = run_all(seed if seed is not None else DEFAULT_SEED, scale)
    text = render_report(report)
    path = out_dir / "validate_report.txt"
    path.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    for result in report.results:
        print(f"criterion {result.index} took {result.elapsed_s:.2f} s")
    print(f"report written to {path}")
    return 0 if report.passed else 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbitcov", description="LEO constellation coverage toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, config_required=True, simulates=True):
        if config_required:
            p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if simulates:
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
            p.add_argument("--trials", type=int, default=None, help="override the simulation trial count")
        else:
            p.set_defaults(seed=None, trials=None)

    common(sub.add_parser("geometry", help="visible-arc geometry over an inclination grid"), simulates=False)
    common(sub.add_parser("coverage", help="coverage curves for one scenario"))
    common(sub.add_parser("validate", help="run the built-in acceptance criteria"), config_required=False)
    sweep = sub.add_parser("sweep", help="coverage swept over one parameter")
    common(sweep)
    sweep.add_argument("--jobs", type=int, default=4, help="parallel variants (default 4)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.trials is not None and args.trials < 1:
        print("usage error: --trials must be positive", file=sys.stderr)
        return 3
    if args.seed is not None and args.seed < 0:
        print("usage error: --seed must be nonnegative", file=sys.stderr)
        return 3
    if args.verb == "sweep" and args.jobs < 1:
        print("usage error: --jobs must be positive", file=sys.stderr)
        return 3
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 1
    try:
        if args.verb == "validate":
            return cmd_validate(out_dir, args.seed, args.trials)
        cfg = load_scenario(args.config)
        mc = _effective_mc(cfg, args)
        if args.verb == "geometry":
            return cmd_geometry(cfg, out_dir)
        if args.verb == "coverage":
            return cmd_coverage(cfg, out_dir, mc)
        return cmd_sweep(cfg, out_dir, mc, args.jobs)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
