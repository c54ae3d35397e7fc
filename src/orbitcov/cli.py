"""Command-line front end.

Four verbs:

* ``geometry``  - visible arc length / pass duration over an inclination
  grid, one CSV row per (elevation floor, inclination).
* ``coverage``  - analytic and simulated coverage curves for a scenario,
  written as result rows.
* ``validate``  - the built-in acceptance criteria; writes a
  deterministic report and exits nonzero on any failure.
* ``sweep``     - the coverage verb repeated over one swept parameter,
  concatenated into a single file, the variants in order on the calling
  thread. ``--jobs`` is accepted and has no effect.

Exit codes: 0 success, 1 computation or validation failure, 2 bad
scenario file, 3 usage error; stdout is written when the verb ends, and
a reader closing the pipe early does not change the code. Output files
are deterministic byte for byte for a fixed scenario and seed, whatever
the thread count: one per CPU in the process's affinity. Floats are
written with repr so parsing them back loses nothing. Each verb imports
only what it runs: ``validation`` loads inside ``validate``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import math
import os
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_scenario
from .coverage import CoverageCurve, _coverage_curve
from .geometry import OrbitGeometry, VisibilityWindow, orbital_speed, visible_arc_length, visible_time
from .montecarlo import McConfig, _coverage_pass

__all__ = [
    "ResultRow",
    "RESULT_HEADER",
    "write_result_rows",
    "read_result_rows",
    "coverage_rows",
    "main",
]

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


RESULT_FIELDS = tuple(field.name for field in dataclasses.fields(ResultRow))
RESULT_HEADER = ",".join(RESULT_FIELDS)


def _cell(value) -> str:
    """The one cell rule of every result file: empty for None, repr for a
    float, numpy's float64 included (so reading it back is exact), str
    for the rest."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join([RESULT_HEADER, *lines]) + "\n", encoding="utf-8")


def write_result_rows(path, rows) -> None:
    """Write result rows; a fixed header and repr'd floats keep reruns
    byte-identical and round-trips lossless."""
    _write_lines(path, (",".join(_cell(getattr(row, name)) for name in RESULT_FIELDS) for row in rows))


def _cell_reader(hint):
    """The reader of a field's cells: its declared type, where a blank
    cell is None only if the field allows None."""
    kinds = typing.get_args(hint) or (hint,)
    kind = kinds[0]
    if type(None) not in kinds:
        return kind
    return lambda text: None if text == "" else kind(text)


# resolved once: resolving the string annotations compiles each of them
_CELL_READERS = tuple(map(_cell_reader, typing.get_type_hints(ResultRow).values()))


def read_result_rows(path) -> list[ResultRow]:
    """Read rows written by `write_result_rows`."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != list(RESULT_FIELDS):
            raise ValueError(f"unexpected result header in {path}")
        rows = []
        for cells in filter(None, reader):  # skip blank lines
            if len(cells) != len(RESULT_FIELDS):
                raise ValueError(f"{path} line {reader.line_num}: expected {len(RESULT_FIELDS)} cells")
            try:
                rows.append(ResultRow(*[read(text) for read, text in zip(_CELL_READERS, cells)]))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return rows


def _shared(values) -> float | None:
    unique = set(values)
    return unique.pop() if len(unique) == 1 else None


def _curve_lines(
    cfg: ScenarioConfig, kind: str, thresholds_db, values, seed: int | None, ci_low=None, ci_high=None
) -> list[str]:
    """One result line per threshold, by the rule of `_cell`: the constant
    cells are formatted once per curve, each point's floats with repr."""
    theta = _shared(row.theta_deg for row in cfg.orbit_rows)
    density = _shared(row.density_per_km for row in cfg.orbit_rows)
    channel = cfg.channel
    head = f"{cfg.scenario_id},{kind}"
    tail = ",".join(map(_cell, (theta, density, channel.alpha, channel.m, len(cfg.orbit_rows), seed)))
    if ci_low is None:
        return [f"{head},{g!r},{v!r},,,{tail}" for g, v in zip(thresholds_db, values)]
    return [f"{head},{g!r},{v!r},{lo!r},{hi!r},{tail}" for g, v, lo, hi in zip(thresholds_db, values, ci_low, ci_high)]


def _effective_mc(cfg: ScenarioConfig, args) -> McConfig | None:
    if cfg.mc is None and args.trials is None and args.seed is None:
        return None
    base = cfg.mc or McConfig()
    if args.trials is not None:
        base = dataclasses.replace(base, trials=args.trials)
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    return base


def coverage_rows(cfg: ScenarioConfig, mc: McConfig | None) -> tuple[list[str], list[str]]:
    """All result lines for one scenario, plus human-readable notices.

    Curves are the unconditional coverage probabilities through the best
    visible satellite: SIR, plus SNR and SINR when the scenario has a
    link budget. This is the one place curve kinds are named: the
    quantity, with a `max` prefix when there are several orbits, and a
    `-analytic`, `-MC` or `-delta` suffix. The library's curves carry
    numbers only and expose the visibility-conditioned variants too.
    Analytic curves need an integer Nakagami figure, otherwise the run
    downgrades to simulation only and says so. Each line is one row of
    the result file, as `write_result_rows` would write it.
    """
    constellation = cfg.constellation()
    analytic_ok = float(constellation.channel.m).is_integer()
    notices: list[str] = []
    if not analytic_ok:
        notices.append(
            f"channel m={constellation.channel.m!r} is not an integer: analytic curves skipped, simulation only"
        )
        if mc is None:
            raise ValueError("non-integer m needs an mc section or --trials to simulate")
    prefix = "" if constellation.n_orbits == 1 else "max"
    budgets = () if cfg.budget is None else (cfg.budget,)
    quantities = {"SIR": None} if cfg.budget is None else {"SIR": None, "SNR": cfg.budget}
    analytic: dict[str, CoverageCurve] = {}
    if analytic_ok:
        for quantity, budget in quantities.items():
            analytic[prefix + quantity] = _coverage_curve(constellation, cfg.thresholds_db, budget)
    simulated: dict[str, CoverageCurve] = {}
    if mc is not None:
        _, (_, joint, _), per_budget = _coverage_pass(constellation, budgets, cfg.thresholds_db, mc)
        simulated[prefix + "SIR"] = joint
        for _, snr, _, sinr in per_budget:
            simulated[prefix + "SNR"], simulated[prefix + "SINR"] = snr, sinr
    lines = []
    for key, curve in analytic.items():
        lines += _curve_lines(cfg, f"{key}-analytic", curve.thresholds_db, curve.values, None)
    for key, curve in simulated.items():
        lines += _curve_lines(cfg, f"{key}-MC", curve.thresholds_db, curve.values, mc.seed, curve.ci_low, curve.ci_high)
    for key, curve in analytic.items():
        if key in simulated:
            sim = simulated[key]
            deltas = [a - s for a, s in zip(curve.values, sim.values)]
            lines += _curve_lines(cfg, f"{key}-delta", sim.thresholds_db, deltas, mc.seed)
    return lines, notices


def cmd_geometry(cfg: ScenarioConfig, out_dir: Path) -> int:
    """Visible arc, pass duration and speed over an inclination grid."""
    reference = cfg.orbits()[0]
    speed = orbital_speed(reference)
    lines = [GEOMETRY_HEADER]
    for omega_deg in cfg.geometry.omega_min_deg:
        window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), reference)
        for theta_deg in cfg.geometry.theta_deg:
            orbit = OrbitGeometry(
                altitude_km=reference.altitude_km,
                theta_rad=math.radians(theta_deg),
                earth=cfg.earth,
            )
            arc = visible_arc_length(orbit, window)
            duration = visible_time(orbit, window)
            cells = (cfg.scenario_id, float(omega_deg), float(theta_deg), arc, duration, speed)
            lines.append(",".join(map(_cell, cells)))
    path = out_dir / f"{cfg.scenario_id}_geometry.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} rows to {path}")
    return 0


def cmd_coverage(verb: str, cfg: ScenarioConfig, out_dir: Path, mc: McConfig | None) -> int:
    """Coverage of the scenario, or for `sweep` of each value of its swept
    parameter in order, in one file named after the verb."""
    if verb == "sweep" and cfg.sweep is None:
        raise ConfigError("sweep", "the sweep verb needs a sweep section")
    results = [coverage_rows(variant, mc) for variant in ((cfg,) if verb == "coverage" else cfg.sweep.variants)]
    for _, notices in results:
        for notice in notices:
            print(f"note: {notice}")
    lines = [line for variant_lines, _ in results for line in variant_lines]
    path = out_dir / f"{cfg.scenario_id}_{verb}.csv"
    _write_lines(path, lines)
    print(f"wrote {len(lines)} rows to {path}")
    return 0


def cmd_validate(out_dir: Path, seed: int | None, trials: int | None) -> int:
    from .validation import DEFAULT_SEED, render_report, run_all

    scale = 1.0 if trials is None else trials / 1_000_000
    start = time.perf_counter()
    report = run_all(seed if seed is not None else DEFAULT_SEED, scale)
    wall_s = time.perf_counter() - start
    text = render_report(report)
    path = out_dir / "validate_report.txt"
    path.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    for result in report.results:
        print(f"criterion {result.index} took {result.elapsed_s:.2f} s")
    # the criteria run one after another, so their times sum to about this
    print(f"all criteria took {wall_s:.2f} s wall time")
    print(f"report written to {path}")
    return 0 if report.passed else 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        raise _UsageError(message)


@functools.cache  # built once: building costs far more than a parse
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
    sweep.add_argument("--jobs", type=int, default=4, help="accepted for compatibility; no effect")
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
    said = io.StringIO()  # the verb's stdout, passed on when it ends
    try:
        with contextlib.redirect_stdout(said):
            if args.verb == "validate":
                return cmd_validate(out_dir, args.seed, args.trials)
            cfg = load_scenario(args.config)
            mc = _effective_mc(cfg, args)
            if args.verb == "geometry":
                return cmd_geometry(cfg, out_dir)
            return cmd_coverage(args.verb, cfg, out_dir, mc)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            print(said.getvalue(), end="", flush=True)
        except BrokenPipeError:  # the reader left: devnull takes the rest, as in Python's signal docs
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
