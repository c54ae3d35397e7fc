"""Spans around the benchmark's calls into orbitcov, and the traced replay.

The replay re-issues, through public functions, the calls that
``cli.coverage_rows`` and the CLI verbs make, and records one span per
call: name, start, end, parent and the op id shared by the op's spans.
A span's layer is the module prefix of its name (``montecarlo.…``).
Spans inside the library are out of scope: time a library function
spends in modules it calls counts to the layer the benchmark called.

The replay writes its output the way the CLI does, and the worker
compares those bytes with the CLI's own output for the same op, so the
replay cannot drift from the CLI path unnoticed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("config", "geometry", "distance", "interference", "coverage", "montecarlo", "numerics", "validation", "cli")


class MissingName(LookupError):
    """A public name the replay or a probe needs is gone from the library."""


def lookup(module, name: str):
    try:
        return getattr(module, name)
    except AttributeError:
        raise MissingName(f"{module.__name__}.{name}") from None


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans in memory; the caller writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, op_id: int, parent: int | None = None):
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, parent, op_id, name, start, time.perf_counter()))

    def call(self, name: str, op_id: int, parent: int, fn, *args):
        with self.span(name, op_id, parent):
            return fn(*args)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.end - span.start - covered
    return out


# --- replay --------------------------------------------------------------


def _shared(values):
    unique = set(values)
    return unique.pop() if len(unique) == 1 else None


def _curve_rows(lib, cfg, curve, kind: str, seed):
    theta = _shared(row.theta_deg for row in cfg.orbit_rows)
    density = _shared(row.density_per_km for row in cfg.orbit_rows)
    ResultRow = lookup(lib.cli, "ResultRow")
    return [
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
        for i, gamma_db in enumerate(curve.thresholds_db)
    ]


def replay_coverage_rows(tracer: Tracer, op_id: int, parent: int, lib, cfg, mc) -> list:
    """The calls of ``cli.coverage_rows`` for an integer-m scenario."""
    cov, sim = lib.coverage, lib.montecarlo
    with tracer.span("cli.coverage_rows", op_id, parent) as me:
        constellation = tracer.call("config.ScenarioConfig.constellation", op_id, me, cfg.constellation)
        window, orbit = constellation.window, constellation.orbits[0]
        density, channel = constellation.densities_per_km[0], constellation.channel
        thresholds = cfg.thresholds_db
        analytic, simulated = {}, {}
        if constellation.n_orbits == 1:
            fn = lookup(cov, "sir_coverage_curve")
            curve = tracer.call("coverage.sir_coverage_curve", op_id, me, fn, orbit, window, density, channel, thresholds)
            analytic["SIR"] = _curve_rows(lib, cfg, curve, "SIR-analytic", None)
            if cfg.budget is not None:
                fn = lookup(cov, "snr_coverage_curve")
                curve = tracer.call(
                    "coverage.snr_coverage_curve", op_id, me, fn, orbit, window, density, channel, cfg.budget, thresholds
                )
                analytic["SNR"] = _curve_rows(lib, cfg, curve, "SNR-analytic", None)
        else:
            fn = lookup(cov, "max_sir_coverage_curve")
            curve = tracer.call("coverage.max_sir_coverage_curve", op_id, me, fn, constellation, thresholds)
            analytic["maxSIR"] = _curve_rows(lib, cfg, curve, "maxSIR-analytic", None)
        if mc is not None:
            if constellation.n_orbits == 1:
                fn = lookup(sim, "empirical_sir_coverage")
                _, unconditional = tracer.call("montecarlo.empirical_sir_coverage", op_id, me, fn, constellation, thresholds, mc)
                simulated["SIR"] = _curve_rows(lib, cfg, unconditional, "SIR-MC", mc.seed)
                if cfg.budget is not None:
                    fn = lookup(sim, "empirical_snr_sinr_coverage")
                    _, snr_u, _, sinr_u = tracer.call(
                        "montecarlo.empirical_snr_sinr_coverage", op_id, me, fn, constellation, cfg.budget, thresholds, mc
                    )
                    simulated["SNR"] = _curve_rows(lib, cfg, snr_u, "SNR-MC", mc.seed)
                    simulated["SINR"] = _curve_rows(lib, cfg, sinr_u, "SINR-MC", mc.seed)
            else:
                fn = lookup(sim, "empirical_max_sir_coverage")
                _, joint, _ = tracer.call("montecarlo.empirical_max_sir_coverage", op_id, me, fn, constellation, thresholds, mc)
                simulated["maxSIR"] = _curve_rows(lib, cfg, joint, "maxSIR-MC", mc.seed)
        rows = [row for key in ("SIR", "SNR", "maxSIR") for row in analytic.get(key, [])]
        rows += [row for key in ("SIR", "SNR", "SINR", "maxSIR") for row in simulated.get(key, [])]
        for key in ("SIR", "SNR", "maxSIR"):
            if key in analytic and key in simulated:
                rows += [
                    dataclasses.replace(s, curve_kind=f"{key}-delta", value=a.value - s.value, ci_low=None, ci_high=None)
                    for a, s in zip(analytic[key], simulated[key])
                ]
    return rows


def _sweep_variant(cfg, parameter: str, value: float):
    if parameter == "density_per_km":
        rows = tuple(dataclasses.replace(r, density_per_km=value) for r in cfg.orbit_rows)
    elif parameter == "theta_deg":
        rows = tuple(dataclasses.replace(r, theta_deg=value) for r in cfg.orbit_rows)
    else:
        raise ValueError(f"the replay does not sweep {parameter}")
    return dataclasses.replace(
        cfg, scenario_id=f"{cfg.scenario_id}__{parameter}_{value:g}", orbit_rows=rows, sweep=None
    )


def _replay_geometry(tracer: Tracer, op_id: int, parent: int, lib, cfg) -> str:
    geo = lib.geometry
    arc_fn, time_fn = lookup(geo, "visible_arc_length"), lookup(geo, "visible_time")
    reference = cfg.orbits()[0]
    speed = tracer.call("geometry.orbital_speed", op_id, parent, lookup(geo, "orbital_speed"), reference)
    grid = cfg.geometry
    thetas = []
    theta = grid.theta_start_deg
    while theta <= grid.theta_stop_deg + 1e-9:
        thetas.append(min(theta, 180.0))
        theta += grid.theta_step_deg
    lines = [lookup(lib.cli, "GEOMETRY_HEADER")]
    for omega_deg in grid.omega_min_deg:
        window = geo.VisibilityWindow.from_min_elevation(math.radians(omega_deg), reference)
        for theta_deg in thetas:
            orbit = geo.OrbitGeometry(
                altitude_km=reference.altitude_km, theta_rad=min(math.radians(theta_deg), math.pi), earth=cfg.earth
            )
            arc = tracer.call("geometry.visible_arc_length", op_id, parent, arc_fn, orbit, window)
            duration = tracer.call("geometry.visible_time", op_id, parent, time_fn, orbit, window)
            cells = (cfg.scenario_id, repr(float(omega_deg)), repr(float(theta_deg)), repr(arc), repr(duration), repr(speed))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def replay_op(tracer: Tracer, op_id: int, op, scenario_dir: Path, out_dir: Path, lib) -> Path:
    """Replay one op with spans; returns the file the replay wrote."""
    out = out_dir / op.output_name
    with tracer.span(f"cli.{op.verb}", op_id) as root:
        if op.verb == "validate":
            val = lib.validation
            seed = int(_flag(op.extra_argv, "--seed"))
            scale = int(_flag(op.extra_argv, "--trials")) / 1_000_000
            run_criterion = lookup(val, "run_criterion")
            results = [
                tracer.call(f"validation.run_criterion.{k}", op_id, root, run_criterion, k, seed, scale)
                for k in sorted(lookup(val, "CRITERION_NAMES"))
            ]
            report = lookup(val, "ValidationReport")(seed=seed, trials_scale=scale, results=results)
            text = tracer.call("validation.render_report", op_id, root, lookup(val, "render_report"), report)
            tracer.call("cli.write_report", op_id, root, out.write_text, text, "utf-8")
            return out
        load = lookup(lib.config, "load_scenario")
        cfg = tracer.call("config.load_scenario", op_id, root, load, scenario_dir / f"{op.name}.json")
        if op.verb == "geometry":
            text = _replay_geometry(tracer, op_id, root, lib, cfg)
            tracer.call("cli.write_geometry", op_id, root, out.write_text, text, "utf-8")
            return out
        if op.verb == "coverage":
            rows = replay_coverage_rows(tracer, op_id, root, lib, cfg, cfg.mc)
        else:
            variants = [_sweep_variant(cfg, cfg.sweep.parameter, v) for v in cfg.sweep.values]
            with ThreadPoolExecutor(max_workers=int(_flag(op.extra_argv, "--jobs"))) as pool:
                futures = [pool.submit(replay_coverage_rows, tracer, op_id, root, lib, v, cfg.mc) for v in variants]
                rows = [row for future in futures for row in future.result()]
        tracer.call("cli.write_result_rows", op_id, root, lookup(lib.cli, "write_result_rows"), out, rows)
    return out
