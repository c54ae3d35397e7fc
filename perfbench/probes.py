"""Layer probes: fixed small calls into each module's public functions.

Each probe looks its functions up by name. When a later version of the
library drops a name, the probe's metrics are reported as absent and the
run goes on. Inputs are fixed (reference shell unless stated), so the
probes read the same on every workload; ``scale`` shrinks Monte-Carlo
trial counts in smoke mode only.

Every probe times a call with the result consumed, takes the median of a
few repeats, and divides by the work in the call.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracing import MissingName, lookup
from workloads import COARSE_DB, FINE_DB, VALIDATE_TRIALS, build_ops, write_scenarios

OMEGA_MIN_DEG = 10.0
REFERENCE_DENSITY = 0.005
DENSE_DENSITY = 0.02


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Probes:
    def __init__(self, lib, scale: float, work_dir: Path, seed: int):
        self.lib = lib
        self.scale = scale
        self.work_dir = work_dir
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.absent: list[str] = []
        geo = lib.geometry
        self.orbit = geo.OrbitGeometry(altitude_km=500.0, theta_rad=math.pi / 2)
        self.window = geo.VisibilityWindow.from_min_elevation(math.radians(OMEGA_MIN_DEG), self.orbit)
        self.thresholds = lib.coverage.threshold_grid_db(COARSE_DB["start_db"], COARSE_DB["stop_db"], COARSE_DB["step_db"])

    def _trials(self, full: int) -> int:
        return max(500, int(full * self.scale))

    def _channel(self, m: int = 1, alpha: float = 2.0):
        return self.lib.interference.ChannelParams(alpha=alpha, m=float(m), g_i_bar=10.0 ** (-13.0 / 10.0))

    def _constellation(self, orbits, densities, channel):
        return self.lib.coverage.ConstellationSpec(
            orbits=tuple(orbits), densities_per_km=tuple(densities), window=self.window, channel=channel
        )

    def _four_orbits(self):
        geo = self.lib.geometry
        specs = ((90.0, 0.0), (90.0, 45.0), (84.0, 90.0), (98.0, 135.0))
        orbits = [geo.OrbitGeometry(altitude_km=500.0, theta_rad=math.radians(t), phi_rad=math.radians(p)) for t, p in specs]
        return self._constellation(orbits, [REFERENCE_DENSITY] * 4, self._channel())

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def run(self, names: list[str], probe) -> None:
        """Run one probe; on a missing public name its metrics are absent."""
        try:
            probe()
        except MissingName as exc:
            self.absent += [f"{name} (missing {exc})" for name in names]

    # --- probes ----------------------------------------------------------

    def config(self) -> None:
        ops = build_ops("mc-single", self.seed, self.scale)[:1]
        path = write_scenarios(ops, self.work_dir)[0]
        load = lookup(self.lib.config, "load_scenario")
        per = _median_time(lambda: [load(path) for _ in range(20)], 5) / 20
        self.put("config.load_scenario_ms", per * 1e3, "ms")

    def montecarlo(self) -> None:
        sim = self.lib.montecarlo
        McConfig = lookup(sim, "McConfig")
        sir, snr = lookup(sim, "empirical_sir_coverage"), lookup(sim, "empirical_snr_sinr_coverage")
        budget = self.lib.coverage.LinkBudget()
        single = self._constellation([self.orbit], [REFERENCE_DENSITY], self._channel())
        n = self._trials(20_000)
        cfg = McConfig(trials=n, seed=11, batch=min(10_000, n))
        t_sir = _median_time(lambda: sir(single, self.thresholds, cfg), 3)
        self.put("montecarlo.sir_trials_per_s", n / t_sir, "1/s")
        visible = REFERENCE_DENSITY * self.lib.geometry.visible_arc_length(self.orbit, self.window)
        self.put("montecarlo.visible_sats_per_s", n * visible / t_sir, "1/s")
        t_snr = _median_time(lambda: snr(single, budget, self.thresholds, cfg), 3)
        self.put("montecarlo.snr_sinr_trials_per_s", n / t_snr, "1/s")
        dense = self._constellation([self.orbit], [DENSE_DENSITY], self._channel())
        nd = self._trials(5_000)
        dense_cfg = McConfig(trials=nd, seed=12, batch=min(5_000, nd))
        self.put("montecarlo.dense_trials_per_s", nd / _median_time(lambda: sir(dense, self.thresholds, dense_cfg), 3), "1/s")

    def max_sir(self) -> None:
        sim = self.lib.montecarlo
        fn, McConfig = lookup(sim, "empirical_max_sir_coverage"), lookup(sim, "McConfig")
        four = self._four_orbits()
        n = self._trials(5_000)
        cfg = McConfig(trials=n, seed=13, batch=min(5_000, n))
        t = _median_time(lambda: fn(four, self.thresholds, cfg), 3)
        self.put("montecarlo.max_sir_orbit_trials_per_s", n * four.n_orbits / t, "1/s")
        curve = lookup(self.lib.coverage, "max_sir_coverage_curve")
        self.put("coverage.max_sir_curve_ms", _median_time(lambda: curve(four, self.thresholds), 3) * 1e3, "ms")

    def nearest(self) -> None:
        """The criterion-3 grid of inclinations and densities."""
        sim, val = self.lib.montecarlo, self.lib.validation
        fn, McConfig = lookup(sim, "empirical_nearest_ccdf"), lookup(sim, "McConfig")
        Law = lookup(self.lib.distance, "NearestDistanceLaw")
        geo = self.lib.geometry
        n = self._trials(5_000)
        cases = []
        for theta in lookup(val, "THETA_GRID"):
            orbit = geo.OrbitGeometry(altitude_km=500.0, theta_rad=theta)
            window = geo.VisibilityWindow.from_min_elevation(math.radians(OMEGA_MIN_DEG), orbit)
            for density in lookup(val, "DENSITY_GRID"):
                law = Law(orbit, window, density)
                grid = [law.d_min_km + (law.d_max_km - law.d_min_km) * i / 201 for i in range(1, 201)]
                cases.append((orbit, window, density, grid))

        def sweep():
            for i, (orbit, window, density, grid) in enumerate(cases):
                fn(orbit, window, density, grid, McConfig(trials=n, seed=14 + i, batch=n))

        self.put("montecarlo.nearest_trials_per_s", n * len(cases) / _median_time(sweep, 3), "1/s")

    def coverage_points(self) -> None:
        cov = self.lib.coverage
        sir, snr = lookup(cov, "sir_coverage"), lookup(cov, "snr_coverage")
        gammas = [cov.db_to_linear(g) for g in self.thresholds]
        for m in (1, 3, 10):
            channel = self._channel(m)
            t = _median_time(lambda: [sir(self.orbit, self.window, REFERENCE_DENSITY, channel, g) for g in gammas], 3)
            self.put(f"coverage.sir_point_ms.m{m}", t / len(gammas) * 1e3, "ms")
        budget, channel = cov.LinkBudget(), self._channel()
        t = _median_time(lambda: [snr(self.orbit, self.window, REFERENCE_DENSITY, channel, budget, g) for g in gammas], 5)
        self.put("coverage.snr_point_ms", t / len(gammas) * 1e3, "ms")
        curve = lookup(cov, "sir_coverage_curve")
        fine = cov.threshold_grid_db(FINE_DB["start_db"], FINE_DB["stop_db"], FINE_DB["step_db"])
        dense = self._channel(2, alpha=4.0)
        t = _median_time(lambda: curve(self.orbit, self.window, 1.0, dense, fine), 3)
        self.put("coverage.dense_curve_ms", t * 1e3, "ms")

    def laplace(self) -> None:
        fn = lookup(self.lib.interference, "laplace_derivatives")
        geo = self.lib.geometry
        channel = self._channel(10)
        r = float(geo.arc_to_distance(self.orbit, 0.25 * geo.visible_arc_length(self.orbit, self.window)))
        s = 10.0 * r**2  # m * gamma * r^alpha at gamma = 0 dB
        for t in (0, 2, 9):
            per = _median_time(lambda: [fn(self.orbit, self.window, REFERENCE_DENSITY, channel, r, s, t) for _ in range(50)], 3)
            self.put(f"interference.laplace_derivs_ms.t{t}", per / 50 * 1e3, "ms")

    def geometry_distance(self) -> None:
        geo = self.lib.geometry
        arc_fn, to_dist = lookup(geo, "visible_arc_length"), lookup(geo, "arc_to_distance")
        per = _median_time(lambda: [arc_fn(self.orbit, self.window) for _ in range(2_000)], 5) / 2_000
        self.put("geometry.visible_arc_length_us", per * 1e6, "us")
        ell = np.linspace(0.0, geo.visible_arc_length(self.orbit, self.window), 200_000)
        per = _median_time(lambda: to_dist(self.orbit, ell), 5) / ell.size
        self.put("geometry.arc_to_distance_ns_per_pt", per * 1e9, "ns/pt")
        law = lookup(self.lib.distance, "NearestDistanceLaw")(self.orbit, self.window, REFERENCE_DENSITY)
        ccdf = lookup(self.lib.distance, "nearest_ccdf")
        r = 0.5 * (law.d_min_km + law.d_max_km)
        per = _median_time(lambda: [ccdf(law, r) for _ in range(1_000)], 5) / 1_000
        self.put("distance.nearest_ccdf_us", per * 1e6, "us")

    def write_rows(self) -> None:
        cli = self.lib.cli
        write, ResultRow = lookup(cli, "write_result_rows"), lookup(cli, "ResultRow")
        rows = [ResultRow("probe", "SIR-MC", -10.0 + 0.01 * i, 1.0 / (i + 3), 0.1, 0.9, 90.0, 0.005, 2.0, 1.0, 1, 7) for i in range(1_000)]
        path = self.work_dir / "probe_rows.csv"
        self.put("cli.write_rows_ms", _median_time(lambda: write(path, rows), 5) * 1e3, "ms")

    def sweep_speedup(self) -> None:
        """--jobs 1 time over --jobs 2 time for one MC and one analytic sweep."""
        main = lookup(self.lib.cli, "main")
        mc = build_ops("constellation-sweep", self.seed, 0.5 * self.scale)[0]
        analytic = build_ops("analytic-map", self.seed, self.scale)[1]  # the m = 3 map
        write_scenarios([mc, analytic], self.work_dir)
        for label, op in (("mc", mc), ("analytic", analytic)):
            argv = op.argv(self.work_dir, self.work_dir)[:-2]  # drop the workload's --jobs

            def timed(jobs: str) -> float:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    if main(argv + ["--jobs", jobs]) != 0:
                        raise RuntimeError(f"probe sweep {op.name} failed")
                    return time.perf_counter() - start

            ones, twos = [], []
            for _ in range(2):
                ones.append(timed("1"))
                twos.append(timed("2"))
            self.put(f"cli.sweep_jobs_speedup.{label}", statistics.median(ones) / statistics.median(twos), "ratio")

    def criteria(self) -> None:
        val = self.lib.validation
        run_criterion = lookup(val, "run_criterion")
        scale = max(2_000, int(VALIDATE_TRIALS * self.scale)) / 1_000_000
        for k in sorted(lookup(val, "CRITERION_NAMES")):
            start = time.perf_counter()
            run_criterion(k, self.seed % (2**31), scale)
            self.put(f"validation.criterion_{k}_s", time.perf_counter() - start, "s")

    def run_all(self, criteria: bool) -> None:
        self.run(["config.load_scenario_ms"], self.config)
        self.run(
            [f"montecarlo.{n}" for n in ("sir_trials_per_s", "visible_sats_per_s", "snr_sinr_trials_per_s", "dense_trials_per_s")],
            self.montecarlo,
        )
        self.run(["montecarlo.max_sir_orbit_trials_per_s", "coverage.max_sir_curve_ms"], self.max_sir)
        self.run(["montecarlo.nearest_trials_per_s"], self.nearest)
        self.run(
            [f"coverage.sir_point_ms.m{m}" for m in (1, 3, 10)] + ["coverage.snr_point_ms", "coverage.dense_curve_ms"],
            self.coverage_points,
        )
        self.run([f"interference.laplace_derivs_ms.t{t}" for t in (0, 2, 9)], self.laplace)
        self.run(
            ["geometry.visible_arc_length_us", "geometry.arc_to_distance_ns_per_pt", "distance.nearest_ccdf_us"],
            self.geometry_distance,
        )
        self.run(["cli.write_rows_ms"], self.write_rows)
        self.run(["cli.sweep_jobs_speedup.mc", "cli.sweep_jobs_speedup.analytic"], self.sweep_speedup)
        if criteria:
            self.run([f"validation.criterion_{k}_s" for k in range(1, 10)], self.criteria)
