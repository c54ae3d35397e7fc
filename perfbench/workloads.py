"""The four benchmark workloads, as scenario files and CLI argument lists.

Every analytic parameter below is fixed, so the analytic rows a workload
emits do not depend on the seed and one reference-values file covers them
all. The seed only picks the Monte-Carlo seeds (and the ``validate``
seed), so two seeds run the same amount of work on different draws.

Reference shell: 500 km, omega_min = 10 deg, alpha = 2, g_i_bar = -13 dB.
The Monte-Carlo sweep passes ``--jobs 2``, the core count of the machine
the sizes were chosen on, never the CLI default of 4. The analytic sweeps
pass ``--jobs 1``: their quadrature callbacks hold the GIL, so a second
thread buys nothing, and on a shared two-vCPU machine the GIL hand-offs
made their pass times swing by up to 2x from run to run. What ``--jobs 2``
does to them is measured by the ``cli.sweep_jobs_speedup.analytic`` probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mc-single", "analytic-map", "constellation-sweep", "validate-gate")

ALTITUDE_KM = 500.0
MC_SWEEP_JOBS = "2"
ANALYTIC_SWEEP_JOBS = "1"
COARSE_DB = {"start_db": -10.0, "stop_db": 30.0, "step_db": 5.0}  # 9 points
FINE_DB = {"start_db": -10.0, "stop_db": 30.0, "step_db": 1.0}  # 41 points
BUDGET = {"tx_power_dbm": 40.0, "serving_gain_db": 30.0, "bandwidth_hz": 1.0e7}
# ten inclinations inside the visibility band (90 +/- 14.06 deg at 500 km, 10 deg)
MAP_THETAS_DEG = [76.5 + 3.0 * k for k in range(10)]
CONSTELLATION_DENSITIES = [0.001, 0.002, 0.005, 0.01]
GEOMETRY_OMEGAS_DEG = [0.0, 10.0, 20.0]


@dataclass
class Op:
    """One CLI invocation and what its output must look like."""

    name: str
    verb: str
    scenario: dict | None  # None for validate, which reads no scenario file
    extra_argv: list[str] = field(default_factory=list)
    expected_rows: dict[str, int] = field(default_factory=dict)  # curve kind -> rows
    mc_trial_orbits: int = 0  # trials x orbits x variants simulated, counted once per op

    def argv(self, scenario_dir: Path, out_dir: Path) -> list[str]:
        args = [self.verb]
        if self.scenario is not None:
            args += ["--config", str(scenario_dir / f"{self.name}.json")]
        return args + ["--out", str(out_dir)] + self.extra_argv

    @property
    def output_name(self) -> str:
        if self.verb == "validate":
            return "validate_report.txt"
        suffix = {"coverage": "coverage", "sweep": "sweep", "geometry": "geometry"}[self.verb]
        return f"{self.scenario['scenario_id']}_{suffix}.csv"


def _mc_seed(seed: int, index: int) -> int:
    return (seed * 7919 + 104729 * index) % (2**31)


def _orbit(theta_deg: float, density: float, phi_deg: float = 0.0) -> dict:
    return {"altitude_km": ALTITUDE_KM, "theta_deg": theta_deg, "phi_deg": phi_deg, "density_per_km": density}


def _scenario(scenario_id: str, orbits: list[dict], *, alpha=2.0, m=1, **sections) -> dict:
    data = {
        "scenario_id": scenario_id,
        "window": {"omega_min_deg": 10.0},
        "orbits": orbits,
        "channel": {"alpha": alpha, "m": m, "g_i_bar_db": -13.0},
    }
    data.update(sections)
    return data


def _n_thresholds(grid: dict) -> int:
    return int(round((grid["stop_db"] - grid["start_db"]) / grid["step_db"])) + 1


def _mc_single(seed: int, scale: float) -> list[Op]:
    # (name, theta, density, trials, batch): the dense shell holds ~860
    # satellites per trial, so its batch arrays dwarf the last-level cache
    shells = [
        ("mc-reference", 90.0, 0.005, 20_000, 10_000),
        ("mc-tilted", 80.0, 0.005, 20_000, 10_000),
        ("mc-sparse", 90.0, 0.001, 40_000, 10_000),
        ("mc-dense", 90.0, 0.02, 5_000, 5_000),
    ]
    n = _n_thresholds(COARSE_DB)
    ops = []
    for index, (name, theta, density, trials, batch) in enumerate(shells):
        trials = max(batch // 10, int(trials * scale))
        mc = {"trials": trials, "seed": _mc_seed(seed, index), "batch": min(batch, trials)}
        scenario = _scenario(name, [_orbit(theta, density)], budget=BUDGET, thresholds=COARSE_DB, mc=mc)
        kinds = ("SIR-analytic", "SNR-analytic", "SIR-MC", "SNR-MC", "SINR-MC", "SIR-delta", "SNR-delta")
        ops.append(Op(name, "coverage", scenario, expected_rows={k: n for k in kinds}, mc_trial_orbits=trials))
    return ops


def _analytic_map(seed: int, scale: float) -> list[Op]:
    ops = []
    n = _n_thresholds(FINE_DB)
    for m in (1, 3, 10):
        name = f"map-m{m}"
        scenario = _scenario(
            name,
            [_orbit(90.0, 0.005)],
            m=m,
            budget=BUDGET,
            thresholds=FINE_DB,
            sweep={"parameter": "theta_deg", "values": MAP_THETAS_DEG},
        )
        rows = n * len(MAP_THETAS_DEG)
        ops.append(
            Op(name, "sweep", scenario, ["--jobs", ANALYTIC_SWEEP_JOBS], {"SIR-analytic": rows, "SNR-analytic": rows})
        )
    # lambda L in the thousands: the e^(-lambda tau) boundary layer
    dense = _scenario("map-dense-orbit", [_orbit(90.0, 1.0)], alpha=4.0, m=2, thresholds=FINE_DB)
    ops.append(Op("map-dense-orbit", "coverage", dense, expected_rows={"SIR-analytic": n}))
    grid = {"theta_start_deg": 0.0, "theta_stop_deg": 180.0, "theta_step_deg": 1.0, "omega_min_deg": GEOMETRY_OMEGAS_DEG}
    geometry = _scenario("map-geometry", [_orbit(90.0, 0.005)], geometry=grid)
    ops.append(Op("map-geometry", "geometry", geometry, expected_rows={"geometry": 181 * len(GEOMETRY_OMEGAS_DEG)}))
    return ops


def _constellation_sweep(seed: int, scale: float) -> list[Op]:
    # three distinct inclinations; the first two orbits differ only in
    # phi, so the analytic per-orbit memo is hit
    orbits = [_orbit(90.0, 0.005, 0.0), _orbit(90.0, 0.005, 45.0), _orbit(84.0, 0.005, 90.0), _orbit(98.0, 0.005, 135.0)]
    trials = max(500, int(10_000 * scale))
    mc = {"trials": trials, "seed": _mc_seed(seed, 0), "batch": min(5_000, trials)}
    scenario = _scenario(
        "constellation",
        orbits,
        thresholds=COARSE_DB,
        mc=mc,
        sweep={"parameter": "density_per_km", "values": CONSTELLATION_DENSITIES},
    )
    rows = _n_thresholds(COARSE_DB) * len(CONSTELLATION_DENSITIES)
    expected = {"maxSIR-analytic": rows, "maxSIR-MC": rows, "maxSIR-delta": rows}
    simulated = trials * len(orbits) * len(CONSTELLATION_DENSITIES)
    return [Op("constellation", "sweep", scenario, ["--jobs", MC_SWEEP_JOBS], expected, simulated)]


VALIDATE_TRIALS = 10_000


def _validate_gate(seed: int, scale: float) -> list[Op]:
    trials = max(2_000, int(VALIDATE_TRIALS * scale))
    argv = ["--seed", str(seed % (2**31)), "--trials", str(trials)]
    return [Op("validate", "validate", None, argv)]


_BUILDERS = {
    "mc-single": _mc_single,
    "analytic-map": _analytic_map,
    "constellation-sweep": _constellation_sweep,
    "validate-gate": _validate_gate,
}


def build_ops(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The workload's ops for this seed; scale < 1 shrinks only the
    Monte-Carlo trial counts (smoke mode)."""
    return _BUILDERS[workload](seed, scale)


def write_scenarios(ops: list[Op], scenario_dir: Path) -> list[Path]:
    scenario_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        if op.scenario is None:
            continue
        path = scenario_dir / f"{op.name}.json"
        path.write_text(json.dumps(op.scenario, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
