"""Write ``reference_values.json``: every analytic row the workloads emit.

Run from the repository root against the commit the reference should
pin::

    python3 perfbench/make_reference.py
    python3 perfbench/make_reference.py --false-failure

The first form runs each coverage, sweep and geometry op of every
workload through ``orbitcov.cli.main`` (with a small ``--trials``, which
leaves analytic rows unchanged) and records the analytic values with the
commit and library versions. Analytic parameters do not depend on the
benchmark seed, so neither does the file.

``--false-failure`` reads the file back and prints, for the largest
Monte-Carlo trial counts the workloads use, the exact binomial
probability that a delta row fails the Wilson bound in ``checks.py``,
summed over one run's rows and for the worst row.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from orbitcov.cli import main, read_result_rows  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, build_ops, write_scenarios  # noqa: E402

REFERENCE_TRIALS = "2000"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def generate() -> dict:
    curves: dict[str, dict[str, list]] = {}
    geometry: dict[str, list] = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        tmp = Path(tmp)
        for workload in WORKLOADS:
            ops = [op for op in build_ops(workload, seed=0) if op.scenario is not None]
            write_scenarios(ops, tmp)
            for op in ops:
                argv = op.argv(tmp, tmp)
                if "mc" in op.scenario:
                    argv += ["--trials", REFERENCE_TRIALS]
                if main(argv) != 0:
                    raise SystemExit(f"{op.name}: CLI failed")
                out = tmp / op.output_name
                if op.verb == "geometry":
                    lines = out.read_text(encoding="utf-8").splitlines()[1:]
                    geometry[op.scenario["scenario_id"]] = [[float(c) for c in line.split(",")[1:]] for line in lines]
                    continue
                for row in read_result_rows(out):
                    if row.curve_kind.endswith("-analytic"):
                        curves.setdefault(row.scenario_id, {}).setdefault(row.curve_kind, []).append(
                            [row.gamma_db, row.value]
                        )
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "rel_tol": checks.REL_TOL,
        "abs_tol": checks.ABS_TOL,
        "curves": curves,
        "geometry": geometry,
    }


def false_failure() -> None:
    reference = checks.Reference.load()
    worst = (0.0, None)
    rows = 0
    per_run = 0.0
    for workload in ("mc-single", "constellation-sweep"):
        for op in build_ops(workload, seed=0):
            n = op.scenario["mc"]["trials"]
            for (sid, kind, gamma), p in reference.curves.items():
                if not sid.startswith(op.scenario["scenario_id"]):
                    continue
                rows += 1
                prob = checks.wilson_false_failure(p, n)
                per_run += prob
                if prob >= worst[0]:
                    worst = (prob, (sid, kind, gamma, p, n))
    print(f"{rows} delta rows per run; false-failure probability per run <= {per_run:.3g}")
    print(f"worst row: {worst[0]:.3g} at {worst[1]}")


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--false-failure", action="store_true", help="report the delta check's false-failure odds")
    args = parser.parse_args()
    if args.false_failure:
        false_failure()
        return 0
    data = generate()
    checks.REFERENCE_PATH.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
    n = sum(len(points) for kinds in data["curves"].values() for points in kinds.values())
    print(f"wrote {n} analytic values and {len(data['geometry'])} geometry tables to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
