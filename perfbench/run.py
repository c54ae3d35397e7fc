"""orbitcov benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload mc-single --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout of the repository; the library is imported from its
``src/``. The run writes scenario files generated from ``--seed``, times
set-up in fresh interpreters, then starts a worker interpreter
(worker.py) that runs the workload's ops. It prints one line per metric,
a line of run metadata, and as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Run records and spans are kept under ``perfbench/out/``.

``--smoke`` runs every workload at tiny Monte-Carlo sizes, traced and
untraced, checks that every metric of BENCHMARK.json is printed, and
shows that the correctness check flags an analytic value perturbed by
1e-5 relative and a nonzero CLI exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build_ops, write_scenarios  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBE_REPEATS = 3
DEADLINE_S = 170.0

# times `import orbitcov.cli` and loading the workload's scenario files
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import orbitcov.cli
from orbitcov.config import load_scenario
t1 = time.perf_counter()
for path in sys.argv[1:]:
    load_scenario(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, timeout), check=False
    )


def measure_setup(scenario_paths: list[Path], deadline: float) -> dict:
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = _python(["-c", SETUP_CODE, *map(str, scenario_paths)], deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["import_s"] + r["load_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
    }


def scipy_import_s(deadline: float) -> float:
    """Seconds of ``import orbitcov.cli`` spent importing scipy modules,
    summed from ``-X importtime`` self times (0 when scipy is not used)."""
    totals = []
    for _ in range(IMPORT_PROBE_REPEATS):
        proc = _python(["-X", "importtime", "-c", "import orbitcov.cli"], deadline - time.monotonic())
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip().startswith("scipy"):
                total_us += int(parts[0].split(":")[1])
        totals.append(total_us / 1e6)
    return statistics.median(totals)


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """One benchmark run; returns the contract result plus run details."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        ops = build_ops(workload, seed, scale)
        scenario_dir = work / "scenarios"
        paths = write_scenarios(ops, scenario_dir)
        setup = measure_setup(paths, deadline)
        result_path = work / "result.json"
        proc = _python(
            [
                str(HERE / "worker.py"),
                f"--workload={workload}",
                f"--seed={seed}",
                f"--seconds={seconds}",
                f"--trace={trace}",
                f"--scale={scale}",
                f"--scenario-dir={scenario_dir}",
                f"--work-dir={work / 'worker'}",
                f"--result={result_path}",
                f"--spans={OUT / f'spans-{tag}.json'}",
            ],
            deadline - time.monotonic(),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not result_path.is_file():
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        worker = json.loads(result_path.read_text(encoding="utf-8"))
        if trace:
            extra_setup = {
                "import.orbitcov_s": (setup["import_s"], "s"),
                "import.scipy_s": (scipy_import_s(deadline), "s"),
            }
        else:
            extra_setup = {"setup_s": (setup["setup_s"], "s")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {**extra_setup, **worker["metrics"]}
    meta = {"workload": workload, "seed": seed, "trace": trace, **worker["meta"]}
    record = {
        "meta": meta,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "problems": worker["problems"],
        "absent": worker.get("absent", []),
        "metrics": metrics,
        "extra": worker["extra"],
        "pass_times": worker.get("pass_times", []),
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name in record["absent"]:
        print(f"absent {name}")
    failed_frac = record["failed"] / record["attempted"]
    print(f"ops_failed_frac {failed_frac!r} fraction ({record['failed']} of {record['attempted']} ops)")
    for name, (value, unit) in sorted({**record["metrics"], **record["extra"]}.items()):
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"meta": record["meta"]}))


def contract_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
        }
    )


def smoke() -> int:
    """Tiny runs of every workload, then the two injected failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(workload, seed=1, seconds=1, trace=trace, scale=0.1)
            print(f"== {workload} trace={trace}")
            print_record(record)
            got = {name: unit for name, (_, unit) in record["metrics"].items()}
            if got != expected[trace]:
                ok = False
                print(f"SMOKE metric names/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if record["failed"]:
                ok = False
    proc = _python([str(HERE / "selftest.py")], DEADLINE_S)
    print(proc.stdout, end="")
    sys.stderr.write(proc.stderr)
    ok &= proc.returncode == 0
    print(f"smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="orbitcov benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny runs of every workload plus the check self-test")
    args = parser.parse_args()
    if not (SRC / "orbitcov" / "__init__.py").is_file():
        print(f"error: no orbitcov sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
