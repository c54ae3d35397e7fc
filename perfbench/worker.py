"""Worker interpreter: runs one workload's ops in-process and measures them.

Started by ``run.py``; imports orbitcov from the checkout's ``src/``.
Every op is one call of ``orbitcov.cli.main(argv)``, one after another
(a closed loop with one client). The first pass is a warm-up; its
outputs are the bytes every later pass must reproduce.

Untraced (``--trace 0``): timed passes run back to back until
``--seconds`` have passed (at least MIN_PASSES); ``wall_s`` is their
median. Traced (``--trace 1``): one untraced pass, one traced replay
pass (see tracing.py) and the layer probes (see probes.py).

The result goes to ``--result`` as JSON; spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from probes import Probes  # noqa: E402
from workloads import build_ops  # noqa: E402

MIN_PASSES = 3


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _import_library():
    import orbitcov
    import orbitcov.cli
    import orbitcov.config
    import orbitcov.coverage
    import orbitcov.distance
    import orbitcov.geometry
    import orbitcov.interference
    import orbitcov.montecarlo
    import orbitcov.validation

    where = Path(orbitcov.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"orbitcov imported from {where}, not from {SRC}")
    return SimpleNamespace(
        cli=orbitcov.cli,
        config=orbitcov.config,
        coverage=orbitcov.coverage,
        distance=orbitcov.distance,
        geometry=orbitcov.geometry,
        interference=orbitcov.interference,
        montecarlo=orbitcov.montecarlo,
        validation=orbitcov.validation,
    )


class Runner:
    def __init__(self, ops, scenario_dir: Path, work_dir: Path, lib):
        self.ops = ops
        self.scenario_dir = scenario_dir
        self.work_dir = work_dir
        self.lib = lib
        self.reference = checks.Reference.load()
        self.first: dict[str, bytes | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def _fail(self, op_name: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{op_name}: {p}" for p in problems[:3]]

    def run_pass(self) -> float:
        """One pass over the ops; returns its wall time. Checks run after
        the timed region."""
        out_dir = self.work_dir / f"pass-{self.passes}"
        out_dir.mkdir(parents=True)
        exits = []
        start = time.perf_counter()
        for op in self.ops:
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    exits.append(self.lib.cli.main(op.argv(self.scenario_dir, out_dir)))
            except Exception:  # an op that raises is a failed op, not a failed run
                exits.append(traceback.format_exc(limit=2).strip().splitlines()[-1])
        elapsed = time.perf_counter() - start
        for op, code in zip(self.ops, exits):
            self.attempted += 1
            out = out_dir / op.output_name
            problems = self.check(op, code, out)
            if problems:
                self._fail(op.name, problems)
            if self.passes == 0:
                self.first[op.name] = out.read_bytes() if out.is_file() else None
        if self.passes > 0:
            shutil.rmtree(out_dir)
        self.passes += 1
        return elapsed

    def check(self, op, code, out: Path) -> list[str]:
        if not isinstance(code, int):
            return [f"raised {code}"]
        first = self.first.get(op.name) if self.passes > 0 else None
        if self.passes > 0 and first is None:
            return ["no warm-up output to compare with"]
        return checks.check_op(op, code, out, self.reference, first, self.lib.cli.read_result_rows)

    def warm_outputs(self) -> Path:
        return self.work_dir / "pass-0"


def untraced(runner: Runner, seconds: float) -> dict:
    runner.run_pass()  # warm-up
    times = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        times.append(runner.run_pass())
    wall = statistics.median(times)
    warm = runner.warm_outputs()
    trials = sum(op.mc_trial_orbits for op in runner.ops)
    points = sum(
        checks.analytic_points(warm / op.output_name, runner.lib.cli.read_result_rows)
        for op in runner.ops
        if op.verb in ("coverage", "sweep") and (warm / op.output_name).is_file()
    )
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"wall_s.passes": (len(times), "count")}
    if len(times) >= 2:
        q = statistics.quantiles(times, n=4)
        extra["wall_s.p25"], extra["wall_s.p75"] = (q[0], "s"), (q[2], "s")
    if trials:
        extra["trials_per_s"] = (trials / wall, "1/s")
    if points:
        extra["points_per_s"] = (points / wall, "1/s")
    return {"metrics": metrics, "extra": extra, "pass_times": times}


def traced(runner: Runner, args, lib, spans_path: Path) -> dict:
    runner.run_pass()  # warm-up
    untraced_s = runner.run_pass()
    tracer = tracing.Tracer()
    replay_dir = runner.work_dir / "replay"
    replay_dir.mkdir()
    start = time.perf_counter()
    replayed = True
    for op_id, op in enumerate(runner.ops, start=1):
        runner.attempted += 1
        try:
            out = tracing.replay_op(tracer, op_id, op, runner.scenario_dir, replay_dir, lib)
        except tracing.MissingName as exc:
            replayed = False
            print(f"note: replay skipped, missing {exc}", file=sys.stderr)
            break
        if out.read_bytes() != runner.first.get(op.name):
            runner._fail(op.name, ["traced replay output differs from the CLI output"])
    traced_s = time.perf_counter() - start
    metrics, extra = {}, {}
    if replayed:
        self_s = tracing.self_times(tracer.spans)
        total = sum(self_s.values())
        for layer in tracing.LAYERS:
            layer_s = sum(self_s[s.span_id] for s in tracer.spans if s.layer == layer)
            metrics[f"{layer}.share"] = (layer_s / total, "fraction")
            extra[f"{layer}.self_s"] = (layer_s, "s")
        roots = [s for s in tracer.spans if s.parent is None]
        metrics["cli.self_ms"] = (sum(self_s[s.span_id] for s in roots) * 1e3, "ms")
        metrics["trace.replay_s"] = (traced_s, "s")
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
        extra["trace.untraced_pass_s"] = (untraced_s, "s")
    probes = Probes(lib, args.scale, runner.work_dir, args.seed)
    criteria_in_replay = replayed and any(s.name.startswith("validation.run_criterion.") for s in tracer.spans)
    if criteria_in_replay:
        for s in tracer.spans:
            if s.name.startswith("validation.run_criterion."):
                metrics[f"validation.criterion_{s.name.rsplit('.', 1)[1]}_s"] = (s.end - s.start, "s")
    probes.run_all(criteria=not criteria_in_replay)
    metrics.update(probes.metrics)
    for name in probes.absent:
        print(f"note: absent {name}", file=sys.stderr)
    spans_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "spans": [
                    {"id": s.span_id, "parent": s.parent, "op": s.op_id, "name": s.name, "start": s.start, "end": s.end}
                    for s in tracer.spans
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return {"metrics": metrics, "extra": extra, "absent": probes.absent}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--scenario-dir", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    lib = _import_library()
    ops = build_ops(args.workload, args.seed, args.scale)
    runner = Runner(ops, args.scenario_dir, args.work_dir, lib)
    if args.trace:
        result = traced(runner, args, lib, args.spans)
    else:
        result = untraced(runner, args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        meta={
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "nproc": os.cpu_count(),
            "src": str(Path(lib.cli.__file__).resolve().parent.parent),
        },
    )
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
