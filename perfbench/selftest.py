"""Shows that the per-op correctness check catches injected failures.

    python3 perfbench/selftest.py

Runs one small ``mc-single`` op through the CLI and checks it three
ways: as written (must pass), with one analytic value perturbed by 1e-5
relative (must fail against the reference values), and with the CLI
pointed at a missing scenario file, which exits nonzero (must fail).
Exits 0 when all three behave.
"""

from __future__ import annotations

import dataclasses
import io
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orbitcov.cli import main, read_result_rows, write_result_rows  # noqa: E402

import checks  # noqa: E402
from workloads import build_ops, write_scenarios  # noqa: E402


def _cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def run() -> int:
    reference = checks.Reference.load()
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        op = build_ops("mc-single", seed=1, scale=0.1)[0]
        write_scenarios([op], work)
        out = work / op.output_name
        code = _cli(op.argv(work, work))
        clean = checks.check_op(op, code, out, reference, None, read_result_rows)

        rows = read_result_rows(out)
        i = next(i for i, row in enumerate(rows) if row.curve_kind.endswith("-analytic"))
        rows[i] = dataclasses.replace(rows[i], value=rows[i].value * (1.0 + 1e-5))
        perturbed_path = work / "perturbed.csv"
        write_result_rows(perturbed_path, rows)
        perturbed = checks.check_op(op, 0, perturbed_path, reference, None, read_result_rows)

        code = _cli(["coverage", "--config", str(work / "missing.json"), "--out", str(work)])
        nonzero = checks.check_op(op, code, out, reference, None, read_result_rows)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cases = (
        ("unmodified op passes", not clean, clean),
        ("analytic value perturbed by 1e-5 relative is flagged", bool(perturbed), perturbed),
        ("nonzero CLI exit is flagged", bool(nonzero), nonzero),
    )
    ok = True
    for label, good, problems in cases:
        ok &= good
        print(f"selftest {label}: {'yes' if good else 'NO'} {problems[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
