"""Correctness checks applied to every op the benchmark runs.

An op passes when all of these hold:

* the CLI returned exit code 0;
* its output reads back (result CSVs through ``read_result_rows``) with
  the expected curve kinds and row counts;
* every analytic value matches ``reference_values.json`` within
  REL_TOL relative (plus ABS_TOL, the outer quadrature's absolute
  tolerance, for values near zero);
* every ``*-delta`` row lies within WILSON_MULTIPLE half-widths of the
  matching Monte-Carlo row's 95 % Wilson interval;
* a ``validate`` report ends in ``result: PASS``;
* the output bytes equal those of the same op in the warm-up pass.

The multiple is set by the rows near coverage 0 or 1, where the Wilson
interval of an all-success (or all-failure) sample is only z^2 / 2n wide.
Taking the reference analytic values as the true probabilities, the exact
binomial chance that some delta row of one run fails WILSON_MULTIPLE = 6
is about 2e-7 (``make_reference.py --false-failure`` prints it), so a
false failure over thousands of runs stays below 1e-3. Away from 0 and 1
the bound is about 12 standard errors.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

REL_TOL = 1e-7
ABS_TOL = 1e-10
WILSON_MULTIPLE = 6.0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_values.json"


class Reference:
    """Analytic values per (scenario_id, curve kind, threshold) and
    geometry rows per scenario_id."""

    def __init__(self, data: dict):
        self.meta = {k: v for k, v in data.items() if k not in ("curves", "geometry")}
        self.curves = {
            (sid, kind, gamma): value
            for sid, kinds in data["curves"].items()
            for kind, points in kinds.items()
            for gamma, value in points
        }
        self.geometry = data["geometry"]

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        return cls(json.loads(path.read_text(encoding="utf-8")))


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * abs(reference) + ABS_TOL


def _check_result_rows(rows, expected: dict[str, int], reference: Reference) -> list[str]:
    problems = []
    counts = Counter(row.curve_kind for row in rows)
    if dict(counts) != expected:
        problems.append(f"curve kinds/rows {dict(sorted(counts.items()))} != expected {dict(sorted(expected.items()))}")
    mc = {(r.scenario_id, r.curve_kind, r.gamma_db): r for r in rows if r.curve_kind.endswith("-MC")}
    for row in rows:
        key = (row.scenario_id, row.curve_kind, row.gamma_db)
        if row.curve_kind.endswith("-analytic"):
            ref = reference.curves.get(key)
            if ref is None:
                problems.append(f"no reference value for {key}")
            elif not close(row.value, ref):
                problems.append(f"{key}: {row.value!r} differs from reference {ref!r}")
        elif row.curve_kind.endswith("-delta"):
            twin = mc.get((row.scenario_id, row.curve_kind[: -len("-delta")] + "-MC", row.gamma_db))
            if twin is None or twin.ci_low is None or twin.ci_high is None:
                problems.append(f"{key}: no Monte-Carlo row with an interval")
                continue
            half = 0.5 * (twin.ci_high - twin.ci_low)
            if not abs(row.value) <= WILSON_MULTIPLE * half:
                problems.append(f"{key}: |delta| {abs(row.value):.3g} > {WILSON_MULTIPLE:g} x Wilson half-width {half:.3g}")
    return problems


def _check_geometry(text: str, scenario_id: str, expected_rows: int, reference: Reference) -> list[str]:
    lines = text.splitlines()
    body = lines[1:]
    if len(body) != expected_rows:
        return [f"geometry rows {len(body)} != expected {expected_rows}"]
    ref_rows = reference.geometry.get(scenario_id)
    if ref_rows is None or len(ref_rows) != len(body):
        return [f"no reference geometry for {scenario_id}"]
    problems = []
    for line, ref in zip(body, ref_rows):
        cells = line.split(",")
        values = [float(c) for c in cells[1:]]
        if cells[0] != scenario_id or not all(close(v, r) for v, r in zip(values, ref)) or len(values) != len(ref):
            problems.append(f"geometry row {line!r} differs from reference {ref!r}")
    return problems


def check_op(op, exit_code: int, out_path: Path, reference: Reference, first_bytes: bytes | None, read_result_rows) -> list[str]:
    """Problems found with one op's run; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        data = out_path.read_bytes()
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    problems = []
    if first_bytes is not None and data != first_bytes:
        problems.append("output bytes differ from the warm-up pass")
    if op.verb == "validate":
        lines = data.decode("utf-8").strip().splitlines()
        if not lines or not lines[-1].startswith("result: PASS"):
            problems.append(f"validate report reads {lines[-1] if lines else '(empty)'!r}")
    elif op.verb == "geometry":
        problems += _check_geometry(data.decode("utf-8"), op.scenario["scenario_id"], op.expected_rows["geometry"], reference)
    else:
        try:
            rows = read_result_rows(out_path)
        except (ValueError, KeyError) as exc:
            return problems + [f"result rows do not read back: {exc}"]
        problems += _check_result_rows(rows, op.expected_rows, reference)
    return problems


def analytic_points(out_path: Path, read_result_rows) -> int:
    """Analytic curve points (threshold x curve) in a result CSV."""
    return sum(1 for row in read_result_rows(out_path) if row.curve_kind.endswith("-analytic"))


def wilson_false_failure(p: float, n: int, z: float = 1.96) -> float:
    """Exact binomial probability that a delta row with true coverage p
    and n trials fails the WILSON_MULTIPLE bound."""
    total = 0.0
    log_p = math.log(p) if p > 0 else -math.inf
    log_q = math.log1p(-p) if p < 1 else -math.inf
    for k in range(n + 1):
        phat = k / n
        denom = 1.0 + z * z / n
        half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
        center = (phat + z * z / (2.0 * n)) / denom
        lo, hi = max(0.0, center - half), min(1.0, center + half)
        if abs(p - phat) <= WILSON_MULTIPLE * 0.5 * (hi - lo):
            continue
        terms = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        log_pmf = terms + (k * log_p if k else 0.0) + ((n - k) * log_q if n - k else 0.0)
        total += math.exp(log_pmf) if log_pmf > -745 else 0.0
    return total
