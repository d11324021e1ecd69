"""Checks a written branchsim report against what its workload must certify.

The verifier knows nothing of branchsim's code: it reads the report and
compares it with closed-form expectations, so a defect in the package
cannot also hide itself here.
"""

from __future__ import annotations

import json
import math

from workloads import Workload


def report_problems(report: dict, exit_code: int, workload: Workload) -> list[str]:
    """Every way the report falls short; an empty list means it is correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if report.get("summary", {}).get("all_passed") is not True:
        problems.append("summary.all_passed is not true")
    runs = report.get("runs", [])
    if len(runs) != workload.runs:
        problems.append(f"{len(runs)} runs, expected {workload.runs}")
    n = workload.n_versions
    labels = [f"M{j}" for j in range(1, n + 1)]
    for run in runs:
        where = f"run {run.get('run_index')}"
        branches = run.get("branches", [])
        if [b.get("label") for b in branches] != labels:
            problems.append(f"{where}: branch labels {[b.get('label') for b in branches]}")
        else:
            for branch, (re, im) in zip(branches, run["coefficients"]):
                expected = re * re + im * im
                if not math.isclose(branch["weight"], expected, rel_tol=1e-12, abs_tol=1e-15):
                    problems.append(
                        f"{where}: {branch['label']} weight {branch['weight']!r}, "
                        f"expected |c|^2 = {expected!r}"
                    )
        final = run.get("final_state", {})
        if final.get("support") != n:
            problems.append(f"{where}: support {final.get('support')}, expected {n}")
        if final.get("dimension") != workload.dimension:
            problems.append(
                f"{where}: dimension {final.get('dimension')}, expected {workload.dimension}"
            )
        statuses = {c.get("name"): c.get("status") for c in run.get("checks", [])}
        for name in workload.checks:
            allowed = ("pass", "skip") if _may_skip(name, workload) else ("pass",)
            if statuses.get(name) not in allowed:
                problems.append(f"{where}: check {name} is {statuses.get(name)}")
    return problems


def _may_skip(check: str, workload: Workload) -> bool:
    return check == "observer_agreement" and workload.observers < 2


def negative_control_problems(report: dict, exit_code: int) -> list[str]:
    """The corrupted run must exit 1 with the mixed-record check failing."""
    problems = []
    if exit_code != 1:
        problems.append(f"negative control exited {exit_code}, expected 1")
    failing = [
        c
        for run in report.get("runs", [])
        for c in run.get("checks", [])
        if c.get("name") == "mixed_record" and c.get("status") == "fail"
    ]
    if not failing:
        problems.append("negative control: mixed_record did not fail")
    return problems


def canonical(report: dict) -> str:
    """The report without its timings, which must repeat byte for byte."""
    return json.dumps(
        {k: v for k, v in report.items() if k != "timings"}, indent=2, sort_keys=True
    )
