"""Self-tests of the benchmark's verifier and tracer.

    python3 bench/selftest.py

Runs two small branchsim configs in this process and checks that the
verifier accepts their reports and rejects tampered ones and the
negative-control report, and that the tracer's self times add up.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import time

from tracer import Tracer
from verify import canonical, negative_control_problems, report_problems
from workloads import Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import branchsim.cli  # noqa: E402

SMALL = {
    "chain": (
        Workload("generalized", 3, 2, True, draws=2),
        {
            "experiment": "generalized",
            "n_versions": 3,
            "observers": 2,
            "photon_model": True,
            "coefficients": {"random": 2},
            "seed": 5,
        },
    ),
    "rotation": (
        Workload("appendix_rotation", 2, 2, True, thetas=3),
        {
            "experiment": "appendix_rotation",
            "n_versions": 2,
            "observers": 2,
            "photon_model": True,
            "coefficients": [[0.6, 0.0], [0.8, 0.0]],
            "thetas": {"count": 3},
        },
    ),
}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_cli(work: str, config: dict, *flags: str) -> tuple[int, dict]:
    config_path = os.path.join(work, "config.json")
    report_path = os.path.join(work, "report.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    exit_code = branchsim.cli.main(["run", config_path, "--out", report_path, *flags])
    with open(report_path, encoding="utf-8") as handle:
        return exit_code, json.load(handle)


def tampered(report: dict, edit) -> dict:
    copied = copy.deepcopy(report)
    edit(copied)
    return copied


def test_verifier(work: str) -> None:
    for name, (workload, config) in SMALL.items():
        exit_code, report = run_cli(work, config)
        check(report_problems(report, exit_code, workload) == [], f"{name}: real report rejected")
        check(
            negative_control_problems(report, exit_code) != [],
            f"{name}: passing run taken as a negative control",
        )

        def swap_labels(r):
            first, second = r["runs"][0]["branches"][:2]
            first["label"], second["label"] = second["label"], first["label"]

        def set_field(*path, value):
            def edit(r):
                target = r
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value

            return edit

        weight = report["runs"][0]["branches"][0]["weight"]
        n, dim = workload.n_versions, workload.dimension
        edits = {
            "weight": set_field("runs", 0, "branches", 0, "weight", value=weight * (1 + 1e-6)),
            "labels": swap_labels,
            "support": set_field("runs", 0, "final_state", "support", value=n + 1),
            "dimension": set_field("runs", 0, "final_state", "dimension", value=dim * 2),
            "all_passed": set_field("summary", "all_passed", value=False),
            "check": set_field("runs", 0, "checks", 0, "status", value="fail"),
            "runs": lambda r: r["runs"].pop(),
        }
        for what, edit in edits.items():
            check(
                report_problems(tampered(report, edit), exit_code, workload) != [],
                f"{name}: tampered {what} accepted",
            )
        check(report_problems(report, 1, workload) != [], f"{name}: exit code 1 accepted")

        retimed = tampered(report, set_field("timings", "total_seconds", value=123.0))
        check(canonical(retimed) == canonical(report), f"{name}: timings change the canonical form")
        reweighted = tampered(report, edits["weight"])
        check(canonical(reweighted) != canonical(report), f"{name}: canonical form misses a weight")

        control_exit, control = run_cli(work, config, "--negative-control")
        check(
            negative_control_problems(control, control_exit) == [],
            f"{name}: negative control did not fail mixed_record",
        )
        check(
            report_problems(control, control_exit, workload) != [],
            f"{name}: verifier accepted the negative-control report",
        )


def test_span_arithmetic() -> None:
    tracer = Tracer()
    # a(0..10) holds b(1..4), which holds c(2..3), and b(5..6); a second
    # root a(20..30) re-enters a at (22..25).
    tracer.spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 6.0],
        ["a", -1, 20.0, 30.0],
        ["a", 4, 22.0, 25.0],
    ]
    layers = tracer.summary()
    expected = {
        "a": {"calls": 3, "self_s": 6.0 + 7.0 + 3.0, "total_s": 20.0},
        "b": {"calls": 2, "self_s": 3.0, "total_s": 4.0},
        "c": {"calls": 1, "self_s": 1.0, "total_s": 1.0},
    }
    check(layers == expected, f"span summary {layers} != {expected}")
    check(tracer.top_level_seconds() == 20.0, "top-level seconds")


def test_missing_hooks() -> None:
    tracer = Tracer()
    tracer.install(
        {
            "gone.function": ["branchsim.experiments:no_such_function"],
            "gone.module": ["branchsim.no_such_module:function"],
            "gone.method": ["branchsim.state:SubsystemLayout.no_such_method"],
        }
    )
    check(
        sorted(tracer.missing) == ["gone.function", "gone.method", "gone.module"],
        f"missing hooks reported as {tracer.missing}",
    )


def test_traced_run(work: str) -> None:
    """Self times plus the untraced remainder make up the traced wall time."""
    tracer = Tracer()
    tracer.install()
    check(tracer.missing == {}, f"hooks missing at this commit: {tracer.missing}")
    for name, (workload, config) in SMALL.items():
        tracer.spans.clear()
        started = time.perf_counter()
        exit_code, report = run_cli(work, config)
        wall = time.perf_counter() - started
        check(report_problems(report, exit_code, workload) == [], f"{name}: traced report rejected")
        layers = tracer.summary()
        self_total = sum(entry["self_s"] for entry in layers.values())
        remainder = wall - tracer.top_level_seconds()
        check(remainder >= 0, f"{name}: spans outlast the run ({remainder})")
        check(abs(self_total + remainder - wall) <= 1e-9, f"{name}: self times do not add up")
        check(
            all(entry["self_s"] >= -1e-9 for entry in layers.values()),
            f"{name}: negative self time in {layers}",
        )
        check(layers["cli.parse_config"]["calls"] == 1, f"{name}: parse_config not traced once")
        check(layers["experiments.run"]["calls"] >= workload.runs, f"{name}: runs not traced")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        test_verifier(work)
        test_span_arithmetic()
        test_missing_hooks()
        test_traced_run(work)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
