"""branchsim benchmark: config file to written report, every check on.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's config from the seed, then calls
``branchsim.cli.main(["run", config, "--out", report])`` in fresh child
processes, one at a time, for S seconds.  Every report is verified (see
verify.py) and must repeat byte for byte apart from its timings.  Before
timing, a negative-control run must fail and the verifier must reject a
tampered report, or the benchmark stops as invalid (exit 3).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see tracer.py), alternating with untraced
samples to give the tracing overhead.  Readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from verify import canonical, negative_control_problems, report_problems
from workloads import WORKLOADS, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3
MB = 1e6

# Per-layer metrics read from the traced summary: (metric, layer, field, unit).
LAYER_METRICS = [
    ("state.digit_values.self_s", "state.digit_values", "self_s", "s"),
    ("state.digit_values.calls", "state.digit_values", "calls", "count"),
    ("state.vector.self_s", "state.vector", "self_s", "s"),
    ("state.vector.calls", "state.vector", "calls", "count"),
    ("state.layout.calls", "state.layout", "calls", "count"),
    ("dynamics.build.self_s", "dynamics.build", "self_s", "s"),
    ("dynamics.build.calls", "dynamics.build", "calls", "count"),
    ("dynamics.apply.self_s", "dynamics.apply", "self_s", "s"),
    ("dynamics.apply.calls", "dynamics.apply", "calls", "count"),
    ("experiments.run.self_s", "experiments.run", "self_s", "s"),
    ("experiments.run.calls", "experiments.run", "calls", "count"),
    ("experiments.decompose.self_s", "experiments.decompose", "self_s", "s"),
    ("experiments.decompose.calls", "experiments.decompose", "calls", "count"),
    ("experiments.independence.total_s", "experiments.independence", "total_s", "s"),
    ("experiments.no_signaling.total_s", "experiments.no_signaling", "total_s", "s"),
    ("experiments.record_weights.self_s", "experiments.record_weights", "self_s", "s"),
    ("analysis.coherence.self_s", "analysis.coherence", "self_s", "s"),
    ("cli.parse_config.self_s", "cli.parse_config", "self_s", "s"),
    ("cli.write_report.self_s", "cli.write_report", "self_s", "s"),
]


class Invalid(Exception):
    """No result can be given: the benchmark's own checks failed, or no
    sample of some kind passed verification."""


class Bench:
    def __init__(self, name: str, seed: int, work: str):
        self.workload = WORKLOADS[name]
        self.config = os.path.join(work, "config.json")
        self.report = os.path.join(work, "report.json")
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump(make_config(name, seed), handle)
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, mode: str, *flags: str) -> tuple[dict | None, str]:
        """Run one child process; its result, or None and the reason."""
        if os.path.exists(self.report):
            os.remove(self.report)
        command = [sys.executable, os.path.join(HERE, "child.py"), mode, self.config, self.report]
        try:
            proc = subprocess.run(
                [*command, *flags],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None, f"{mode} child timed out after {CHILD_TIMEOUT_S} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        try:
            return json.loads(lines[-1]), ""
        except ValueError:
            return None, f"{mode} child printed no result: {lines[-1][:200]!r}"

    def read_report(self) -> dict:
        with open(self.report, encoding="utf-8") as handle:
            return json.load(handle)

    def sample(self, mode: str) -> dict | None:
        """One verified CLI call; a failure is counted and its result dropped."""
        self.attempted += 1
        data, error = self.child(mode)
        problems = [error] if data is None else []
        if data is not None:
            try:
                report = self.read_report()
            except (OSError, ValueError) as exc:
                report = {}
                problems.append(f"report unreadable: {exc}")
            problems += report_problems(report, data["exit"], self.workload)
            text = canonical(report)
            if self.reference is None and not problems:
                self.probe_verifier(report)
                self.reference = text
            elif self.reference is not None and text != self.reference:
                problems.append("report differs from the first verified one (timings aside)")
            data["report"] = report
            data["report_bytes"] = os.path.getsize(self.report)
        if problems:
            self.failed += 1
            self.problems.append(f"{mode} sample {self.attempted}: " + "; ".join(problems))
            return None
        return data

    def probe_verifier(self, report: dict) -> None:
        """The verifier must reject this report once one weight is changed."""
        tampered = copy.deepcopy(report)
        branch = tampered["runs"][0]["branches"][0]
        branch["weight"] *= 1 + 1e-6
        if not report_problems(tampered, 0, self.workload):
            raise Invalid("verifier accepted a report with a tampered weight")

    def negative_control(self) -> None:
        """The corrupted run must fail mixed_record, and the verifier must
        reject its report."""
        data, error = self.child("time", "--negative-control")
        if data is None:
            raise Invalid(f"negative control did not run: {error}")
        try:
            report = self.read_report()
        except (OSError, ValueError) as exc:
            raise Invalid(f"negative control wrote no report: {exc}") from exc
        problems = negative_control_problems(report, data["exit"])
        if problems:
            raise Invalid("; ".join(problems))
        if not report_problems(report, data["exit"], self.workload):
            raise Invalid("verifier accepted the negative-control report")

    def samples_until(self, deadline: float, modes: tuple[str, ...]) -> dict[str, list[dict]]:
        """Cycle through ``modes`` until the deadline and MIN_SAMPLES of each."""
        done: dict[str, list[dict]] = {mode: [] for mode in modes}
        tried = {mode: 0 for mode in modes}
        while time.perf_counter() < deadline or min(tried.values()) < MIN_SAMPLES:
            mode = min(modes, key=lambda m: tried[m])
            tried[mode] += 1
            data = self.sample(mode)
            if data is not None:
                done[mode].append(data)
        for mode, results in done.items():
            if not results:
                raise Invalid(f"no {mode} sample passed verification")
        return done

    def end_to_end(self, seconds: int) -> dict:
        memory = self.sample("memory")
        if memory is None:
            raise Invalid("the memory sample did not pass verification")
        timed = self.samples_until(time.perf_counter() + seconds, ("time",))["time"]
        run_s = [d["run_s"] for d in timed]
        setup_s = [d["setup_s"] for d in timed]
        print(f"run_s        {statistics.median(run_s):.4f} s   {_spread(run_s)}")
        print(f"setup_s      {statistics.median(setup_s):.4f} s   {_spread(setup_s)}")
        print(f"peak_mem_mb  {memory['peak_bytes'] / MB:.1f} MB  tracemalloc peak of one run")
        return {
            "run_s": _metric(statistics.median(run_s), "s"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "peak_mem_mb": _metric(memory["peak_bytes"] / MB, "MB"),
        }

    def per_layer(self, seconds: int) -> dict:
        done = self.samples_until(time.perf_counter() + seconds, ("time", "trace"))
        traced, untraced = done["trace"], done["time"]
        missing = traced[0]["missing"]
        for layer, targets in missing.items():
            print(f"MISSING hook for {layer}: {', '.join(targets)}", file=sys.stderr)

        def layer_metric(layer: str, value: float, unit: str) -> dict:
            if layer in missing:
                return {"value": None, "unit": unit, "missing": missing[layer]}
            return _metric(value, unit)

        def median_of(layer: str, field: str) -> float:
            return statistics.median(d["layers"].get(layer, {}).get(field, 0) for d in traced)

        metrics = {
            name: layer_metric(layer, median_of(layer, field), unit)
            for name, layer, field, unit in LAYER_METRICS
        }
        first = traced[0]
        builds = first["layers"].get("dynamics.build", {}).get("calls", 0)
        metrics["dynamics.build.useful_ratio"] = layer_metric(
            "dynamics.build", first["distinct_operators"] / max(builds, 1), "ratio"
        )
        metrics["dynamics.operator_mb"] = layer_metric(
            "dynamics.build", first["operator_bytes"] / MB, "MB"
        )
        traced_s = statistics.median(d["run_s"] for d in traced)
        untraced_s = statistics.median(d["run_s"] for d in untraced)
        runs = first["report"]["runs"]
        metrics.update(
            {
                "untraced.self_s": _metric(
                    statistics.median(d["remainder_s"] for d in traced), "s"
                ),
                "trace.observe_s": _metric(median_of("trace.observe", "self_s"), "s"),
                "trace.run_s": _metric(traced_s, "s"),
                "trace.untraced_run_s": _metric(untraced_s, "s"),
                "trace.overhead_s": _metric(traced_s - untraced_s, "s"),
                "cli.report_bytes": _metric(first["report_bytes"], "bytes"),
                "report.dimension": _metric(runs[0]["final_state"]["dimension"], "count"),
                "report.support": _metric(max(r["final_state"]["support"] for r in runs), "count"),
                "report.runs": _metric(first["report"]["summary"]["runs"], "count"),
                "hooks_missing": _metric(sum(len(t) for t in missing.values()), "count"),
                "run_samples": _metric(len(traced) + len(untraced), "count"),
                "failed_ratio": _metric(self.failed / self.attempted, "ratio"),
            }
        )
        for name, metric in metrics.items():
            shown = "MISSING" if metric["value"] is None else f"{metric['value']:.6g}"
            print(f"{name:<36} {shown} {metric['unit']}")
        print("dynamics.operator_mb is computed from array sizes, not measured traffic")
        return metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spread(values: list[float]) -> str:
    """Sample count, quartiles and the highest percentile with at least ten
    samples beyond it."""
    n = len(values)
    text = f"n={n}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" quartiles [{q1:.4f}, {q3:.4f}]"
    if n > 10:
        ordered = sorted(values)
        text += f" p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4f}"
    else:
        text += " (no percentile has 10 samples beyond it)"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "branchsim", "cli.py")):
        print(f"no branchsim sources under {ROOT}/src", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        bench = Bench(args.workload, args.seed, work)
        try:
            facts, error = bench.child("facts")
            if facts is None:
                raise Invalid(f"branchsim does not import: {error}")
            facts.pop("setup_s")
            print(f"machine: {json.dumps(facts, sort_keys=True)}")
            config = json.dumps(make_config(args.workload, args.seed))
            print(f"workload {args.workload} seed {args.seed}: {config}")
            bench.negative_control()
            print("negative control: fails mixed_record as required; verifier rejects its report")
            if args.trace:
                metrics = bench.per_layer(args.seconds)
            else:
                metrics = bench.end_to_end(args.seconds)
        except Invalid as exc:
            print(f"benchmark invalid: {exc}", file=sys.stderr)
            return 3
        finally:
            for problem in bench.problems:
                print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"failed_ratio {bench.failed / bench.attempted:.4f} "
        f"({bench.failed} of {bench.attempted} runs failed verification)"
    )
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
