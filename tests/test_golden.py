"""Golden reports: every CLI report of a fixed config list, byte for byte.

For each config, run plain and with ``--negative-control``, ``tests/golden``
holds the exit code, the check verdicts of every run and the SHA-256 of the
JSON report with its ``timings`` removed (``timings`` is the only key that
may differ between two runs).  ``golden/reports`` holds those reports
themselves, so a mismatch names the first JSON path that moved, and
``golden/text`` holds the exit code and SHA-256 of each ``--format text``
report.  ``golden/largest`` holds the exit code, verdicts and digest alone
of the largest chains the register bound admits, ``golden/sweeps``
those of more rotation sweeps and ``golden/seeds`` those of the benchmark's
chain_wide at more seeds.  A change that moves any
residual, branch weight or coefficient by one bit changes the digest.
Changing a golden file is changing test data; regenerate with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest

from branchsim import cli, experiments
from branchsim.cli import main, parse_config, run_and_report, write_report
from branchsim.dynamics import PairedRotation, PermutedRows
from branchsim.state import LABEL, StateVector
from oracles import stock_probes

GOLDEN = pathlib.Path(__file__).with_name("golden")
REPORTS = GOLDEN / "reports"
TEXT = GOLDEN / "text"

CONFIGS = {
    # The benchmark's three workloads at seed 1 (bench/workloads.py).
    "chain_wide": {
        "experiment": "generalized",
        "n_versions": 11,
        "observers": 1,
        "photon_model": False,
        "coefficients": {"random": 1},
        "seed": 4252310557,
    },
    "chain_observers": {
        "experiment": "generalized",
        "n_versions": 4,
        "observers": 3,
        "photon_model": True,
        "coefficients": {"random": 3},
        "seed": 3943810277,
    },
    # chain_observers at seeds 2 and 3.
    "chain_observers_seed2": {
        "experiment": "generalized",
        "n_versions": 4,
        "observers": 3,
        "photon_model": True,
        "coefficients": {"random": 3},
        "seed": 3599753316,
    },
    "chain_observers_seed3": {
        "experiment": "generalized",
        "n_versions": 4,
        "observers": 3,
        "photon_model": True,
        "coefficients": {"random": 3},
        "seed": 4075832169,
    },
    "rotation_sweep": {
        "experiment": "appendix_rotation",
        "n_versions": 2,
        "observers": 3,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
        "thetas": {"count": 64, "start": 0.08481969411137984, "end": 6.368005001290966},
    },
    "stern_gerlach": {
        "experiment": "stern_gerlach",
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
    },
    "photons_zero_coefficient": {
        "experiment": "generalized",
        "n_versions": 3,
        "observers": 2,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
    },
    "wide_photons_observers": {
        "experiment": "generalized",
        "n_versions": 64,
        "observers": 3,
        "photon_model": True,
        "coefficients": {"random": 1},
        "seed": 1,
    },
    # Sixteen draws on one small chain: every draw is one row of a batch.
    "sixteen_draws": {
        "experiment": "generalized",
        "n_versions": 3,
        "observers": 2,
        "photon_model": True,
        "coefficients": {"random": 16},
        "seed": 2,
    },
    # Four draws times six angles, signed zero and a right angle among them:
    # 24 runs, draw-major.
    "rotation_draws": {
        "experiment": "appendix_rotation",
        "n_versions": 2,
        "observers": 2,
        "photon_model": True,
        "coefficients": {"random": 4},
        "seed": 5,
        "thetas": [0.0, -0.0, 0.7, 1.5707963267948966, 2.0, -1.1],
    },
}

CASES = [(name, control) for name in CONFIGS for control in (False, True)]


def case_name(name, control):
    return f"{name}.negative_control" if control else name


# The largest chains the register bound admits, pinned by exit code,
# verdicts and digest only: N=510 with one observer, N=255 with one observer
# and photons (the configs of CI's largest-chain steps, which compare their
# reports with these digests) and two versions with 509 observers.
LARGEST = GOLDEN / "largest"
LARGEST_CONFIGS = {
    "widest_chain": {
        "experiment": "generalized",
        "n_versions": 510,
        "observers": 1,
        "coefficients": {"random": 1},
        "seed": 1,
    },
    "deepest_chain": {
        "experiment": "generalized",
        "n_versions": 255,
        "observers": 1,
        "photon_model": True,
        "coefficients": {"random": 1},
        "seed": 1,
    },
    "many_observers": {
        "experiment": "generalized",
        "n_versions": 2,
        "observers": 509,
        "coefficients": {"random": 1},
        "seed": 1,
    },
}

LARGEST_CASES = [(name, control) for name in LARGEST_CONFIGS for control in (False, True)]

# Rotation sweeps pinned the same way: the sweeps CI runs (16 angles; 5
# draws x 40 angles; 1,024 angles), the benchmark's rotation_sweep at seeds
# 2 and 3 (bench/workloads.py), a complex-coefficient sweep over signed
# zero, a huge, a subnormal, a right and a negative angle, and a sweep with
# all the weight on the first version.
SWEEPS = GOLDEN / "sweeps"
SWEEP_CONFIGS = {
    "rotation_16_angles": {
        "experiment": "appendix_rotation",
        "observers": 3,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
        "thetas": {"count": 16},
    },
    "rotation_5_draws_40_angles": {
        "experiment": "appendix_rotation",
        "observers": 4,
        "photon_model": True,
        "coefficients": {"random": 5},
        "seed": 7,
        "thetas": {"count": 40},
    },
    "rotation_1024_angles": {
        "experiment": "appendix_rotation",
        "observers": 4,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
        "thetas": {"count": 1024},
    },
    "rotation_sweep_seed2": {
        "experiment": "appendix_rotation",
        "n_versions": 2,
        "observers": 3,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
        "thetas": {"count": 64, "start": 0.08883076378571231, "end": 6.372016070965299},
    },
    "rotation_sweep_seed3": {
        "experiment": "appendix_rotation",
        "n_versions": 2,
        "observers": 3,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
        "thetas": {"count": 64, "start": 0.05958184148703294, "end": 6.342767148666619},
    },
    "rotation_complex_angles": {
        "experiment": "appendix_rotation",
        "observers": 2,
        "photon_model": True,
        "coefficients": [[0.6, 0.0], [0.0, 0.8]],
        "thetas": [0.0, -0.0, 1e6, 5e-324, 1.5707963267948966, -3.0],
    },
    "rotation_one_zero": {
        "experiment": "appendix_rotation",
        "observers": 2,
        "coefficients": [[1.0, 0.0], [0.0, 0.0]],
        "thetas": {"count": 8},
    },
}

SWEEP_CASES = [(name, control) for name in SWEEP_CONFIGS for control in (False, True)]

# The benchmark's chain_wide at seeds 2 and 3 (bench/workloads.py), pinned
# the same way.
SEEDS = GOLDEN / "seeds"
SEED_CONFIGS = {
    f"chain_wide_seed{index}": {**CONFIGS["chain_wide"], "seed": seed}
    for index, seed in ((2, 1943407826), (3, 1582338589))
}

SEED_CASES = [(name, control) for name in SEED_CONFIGS for control in (False, True)]


def run_cli(tmp_path, name, control, fmt):
    """Exit code and written report of one CLI run of a config."""
    config = tmp_path / f"{name}.json"
    config.write_text(
        json.dumps({**CONFIGS, **LARGEST_CONFIGS, **SWEEP_CONFIGS, **SEED_CONFIGS}[name]),
        encoding="utf-8",
    )
    out = tmp_path / f"{name}.report.{fmt}"
    argv = ["run", str(config), "--out", str(out), "--format", fmt]
    code = main(argv + ["--negative-control"] * control)
    return code, out.read_text(encoding="utf-8")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(tmp_path, name, control):
    """Exit code, per-run verdicts and digest of one CLI run of a config,
    and its report without ``timings``."""
    code, written = run_cli(tmp_path, name, control, "json")
    report = json.loads(written)
    # The report file is exactly this encoding (cli.write_report), timings
    # included.
    assert written == json.dumps(report, indent=2, sort_keys=True) + "\n"
    del report["timings"]
    got = {
        "exit_code": code,
        "verdicts": [{c["name"]: c["status"] for c in run["checks"]} for run in report["runs"]],
        "sha256": digest(json.dumps(report, indent=2, sort_keys=True) + "\n"),
    }
    return got, report


def text_outcome(tmp_path, name, control):
    """Exit code and digest of one ``--format text`` CLI run of a config."""
    code, written = run_cli(tmp_path, name, control, "text")
    return {"exit_code": code, "sha256": digest(written)}


def first_difference(got, want, path="report"):
    """The first JSON path, keys in sorted order, at which two parsed
    reports differ, or None.  Scalars differ when their type or ``repr``
    does, so 0.0 and -0.0, or 1 and 1.0, differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}.{key}"
            found = first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for index, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if type(got) is type(want) and repr(got) == repr(want) else path


def load(path):
    return json.loads(path.read_text("utf-8"))


@pytest.mark.parametrize("name, control", CASES, ids=[case_name(*case) for case in CASES])
def test_a_report_is_its_golden_file(tmp_path, name, control):
    golden = load(GOLDEN / f"{case_name(name, control)}.json")
    got, report = outcome(tmp_path, name, control)
    assert got["exit_code"] == golden["exit_code"]
    for index, (verdicts, expected) in enumerate(zip(got["verdicts"], golden["verdicts"])):
        assert verdicts == expected, f"run {index}"
    assert len(got["verdicts"]) == len(golden["verdicts"])
    if got["sha256"] != golden["sha256"]:
        moved = first_difference(report, load(REPORTS / f"{case_name(name, control)}.json"))
        pytest.fail(f"the report differs from its golden file first at {moved}")


@pytest.mark.parametrize("name", ["chain_observers", "rotation_sweep"])
def test_every_label_array_of_a_golden_run_has_the_label_dtype(tmp_path, monkeypatch, name):
    """Every state (rotated ones included) and every label part a run
    builds, and every stage table of its chain and probe, holds ``LABEL``
    labels, so that no wider label path can come back unnoticed."""
    built = []

    def counting(cls, attribute):
        post_init = cls.__post_init__

        def counted(self):
            post_init(self)
            built.append((cls, getattr(self, attribute).dtype))

        return counted

    for cls, attribute in ((StateVector, "labels"), (PermutedRows, "rows")):
        monkeypatch.setattr(cls, "__post_init__", counting(cls, attribute))
    assert run_cli(tmp_path, name, False, "json")[0] == 0
    config = CONFIGS[name]
    chain = experiments.compile_chain(
        config["n_versions"], config["observers"], config["photon_model"]
    )
    stages = chain.record.stages + chain.perception.stages
    stages += tuple(stage for probe in stock_probes(chain.layout) for stage in probe.stages)
    # Detection, one emission table, one table for every observer, two probes.
    assert len(stages) == 1 + 1 + 1 + 2
    arrays = ("control", "when", "target", "image")
    tables = [getattr(stage, array).dtype for stage in stages for array in arrays]
    assert {cls for cls, _ in built} == {StateVector, PermutedRows}
    assert {dtype for _, dtype in built} == set(tables) == {np.dtype(LABEL)}


@pytest.mark.parametrize("name, control", CASES, ids=[case_name(*case) for case in CASES])
def test_a_text_report_is_its_golden_file(tmp_path, name, control):
    assert text_outcome(tmp_path, name, control) == load(TEXT / f"{case_name(name, control)}.json")


@pytest.mark.parametrize("name, control", CASES, ids=[case_name(*case) for case in CASES])
def test_a_stored_report_has_its_golden_digest(name, control):
    stored = load(REPORTS / f"{case_name(name, control)}.json")
    golden = load(GOLDEN / f"{case_name(name, control)}.json")
    assert digest(json.dumps(stored, indent=2, sort_keys=True) + "\n") == golden["sha256"]


@pytest.mark.parametrize(
    "name, control", LARGEST_CASES, ids=[case_name(*case) for case in LARGEST_CASES]
)
def test_a_largest_chain_report_is_its_golden_digest(tmp_path, name, control):
    assert outcome(tmp_path, name, control)[0] == load(LARGEST / f"{case_name(name, control)}.json")


@pytest.mark.parametrize(
    "name, control", SWEEP_CASES, ids=[case_name(*case) for case in SWEEP_CASES]
)
def test_a_rotation_sweep_report_is_its_golden_digest(tmp_path, name, control):
    assert outcome(tmp_path, name, control)[0] == load(SWEEPS / f"{case_name(name, control)}.json")


@pytest.mark.parametrize(
    "name, control", SEED_CASES, ids=[case_name(*case) for case in SEED_CASES]
)
def test_a_workload_seed_report_is_its_golden_digest(tmp_path, name, control):
    assert outcome(tmp_path, name, control)[0] == load(SEEDS / f"{case_name(name, control)}.json")


def test_the_first_difference_names_the_moved_path():
    report = {"runs": [{"checks": [{"residual": 0.0}, {"residual": 1e-16}]}], "summary": {}}
    moved = json.loads(json.dumps(report))
    assert first_difference(moved, report) is None
    moved["runs"][0]["checks"][1]["residual"] = 1.0000000000000002e-16
    assert first_difference(moved, report) == "report.runs[0].checks[1].residual"
    moved["runs"][0]["checks"][0]["residual"] = -0.0
    assert first_difference(moved, report) == "report.runs[0].checks[0].residual"
    moved["runs"].append({})
    assert first_difference(moved, report) == "report.runs[0].checks[0].residual"
    assert first_difference({"a": 1, "b": 2}, {"a": 1.0}) == "report.a"
    assert first_difference({"b": [1]}, {"b": [1, 2]}) == "report.b[1]"
    assert first_difference({"b": True}, {"b": 1}) == "report.b"


# Two reports past the golden ones in size: 64 draws of the widest chain
# config (N=64, 3 observers, photons), 1.25 MB with no shared container, and
# 64 draws of a 16-angle rotation, 2.5 MB of runs that share most of theirs.
LARGE_CONFIGS = {
    "chain_64_draws": {
        "experiment": "generalized",
        "n_versions": 64,
        "observers": 3,
        "photon_model": True,
        "coefficients": {"random": 64},
        "seed": 11,
    },
    "rotation_64_draws_16_angles": {
        "experiment": "appendix_rotation",
        "n_versions": 2,
        "observers": 3,
        "photon_model": True,
        "coefficients": {"random": 64},
        "seed": 5,
        "thetas": {"count": 16},
    },
}


def config_report(tmp_path, config, control=False):
    """The report of one run of ``config``, saved as ``config.json``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return run_and_report(parse_config(str(path)), negative_control=control)[1]


def written_report(tmp_path, config, control=False):
    """The ``tracemalloc`` peak of writing the report of ``config``, and the
    report's length in characters."""
    report = config_report(tmp_path, config, control)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(report, str(out), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(out.read_text(encoding="utf-8"))


MEMORY_CASES = CASES + [(name, False) for name in LARGE_CONFIGS]


@pytest.mark.parametrize(
    "name, control", MEMORY_CASES, ids=[case_name(*case) for case in MEMORY_CASES]
)
def test_writing_a_report_holds_at_most_one_and_a_half_times_its_length(tmp_path, name, control):
    """The writer streams its text, so its peak is bounded by the report's
    length whatever its shape; 16 KiB covers the open file, the writer's
    separator and encoder caches when this process has not filled them yet
    (up to about 9 KB), and one batch."""
    peak, size = written_report(tmp_path, {**CONFIGS, **LARGE_CONFIGS}[name], control)
    assert peak <= 1.5 * size + 16 * 1024, f"{peak} bytes for {size} characters"


def test_writing_the_rotation_report_holds_it_about_once(tmp_path):
    """The writer's memory peak stays under half the report's length: a
    shared container's text is held once, and the rest is written as it is
    encoded."""
    peak, size = written_report(tmp_path, CONFIGS["rotation_sweep"])
    assert peak < 0.5 * size, f"{peak} bytes for {size} characters"


@pytest.mark.parametrize("name, outcomes", [("rotation_sweep", 14), ("chain_64_draws", 8)])
def test_a_report_holds_one_check_entry_per_distinct_outcome(tmp_path, name, outcomes):
    """Runs whose check reaches the same outcome share one entry object:
    198 entries for 14 outcomes on the rotation sweep, and 512 for 8 on
    64 draws, would each be built, held and keyed by the writer."""
    report = config_report(tmp_path, {**CONFIGS, **LARGE_CONFIGS}[name])
    entries = [check for run in report["runs"] for check in run.checks]
    texts = {json.dumps(entry, sort_keys=True) for entry in entries}
    assert len({id(entry) for entry in entries}) == len(texts) == outcomes


@pytest.mark.parametrize(
    "config",
    [
        CONFIGS["rotation_sweep"],
        SWEEP_CONFIGS["rotation_1024_angles"],
        LARGE_CONFIGS["rotation_64_draws_16_angles"],
    ],
    ids=["rotation_sweep", "rotation_1024_angles", "rotation_64_draws_16_angles"],
)
def test_a_written_report_is_the_stdlib_encoding_of_its_run_entries(tmp_path, config):
    """The writer's memo keys containers by id, so a container it keys must
    outlive the write: a run's dict, made as the writer reaches it and
    dropped after, is never keyed, and every list or object inside it belongs
    to the report.  Were a run's checks list made afresh under the shared
    memo, a later run's list could take a freed one's id and be written as
    its text.  These sweeps share a few rows of results across hundreds of
    runs, so most runs meet a list or entry the memo holds."""
    report = config_report(tmp_path, config)
    out = tmp_path / "report.json"
    write_report(report, str(out), "json")
    runs = [run.to_dict() for run in report["runs"]]
    expected = json.dumps({**report, "runs": runs}, indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("name", ["chain_observers", "rotation_draws"])
def test_a_report_reaches_no_array_state_branch_or_run_report(tmp_path, name):
    """A report keeps what it prints and none of the runs' states: walking
    everything it refers to (``gc.get_referents``, but not into classes)
    meets no ``ndarray``, ``StateVector``, ``Branch`` or ``RunReport``, so
    the engine's arrays are freed before the report is written."""
    report = config_report(tmp_path, CONFIGS[name])
    held = (np.ndarray, StateVector, experiments.Branch, experiments.RunReport)
    seen, pending, found = set(), [report], []
    while pending:
        value = pending.pop()
        if id(value) in seen or isinstance(value, type):
            continue
        seen.add(id(value))
        if isinstance(value, held):
            found.append(type(value).__name__)
        pending.extend(gc.get_referents(value))
    assert found == []
    assert {id(container) for run in report["runs"] for container in (run.draw, run.checks)} <= seen


def whole_run_peak(tmp_path, config):
    """The exit code and ``tracemalloc`` peak of one whole CLI call of
    ``config``, its chain's compile included."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["run", str(path), "--out", str(tmp_path / "report.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_the_1024_angle_sweep_runs_in_under_0_5_mb(tmp_path):
    """Its 3,072 angle-dependent results reach 15 outcomes, its angles build
    no branches, list copies or text layer of their own, its report holds
    each run as a small entry whose dict is made only as it is written, and
    the sweep holds one rotated batch at a time, so it holds about a sixth
    of its 2.4 MB report (it peaked at 2.34 MB with one result per run and
    check, at 1.16 MB with a ``Branch`` per angle and section, at 0.94 MB
    with a dict per run, and at 0.65 MB with every rotated batch held to
    the end of the sweep)."""
    code, peak = whole_run_peak(tmp_path, SWEEP_CONFIGS["rotation_1024_angles"])
    assert code == 0
    assert peak < 0.5e6, f"{peak} bytes"


def test_64_draws_of_16_angles_run_in_under_0_45_mb(tmp_path):
    """64 draws at 16 angles each, a 2.5 MB report: each rotated batch has a
    row per draw and angle, and the sweep holds one at a time (it peaked at
    0.55 MB holding every one to the end of the sweep, and at 0.38 MB
    since)."""
    code, peak = whole_run_peak(tmp_path, LARGE_CONFIGS["rotation_64_draws_16_angles"])
    assert code == 0
    assert peak < 0.45e6, f"{peak} bytes"


def rotation_sweep_runs(tmp_path, thetas=None):
    """The runs of rotation_sweep's config through the engine, at
    ``thetas`` when given."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS["rotation_sweep"]), encoding="utf-8")
    config = parse_config(str(path))
    spec = experiments.ExperimentSpec(2, tuple(config.coefficients), 3, photon_model=True)
    return experiments.run_appendix_rotation(spec, thetas or config.thetas)


def test_the_runs_of_one_draw_share_one_branch_sequence(tmp_path):
    runs = rotation_sweep_runs(tmp_path)
    assert len(runs) == 64 and isinstance(runs[0].branches, tuple)
    assert all(run.branches is runs[0].branches for run in runs)
    assert all(run.final_state.labels is runs[0].final_state.labels for run in runs)


def test_runs_with_equal_check_results_share_one_check_row(tmp_path):
    runs = rotation_sweep_runs(tmp_path)
    rows = {tuple(map(id, run.checks)): run.checks for run in runs}
    assert all(isinstance(row, tuple) for row in rows.values())
    assert all(run.checks is rows[tuple(map(id, run.checks))] for run in runs)
    assert len({id(run.checks) for run in runs}) == len(rows) < len(runs)


def test_the_rotated_decomposition_builds_no_branch(tmp_path, monkeypatch):
    """A sweep builds the branches of its plain run, and none per angle:
    as many as one angle does."""
    built = []

    def counted(*args):
        built.append(args)
        return branch(*args)

    branch = experiments.Branch
    monkeypatch.setattr(experiments, "Branch", counted)
    rotation_sweep_runs(tmp_path)
    swept = len(built)
    built.clear()
    rotation_sweep_runs(tmp_path, [0.5])
    assert swept == len(built) > 0


@pytest.mark.parametrize(
    "config, draws, angles",
    [
        (CONFIGS["rotation_sweep"], 1, 64),
        ({**CONFIGS["rotation_draws"], "coefficients": {"random": 3}, "thetas": {"count": 5}}, 3, 5),
    ],
    ids=["rotation_sweep", "3_draws_5_angles"],
)
def test_a_sweep_holds_one_rotated_batch_at_a_time(tmp_path, monkeypatch, config, draws, angles):
    """A state with one amplitude row per draw and angle is a rotated batch.
    A peak reading is too noisy to show one more of them, so count them
    (``gc.get_objects()``) each time the sweep turns a state and when its
    reports are built.  Only the perceived turned basis vector, one row per
    angle, is live at the second turn, since ``primed_evolution`` reads it
    later; with one draw it is a batch too."""
    gc.collect()  # no earlier test's garbage is counted
    live = []

    def batches():
        return sum(
            isinstance(o, StateVector) and np.ndim(o.values) == 2 and len(o.values) == draws * angles
            for o in gc.get_objects()
        )

    def counting(method):
        def counted(self, *args):
            live.append((method.__name__, batches()))
            return method(self, *args)

        return counted

    monkeypatch.setattr(PairedRotation, "rotate", counting(PairedRotation.rotate))
    monkeypatch.setattr(experiments.CertifiedRun, "reports", counting(experiments.CertifiedRun.reports))
    config_report(tmp_path, config)
    held = 1 if draws == 1 else 0
    assert live == [("rotate", 0), ("rotate", held), ("rotate", 0), ("reports", 0)]


def test_a_non_finite_number_after_a_written_batch_leaves_no_report(tmp_path, monkeypatch):
    """NaN in the last run of the 151 KB rotation report: batches are out
    by the time the writer meets it, and it must still raise, leave no
    report file, and make ``main`` exit 4."""
    report = config_report(tmp_path, CONFIGS["rotation_sweep"])
    report["runs"][-1].theta = math.nan
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), pytest.raises(ValueError):
        write_report(report, None, "json")
    assert len(printed.getvalue()) >= 4096
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_report(report, str(out), "json")
    assert not out.exists()
    # A file already at the path was truncated by then, and goes too; a
    # link is kept, like a device such as /dev/stdout.
    out.write_text("an older report", encoding="utf-8")
    with pytest.raises(ValueError):
        write_report(report, str(out), "json")
    assert not out.exists()
    link = tmp_path / "link.json"
    link.symlink_to(out)
    with pytest.raises(ValueError):
        write_report(report, str(link), "json")
    assert link.is_symlink()
    monkeypatch.setattr(cli, "run_and_report", lambda config, negative_control: (0, report))
    assert main(["run", str(tmp_path / "config.json"), "--out", str(out)]) == 4
    assert not out.exists()


def test_every_golden_file_has_a_case():
    expected = sorted(case_name(*case) for case in CASES)
    for folder in (GOLDEN, REPORTS, TEXT):
        assert sorted(p.stem for p in folder.glob("*.json")) == expected, folder.name
    for folder, cases in ((LARGEST, LARGEST_CASES), (SWEEPS, SWEEP_CASES), (SEEDS, SEED_CASES)):
        expected = sorted(case_name(*case) for case in cases)
        assert sorted(p.stem for p in folder.glob("*.json")) == expected, folder.name


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    TEXT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            got, report = outcome(pathlib.Path(scratch), *case)
            text = text_outcome(pathlib.Path(scratch), *case)
            name = f"{case_name(*case)}.json"
            (GOLDEN / name).write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", "utf-8")
            (TEXT / name).write_text(json.dumps(text, indent=1, sort_keys=True) + "\n", "utf-8")
            # One item a line, so a regenerated report diffs line by line.
            stored = json.dumps(report, indent=0, separators=(",", ":"), sort_keys=True)
            (REPORTS / name).write_text(stored + "\n", "utf-8")
            print(name, got["exit_code"], text["exit_code"])
        for folder, cases in ((LARGEST, LARGEST_CASES), (SWEEPS, SWEEP_CASES), (SEEDS, SEED_CASES)):
            folder.mkdir(exist_ok=True)
            for case in cases:
                got, _ = outcome(pathlib.Path(scratch), *case)
                name = f"{case_name(*case)}.json"
                (folder / name).write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", "utf-8")
                print(folder.name, name, got["exit_code"])
