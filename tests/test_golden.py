"""Golden reports: every CLI report of a fixed config list, byte for byte.

For each config, run plain and with ``--negative-control``, ``tests/golden``
holds the exit code, the check verdicts of every run and the SHA-256 of the
JSON report with its ``timings`` removed (``timings`` is the only key that
may differ between two runs).  ``golden/reports`` holds those reports
themselves, so a mismatch names the first JSON path that moved, and
``golden/text`` holds the exit code and SHA-256 of each ``--format text``
report.  A change that moves any residual, branch weight or coefficient by
one bit changes the digest.  Changing a golden file is changing test data;
regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import pathlib
import tempfile
import tracemalloc

import pytest

from branchsim.cli import main, parse_config, run_and_report, write_report

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
}

CASES = [(name, control) for name in CONFIGS for control in (False, True)]


def case_name(name, control):
    return f"{name}.negative_control" if control else name


def run_cli(tmp_path, name, control, fmt):
    """Exit code and written report of one CLI run of a config."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
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


@pytest.mark.parametrize("name, control", CASES, ids=[case_name(*case) for case in CASES])
def test_a_text_report_is_its_golden_file(tmp_path, name, control):
    assert text_outcome(tmp_path, name, control) == load(TEXT / f"{case_name(name, control)}.json")


@pytest.mark.parametrize("name, control", CASES, ids=[case_name(*case) for case in CASES])
def test_a_stored_report_has_its_golden_digest(name, control):
    stored = load(REPORTS / f"{case_name(name, control)}.json")
    golden = load(GOLDEN / f"{case_name(name, control)}.json")
    assert digest(json.dumps(stored, indent=2, sort_keys=True) + "\n") == golden["sha256"]


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


def test_writing_the_rotation_report_holds_it_about_once(tmp_path):
    """The writer's memory peak stays under 1.5 times the report's length:
    a shared container's text is held once, and the whole text is never
    joined into one string."""
    config = tmp_path / "rotation_sweep.json"
    config.write_text(json.dumps(CONFIGS["rotation_sweep"]), encoding="utf-8")
    _, report = run_and_report(parse_config(str(config)))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(report, str(out), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(out.read_text(encoding="utf-8"))


def test_every_golden_file_has_a_case():
    expected = sorted(case_name(*case) for case in CASES)
    for folder in (GOLDEN, REPORTS, TEXT):
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
