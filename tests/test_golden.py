"""Golden reports: every CLI report of a fixed config list, byte for byte.

For each config, run plain and with ``--negative-control``, ``tests/golden``
holds the exit code, the check verdicts of every run and the SHA-256 of the
JSON report with its ``timings`` removed (``timings`` is the only key that
may differ between two runs).  A change that moves any residual, branch
weight or coefficient by one bit changes the digest.  Changing a golden file
is changing test data; regenerate with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import pathlib
import tempfile

import pytest

from branchsim.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

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


def outcome(tmp_path, name, control):
    """Exit code, per-run verdicts and digest of one CLI run of a config."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    out = tmp_path / f"{name}.report.json"
    code = main(["run", str(config), "--out", str(out)] + ["--negative-control"] * control)
    report = json.loads(out.read_text(encoding="utf-8"))
    del report["timings"]
    # The report file is exactly this encoding (cli.write_report), timings
    # included.
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return {
        "exit_code": code,
        "verdicts": [{c["name"]: c["status"] for c in run["checks"]} for run in report["runs"]],
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("name, control", CASES, ids=[case_name(*case) for case in CASES])
def test_a_report_is_its_golden_file(tmp_path, name, control):
    golden = json.loads((GOLDEN / f"{case_name(name, control)}.json").read_text("utf-8"))
    got = outcome(tmp_path, name, control)
    assert got["exit_code"] == golden["exit_code"]
    for index, (verdicts, expected) in enumerate(zip(got["verdicts"], golden["verdicts"])):
        assert verdicts == expected, f"run {index}"
    assert len(got["verdicts"]) == len(golden["verdicts"])
    assert got["sha256"] == golden["sha256"], "a residual, weight or coefficient moved"


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(
        case_name(*case) for case in CASES
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            got = outcome(pathlib.Path(scratch), *case)
            path = GOLDEN / f"{case_name(*case)}.json"
            path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", "utf-8")
            print(path.name, got["exit_code"])
