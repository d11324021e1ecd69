"""The values a run creates and holds carry no per-instance ``__dict__``.

Three classes keep theirs: ``UnitaryOp`` and ``PairedRotation``, whose
attributes the benchmark's tracer reads with ``vars()``, and
``CompiledChain``, which the tests hold weak references to.
"""

import dataclasses
import gc
import json
import os
import sys

import pytest

import branchsim
from branchsim import CheckResult, ExperimentSpec, run_appendix_rotation
from branchsim.cli import main
from branchsim.experiments import _column

KEEP_DICT = {"UnitaryOp", "PairedRotation", "CompiledChain"}
PACKAGE = os.path.dirname(branchsim.__file__)


def values_seen(call):
    """Every dataclass instance of the package that ``call`` passes through:
    the return values and locals of its frames in the package, and what
    they reach through tuples, lists, dicts and other such instances."""
    seen, pending = {}, []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code.co_filename.startswith(PACKAGE):
            pending.append(arg)
            pending.extend(frame.f_locals.values())

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    while pending:
        value = pending.pop()
        if id(value) in seen:
            continue
        if isinstance(value, (tuple, list, dict)):
            seen[id(value)] = None
            pending.extend(gc.get_referents(value))
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            seen[id(value)] = value
            pending.extend(getattr(value, f.name) for f in dataclasses.fields(value))
    return [value for value in seen.values() if value is not None]


@pytest.mark.parametrize(
    "config, classes",
    [
        (
            {"experiment": "generalized", "n_versions": 3, "observers": 2, "photon_model": True,
             "coefficients": {"random": 2}, "seed": 5},
            {"PermutedRows"},
        ),
        (
            {"experiment": "appendix_rotation", "observers": 2, "photon_model": True,
             "coefficients": [[0.6, 0.0], [0.8, 0.0]], "thetas": {"count": 4}},
            {"PermutedRows", "PairedRotation"},
        ),
    ],
    ids=["chain", "rotation"],
)
def test_a_run_holds_no_value_with_a_dict_but_the_three_kept(tmp_path, config, classes):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    args = ["run", str(path), "--out", str(tmp_path / "report.json")]
    values = values_seen(lambda: main(args))
    with_dict = {type(v).__name__ for v in values if hasattr(v, "__dict__")}
    assert with_dict == {"UnitaryOp", "CompiledChain"} | (classes & KEEP_DICT)
    slotted = {
        "ConfigFile", "ExperimentSpec", "Register", "SubsystemLayout", "StateVector",
        "ControlledRewrite", "CertifiedRun", "CheckResult", "Branch", "RunReport",
    }
    assert slotted | (classes - KEEP_DICT) <= {type(v).__name__ for v in values} - with_dict


def test_replace_builds_the_entry_of_the_new_result():
    result = CheckResult.from_residual("born_weights", 1e-13, 1e-12, "weights")
    failed = dataclasses.replace(result, residual=2e-12, passed=False)
    assert failed.entry == {
        "name": "born_weights", "status": "fail", "residual": 2e-12,
        "tolerance": 1e-12, "detail": "weights",
    }
    assert result.entry["residual"] == 1e-13 and result.entry["status"] == "pass"
    skipped = dataclasses.replace(result, skipped=True)
    assert skipped.entry["status"] == "skip" and skipped == dataclasses.replace(skipped)


def test_shared_results_share_one_entry():
    column = _column("structure", [0.0, 1e-13, 0.0, -0.0, 1e-13], 1e-12)
    assert column[0] is column[2] and column[1] is column[4] and column[3] is not column[0]
    assert column[0].entry is column[2].entry and column[1].entry is column[4].entry
    reports = run_appendix_rotation(ExperimentSpec(2, (0.6, 0.8), observers=2), [0.0] * 8)
    entries = [check.entry for report in reports for check in report.checks]
    assert len({id(entry) for entry in entries}) == len(reports[0].checks) < len(entries)
