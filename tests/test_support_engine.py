"""The run path works on supports alone: no array the size of the dimension."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import branchsim
from branchsim import (
    CapacityError,
    ExperimentSpec,
    build_detection_unitary,
    chain_layout,
    run_appendix_rotation,
    run_measurement_chain,
)
from branchsim import state
import oracles
from oracles import basis_labels, dense_amplitudes, dense_matrix, permutation_view


@pytest.fixture
def no_dense_views(monkeypatch):
    """Every dense view raises ``CapacityError`` while the fixture is live."""
    monkeypatch.setattr(state, "DENSE_VIEW_CAP", 0)
    monkeypatch.setattr(oracles, "DENSE_VIEW_CAP", 0)
    monkeypatch.setattr(oracles, "DENSE_DIMENSION_CAP", 0)


def test_dense_views_are_refused_under_the_fixture(no_dense_views):
    layout = chain_layout(2, 1)
    report = run_measurement_chain(ExperimentSpec(2, (0.6, 0.8)), checks=["structure"])
    detection = build_detection_unitary(layout)
    for view in (
        lambda: dense_amplitudes(report.final_state),
        lambda: basis_labels(layout),
        lambda: permutation_view(detection),
        lambda: dense_matrix(detection),
        lambda: layout.digit_values("path"),
    ):
        with pytest.raises(CapacityError):
            view()


@pytest.mark.parametrize(
    "n, observers, photon_model, dimension",
    [
        (15, 1, False, 8_355_840),
        (4, 3, True, 221_184),
        pytest.param(64, 3, True, 64 * 2**128 * 66**3, id="64-3-True"),
        pytest.param(255, 1, True, 255 * 2**510 * 257, id="255-1-True"),
    ],
)
def test_full_chain_suite_runs_on_the_support(
    no_dense_views, n, observers, photon_model, dimension
):
    rng = np.random.default_rng(n)
    vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = ExperimentSpec(
        n, tuple(vector / np.linalg.norm(vector)), observers=observers, photon_model=photon_model
    )
    report = run_measurement_chain(spec)
    assert report.final_state.layout.total_dimension == dimension
    assert [c.name for c in report.checks] == list(branchsim.CHAIN_CHECKS)
    assert report.all_passed
    assert report.to_dict()["final_state"]["support"] == n
    control = run_measurement_chain(
        replace(spec, negative_control=True), checks=("mixed_record",)
    )
    assert not control.all_passed


def test_rotation_suite_runs_on_the_support(no_dense_views):
    spec = ExperimentSpec(2, (0.6, 0.8j), observers=4, photon_model=True)
    for report in run_appendix_rotation(spec, [0.0, 0.7, -2.3]):
        assert [c.name for c in report.checks] == list(branchsim.APPENDIX_CHECKS)
        assert report.all_passed


def test_a_chain_run_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs a noticeable share of a short run; the unique family
    # of numpy functions imports it lazily.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "generalized",
                "n_versions": 4,
                "observers": 2,
                "photon_model": True,
                "coefficients": {"random": 2},
                "seed": 7,
            }
        ),
        encoding="utf-8",
    )
    script = (
        "import sys, branchsim.cli\n"
        f"code = branchsim.cli.main(['run', {str(config)!r}, '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(branchsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["0", "False"]
