"""The compiled chain against the brute-force oracles, and its build counts."""

import json

import numpy as np
import pytest

from branchsim import (
    ExperimentSpec,
    StateVector,
    chain_layout,
    coefficient_independence_check,
    compile_chain,
    mixed_record_level,
    no_signaling_check,
    observer_dimension,
    phase_flip_perturbation,
    run_measurement_chain,
    version_labels,
)
from branchsim import experiments
from branchsim.cli import main
from oracles import naive_chain_matrix, naive_evolve

# (n_versions, observers, photon_model); N=3 with two observers and photons
# (dimension 4,800) is past the dense-matrix cap, so the grid stops short.
CHAIN_SHAPES = [
    (2, 1, False),
    (2, 1, True),
    (2, 2, False),
    (2, 2, True),
    (3, 1, False),
    (3, 1, True),
    (3, 2, False),
]


def oracle_rules(chain):
    """Observer names, record configurations and condition registers."""
    layout = chain.layout
    n = chain.n_versions
    configs = {tuple(1 if k == j else 0 for k in range(n)): j + 1 for j in range(n)}
    if chain.negative_control:
        configs[tuple(1 if k == 0 else 0 for k in range(n))] = mixed_record_level(
            observer_dimension(n)
        )
    role = "photon" if chain.photon_model else "detector"
    condition = [r.name for r in layout.registers if r.role == role]
    observers = [r.name for r in layout.registers if r.role == "observer"]
    return observers, configs, condition


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("n, observers, photon_model", CHAIN_SHAPES)
def test_compiled_step_matches_the_dense_oracle(n, observers, photon_model, negative_control):
    chain = compile_chain(n, observers, photon_model, negative_control)
    names, configs, condition = oracle_rules(chain)
    oracle = naive_chain_matrix(chain.layout, names, configs, condition, photon_model)
    assert np.array_equal(chain.step.to_matrix(), oracle)


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("n, observers, photon_model", CHAIN_SHAPES)
def test_single_basis_state_replay_matches_the_oracle(
    n, observers, photon_model, negative_control
):
    chain = compile_chain(n, observers, photon_model, negative_control)
    layout = chain.layout
    names, configs, condition = oracle_rules(chain)
    starts = np.array([layout.row(version_labels(layout, j, detected=False)) for j in range(n)])
    ends, phases = chain.step.rule(starts)
    for start, end, phase in zip(starts, ends, phases):
        psi = StateVector(layout, start[None, :], [1.0]).amplitudes
        replayed = StateVector(layout, end[None, :], [phase]).amplitudes
        oracle = naive_evolve(layout, names, configs, condition, psi, photon_model)
        assert np.array_equal(replayed, oracle)


def test_independence_check_fails_on_a_perturbed_branch():
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64))
    final = run_measurement_chain(spec, checks=()).final_state
    clean = coefficient_independence_check(spec, final_state=final)
    assert clean.passed

    layout = final.layout
    branch = layout.encode(version_labels(layout, 1, detected=True, message=2))
    amplitudes = final.amplitudes.copy()
    amplitudes[branch] += 1e-9
    tampered = type(final)(layout, layout.basis_labels(), amplitudes)
    result = coefficient_independence_check(spec, final_state=tampered)
    assert not result.passed
    assert result.residual == pytest.approx(1e-9 / 0.48, rel=1e-6)


# -- build counts -----------------------------------------------------------------

BUILDERS = (
    "build_detection_unitary",
    "build_photon_emission_unitary",
    "build_perception_unitary",
    "build_basis_rotation",
)


@pytest.fixture
def builds(monkeypatch):
    """Builder name -> list of the registers or angle of each build.

    The compiled-chain cache is cleared before and after, so chains built
    by other tests do not hide builds and counted builders do not leak.
    """
    compile_chain.cache_clear()
    calls = {name: [] for name in BUILDERS}
    for name in BUILDERS:
        original = getattr(experiments, name)

        def counted(layout, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(args[0] if args else None)
            return _original(layout, *args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    yield calls
    compile_chain.cache_clear()


def test_one_run_builds_each_stage_once(builds):
    spec = ExperimentSpec(5, tuple([5**-0.5] * 5), observers=2, photon_model=True)
    assert run_measurement_chain(spec).all_passed
    assert builds["build_detection_unitary"] == [None]
    assert builds["build_photon_emission_unitary"] == [None]
    assert builds["build_perception_unitary"] == ["Obs1", "Obs2"]
    assert builds["build_basis_rotation"] == []


def test_library_calls_share_one_build_per_configuration(builds):
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64), observers=2, photon_model=True)
    probe = phase_flip_perturbation(chain_layout(3, 2, True), 1)
    assert run_measurement_chain(spec).all_passed
    assert run_measurement_chain(spec).all_passed
    assert coefficient_independence_check(spec).passed
    assert no_signaling_check(spec, probe).passed
    assert builds["build_detection_unitary"] == [None]
    assert builds["build_photon_emission_unitary"] == [None]
    assert builds["build_perception_unitary"] == ["Obs1", "Obs2"]

    assert not run_measurement_chain(spec, negative_control=True).all_passed
    assert not run_measurement_chain(spec, negative_control=True).all_passed
    assert builds["build_detection_unitary"] == [None, None]
    assert builds["build_photon_emission_unitary"] == [None, None]
    assert builds["build_perception_unitary"] == ["Obs1", "Obs2", "Obs1", "Obs2"]


def write_config(tmp_path, **config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_random_draws_share_one_build(builds, tmp_path):
    config = write_config(
        tmp_path,
        experiment="generalized",
        n_versions=3,
        observers=2,
        photon_model=True,
        coefficients={"random": 3},
        seed=5,
    )
    assert main(["run", config, "--out", str(tmp_path / "report.json")]) == 0
    assert builds["build_detection_unitary"] == [None]
    assert builds["build_photon_emission_unitary"] == [None]
    assert builds["build_perception_unitary"] == ["Obs1", "Obs2"]


def test_rotation_angles_share_the_perception_stages(builds, tmp_path):
    config = write_config(
        tmp_path,
        experiment="appendix_rotation",
        observers=2,
        coefficients=[[0.6, 0.0], [0.8, 0.0]],
        thetas=[0.0, 0.5, 1.0, 1.5],
    )
    assert main(["run", config, "--out", str(tmp_path / "report.json")]) == 0
    assert builds["build_perception_unitary"] == ["Obs1", "Obs2"]
    assert builds["build_detection_unitary"] == [None]
    assert [r.theta for r in builds["build_basis_rotation"]] == [0.0, 0.5, 1.0, 1.5]
