"""The compiled chain against the brute-force oracles, and its build counts."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from branchsim import (
    ExperimentSpec,
    StateVector,
    chain_layout,
    coefficient_independence_check,
    compile_chain,
    compose,
    mixed_record_level,
    no_signaling_check,
    observer_dimension,
    phase_flip_perturbation,
    run_measurement_chain,
)
from branchsim import experiments
from branchsim.cli import main
from oracles import (
    basis_labels,
    dense_amplitudes,
    dense_matrix,
    encode,
    naive_chain_matrix,
    naive_evolve,
    version_labels,
)

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
    configs, messages = np.eye(n, dtype=np.int64), np.arange(1, n + 1)
    if chain.negative_control:
        messages[0] = mixed_record_level(observer_dimension(n))
    role = "photon" if chain.photon_model else "detector"
    condition = [r.name for r in layout.registers if r.role == role]
    observers = [r.name for r in layout.registers if r.role == "observer"]
    return observers, (configs, messages), condition


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("n, observers, photon_model", CHAIN_SHAPES)
def test_compiled_step_matches_the_dense_oracle(n, observers, photon_model, negative_control):
    chain = compile_chain(n, observers, photon_model, negative_control)
    names, configs, condition = oracle_rules(chain)
    oracle = naive_chain_matrix(chain.layout, names, configs, condition, photon_model)
    assert np.array_equal(dense_matrix(compose(chain.perception, chain.record)), oracle)


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("n, observers, photon_model", CHAIN_SHAPES)
def test_single_basis_state_replay_matches_the_oracle(
    n, observers, photon_model, negative_control
):
    chain = compile_chain(n, observers, photon_model, negative_control)
    layout = chain.layout
    names, configs, condition = oracle_rules(chain)
    starts = np.array([layout.row(version_labels(layout, j, detected=False)) for j in range(n)])
    moved = compose(chain.perception, chain.record).relabel(starts)
    phases = moved.amplitudes(np.ones(n, dtype=complex))
    for start, end, phase in zip(starts, moved.rows, phases):
        psi = dense_amplitudes(StateVector(layout, start[None, :], [1.0]))
        replayed = dense_amplitudes(StateVector(layout, end[None, :], [phase]))
        oracle = naive_evolve(layout, names, configs, condition, psi, photon_model)
        assert np.array_equal(replayed, oracle)


def test_independence_check_fails_on_a_perturbed_branch():
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64))
    final = run_measurement_chain(spec, checks=["structure"]).final_state
    clean = coefficient_independence_check(spec, final_state=final)
    assert clean.passed

    layout = final.layout
    branch = encode(layout, version_labels(layout, 1, detected=True, message=2))
    amplitudes = dense_amplitudes(final).copy()
    amplitudes[branch] += 1e-9
    tampered = type(final)(layout, basis_labels(layout), amplitudes)
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
# One perception build over both observers of a two-observer chain.
BOTH_OBSERVERS = "perception[Obs2] . perception[Obs1]"


@pytest.fixture
def builds(monkeypatch):
    """Builder name -> one entry per build made through the ``experiments``
    binding: the built operator's provenance (None for a plane).

    The compiled-chain cache is cleared before and after, so chains built
    by other tests do not hide builds and counted builders do not leak.
    """
    compile_chain.cache_clear()
    calls = {name: [] for name in BUILDERS}
    for name in BUILDERS:
        original = getattr(experiments, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            built = _original(*args, **kwargs)
            calls[_name].append(getattr(built, "provenance", None))
            return built

        monkeypatch.setattr(experiments, name, counted)
    yield calls
    compile_chain.cache_clear()


def test_one_run_builds_each_stage_once(builds):
    spec = ExperimentSpec(5, tuple([5**-0.5] * 5), observers=2, photon_model=True)
    assert run_measurement_chain(spec).all_passed
    assert builds["build_detection_unitary"] == ["detection"]
    assert builds["build_photon_emission_unitary"] == ["photon-emission"]
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS]
    assert builds["build_basis_rotation"] == []


def test_library_calls_share_one_build_per_configuration(builds):
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64), observers=2, photon_model=True)
    probe = phase_flip_perturbation(chain_layout(3, 2, True), 1)
    assert run_measurement_chain(spec).all_passed
    assert run_measurement_chain(spec).all_passed
    assert coefficient_independence_check(spec).passed
    assert no_signaling_check(spec, probe).passed
    assert builds["build_detection_unitary"] == ["detection"]
    assert builds["build_photon_emission_unitary"] == ["photon-emission"]
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS]

    control = replace(spec, negative_control=True)
    assert not run_measurement_chain(control).all_passed
    assert not run_measurement_chain(control).all_passed
    assert builds["build_detection_unitary"] == ["detection"] * 2
    assert builds["build_photon_emission_unitary"] == ["photon-emission"] * 2
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS] * 2


def test_every_call_form_of_one_configuration_shares_one_chain():
    compile_chain.cache_clear()
    try:
        chains = [
            compile_chain(2),
            compile_chain(2, 1, False, False),
            compile_chain(n_versions=2),
        ]
        info = compile_chain.cache_info()
    finally:
        compile_chain.cache_clear()
    assert (info.misses, info.hits) == (1, 2)
    assert chains[0] is chains[1] is chains[2]


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
    assert builds["build_detection_unitary"] == ["detection"]
    assert builds["build_photon_emission_unitary"] == ["photon-emission"]
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS]


def test_rotation_angles_share_the_perception_stages(builds, tmp_path):
    # The rotation's planes hold no angle and no coefficient, so a config
    # builds them once, for all its draws and angles.
    config = write_config(
        tmp_path,
        experiment="appendix_rotation",
        observers=2,
        coefficients={"random": 2},
        seed=5,
        thetas=[0.0, 0.5, 1.0, 1.5],
    )
    assert main(["run", config, "--out", str(tmp_path / "report.json")]) == 0
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS]
    assert builds["build_detection_unitary"] == ["detection"]
    assert len(builds["build_basis_rotation"]) == 1


@pytest.mark.parametrize(
    "n, photon_model, bound_mb", [(510, False, 30), (255, True, 15)], ids=["N=510", "N=255-photons"]
)
def test_the_largest_chains_run_in_memory_far_below_a_cube_of_labels(n, photon_model, bound_mb):
    """Every check of one equal-coefficient run at the register bound, its
    chain compiled beforehand, peaks (``tracemalloc``) well under a boolean
    (rows x entries x controls) match of the perception table, which is
    N^3 bytes: 133 MB at N=510 and 17 MB at N=255."""
    spec = ExperimentSpec(n, (n**-0.5,) * n, photon_model=photon_model)
    compile_chain(n, 1, photon_model)
    tracemalloc.start()
    try:
        report = run_measurement_chain(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < bound_mb * 1e6, f"{peak / 1e6:.1f} MB"
