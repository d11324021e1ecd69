"""The compiled chain against the brute-force oracles, and its build counts."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from branchsim import (
    ControlledRewrite,
    ExperimentSpec,
    StateVector,
    UnitaryOp,
    chain_layout,
    coefficient_independence_check,
    compile_chain,
    compose,
    mixed_record_level,
    no_signaling_check,
    observer_dimension,
    phase_flip_perturbation,
    run_appendix_rotation,
    run_measurement_chain,
)
from branchsim import cli, experiments
from branchsim.cli import main
from oracles import (
    basis_labels,
    dense_amplitudes,
    dense_matrix,
    encode,
    naive_chain_matrix,
    naive_evolve,
    stock_probes,
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
    binding: the built operator's provenance (None for a plane)."""
    calls = {name: [] for name in BUILDERS}
    for name in BUILDERS:
        original = getattr(experiments, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            built = _original(*args, **kwargs)
            calls[_name].append(getattr(built, "provenance", None))
            return built

        monkeypatch.setattr(experiments, name, counted)
    return calls


def test_one_run_builds_each_stage_once(builds):
    spec = ExperimentSpec(5, tuple([5**-0.5] * 5), observers=2, photon_model=True)
    assert run_measurement_chain(spec).all_passed
    assert builds["build_detection_unitary"] == ["detection"]
    assert builds["build_photon_emission_unitary"] == ["photon-emission"]
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS]
    assert builds["build_basis_rotation"] == []


@pytest.mark.parametrize("negative_control", [False, True], ids=["plain", "control"])
def test_every_engine_call_builds_each_stage_once(builds, negative_control):
    # No chain outlives the call that built it: each call, of either
    # experiment, builds every stage again, and exactly once.
    spec = ExperimentSpec(2, (0.6, 0.8), 2, True, negative_control=negative_control)
    calls = [
        lambda: run_measurement_chain(spec),
        lambda: run_measurement_chain([spec, spec]),
        lambda: run_appendix_rotation(spec, [0.0, 0.7]),
        lambda: run_appendix_rotation([spec, spec], [0.7]),
    ]
    for count, call in enumerate(calls, 1):
        call()
        assert builds["build_detection_unitary"] == ["detection"] * count
        assert builds["build_photon_emission_unitary"] == ["photon-emission"] * count
        assert builds["build_perception_unitary"] == [BOTH_OBSERVERS] * count
    assert len(builds["build_basis_rotation"]) == 2


@pytest.mark.parametrize("photon_model", [False, True], ids=["plain", "photons"])
def test_an_engine_call_builds_probe_tables_only_for_the_no_signaling_check(
    monkeypatch, photon_model
):
    """Every call builds the record tables (detection, and emission with
    photons) and perception; only a chain run that certifies ``no_signaling``
    builds the two probe tables too, so a rotation sweep builds none."""
    built = []
    post_init = ControlledRewrite.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(ControlledRewrite, "__post_init__", counted)
    spec = ExperimentSpec(2, (0.6, 0.8), 2, photon_model)
    stages = 3 if photon_model else 2
    calls = [
        (lambda: run_measurement_chain(spec), stages + 2),
        (lambda: run_measurement_chain([spec, spec], ["structure", "born_weights"]), stages),
        (lambda: run_appendix_rotation(spec, [0.0, 0.7]), stages),
        (lambda: run_appendix_rotation([spec, spec], [0.7]), stages),
    ]
    for call, tables in calls:
        built.clear()
        call()
        assert len(built) == tables


def test_a_standalone_check_builds_its_chain_once(builds):
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64), observers=2, photon_model=True)
    probe = phase_flip_perturbation(chain_layout(3, 2, True), 1)
    checks = [lambda: coefficient_independence_check(spec), lambda: no_signaling_check(spec, probe)]
    for count, check in enumerate(checks, 1):
        assert check().passed
        assert builds["build_detection_unitary"] == ["detection"] * count
        assert builds["build_photon_emission_unitary"] == ["photon-emission"] * count
        assert builds["build_perception_unitary"] == [BOTH_OBSERVERS] * count


def test_a_given_chain_is_used_and_never_built_again(builds):
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64), observers=2, photon_model=True)
    chain = compile_chain(3, 2, True)
    states = chain.evolve(experiments.initial_state(chain.layout, spec.coefficients))
    assert coefficient_independence_check(spec, final_state=states[1], chain=chain).passed
    for probe in stock_probes(chain.layout):
        assert no_signaling_check(spec, probe, states=states, chain=chain).passed
    assert builds["build_detection_unitary"] == ["detection"]
    assert builds["build_perception_unitary"] == [BOTH_OBSERVERS]


@pytest.mark.parametrize(
    "field, value",
    [("n_versions", 3), ("observers", 2), ("photon_model", True), ("negative_control", True)],
)
def test_a_chain_of_another_configuration_is_refused(field, value):
    # Every other field of the spec's configuration, one at a time: the
    # checks must not certify one config with another config's stages.
    spec = ExperimentSpec(2, (0.6, 0.8))
    config = {"n_versions": 2, "observers": 1, "photon_model": False, "negative_control": False}
    other = compile_chain(**{**config, field: value})
    probe = phase_flip_perturbation(chain_layout(2), 1)
    with pytest.raises(ValueError, match="cannot certify"):
        coefficient_independence_check(spec, chain=other)
    with pytest.raises(ValueError, match="cannot certify"):
        no_signaling_check(spec, probe, chain=other)


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "generalized", "n_versions": 3, "observers": 2, "photon_model": True,
         "coefficients": {"random": 3}, "seed": 5},
        {"experiment": "appendix_rotation", "observers": 3, "photon_model": True,
         "coefficients": {"random": 2}, "seed": 5, "thetas": {"count": 8}},
    ],
    ids=["chain", "rotation"],
)
def test_no_compiled_chain_is_alive_when_the_report_is_written(tmp_path, monkeypatch, config):
    built, alive_at_write = [], []

    def compiled(*args, _compile=experiments.compile_chain):
        chain = _compile(*args)
        built.append(weakref.ref(chain))
        return chain

    def write_report(*args, _write=cli.write_report):
        alive_at_write.extend(ref() is not None for ref in built)
        return _write(*args)

    monkeypatch.setattr(experiments, "compile_chain", compiled)
    monkeypatch.setattr(cli, "write_report", write_report)
    assert main(["run", write_config(tmp_path, **config), "--out", str(tmp_path / "r.json")]) == 0
    assert alive_at_write == [False]


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
    "n, photon_model, bound_mb", [(510, False, 12), (255, True, 5.5)], ids=["N=510", "N=255-photons"]
)
def test_the_largest_chains_run_in_memory_far_below_a_cube_of_labels(n, photon_model, bound_mb):
    """Every check of one equal-coefficient run at the register bound, its
    chain's compile included, peaks (``tracemalloc``) well under a boolean
    (rows x entries x controls) match of the perception table, which is
    N^3 bytes: 133 MB at N=510 and 17 MB at N=255.  With 16-bit labels
    relabelled in one copy per operator the peaks are about 9.9 and 4.9 MB
    (8.7 and 4.3 MB without the compile); a copy per stage took 6.0 MB at
    N=255 (5.4 MB without the compile), and 64-bit labels took 21.2 and
    11.7 MB without it."""
    spec = ExperimentSpec(n, (n**-0.5,) * n, photon_model=photon_model)
    tracemalloc.start()
    try:
        report = run_measurement_chain(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < bound_mb * 1e6, f"{peak / 1e6:.1f} MB"


# -- application and validation counts ------------------------------------------


@pytest.mark.parametrize(
    "n, photon_model", [(255, True), (510, False)], ids=["N=255-photons", "N=510"]
)
def test_a_run_applies_each_table_as_often_at_the_bound_as_at_n_2(
    monkeypatch, n, photon_model
):
    """One run applies each record table twice (the evolution and the
    independence replay), the perception table four times (those two, and
    once after each probe) and each probe the check builds once, whatever
    N: at the register bound that is 10 table applications with photons,
    whose emission is one table (518 with one emission table per version),
    and 8 without.  A count, so no timing noise can hide a table per
    version."""
    applied, built, probes = [], [], []
    relabel, compile_chain = ControlledRewrite._relabel, experiments.compile_chain
    check = experiments.no_signaling_check

    def counted(table, rows, phases):
        applied.append(id(table))
        relabel(table, rows, phases)

    def compiled(*args):
        built.append(compile_chain(*args))
        return built[-1]

    def probed(specs, probe, **kwargs):
        probes.append(probe)
        return check(specs, probe, **kwargs)

    monkeypatch.setattr(ControlledRewrite, "_relabel", counted)
    monkeypatch.setattr(experiments, "compile_chain", compiled)
    monkeypatch.setattr(experiments, "no_signaling_check", probed)
    counts = []
    for versions in (n, 2):
        applied.clear()
        probes.clear()
        spec = ExperimentSpec(versions, (versions**-0.5,) * versions, photon_model=photon_model)
        assert run_measurement_chain(spec).all_passed
        chain = built[-1]
        expected = {id(table): 2 for table in chain.record.stages}
        expected.update({id(table): 4 for table in chain.perception.stages})
        assert len(probes) == 2
        expected.update({id(table): 1 for probe in probes for table in probe.stages})
        assert {table: applied.count(table) for table in set(applied)} == expected
        counts.append(len(applied))
    assert counts == [10 if photon_model else 8] * 2


# -- validation counts ------------------------------------------------------------


@pytest.mark.parametrize("photon_model", [False, True], ids=["plain", "photons"])
def test_a_chain_validates_as_many_tables_at_255_observers_as_at_31(monkeypatch, photon_model):
    """Compiling N=2 builds detection, one perception table that writes
    every observer and, with photons, one emission table, and ``UnitaryOp``
    proves as many stages, whatever the number of observers: a count, so no
    timing noise can hide a per-observer table."""
    tables, stages = [], []
    for cls, seen in ((ControlledRewrite, tables), (UnitaryOp, stages)):

        def counted(self, _post_init=cls.__post_init__, _seen=seen):
            _post_init(self)
            _seen.append(len(getattr(self, "stages", (self,))))

        monkeypatch.setattr(cls, "__post_init__", counted)
    counts = []
    for observers in (31, 255):
        tables.clear()
        stages.clear()
        chain = compile_chain(2, observers, photon_model)
        counts.append((len(tables), sum(stages), len(chain.perception.stages)))
    # The record proves detection, then the emission table, then both again
    # in their composition.
    record = 1 + 1 + (1 + 1) if photon_model else 1
    assert counts == [(1 + 2 if photon_model else 2, record + 1, 1)] * 2
