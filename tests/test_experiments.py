import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    ExperimentSpec,
    InvalidPerturbationError,
    RunReport,
    chain_layout,
    coefficient_independence_check,
    compile_chain,
    decompose_branches,
    disagreement_weight,
    expected_final_state,
    identity,
    initial_state,
    mixed_record_weight,
    multi_observer_agreement,
    no_signaling_check,
    normalize,
    phase_flip_perturbation,
    primed_coefficients,
    product_state,
    reconstruct_branches,
    record_cycle_perturbation,
    run_appendix_rotation,
    run_measurement_chain,
    standard_classical_configs,
    superpose,
    version_labels,
)
from branchsim import experiments
from oracles import (
    naive_decode,
    naive_disagreement_weight,
    naive_encode,
    naive_evolve,
)


def unit_coefficients(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return tuple(v / np.linalg.norm(v))


def check_by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1
    return matches[0]


# -- ExperimentSpec validation --------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="n_versions"):
        ExperimentSpec(1, (1.0,))
    with pytest.raises(ValueError, match="observers"):
        ExperimentSpec(2, (1.0, 0.0), observers=0)
    with pytest.raises(ValueError, match="coefficients"):
        ExperimentSpec(3, (1.0, 0.0))
    with pytest.raises(ValueError, match="sum"):
        ExperimentSpec(2, (1.0, 1.0))


def test_report_rejects_duplicate_checks():
    spec = ExperimentSpec(2, (1.0, 0.0))
    report = run_measurement_chain(spec, checks=("structure",))
    with pytest.raises(ValueError, match="duplicate"):
        RunReport(
            experiment=report.experiment,
            spec=spec,
            theta=None,
            layout=report.layout,
            final_state=report.final_state,
            branches=report.branches,
            checks=report.checks * 2,
        )


# -- the measurement chain ----------------------------------------------------


def test_equal_split_two_versions():
    spec = ExperimentSpec(2, (2**-0.5, 2**-0.5))
    report = run_measurement_chain(spec)
    assert report.all_passed
    assert [b.record_label for b in report.branches] == [1, 2]
    for branch in report.branches:
        assert branch.weight == pytest.approx(0.5, abs=1e-12)


def test_certain_outcome_single_branch():
    report = run_measurement_chain(ExperimentSpec(2, (1.0, 0.0)))
    assert report.all_passed
    assert len(report.branches) == 1
    assert report.branches[0].record_label == 1
    assert report.branches[0].weight == pytest.approx(1.0, abs=1e-12)


def test_five_versions_two_observers_against_dense_oracle():
    n = 5
    spec = ExperimentSpec(n, tuple([n**-0.5] * n), observers=2)
    report = run_measurement_chain(spec)
    assert report.all_passed
    assert len(report.branches) == n

    layout = report.layout
    dims = [r.dimension for r in layout.registers]
    configs = {
        tuple(1 if k == j else 0 for k in range(n)): j + 1 for j in range(n)
    }
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    psi0 = np.zeros(layout.total_dimension, dtype=complex)
    for j in range(n):
        psi0[naive_encode(dims, [j] + [0] * n + [0, 0])] = n**-0.5
    oracle_final = naive_evolve(layout, ["Obs1", "Obs2"], configs, detectors, psi0)
    assert np.linalg.norm(report.final_state.amplitudes - oracle_final) <= 1e-12

    # Both observers hold the same message on every populated basis state.
    assert naive_disagreement_weight(layout, oracle_final) <= 1e-24


def test_photon_model_runs_clean():
    spec = ExperimentSpec(3, (0.5, 0.5j, 2**-0.5), photon_model=True, observers=2)
    report = run_measurement_chain(spec)
    assert report.all_passed


def test_negative_control_fails_mixed_record():
    spec = ExperimentSpec(2, (0.6, 0.8))
    report = run_measurement_chain(spec, negative_control=True)
    mixed = check_by_name(report, "mixed_record")
    assert not mixed.passed
    assert mixed.residual == pytest.approx(0.36, abs=1e-12)


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="unknown checks"):
        run_measurement_chain(ExperimentSpec(2, (1.0, 0.0)), checks=("bogus",))


# -- branch decomposition -----------------------------------------------------


def recorded_state(a1, a2):
    layout = chain_layout(2, 1)
    return layout, superpose(
        [
            (a1, product_state(layout, version_labels(layout, 0, detected=True, message=1))),
            (a2, product_state(layout, version_labels(layout, 1, detected=True, message=2))),
        ]
    )


def test_decompose_recovers_the_coefficients():
    a1, a2 = 0.6j, -0.8
    layout, state = recorded_state(a1, a2)
    branches = decompose_branches(state, "Obs1")
    assert [b.record_label for b in branches] == [1, 2]
    assert abs(branches[0].coefficient - a1) <= 1e-12
    assert abs(branches[1].coefficient - a2) <= 1e-12
    for b in branches:
        assert np.linalg.norm(b.relative_state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    rebuilt = reconstruct_branches(layout, branches)
    assert np.linalg.norm(rebuilt.amplitudes - state.amplitudes) <= 1e-12


def test_decompose_product_state_single_branch():
    layout = chain_layout(2, 1)
    state = product_state(layout, version_labels(layout, 1, detected=True, message=2))
    branches = decompose_branches(state, "Obs1")
    assert len(branches) == 1
    assert abs(abs(branches[0].coefficient) - 1.0) <= 1e-12


def test_decompose_prunes_zero_branches():
    layout, state = recorded_state(1.0, 0.0)
    labels = [b.record_label for b in decompose_branches(state, "Obs1")]
    assert labels == [1]


def test_decompose_joint_record_register():
    layout, state = recorded_state(0.6, 0.8)
    branches = decompose_branches(state, ("DH", "DV"))
    assert [b.record_label for b in branches] == [(0, 1), (1, 0)]
    weights = sorted(b.weight for b in branches)
    assert weights == pytest.approx([0.36, 0.64], abs=1e-12)
    rebuilt = reconstruct_branches(layout, branches)
    assert np.linalg.norm(rebuilt.amplitudes - state.amplitudes) <= 1e-12


def test_decompose_requires_unit_state_and_known_register():
    layout, state = recorded_state(0.6, 0.8)
    with pytest.raises(ValueError, match="unit"):
        decompose_branches(superpose([(2.0, state)]), "Obs1")
    with pytest.raises(KeyError):
        decompose_branches(state, "Obs9")


def test_branch_weights_sum_to_one():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        spec = ExperimentSpec(n, unit_coefficients(rng, n))
        report = run_measurement_chain(spec, checks=())
        assert sum(b.weight for b in report.branches) == pytest.approx(1.0, abs=1e-12)


# -- coefficient independence ---------------------------------------------------


def test_coefficient_independence_standard():
    result = coefficient_independence_check(ExperimentSpec(2, (0.6, 0.8)))
    assert result.passed and result.residual <= 1e-12


def test_coefficient_independence_skips_dead_branches():
    result = coefficient_independence_check(ExperimentSpec(2, (1.0, 0.0)))
    assert result.passed
    assert "skipped" in result.detail and "[1]" in result.detail


def test_coefficient_independence_random_four_versions():
    rng = np.random.default_rng(4)
    spec = ExperimentSpec(4, unit_coefficients(rng, 4))
    result = coefficient_independence_check(spec)
    assert result.passed and result.residual <= 1e-12


def test_coefficient_independence_non_orthogonal_versions():
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2, 1)
    v1 = product_state(layout, version_labels(layout, 0, detected=False))
    v2 = normalize(
        superpose(
            [
                (1.0, product_state(layout, version_labels(layout, 0, detected=False))),
                (1.0, product_state(layout, version_labels(layout, 1, detected=False))),
            ]
        )
    )
    # Overlap 1/sqrt(2): record projection could not separate these.
    result = coefficient_independence_check(spec, version_states=[v1, v2])
    assert result.passed and result.residual <= 1e-12


def test_coefficient_independence_splits_uneven_version_states():
    # Versions of 1, 3 and 2 rows: a split into equal parts, or at the
    # wrong boundaries, pairs rows with the wrong version.
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64))
    layout = chain_layout(3, 1)
    armed = [product_state(layout, version_labels(layout, j, detected=False)) for j in range(3)]
    versions = [
        armed[0],
        normalize(superpose([(1.0, v) for v in armed])),
        normalize(superpose([(1.0, armed[1]), (1j, armed[2])])),
    ]
    assert [len(v.values) for v in versions] == [1, 3, 2]
    result = coefficient_independence_check(spec, version_states=versions)
    assert result.passed and result.residual <= 1e-12


# -- no signaling ---------------------------------------------------------------


def test_no_signaling_phase_flip():
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2, 1)
    result = no_signaling_check(spec, phase_flip_perturbation(layout, 1))
    assert result.passed and result.residual <= 1e-12


def test_no_signaling_record_cycle():
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2, 1)
    result = no_signaling_check(spec, record_cycle_perturbation(layout, 1))
    assert result.passed and result.residual <= 1e-12


def test_no_signaling_identity_trivially_passes():
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2, 1)
    result = no_signaling_check(spec, identity(layout))
    assert result.passed and result.residual == 0.0


def test_no_signaling_rejects_overlapping_perturbation():
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2, 1)
    with pytest.raises(InvalidPerturbationError):
        no_signaling_check(spec, phase_flip_perturbation(layout, 0))


def test_probes_act_on_exactly_one_version_configuration():
    layout = chain_layout(3, 2, photon_model=True)
    dims = [r.dimension for r in layout.registers]
    target = version_labels(layout, 1, detected=True)
    flip = phase_flip_perturbation(layout, 1)
    cycle = record_cycle_perturbation(layout, 1)
    for flat in range(layout.total_dimension):
        labels = dict(zip(layout.names(), naive_decode(dims, flat)))
        inside = all(
            labels[r.name] == target[r.name]
            for r in layout.registers
            if r.role != "observer"
        )
        assert flip.phases[flat] == (-1.0 if inside else 1.0)
        assert (cycle.perm[flat] != flat) == inside


def test_no_signaling_with_photons():
    spec = ExperimentSpec(2, (0.6, 0.8), photon_model=True)
    layout = chain_layout(2, 1, photon_model=True)
    result = no_signaling_check(spec, phase_flip_perturbation(layout, 1))
    assert result.passed and result.residual <= 1e-12


# -- observer agreement ----------------------------------------------------------


def test_agreement_two_observers():
    result = multi_observer_agreement(ExperimentSpec(2, (2**-0.5, 2**-0.5), observers=2))
    assert result.passed and result.residual <= 1e-24


def test_agreement_single_observer_skipped():
    result = multi_observer_agreement(ExperimentSpec(2, (0.6, 0.8)))
    assert result.skipped


def test_agreement_three_observers_three_versions():
    rng = np.random.default_rng(33)
    spec = ExperimentSpec(3, unit_coefficients(rng, 3), observers=3)
    result = multi_observer_agreement(spec)
    assert result.passed and result.residual <= 1e-24
    # And against the label-loop oracle on the library's final state.
    report = run_measurement_chain(spec, checks=())
    oracle = naive_disagreement_weight(report.layout, report.final_state.amplitudes)
    assert oracle == pytest.approx(result.residual, abs=1e-24)
    assert disagreement_weight(report.final_state) == pytest.approx(oracle, abs=1e-24)


# -- the mixed-basis appendix run -------------------------------------------------


def test_rotation_at_zero_reduces_to_plain_perception():
    spec = ExperimentSpec(2, (0.6, 0.8))
    report = run_appendix_rotation(spec, 0.0)
    assert report.all_passed
    target = expected_final_state(report.layout, spec.coefficients)
    assert np.linalg.norm(report.final_state.amplitudes - target.amplitudes) <= 1e-12


def test_primed_coefficients_at_quarter_turn():
    b1, b2 = primed_coefficients(1.0, 0.0, np.pi / 4)
    assert abs(b1 - 0.7071067811865476) <= 1e-12
    assert abs(b2 - 0.7071067811865476) <= 1e-12
    report = run_appendix_rotation(ExperimentSpec(2, (1.0, 0.0)), np.pi / 4)
    assert check_by_name(report, "primed_coefficients").passed


def test_theta_sweep_never_populates_the_mixed_level():
    spec = ExperimentSpec(2, (0.6, 0.8))
    for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        report = run_appendix_rotation(spec, float(theta))
        assert report.all_passed
        assert check_by_name(report, "mixed_record").residual <= 1e-24


def test_appendix_rejects_more_than_two_versions():
    with pytest.raises(ValueError, match="two versions"):
        run_appendix_rotation(ExperimentSpec(3, (1.0, 0.0, 0.0)), 0.3)


def test_appendix_negative_control_fails_mixed_record():
    report = run_appendix_rotation(ExperimentSpec(2, (0.6, 0.8)), 0.7, negative_control=True)
    assert not check_by_name(report, "mixed_record").passed
    assert not report.all_passed


def test_record_invariance_check_present_and_passing():
    report = run_appendix_rotation(ExperimentSpec(2, (0.6, 0.8)), 1.2)
    invariance = check_by_name(report, "record_invariance")
    assert invariance.passed and invariance.residual <= 1e-12


# -- invariants over random draws -------------------------------------------------


@st.composite
def coefficient_pairs(draw):
    re1 = draw(st.floats(-1, 1, allow_nan=False))
    im1 = draw(st.floats(-1, 1, allow_nan=False))
    re2 = draw(st.floats(-1, 1, allow_nan=False))
    im2 = draw(st.floats(-1, 1, allow_nan=False))
    vector = np.array([re1 + 1j * im1, re2 + 1j * im2])
    size = np.linalg.norm(vector)
    if size < 1e-3:
        vector = np.array([1.0 + 0j, 0.0 + 0j])
        size = 1.0
    return tuple(vector / size)


@given(coefficient_pairs())
@settings(max_examples=40, deadline=None)
def test_final_state_supported_only_on_the_two_records(coefficients):
    spec = ExperimentSpec(2, coefficients)
    report = run_measurement_chain(spec, checks=("structure",))
    assert report.checks[0].passed
    layout = report.layout
    i1 = layout.encode(version_labels(layout, 0, detected=True, message=1))
    i2 = layout.encode(version_labels(layout, 1, detected=True, message=2))
    amplitudes = report.final_state.amplitudes.copy()
    assert abs(amplitudes[i1] - coefficients[0]) <= 1e-12
    assert abs(amplitudes[i2] - coefficients[1]) <= 1e-12
    amplitudes[[i1, i2]] = 0.0
    assert np.max(np.abs(amplitudes)) <= 1e-12


@given(coefficient_pairs())
@settings(max_examples=25, deadline=None)
def test_born_weights_preserved_through_perception(coefficients):
    spec = ExperimentSpec(2, coefficients)
    report = run_measurement_chain(spec, checks=("born_weights", "mixed_record"))
    for check in report.checks:
        assert check.passed


def test_mixed_record_weight_helper():
    layout = chain_layout(2, 1)
    poisoned = product_state(layout, version_labels(layout, 0, detected=True, message=3))
    assert mixed_record_weight(poisoned) == pytest.approx(1.0)
    clean = initial_state(layout, (0.6, 0.8))
    assert mixed_record_weight(clean) == 0.0


def test_mixed_record_weight_counts_any_observer_on_the_mixed_level():
    layout = chain_layout(2, 3)
    labels = version_labels(layout, 1, detected=True, message=2)
    for name in ("Obs1", "Obs2", "Obs3"):
        poisoned = product_state(layout, {**labels, name: 3})
        assert mixed_record_weight(poisoned) == 1.0
    assert mixed_record_weight(product_state(layout, labels)) == 0.0


def test_mixed_record_fails_when_an_observer_never_looks(monkeypatch):
    # Without version 2's record configuration, perception leaves the
    # observer blank on that branch: not a plain message once it has looked.
    def without_second(n_versions):
        configs = standard_classical_configs(n_versions)
        del configs[tuple(1 if k == 1 else 0 for k in range(n_versions))]
        return configs

    monkeypatch.setattr(experiments, "standard_classical_configs", without_second)
    compile_chain.cache_clear()
    try:
        report = run_measurement_chain(
            ExperimentSpec(3, (0.6, 0.48, 0.64)), checks=("mixed_record",)
        )
    finally:
        compile_chain.cache_clear()
    assert not report.checks[0].passed
    assert report.checks[0].residual == pytest.approx(0.48**2)


def test_spec_rejects_non_finite_and_out_of_range_inputs():
    for tolerance in (0.0, -1e-12, 1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            ExperimentSpec(2, (0.6, 0.8), tolerance=tolerance)
    ExperimentSpec(2, (0.6, 0.8), tolerance=1e-3)
    for bad in (float("nan"), complex(0.6, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(2, (bad, 0.8))


def test_tolerance_floor_and_fixed_normalization_bound():
    for tolerance in (MIN_TOLERANCE / 2, 1e-300):
        with pytest.raises(ValueError, match="tolerance"):
            ExperimentSpec(2, (0.6, 0.8), tolerance=tolerance)
    ExperimentSpec(2, (0.6, 0.8), tolerance=MIN_TOLERANCE)
    # Normalization is held to the state validators' bound, not the
    # (looser) check tolerance.
    off = (1 - 5e-11) ** 0.5
    with pytest.raises(ValueError, match="squared moduli"):
        ExperimentSpec(2, (0.6 * off, 0.8 * off), tolerance=MAX_TOLERANCE)


def test_negative_control_that_cannot_fail_is_rejected():
    spec = ExperimentSpec(2, (0.0, 1.0))
    assert run_measurement_chain(spec).all_passed
    with pytest.raises(ValueError, match="negative control"):
        run_measurement_chain(spec, negative_control=True)
    with pytest.raises(ValueError, match="negative control"):
        run_appendix_rotation(spec, np.pi / 2, negative_control=True)
    with pytest.raises(ValueError, match="negative control"):
        coefficient_independence_check(spec, negative_control=True)
    # A first coefficient just above the tolerance is kept, and fails.
    tiny = 1e-6
    live = ExperimentSpec(2, (tiny, (1 - tiny**2) ** 0.5), tolerance=tiny / 2)
    report = run_measurement_chain(live, checks=("mixed_record",), negative_control=True)
    assert not report.checks[0].passed
