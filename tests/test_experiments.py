import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    CheckResult,
    ControlledRewrite,
    PairedRotation,
    ExperimentSpec,
    InvalidPerturbationError,
    RunReport,
    StateVector,
    build_basis_rotation,
    chain_layout,
    coefficient_independence_check,
    compile_chain,
    decompose_branches,
    disagreement_weight,
    expected_final_state,
    initial_state,
    message_level,
    mixed_record_weight,
    no_signaling_check,
    normalize,
    observer_dimension,
    phase_flip_perturbation,
    primed_coefficients,
    product_state,
    record_cycle_perturbation,
    run_appendix_rotation,
    run_measurement_chain,
    standard_classical_configs,
    superpose,
    UnitaryOp,
    apply_unitary,
    compose,
)
from branchsim import experiments
from branchsim.state import aligned, vector_norm
from oracles import (
    basis_labels,
    dense_amplitudes,
    encode,
    identity,
    naive_decode,
    permutation_view,
    naive_disagreement_weight,
    naive_encode,
    naive_evolve,
    linearity_residual,
    naive_independence_residual,
    reconstruct_branches,
    reference_appendix_rotation,
    stock_probes,
    version_labels,
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("photon_model", "no"),
        ("photon_model", 1),
        ("negative_control", "no"),
        ("negative_control", np.bool_(True)),
        ("observers", True),
        ("observers", 1.5),
        ("n_versions", 2.0),
        ("n_versions", "2"),
        ("coefficients", ("0.6", "0.8")),
        ("coefficients", (0.6, b"0.8")),
        ("coefficients", (0.6, None)),
        ("tolerance", "1e-12"),
        ("tolerance", 1e-12j),
    ],
)
def test_spec_refuses_fields_of_the_wrong_type(field, value):
    # Each would otherwise reach the run: a truthy string builds the photon
    # chain or the negative control, a bool counts one observer, a float
    # count fails deep inside chain_layout, and a string is parsed as a number.
    with pytest.raises(ValueError, match=field):
        replace(ExperimentSpec(2, (0.6, 0.8)), **{field: value})


def test_spec_stores_numpy_numbers_as_python_ones():
    spec = ExperimentSpec(np.int64(2), np.array([0.6, 0.8]), observers=np.uint8(2))
    assert (spec.n_versions, spec.observers) == (2, 2)
    assert type(spec.n_versions) is int and type(spec.observers) is int
    assert spec.coefficients == (0.6, 0.8) and type(spec.coefficients[0]) is complex
    assert spec == ExperimentSpec(2, (0.6, 0.8), observers=2)
    assert json.dumps(run_measurement_chain(spec).draw)


def test_report_rejects_duplicate_checks():
    spec = ExperimentSpec(2, (1.0, 0.0))
    report = run_measurement_chain(spec, checks=("structure",))
    with pytest.raises(ValueError, match="duplicate"):
        RunReport(
            experiment=report.experiment,
            spec=spec,
            theta=None,
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

    layout = report.final_state.layout
    dims = [r.dimension for r in layout.registers]
    configs = (np.eye(n, dtype=np.int64), np.arange(1, n + 1))
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    psi0 = np.zeros(layout.total_dimension, dtype=complex)
    for j in range(n):
        psi0[naive_encode(dims, [j] + [0] * n + [0, 0])] = n**-0.5
    oracle_final = naive_evolve(layout, ["Obs1", "Obs2"], configs, detectors, psi0)
    assert np.linalg.norm(dense_amplitudes(report.final_state) - oracle_final) <= 1e-12

    # Both observers hold the same message on every populated basis state.
    assert naive_disagreement_weight(layout, oracle_final) <= 1e-24


def test_photon_model_runs_clean():
    spec = ExperimentSpec(3, (0.5, 0.5j, 2**-0.5), photon_model=True, observers=2)
    report = run_measurement_chain(spec)
    assert report.all_passed


def test_negative_control_fails_mixed_record():
    spec = ExperimentSpec(2, (0.6, 0.8), negative_control=True)
    report = run_measurement_chain(spec)
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
    _, state = recorded_state(a1, a2)
    branches = decompose_branches(state, "Obs1")
    assert [b.record_label for b in branches] == [1, 2]
    assert abs(branches[0].coefficient - a1) <= 1e-12
    assert abs(branches[1].coefficient - a2) <= 1e-12
    for b in branches:
        assert vector_norm(state.values[b.rows] / b.coefficient) == pytest.approx(1.0, abs=1e-12)
        assert not b.rows.flags.writeable
    # The sections partition the support.
    assert sorted(np.concatenate([b.rows for b in branches]).tolist()) == [0, 1]

    rebuilt = reconstruct_branches(state, "Obs1", branches)
    assert np.linalg.norm(dense_amplitudes(rebuilt) - dense_amplitudes(state)) <= 1e-12


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
    _, state = recorded_state(0.6, 0.8)
    branches = decompose_branches(state, ("DH", "DV"))
    assert [b.record_label for b in branches] == [(0, 1), (1, 0)]
    weights = sorted(b.weight for b in branches)
    assert weights == pytest.approx([0.36, 0.64], abs=1e-12)
    for b in branches:
        assert vector_norm(state.values[b.rows] / b.coefficient) == pytest.approx(1.0, abs=1e-12)
    rebuilt = reconstruct_branches(state, ("DH", "DV"), branches)
    assert np.linalg.norm(dense_amplitudes(rebuilt) - dense_amplitudes(state)) <= 1e-12


def test_decompose_requires_unit_state_and_known_register():
    layout, state = recorded_state(0.6, 0.8)
    with pytest.raises(ValueError, match="unit"):
        decompose_branches(superpose([(2.0, state)]), "Obs1")
    with pytest.raises(KeyError):
        decompose_branches(state, "Obs9")


@pytest.mark.parametrize("selection", [[], ()])
def test_decompose_refuses_an_empty_record_selection(selection):
    # No register labels no branch: one branch labelled () holding the whole
    # state would certify nothing.
    _, state = recorded_state(0.6, 0.8)
    with pytest.raises(ValueError, match="empty record selection"):
        decompose_branches(state, selection)


def test_branch_weights_sum_to_one():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        spec = ExperimentSpec(n, unit_coefficients(rng, n))
        report = run_measurement_chain(spec, checks=["structure"])
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


def test_coefficient_independence_matches_the_loop_oracle_bit_for_bit():
    # Against the linearity oracle bit for bit, and against the per-version
    # loop within rounding, on the true final state (residual exactly 0) and
    # on another draw's (residuals of order one), with zero and
    # sub-tolerance coefficients among the draws.  The armed versions' runs
    # are disjoint; versions mixing up to three paths overlap, so the order
    # of the additions shows in the rounding.
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        raw = np.array(unit_coefficients(rng, n))
        raw[rng.random(n) < 0.25] = 0.0
        raw[rng.random(n) < 0.1] *= 1e-12
        if not raw.any():
            raw[0] = 1.0
        spec = ExperimentSpec(n, tuple(raw / np.linalg.norm(raw)))
        smallest = min(abs(a) for a in spec.coefficients if abs(a) > spec.tolerance)
        chain = compile_chain(n)
        step = compose(chain.perception, chain.record)
        armed = [
            product_state(chain.layout, version_labels(chain.layout, j, detected=False))
            for j in range(n)
        ]
        mixed = [
            normalize(
                superpose(
                    [
                        (complex(*rng.standard_normal(2)), armed[k])
                        for k in rng.choice(n, size=min(n, 3), replace=False)
                    ]
                )
            )
            for _ in range(n)
        ]
        other = run_measurement_chain(
            replace(spec, coefficients=spec.coefficients[::-1]), checks=["structure"]
        )
        for versions in (armed, mixed):
            singles = [apply_unitary(step, v) for v in versions]
            _, full = chain.evolve(superpose(list(zip(spec.coefficients, versions))))
            for final in (full, other.final_state):
                _, (whole, *on_support) = aligned(final, *singles)
                oracle = linearity_residual(
                    spec.coefficients, spec.tolerance, whole, on_support
                )
                loop = naive_independence_residual(
                    spec.coefficients, spec.tolerance, whole, on_support
                )
                result = coefficient_independence_check(spec, versions, final_state=final)
                assert result.residual == oracle
                if final is full:
                    # Both sides add a_k v_k in version order: exactly linear.
                    assert result.residual == 0.0
                gap = 1e-15 / smallest
                assert abs(result.residual - loop) <= gap
                # Verdicts agree wherever rounding cannot carry the loop
                # across the tolerance.  A live coefficient barely above it
                # (1.01e-12 in one draw here) scales the loop's rounding
                # past it on the exact run, which the difference passes.
                if abs(loop - spec.tolerance) > gap:
                    assert result.passed == (loop <= spec.tolerance)


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


def test_no_signaling_refuses_a_perturbation_that_is_not_a_permutation():
    # A rotation has no stages to prove protected: it is refused up front,
    # as compose refuses it.
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2)
    plane = build_basis_rotation(layout, *experiments._version_rows(layout, [0, 1], detected=True))
    with pytest.raises(TypeError, match="permutation operators only"):
        no_signaling_check(spec, plane)


def test_no_signaling_rejects_overlapping_perturbation():
    spec = ExperimentSpec(2, (0.6, 0.8))
    layout = chain_layout(2, 1)
    with pytest.raises(InvalidPerturbationError):
        no_signaling_check(spec, phase_flip_perturbation(layout, 0))


@pytest.mark.parametrize("phase", [math.nan, complex(1.0, math.nan), math.inf])
def test_no_signaling_refuses_a_probe_with_a_non_finite_phase(phase):
    # The probe rewrites the second observer inside version 2's
    # configuration only, so branch 1 reads the same whatever it does; a
    # NaN phase once built and passed there with residual 0.0.
    spec = ExperimentSpec(2, (0.6, 0.8), observers=2)
    layout = chain_layout(2, 2)
    at, recorded = experiments._version_configuration(layout, 1)
    with pytest.raises(ValueError, match="modulus other than 1"):
        table = ControlledRewrite(at, [recorded], layout.position("Obs2"), [np.arange(4)], phase)
        no_signaling_check(spec, UnitaryOp(layout, "non-finite phase", (table,)))

AGREEMENT_CALLS = {
    # Each call puts an object of the two-version chain next to one of the
    # three-version chain; the perturbation is refused before its protection
    # is looked at.
    "apply_unitary": lambda ours, other: apply_unitary(
        identity(ours), initial_state(other, [1, 0, 0])
    ),
    "PairedRotation.rotate": lambda ours, other: build_basis_rotation(
        ours, *experiments._version_rows(ours, [0, 1], detected=True)
    ).rotate(initial_state(other, [1, 0, 0]), 1.0, 0.0),
    "compose": lambda ours, other: compose(identity(ours), identity(other)),
    "no_signaling_check": lambda ours, other: no_signaling_check(
        ExperimentSpec(2, (0.6, 0.8)), phase_flip_perturbation(other, 0)
    ),
    "aligned": lambda ours, other: aligned(
        initial_state(ours, [1, 0]), initial_state(other, [1, 0, 0])
    ),
    "superpose": lambda ours, other: superpose(
        [(1.0, initial_state(ours, [1, 0])), (1.0, initial_state(other, [1, 0, 0]))]
    ),
}


@pytest.mark.parametrize("caller", AGREEMENT_CALLS)
def test_every_caller_refuses_a_layout_from_another_chain(caller):
    with pytest.raises(ValueError, match=f"^{re.escape(caller)}: a layout of dimensions"):
        AGREEMENT_CALLS[caller](chain_layout(2), chain_layout(3))


def test_the_no_signaling_verdict_is_each_draw_s_worse_probe(monkeypatch):
    # Each draw reports the larger of the two stock probes' residuals (the
    # first of equal ones, so -0.0 before 0.0), and draws with equal
    # outcomes share one result.
    columns = iter([[0.0, 2e-12, -0.0, 0.0], [1e-13, 0.0, 0.0, 1e-13]])

    def probe_check(specs, probe, *, states, chain):
        residuals = next(columns)
        return [CheckResult.from_residual("no_signaling", r, 1e-12, "a probe") for r in residuals]

    monkeypatch.setattr(experiments, "no_signaling_check", probe_check)
    reports = run_measurement_chain([ExperimentSpec(2, (0.6, 0.8))] * 4, ["no_signaling"])
    results = [report.checks[0] for report in reports]
    residuals = [json.dumps(r.entry["residual"]) for r in results]
    assert residuals == ["1e-13", "2e-12", "-0.0", "1e-13"]
    assert [r.passed for r in results] == [True, False, True, True]
    assert {r.detail for r in results} == {"phase flip and record cycle on version 2"}
    assert results[0] is results[3]


def moves_branch_one(op):
    """Brute force: whether ``op`` moves or rephases any basis state whose
    non-observer registers read version 1's record, by the oracle's view of
    every basis state."""
    layout = op.layout
    image, phases = permutation_view(op)
    recorded = version_labels(layout, 0, detected=True)
    inside = [
        flat
        for flat, labels in enumerate(basis_labels(layout).tolist())
        if all(
            labels[i] == recorded[r.name]
            for i, r in enumerate(layout.registers)
            if r.role != "observer"
        )
    ]
    return bool((image[inside] != inside).any() or (phases[inside] != 1.0).any())


def assert_protection_matches_the_oracle(spec, probe):
    if moves_branch_one(probe):
        with pytest.raises(InvalidPerturbationError):
            no_signaling_check(spec, probe)
    else:
        assert no_signaling_check(spec, probe).passed


def test_protection_is_a_lookup_over_observer_controls():
    # Branch 1 spans every observer level, so a probe entry that agrees with
    # version 1 on its non-observer controls fires inside it whatever Obs1
    # level it asks for; one that reads version 2 never does.  Each probe
    # rewrites Obs2 by the identity, with the given phase.
    spec = ExperimentSpec(2, (0.6, 0.8), observers=2)
    layout = chain_layout(2, 2)
    at = [i for i, r in enumerate(layout.registers) if r.role != "observer"]
    control = at + [layout.position("Obs1")]
    levels = [np.arange(observer_dimension(2))]

    def probe(version, level, phase):
        recorded = layout.row(version_labels(layout, version, detected=True))[at]
        table = ControlledRewrite(
            control, [[*recorded, level]], layout.position("Obs2"), levels, phase
        )
        return UnitaryOp(layout, f"probe[version {version + 1}, Obs1={level}]", (table,))

    for level in range(observer_dimension(2)):
        with pytest.raises(InvalidPerturbationError):
            no_signaling_check(spec, probe(0, level, -1.0))
        assert no_signaling_check(spec, probe(0, level, 1.0)).residual == 0.0
        assert no_signaling_check(spec, probe(1, level, -1.0)).passed
        for version in (0, 1):
            for phase in (-1.0, 1.0):
                assert_protection_matches_the_oracle(spec, probe(version, level, phase))


def test_protection_rejects_a_control_that_reads_version_one():
    spec = ExperimentSpec(2, (0.6, 0.8), observers=2)
    layout = chain_layout(2, 2)
    cycle = [np.roll(np.arange(observer_dimension(2)), -1)]

    def path_probe(path):
        table = ControlledRewrite(
            [layout.position("path")], [[path]], layout.position("Obs2"), cycle
        )
        return UnitaryOp(layout, f"cycle Obs2 on path={path}", (table,))

    # path=0 is version 1's configuration there; the observers are free.
    assert moves_branch_one(path_probe(0))
    with pytest.raises(InvalidPerturbationError):
        no_signaling_check(spec, path_probe(0))
    assert not moves_branch_one(path_probe(1))
    assert no_signaling_check(spec, path_probe(1)).passed


def test_protection_reads_each_entry_s_own_controls():
    # One table over two control rows: its first entry cycles Obs1 where D2
    # reads 1 (version 2's record), its second rewrites Obs2 by the given
    # image where D1 reads 1 (version 1's).  Reading the first entry's
    # controls for both would miss where the second fires.
    spec = ExperimentSpec(2, (0.6, 0.8), observers=2)
    layout = chain_layout(2, 2)
    d1, d2 = layout.at("detector")
    levels = np.arange(observer_dimension(2))

    def probe(image):
        table = ControlledRewrite(
            [[d2], [d1]], [[1], [1]], [layout.position("Obs1"), layout.position("Obs2")],
            [np.roll(levels, -1), image],
        )
        return UnitaryOp(layout, f"cycle Obs1 on D2, {image.tolist()} on D1", (table,))

    assert moves_branch_one(probe(np.roll(levels, -1)))
    with pytest.raises(InvalidPerturbationError):
        no_signaling_check(spec, probe(np.roll(levels, -1)))
    assert not moves_branch_one(probe(levels))
    assert no_signaling_check(spec, probe(levels)).passed
    for stock in stock_probes(layout):
        assert no_signaling_check(spec, stock).passed


def test_is_identity_where_matches_the_brute_force_view():
    # UnitaryOp.is_identity_where, asked about version 1's recorded
    # configuration with the observers free, says no exactly when the
    # oracle's view of every basis state sees branch 1 move or rephase.
    layout = chain_layout(2, 2)
    at, recorded = experiments._version_configuration(layout, 0)
    path, (d1, d2) = layout.position("path"), layout.at("detector")
    obs1, obs2 = layout.position("Obs1"), layout.position("Obs2")
    levels = np.arange(observer_dimension(2))
    cycle = np.roll(levels, -1)

    def op(name, *table):
        return UnitaryOp(layout, name, (ControlledRewrite(*table),))

    cases = [
        *stock_probes(layout),
        phase_flip_perturbation(layout, 0),
        record_cycle_perturbation(layout, 0),
        # A control row per entry: each entry reads its own detector.
        op("own controls, cycle", [[d2], [d1]], [[1], [1]], [obs1, obs2], [cycle, cycle]),
        op("own controls, identity", [[d2], [d1]], [[1], [1]], [obs1, obs2], [cycle, levels]),
        # Several targets, written through one image.
        op("two targets on path=0", [path], [[0]], [[obs1, obs2]], [cycle]),
        op("two targets on path=1", [path], [[1]], [[obs1, obs2]], [cycle]),
        # A phase other than 1 on the identity image.
        op("phase i on D1", [d1], [[1]], obs2, [levels], 1j),
        op("phase i on D2", [d2], [[1]], obs2, [levels], 1j),
        op("phase -1 on D1=0", [d1], [[0]], obs2, [levels], -1.0),
        # Every control of the entry is a free register.
        op("phase -1 on Obs1", [obs1], [[2]], obs2, [levels], -1.0),
        op("cycle on Obs1", [obs1], [[0], [3]], obs2, [cycle, levels]),
        op("identity on Obs1", [obs1], [[0], [3]], obs2, [levels, levels]),
    ]
    verdicts = {case.provenance: case.is_identity_where(at, recorded) for case in cases}
    assert verdicts == {case.provenance: not moves_branch_one(case) for case in cases}
    assert sorted(set(verdicts.values())) == [False, True]


def test_a_probe_that_is_not_unitary_cannot_be_built():
    # A probe on version 2 that zeroes its amplitude, or that merges every
    # observer level into blank, touches no row of branch 1, so the
    # protection lookup alone would let no_signaling_check pass it with
    # residual 0.  Neither is unitary, and neither can be built.
    layout = chain_layout(2, 2)
    at = [i for i, r in enumerate(layout.registers) if r.role != "observer"]
    recorded = layout.row(version_labels(layout, 1, detected=True))[at]
    with pytest.raises(ValueError, match="modulus"):
        ControlledRewrite(at, [recorded], -1, [[0]], [[0.0]])
    merged = [np.zeros(observer_dimension(2), dtype=int)]
    with pytest.raises(ValueError, match="not a permutation"):
        ControlledRewrite(at, [recorded], layout.position("Obs1"), merged)


def test_probes_act_on_exactly_one_version_configuration():
    layout = chain_layout(3, 2, photon_model=True)
    dims = [r.dimension for r in layout.registers]
    target = version_labels(layout, 1, detected=True)
    _, flip = permutation_view(phase_flip_perturbation(layout, 1))
    cycle, _ = permutation_view(record_cycle_perturbation(layout, 1))
    for flat in range(layout.total_dimension):
        labels = dict(zip(layout.names(), naive_decode(dims, flat)))
        inside = all(
            labels[r.name] == target[r.name]
            for r in layout.registers
            if r.role != "observer"
        )
        assert flip[flat] == (-1.0 if inside else 1.0)
        assert (cycle[flat] != flat) == inside


def test_run_probes_take_the_final_state_as_their_baseline(monkeypatch):
    applied = []
    original = experiments.apply_unitary

    def counted(op, state):
        applied.append(op.provenance)
        return original(op, state)

    monkeypatch.setattr(experiments, "apply_unitary", counted)
    spec = ExperimentSpec(3, (0.6, 0.48, 0.64), observers=2)
    report = run_measurement_chain(spec, checks=("no_signaling",))
    assert report.all_passed
    # The run's record and perception steps, then per probe only the
    # perturbation and the perturbed state's perception.
    assert len(applied) == 2 + 2 * 2
    applied.clear()
    probe = phase_flip_perturbation(report.final_state.layout, 1)
    standalone = no_signaling_check(spec, probe)
    assert standalone.passed and len(applied) == 2 + 2


def test_no_signaling_with_photons():
    spec = ExperimentSpec(2, (0.6, 0.8), photon_model=True)
    layout = chain_layout(2, 1, photon_model=True)
    result = no_signaling_check(spec, phase_flip_perturbation(layout, 1))
    assert result.passed and result.residual <= 1e-12


# -- observer agreement ----------------------------------------------------------


def agreement(spec):
    (result,) = run_measurement_chain(spec, checks=("observer_agreement",)).checks
    return result


def test_agreement_two_observers():
    result = agreement(ExperimentSpec(2, (2**-0.5, 2**-0.5), observers=2))
    assert result.passed and result.residual <= 1e-24


def test_agreement_single_observer_skipped():
    result = agreement(ExperimentSpec(2, (0.6, 0.8)))
    assert result.skipped


def test_agreement_three_observers_three_versions():
    rng = np.random.default_rng(33)
    spec = ExperimentSpec(3, unit_coefficients(rng, 3), observers=3)
    result = agreement(spec)
    assert result.passed and result.residual <= 1e-24
    # And against the label-loop oracle on the library's final state.
    report = run_measurement_chain(spec, checks=["structure"])
    final = report.final_state
    oracle = naive_disagreement_weight(final.layout, dense_amplitudes(final))
    assert oracle == pytest.approx(result.residual, abs=1e-24)
    assert disagreement_weight(report.final_state) == pytest.approx(oracle, abs=1e-24)


# -- the mixed-basis appendix run -------------------------------------------------


def test_rotation_at_zero_reduces_to_plain_perception():
    spec = ExperimentSpec(2, (0.6, 0.8))
    (report,) = run_appendix_rotation(spec, [0.0])
    assert report.all_passed
    target = expected_final_state(report.final_state.layout, spec.coefficients)
    assert np.linalg.norm(dense_amplitudes(report.final_state) - dense_amplitudes(target)) <= 1e-12


def test_primed_coefficients_at_quarter_turn():
    b1, b2 = primed_coefficients(1.0, 0.0, np.pi / 4)
    assert abs(b1 - 0.7071067811865476) <= 1e-12
    assert abs(b2 - 0.7071067811865476) <= 1e-12
    (report,) = run_appendix_rotation(ExperimentSpec(2, (1.0, 0.0)), [np.pi / 4])
    assert check_by_name(report, "primed_coefficients").passed


def test_theta_sweep_never_populates_the_mixed_level():
    thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False).tolist()
    for report in run_appendix_rotation(ExperimentSpec(2, (0.6, 0.8)), thetas):
        assert report.all_passed
        assert check_by_name(report, "mixed_record").residual <= 1e-24


@pytest.mark.parametrize("negative_control", [False, True])
def test_rotation_sweep_matches_one_angle_calls(negative_control):
    # One plain run shared over shuffled angles with one repeated: a report
    # must not depend on the angles swept before it.  Under the negative
    # control the mixed-record residual is max(0.36, cos(theta)**2), so it
    # varies with the angle.
    spec = ExperimentSpec(
        2, (0.6, 0.8j), observers=2, photon_model=True, negative_control=negative_control
    )
    thetas = [1.2, 0.0, 2.0, -0.4, 1.2, 3.5]
    swept = run_appendix_rotation(spec, thetas)
    assert [report.theta for report in swept] == thetas
    for theta, report in zip(thetas, swept):
        (alone,) = run_appendix_rotation(spec, [theta])
        assert json.dumps(report.to_dict()) == json.dumps(alone.to_dict())
        (reference,) = reference_appendix_rotation(spec, [theta])
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )


ORACLE_ANGLES = [0.0, math.pi / 2, math.pi, -0.4, 1e6] + [
    2 * math.pi * k / 64 for k in range(64)
]


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("photon_model", [False, True])
@pytest.mark.parametrize("observers", [1, 2, 3, 4])
def test_rotation_reports_match_the_per_angle_reference(observers, photon_model, negative_control):
    # Bit for bit, as JSON: the shared label parts change no amplitude,
    # residual or sign of zero.  At (1, 0) the second branch has weight
    # zero, and record_invariance must prune it on both paths.
    for coefficients in [(0.6, 0.8), (0.36 + 0.48j, -0.64 + 0.48j), (1.0, 0.0)]:
        spec = ExperimentSpec(
            2, coefficients, observers, photon_model, negative_control=negative_control
        )
        reports = run_appendix_rotation(spec, ORACLE_ANGLES)
        assert len(reports) == len(ORACLE_ANGLES)
        for report, reference in zip(reports, reference_appendix_rotation(spec, ORACLE_ANGLES)):
            fast = json.dumps(report.to_dict(), sort_keys=True)
            assert fast == json.dumps(reference.to_dict(), sort_keys=True)


def test_rotation_refuses_a_final_state_that_is_not_a_unit_state(monkeypatch):
    # record_invariance decomposes the rotated final state, which must be a
    # unit state; the shared rows must not let a scaled one through.
    spec = ExperimentSpec(2, (0.6, 0.8), observers=2, photon_model=True)
    plain = experiments._certified_run(spec, None, experiments.APPENDIX_CHECKS)
    final = plain.final
    scaled = replace(plain, final=StateVector(final.layout, final.labels, 1.1 * final.values))
    monkeypatch.setattr(experiments, "_certified_run", lambda *args: scaled)
    with pytest.raises(ValueError, match="unit state"):
        reference_appendix_rotation(spec, [0.7])
    for thetas in ([0.7], [0.0, 0.7, -2.3]):
        with pytest.raises(ValueError, match="unit state"):
            run_appendix_rotation(spec, thetas)
    # observer_coherence refuses the scaled state first; alone, the rotated
    # final state must be refused too.
    alone = replace(scaled, enabled=("record_invariance",))
    monkeypatch.setattr(experiments, "_certified_run", lambda *args: alone)
    for thetas in ([0.7], [0.0, 0.7, -2.3]):
        with pytest.raises(ValueError, match="record_invariance expects a unit state"):
            run_appendix_rotation(spec, thetas, ["record_invariance"])


@pytest.mark.parametrize("photon_model", [False, True])
@pytest.mark.parametrize("observers", [1, 2, 3, 4])
def test_negative_control_fails_primed_evolution_by_root_two_cos(observers, photon_model):
    # The control sends the rotated first vector's cos-part to the mixed
    # level instead of message 1, so it misses the target by sqrt(2)|cos|.
    spec = ExperimentSpec(2, (0.6, 0.8), observers, photon_model, negative_control=True)
    always = {"structure", "born_weights", "mixed_record"}
    passing_angles = []
    for theta, report in zip(ORACLE_ANGLES, run_appendix_rotation(spec, ORACLE_ANGLES)):
        expected = math.sqrt(2) * abs(math.cos(theta))
        evolution = check_by_name(report, "primed_evolution")
        assert evolution.residual == pytest.approx(expected, rel=0, abs=1e-15)
        failing = {c.name for c in report.checks if not c.passed}
        assert failing == always | ({"primed_evolution"} if expected > spec.tolerance else set())
        if evolution.passed:
            passing_angles.append(theta)
    # The listed pi/2, then the grid's pi/2 and 3pi/2.
    assert passing_angles == [math.pi / 2, 2 * math.pi * 16 / 64, 2 * math.pi * 48 / 64]


def test_negative_control_residual_is_the_worse_half_at_every_angle():
    # Version 1's message lands on the mixed level: the plain run puts
    # |a1|^2 = 0.36 there, and the perceived rotated first vector cos^2.
    spec = ExperimentSpec(2, (0.6, 0.8), observers=3, photon_model=True, negative_control=True)
    thetas = np.linspace(-np.pi, np.pi, 97).tolist()
    for theta, report in zip(thetas, run_appendix_rotation(spec, thetas)):
        result = check_by_name(report, "mixed_record")
        assert not result.passed
        assert result.residual == pytest.approx(max(0.36, np.cos(theta) ** 2), rel=1e-15)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_rotation_refuses_a_non_finite_angle(theta, monkeypatch):
    # At NaN every residual of the rotated half is NaN, which no comparison
    # with the plain half's would ever pick.  One such angle anywhere in the
    # batch refuses the whole batch before any run is certified or any
    # report built.
    built = []
    monkeypatch.setattr(experiments, "RunReport", lambda *args: built.append(args))
    monkeypatch.setattr(experiments, "_certified_run", lambda *args: built.append(args))
    for thetas in ([theta], [theta, 0.7], [0.0, theta, 1.2], [0.3, -0.4, theta]):
        for spec in (ExperimentSpec(2, (0.6, 0.8)), [ExperimentSpec(2, (0.6, 0.8))] * 3):
            with pytest.raises(ValueError, match=f"finite, got {theta!r}"):
                run_appendix_rotation(spec, thetas)
    assert built == []


def test_rotation_of_no_angles_is_refused(monkeypatch):
    # A sweep of no angles would return no report, so every report passes
    # vacuously, even under the negative control.  It is refused before the
    # unrotated run is certified.
    built = []
    monkeypatch.setattr(experiments, "_certified_run", lambda *args: built.append(args))
    for negative_control in (False, True):
        spec = ExperimentSpec(2, (0.6, 0.8), 2, True, negative_control=negative_control)
        for thetas in ([], (), np.array([])):
            for batch in (spec, [spec, spec]):
                with pytest.raises(ValueError, match="empty sweep"):
                    run_appendix_rotation(batch, thetas)
    assert built == []


@pytest.mark.parametrize("checks", [(), []])
def test_an_empty_check_selection_is_refused(checks):
    # A run that certifies nothing would pass vacuously, even under the
    # negative control.
    for negative_control in (False, True):
        spec = ExperimentSpec(2, (0.6, 0.8), negative_control=negative_control)
        with pytest.raises(ValueError, match="empty check selection"):
            run_measurement_chain(spec, checks)
        with pytest.raises(ValueError, match="empty check selection"):
            run_appendix_rotation(spec, [0.7], checks)


def test_appendix_rejects_more_than_two_versions():
    with pytest.raises(ValueError, match="two versions"):
        run_appendix_rotation(ExperimentSpec(3, (1.0, 0.0, 0.0)), [0.7])


@pytest.mark.parametrize("count", [1, 3])
def test_independence_refuses_a_version_state_per_version_too_few_or_many(count):
    layout = chain_layout(2, 1)
    version = product_state(layout, version_labels(layout, 0, detected=False))
    with pytest.raises(ValueError, match=f"^{count} version states for 2 versions$"):
        coefficient_independence_check(ExperimentSpec(2, (0.6, 0.8)), [version] * count)


def test_record_invariance_fails_differing_message_sets_with_residual_one():
    plain, rotated = {(1,): 0.6, (2,): 0.8}, {(1,): 0.6, (3,): 0.8}
    assert experiments._record_invariance(plain, rotated) == (
        1.0, "message sets differ: [(1,), (2,)] vs [(1,), (3,)]"
    )
    assert experiments._record_invariance(plain, dict(plain)) == (0.0, "")


def test_a_crossed_detection_stage_fails_both_experiments(monkeypatch):
    # Path j flips detector j + 1: a valid table that proves unitary, but
    # not the detection the branch table describes.  Both experiments evolve
    # their runs through it, so both must fail the branch structure.
    def crossed(layout, _build=experiments.build_detection_unitary):
        (table,) = _build(layout).stages
        target = np.roll(table.target, 1)
        table = ControlledRewrite(table.control, table.when, target, table.image)
        return UnitaryOp(layout, "crossed detection", (table,))

    monkeypatch.setattr(experiments, "build_detection_unitary", crossed)
    spec = ExperimentSpec(2, (0.6, 0.8))
    chain_run = run_measurement_chain(spec)
    (rotation,) = run_appendix_rotation(spec, [0.7])
    assert not check_by_name(chain_run, "structure").passed
    assert not check_by_name(rotation, "structure").passed
    assert not check_by_name(rotation, "primed_coefficients").passed


def failing(report):
    return {c.name for c in report.checks if not c.passed}


def test_a_rotation_plane_that_reads_a_record_fails_record_invariance(monkeypatch):
    # The plane also reads Obs1: version 1 with message M1 against version 2
    # with M2.  It is a valid plane, but it turns written records instead of
    # the versions in front of the observers: the post-detection state and
    # the first basis vector (observers blank) do not move, and the rotated
    # final state puts the records' weights elsewhere.  At angle 0 it is the
    # identity, as the true plane is, so nothing fails there.
    def reading_obs1(layout, first, second, _build=experiments.build_basis_rotation):
        plane = _build(layout, first, second)
        return PairedRotation(
            layout,
            (*plane.fixed, layout.position("Obs1")),
            (*plane.first, message_level(0)),
            (*plane.second, message_level(1)),
        )

    monkeypatch.setattr(experiments, "build_basis_rotation", reading_obs1)
    faults = {"primed_coefficients", "primed_evolution", "record_invariance"}
    for coefficients in [(0.6, 0.8), (0.6, 0.8j)]:
        for observers in (1, 2, 3):
            for photon_model in (False, True):
                spec = ExperimentSpec(2, coefficients, observers, photon_model)
                at_zero, *turned = run_appendix_rotation(spec, [0.0, 0.7, math.pi / 2, 2.0, -1.1])
                assert failing(at_zero) == set()
                assert [failing(report) for report in turned] == [faults] * 4


@pytest.mark.parametrize("n_versions", [2, 3, 8, 64])
def test_a_path_erasing_detection_fails_orthogonality_and_structure(monkeypatch, n_versions):
    # Detection then swaps path levels 0 and 1 wherever detector 1 fired, so
    # versions 1 and 2 leave it on one path: their detector branches share
    # their relative rows, unless photons tell them apart.
    def path_erasing(layout, _build=experiments.build_detection_unitary):
        swap = np.arange(n_versions)
        swap[[0, 1]] = [1, 0]
        first = layout.at("detector")[0]
        table = ControlledRewrite((first,), [[1]], layout.position("path"), [swap])
        return UnitaryOp(layout, "path-erasing detection", _build(layout).stages + (table,))

    rng = np.random.default_rng(n_versions)
    monkeypatch.setattr(experiments, "build_detection_unitary", path_erasing)
    for observers in (1, 2, 3):
        for photon_model in (False, True):
            spec = ExperimentSpec(
                n_versions,
                unit_coefficients(rng, n_versions),
                observers=observers,
                photon_model=photon_model,
            )
            expected = {"structure"} if photon_model else {"branch_orthogonality", "structure"}
            assert failing(run_measurement_chain(spec)) == expected, (observers, photon_model)


@pytest.mark.parametrize("n_versions", [2, 3, 8])
def test_crossed_messages_fail_born_weights_unless_the_moduli_agree(monkeypatch, n_versions):
    # Versions 1 and 2 are each perceived as the other: the observer's
    # branch weights are the detectors' with the first two swapped.
    def crossed(n, _configs=experiments.standard_classical_configs):
        configs, messages = _configs(n)
        messages[[0, 1]] = messages[[1, 0]]
        return configs, messages

    rng = np.random.default_rng(n_versions)
    monkeypatch.setattr(experiments, "standard_classical_configs", crossed)
    for observers in (1, 2):
        for photon_model in (False, True):
            for equal in (False, True):
                v = rng.standard_normal(n_versions) + 1j * rng.standard_normal(n_versions)
                v[1] = abs(v[0]) * (1j if equal else 2.0)
                spec = ExperimentSpec(
                    n_versions,
                    tuple(v / np.linalg.norm(v)),
                    observers=observers,
                    photon_model=photon_model,
                )
                expected = {"structure"} if equal else {"born_weights", "structure"}
                assert failing(run_measurement_chain(spec)) == expected, (
                    observers,
                    photon_model,
                    equal,
                )


@pytest.mark.parametrize("n_versions", [2, 3, 8, 64])
def test_crossed_messages_of_one_observer_fail_observer_agreement(monkeypatch, n_versions):
    # Only Obs2 perceives versions 1 and 2 each as the other, so on those
    # two branches the observers disagree; Obs1's record, and with it every
    # branch weight, is untouched.
    build = experiments.build_perception_unitary

    def crossed(layout, rules, *args, **kwargs):
        op = build(layout, rules, *args, **kwargs)
        configs, messages = rules
        messages = messages.copy()
        messages[[0, 1]] = messages[[1, 0]]
        (table,), (swapped,) = op.stages, build(layout, (configs, messages), *args, **kwargs).stages
        # One table per observer, in layout order; Obs2's takes the crossed messages.
        obs2 = layout.position("Obs2")
        stages = tuple(
            ControlledRewrite(table.control, table.when, at, (swapped if at == obs2 else table).image)
            for at in table.target[0].tolist()
        )
        return replace(op, stages=stages)

    rng = np.random.default_rng(n_versions)
    monkeypatch.setattr(experiments, "build_perception_unitary", crossed)
    for observers in (2, 3):
        for photon_model in (False, True):
            spec = ExperimentSpec(
                n_versions,
                unit_coefficients(rng, n_versions),
                observers=observers,
                photon_model=photon_model,
            )
            report = run_measurement_chain(spec)
            assert failing(report) == {"observer_agreement", "structure"}, (
                observers,
                photon_model,
            )
            weight = abs(spec.coefficients[0]) ** 2 + abs(spec.coefficients[1]) ** 2
            residual = check_by_name(report, "observer_agreement").residual
            assert residual == pytest.approx(weight, rel=1e-12)
    (result,) = run_measurement_chain(
        ExperimentSpec(3, (0.6, 0.48, 0.64), observers=2), checks=("observer_agreement",)
    ).checks
    assert not result.passed and result.residual == pytest.approx(0.5904, rel=1e-12)


@pytest.mark.parametrize("n_versions", [2, 3, 8])
def test_a_perception_that_rewrites_the_record_fails_coherence_and_no_signaling(
    monkeypatch, n_versions
):
    # Where Obs1 has just read M2, its stage also moves version 2's record
    # into version 1's configuration: path 1 -> 0, and the first two detector
    # bits (and photon bits) swapped.  Versions 1 and 2 then differ only in
    # Obs1, so its two messages interfere, the probes on version 2 reach
    # branch 1, and every later observer reads M1 on both.
    build = experiments.build_perception_unitary

    def rewriting(layout, *args, **kwargs):
        op = build(layout, *args, **kwargs)
        obs1, reads_m2 = layout.position("Obs1"), [[message_level(1)]]
        swap = np.arange(n_versions)
        swap[[0, 1]] = [1, 0]
        tables = [ControlledRewrite((obs1,), reads_m2, layout.position("path"), [swap])]
        for role in ("detector", "photon"):
            # Three controlled flips swap the role's first two bits.
            at = layout.at(role)[:2]
            for source, target in (at, at[::-1], at) if at else ():
                tables.append(
                    ControlledRewrite((obs1, source), [[message_level(1), 1]], target, [[1, 0]])
                )
        # Obs1's table, first in layout order, is followed by the rewrites,
        # then one table per later observer.
        (table,) = op.stages
        first, *later = (
            ControlledRewrite(table.control, table.when, at, table.image)
            for at in table.target[0].tolist()
        )
        stages = (first, *tables, *later)
        return UnitaryOp(layout, "record-rewriting perception", stages)

    rng = np.random.default_rng(n_versions)
    monkeypatch.setattr(experiments, "build_perception_unitary", rewriting)
    for observers in (1, 2, 3):
        for photon_model in (False, True):
            spec = ExperimentSpec(
                n_versions,
                unit_coefficients(rng, n_versions),
                observers=observers,
                photon_model=photon_model,
            )
            report = run_measurement_chain(spec)
            expected = {"structure", "branch_orthogonality", "observer_coherence"}
            expected |= {"no_signaling"} | ({"observer_agreement"} if observers > 1 else set())
            assert failing(report) == expected, (observers, photon_model)
            interference = abs(spec.coefficients[0] * spec.coefficients[1])
            residual = check_by_name(report, "observer_coherence").residual
            assert residual == pytest.approx(interference, rel=1e-12)


def test_appendix_negative_control_fails_mixed_record():
    spec = ExperimentSpec(2, (0.6, 0.8), negative_control=True)
    (report,) = run_appendix_rotation(spec, [0.7])
    assert not check_by_name(report, "mixed_record").passed
    assert not report.all_passed


def test_record_invariance_check_present_and_passing():
    (report,) = run_appendix_rotation(ExperimentSpec(2, (0.6, 0.8)), [1.2])
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
    layout = report.final_state.layout
    i1 = encode(layout, version_labels(layout, 0, detected=True, message=1))
    i2 = encode(layout, version_labels(layout, 1, detected=True, message=2))
    amplitudes = dense_amplitudes(report.final_state).copy()
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


def test_born_weights_count_a_configuration_that_is_not_one_hot_in_full():
    # Both detectors fired on version 1's row: that weight belongs to no
    # version, so M1's weight finds no detector branch to match.
    layout = chain_layout(2, 1)
    both = {**version_labels(layout, 0, detected=True, message=1), "DV": 1}
    rows = [both, version_labels(layout, 1, detected=True, message=2)]
    state = superpose([(a, product_state(layout, r)) for a, r in zip((0.6, 0.8), rows)])
    det = decompose_branches(state, ("DH", "DV"))
    drift = experiments._born_weight_drift(2, det, decompose_branches(state, "Obs1"))
    assert drift == pytest.approx(0.36, rel=1e-12)


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
        configs, messages = standard_classical_configs(n_versions)
        return np.delete(configs, 1, axis=0), np.delete(messages, 1)

    monkeypatch.setattr(experiments, "standard_classical_configs", without_second)
    report = run_measurement_chain(
        ExperimentSpec(3, (0.6, 0.48, 0.64)), checks=("mixed_record",)
    )
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
        ExperimentSpec(2, (0.0, 1.0), negative_control=True)
    with pytest.raises(ValueError, match="negative control"):
        replace(spec, negative_control=True)
    # A first coefficient just above the tolerance is kept, and fails; at a
    # tolerance as large as its modulus the control is refused.
    tiny = 1e-6
    live = ExperimentSpec(2, (tiny, (1 - tiny**2) ** 0.5), tolerance=tiny / 2)
    control = replace(live, negative_control=True)
    assert not run_measurement_chain(control, checks=("mixed_record",)).all_passed
    with pytest.raises(ValueError, match="negative control"):
        replace(live, negative_control=True, tolerance=tiny)
    with pytest.raises(ValueError, match="negative control"):
        replace(control, tolerance=tiny)
