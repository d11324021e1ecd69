"""Property tests over every chain shape and tolerance the gate accepts.

Each example draws N in [2, 6], one to three observers, photons on or off,
random normalized coefficients and any tolerance the gate accepts, in
[MIN_TOLERANCE, MAX_TOLERANCE].  Shapes past ``MAX_DIMENSION`` basis states
are skipped to keep the suite fast; the acceptance tests cover larger ones.

The engine cross-checks draw smaller shapes (N in [2, 4], one or two
observers, photons and the negative control on or off) and random sparse
states, and compare the support arithmetic with the dense oracles.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchsim import (
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    BasisRotation,
    ExperimentSpec,
    RunReport,
    StateVector,
    apply_unitary,
    build_basis_rotation,
    build_detection_unitary,
    build_perception_unitary,
    build_photon_emission_unitary,
    compile_chain,
    compose,
    decompose_branches,
    level_cycle,
    mixed_record_level,
    norm,
    normalize,
    observer_dimension,
    phase_flip_perturbation,
    reconstruct_branches,
    record_cycle_perturbation,
    reduced_density_matrix,
    run_measurement_chain,
    standard_classical_configs,
    version_labels,
)
from oracles import (
    naive_detection_matrix,
    naive_emission_matrix,
    naive_partial_trace,
    naive_perception_matrix,
    naive_rotation_matrix,
)

MAX_DIMENSION = 40_000

# The cross-checks multiply dense matrices, so they stay this small.
MAX_ORACLE_DIMENSION = 1_024


def chain_dimension(n_versions, observers, photon_model):
    """Closed form N * 2^N * (N+2)^observers, times 2^N with photons."""
    dimension = n_versions * 2**n_versions * (n_versions + 2) ** observers
    return dimension * 2**n_versions if photon_model else dimension


@st.composite
def specs(draw):
    n_versions = draw(st.integers(min_value=2, max_value=6))
    observers = draw(st.integers(min_value=1, max_value=3))
    photon_model = draw(st.booleans())
    assume(chain_dimension(n_versions, observers, photon_model) <= MAX_DIMENSION)
    parts = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=2 * n_versions,
            max_size=2 * n_versions,
        )
    )
    vector = np.array(parts[:n_versions]) + 1j * np.array(parts[n_versions:])
    size = np.linalg.norm(vector)
    assume(size > 1e-3)
    tolerance = draw(st.floats(min_value=MIN_TOLERANCE, max_value=MAX_TOLERANCE))
    return ExperimentSpec(
        n_versions,
        tuple(complex(c) for c in vector / size),
        observers=observers,
        photon_model=photon_model,
        tolerance=tolerance,
    )


@given(specs())
@settings(max_examples=40, deadline=None)
def test_every_check_passes(spec):
    report = run_measurement_chain(spec)
    failed = [(c.name, c.residual, c.tolerance) for c in report.checks if not c.passed]
    assert not failed


@given(specs())
@settings(max_examples=30, deadline=None)
def test_negative_control_fails_or_is_rejected(spec):
    if abs(spec.coefficients[0]) <= spec.tolerance:
        with pytest.raises(ValueError, match="negative control"):
            run_measurement_chain(spec, checks=("mixed_record",), negative_control=True)
        return
    report = run_measurement_chain(spec, checks=("mixed_record",), negative_control=True)
    assert not report.checks[0].passed


@given(specs())
@settings(max_examples=30, deadline=None)
def test_decompose_then_reconstruct_round_trips(spec):
    final = run_measurement_chain(spec, checks=()).final_state
    for record in ("Obs1", [r.name for r in final.layout.by_role("detector")]):
        branches = decompose_branches(final, record, spec.tolerance)
        rebuilt = reconstruct_branches(final.layout, branches)
        # Only branches of weight at most tolerance**2 are pruned.
        gap = np.max(np.abs(rebuilt.amplitudes - final.amplitudes))
        assert gap <= spec.tolerance + 1e-15


# -- the support engine against the dense oracles ------------------------------


@st.composite
def sparse_states(draw):
    """A compiled chain (N in [2, 4], one or two observers, photons and the
    negative control on or off) and a random state on a few basis states."""
    n_versions = draw(st.integers(min_value=2, max_value=4))
    observers = draw(st.integers(min_value=1, max_value=2))
    photon_model = draw(st.booleans())
    assume(chain_dimension(n_versions, observers, photon_model) <= MAX_ORACLE_DIMENSION)
    chain = compile_chain(n_versions, observers, photon_model, draw(st.booleans()))
    dimension = chain.layout.total_dimension
    support = draw(
        st.lists(st.integers(0, dimension - 1), min_size=1, max_size=12, unique=True)
    )
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    values = [
        complex(draw(parts), draw(parts)) for _ in support
    ]
    assume(max(abs(v) for v in values) > 1e-3)
    labels = chain.layout.basis_labels()[support]
    return chain, normalize(StateVector(chain.layout, labels, values))


def chain_operators(chain):
    """Every stage and probe of one chain, each with its dense oracle (None
    where the oracle is the operator's own dense view)."""
    layout = chain.layout
    n = chain.n_versions
    configs = standard_classical_configs(n)
    if chain.negative_control:
        configs[tuple(1 if k == 0 else 0 for k in range(n))] = mixed_record_level(
            observer_dimension(n)
        )
    role = "photon" if chain.photon_model else "detector"
    condition = [r.name for r in layout.registers if r.role == role]
    observers = [r.name for r in layout.registers if r.role == "observer"]
    operators = [(build_detection_unitary(layout), naive_detection_matrix(layout))]
    if chain.photon_model:
        operators.append((build_photon_emission_unitary(layout), naive_emission_matrix(layout)))
    for name in observers:
        stage = build_perception_unitary(
            layout, name, configs, condition, allow_mixed_message=chain.negative_control
        )
        operators.append((stage, naive_perception_matrix(layout, name, configs, condition)))
    operators += [
        (chain.step, None),
        (phase_flip_perturbation(layout, 1), None),
        (record_cycle_perturbation(layout, 1), None),
        (level_cycle(layout, observers[-1]), None),
        (level_cycle(layout, "path", shift=n - 1), None),
    ]
    return operators


def version_span(layout):
    return tuple(
        {
            k: v
            for k, v in version_labels(layout, j, detected=True).items()
            if layout.register(k).role != "observer"
        }
        for j in (0, 1)
    )


@given(sparse_states(), st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_support_engine_matches_the_dense_oracles(drawn, theta):
    chain, state = drawn
    dense = state.amplitudes
    operators = chain_operators(chain)
    for op, oracle in operators:
        matrix = op.to_matrix()
        if oracle is not None:
            assert np.array_equal(matrix, oracle)
        assert np.array_equal(apply_unitary(op, state).amplitudes, matrix @ dense)
        assert np.array_equal(op.adjoint().to_matrix(), matrix.conj().T)

    span = version_span(chain.layout)
    rotation = build_basis_rotation(chain.layout, BasisRotation(theta, span))
    matrix = rotation.to_matrix()
    assert np.max(np.abs(matrix - naive_rotation_matrix(chain.layout, span, theta))) <= 1e-15
    moved = apply_unitary(rotation, state).amplitudes
    assert np.max(np.abs(moved - matrix @ dense)) <= 1e-15

    # Composed: every permutation in one operator, then the rotation.
    ops = [op for op, _ in operators]
    composed = ops[0]
    for op in ops[1:]:
        composed = compose(op, composed)
    expected = dense
    for op in ops:
        expected = op.to_matrix() @ expected
    assert np.array_equal(composed.to_matrix() @ dense, expected)
    step_then_turn = apply_unitary(rotation, apply_unitary(composed, state))
    assert np.max(np.abs(step_then_turn.amplitudes - matrix @ expected)) <= 1e-15


@given(sparse_states())
@settings(max_examples=30, deadline=None)
def test_support_decomposition_and_trace_match_the_dense_oracles(drawn):
    chain, state = drawn
    layout = chain.layout
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    for record in ("Obs1", detectors):
        branches = decompose_branches(state, record, tolerance=0.0)
        rebuilt = reconstruct_branches(layout, branches)
        assert np.max(np.abs(rebuilt.amplitudes - state.amplitudes)) <= 1e-15

    dims = [r.dimension for r in layout.registers]
    for keep in (["Obs1"], ["path"], detectors[:2]):
        rho = reduced_density_matrix(state, keep)
        positions = [layout.position(name) for name in keep]
        oracle = naive_partial_trace(state.amplitudes, dims, positions)
        assert np.max(np.abs(rho.entries - oracle)) <= 1e-15


@given(sparse_states())
@settings(max_examples=30, deadline=None)
def test_a_basis_permutation_leaves_the_reported_norm_bit_identical(drawn):
    chain, state = drawn
    spec = ExperimentSpec(chain.n_versions, (1.0,) + (0.0,) * (chain.n_versions - 1))

    def reported_norm(final):
        report = RunReport("probe", spec, None, chain.layout, final, [], [])
        return report.to_dict()["final_state"]["norm"]

    reference = reported_norm(state)
    assert reference == norm(state)
    for op, _ in chain_operators(chain):
        assert reported_norm(apply_unitary(op, state)) == reference
