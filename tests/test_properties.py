"""Property tests over every chain shape and tolerance the gate accepts.

Each example draws N in [2, 6], one to three observers, photons on or off,
random normalized coefficients and any tolerance the gate accepts, in
[MIN_TOLERANCE, MAX_TOLERANCE].  Shapes past ``MAX_DIMENSION`` basis states
are skipped to keep the suite fast; the acceptance tests cover larger ones.
A large stratum draws N in [16, 64] with no dimension limit, far past any
dense view, for a few examples.

The engine cross-checks draw smaller shapes (N in [2, 4], one or two
observers, photons and the negative control on or off) and random sparse
states, and compare the support arithmetic with the dense oracles; on the
same draws, each operator's label part applied once must give, with every
set of amplitudes and any rotation angle, the states ``apply_unitary`` (or,
for the rotation, the oracle's ``rotate``) gives, bit for bit; for every
stage, probe and record of the chain and for drawn operators of several
stages, its rows must be the stage-by-stage oracle's byte for byte, its one
phase per row the oracle's stage phases multiplied in stage order, and the
labels it was given must be left as they were; and the
branches, with and without copied rows relabelled at the record so that
branches share relative rows, must equal the relative-state oracle bit for
bit.  On such states, with one observer's cells or several observers'
redrawn, the coherence must equal the largest over every observer of the
exactly rounded loop over its reduced density matrix bit for bit, plain and
batched, the overlap engine must give the same bits in any row order, and
both overlaps must stay within 1e-15 of one BLAS product; the Born-weight
residual must equal the dict-based oracle, zero coefficients and foreign
labels included.  A
rotation sweep's batch of angles, drawn with signed zeros,
subnormals, multiples of pi/2 and angles up to 1e6, must give each angle
the per-angle oracle's report, byte for byte.  A check's column of results
over a batch's rows must be each row's ``CheckResult.from_residual``, bit
for bit, with one object per distinct outcome.  The table-proof property draws
the arguments of small controlled-rewrite tables, sound or broken in one
way, and requires construction to succeed exactly when a loop-built dense
matrix is unitary.  A table's lookup of each row's control labels must
give the rows and phases of the match-cube oracle byte for byte, on random
tables and on every stage and probe of compiled chains, including every
application a run makes.  A table with a control row per entry, on rows
where none, one or several of its entries fire, must give the rows and
phases of its one-entry tables applied in turn by that oracle byte for
byte.  A table whose entries write several targets must give the rows and
phases of its one-target tables applied in turn byte for byte, and their
amplitudes up to the sign of a zero, on random
tables and on every compiled chain's perception, one table that writes
every observer.  Interleaving the roles of a chain layout, each
role's registers in their own order, must permute the columns of the rows
every record and perception stage gives and change nothing else, and
``SubsystemLayout.at`` must list positions in layout order.  The report writer is
compared with the stdlib's ``indent=2`` encoder on random JSON trees, and
on trees that hold one list, tuple or dict object in several places, at the
same depth and at different depths, as a report shares its containers.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import pathlib
import struct
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from branchsim import cli, experiments
from branchsim.dynamics import PermutedRows
from branchsim.state import LABEL, max_pair_overlap, union_rows
from branchsim import (
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    CheckResult,
    ControlledRewrite,
    DensityMatrix,
    ExperimentSpec,
    RunReport,
    StateVector,
    UnitaryOp,
    apply_unitary,
    build_basis_rotation,
    build_detection_unitary,
    build_perception_unitary,
    build_photon_emission_unitary,
    compile_chain,
    compose,
    decompose_branches,
    make_layout,
    mixed_record_level,
    norm,
    normalize,
    observer_coherence,
    observer_dimension,
    phase_flip_perturbation,
    record_cycle_perturbation,
    reduced_density_matrix,
    run_appendix_rotation,
    run_measurement_chain,
    standard_classical_configs,
)
from oracles import (
    adjoint,
    basis_labels,
    dense_amplitudes,
    dense_matrix,
    dense_observer_coherence,
    exact_partial_trace,
    gram_overlap,
    level_cycle,
    naive_detection_matrix,
    naive_emission_matrix,
    naive_observer_coherence,
    naive_partial_trace,
    naive_perception_matrix,
    naive_rewrite_matrix,
    naive_rotation_matrix,
    reconstruct_branches,
    reference_branches,
    reference_born_weight_drift,
    reference_overlap,
    reference_relabel,
    reference_appendix_rotation,
    reference_measurement_chain,
    reference_report_json,
    rotate,
    stock_probes,
    unitarity_residual,
    version_labels,
)

MAX_DIMENSION = 40_000

# The cross-checks multiply dense matrices, so they stay this small.
MAX_ORACLE_DIMENSION = 1_024


def chain_dimension(n_versions, observers, photon_model):
    """Closed form N * 2^N * (N+2)^observers, times 2^N with photons."""
    dimension = n_versions * 2**n_versions * (n_versions + 2) ** observers
    return dimension * 2**n_versions if photon_model else dimension


@st.composite
def specs(draw, min_versions=2, max_versions=6, max_dimension=MAX_DIMENSION):
    n_versions = draw(st.integers(min_value=min_versions, max_value=max_versions))
    observers = draw(st.integers(min_value=1, max_value=3))
    photon_model = draw(st.booleans())
    if max_dimension is not None:
        assume(chain_dimension(n_versions, observers, photon_model) <= max_dimension)
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
            replace(spec, negative_control=True)
        return
    control = replace(spec, negative_control=True)
    report = run_measurement_chain(control, checks=("mixed_record",))
    assert not report.checks[0].passed


@given(specs())
@settings(max_examples=30, deadline=None)
def test_the_default_versions_are_exactly_linear(spec):
    # Every stage phase is exactly 1, so the full run and the weighted
    # standalone runs hold the same amplitudes, corrupted chain included.
    controls = [False] if abs(spec.coefficients[0]) <= spec.tolerance else [False, True]
    for negative_control in controls:
        checked = replace(spec, negative_control=negative_control)
        report = run_measurement_chain(checked, checks=("coefficient_independence",))
        assert report.checks[0].residual == 0.0


@given(specs(min_versions=16, max_versions=64, max_dimension=None))
@settings(max_examples=4, deadline=None)
def test_large_chains_are_exactly_linear_and_their_control_fails(spec):
    report = run_measurement_chain(spec)
    assert report.final_state.layout.total_dimension == chain_dimension(
        spec.n_versions, spec.observers, spec.photon_model
    )
    assert report.all_passed
    (independence,) = [c for c in report.checks if c.name == "coefficient_independence"]
    assert independence.residual == 0.0
    if abs(spec.coefficients[0]) > spec.tolerance:
        control = replace(spec, negative_control=True)
        assert not run_measurement_chain(control, checks=("mixed_record",)).all_passed


@given(specs())
@settings(max_examples=30, deadline=None)
def test_decompose_then_reconstruct_round_trips(spec):
    final = run_measurement_chain(spec, checks=["structure"]).final_state
    detectors = [final.layout.registers[at].name for at in final.layout.at("detector")]
    for record in ("Obs1", detectors):
        branches = decompose_branches(final, record, spec.tolerance)
        rebuilt = reconstruct_branches(final, record, branches)
        # Only branches of weight at most tolerance**2 are pruned.
        gap = np.max(np.abs(dense_amplitudes(rebuilt) - dense_amplitudes(final)))
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
    labels = basis_labels(chain.layout)[support]
    return chain, normalize(StateVector(chain.layout, labels, values))


def chain_operators(chain):
    """Every stage and probe of one chain, each with its dense oracle (None
    where the oracle is the operator's own dense view)."""
    layout = chain.layout
    n = chain.n_versions
    configs, messages = standard_classical_configs(n)
    if chain.negative_control:
        messages[0] = mixed_record_level(observer_dimension(n))
    rules = (configs, messages)
    role = "photon" if chain.photon_model else "detector"
    condition = [r.name for r in layout.registers if r.role == role]
    observers = [r.name for r in layout.registers if r.role == "observer"]
    operators = [(build_detection_unitary(layout), naive_detection_matrix(layout))]
    if chain.photon_model:
        operators.append((build_photon_emission_unitary(layout), naive_emission_matrix(layout)))
    perception = build_perception_unitary(
        layout, rules, allow_mixed_message=chain.negative_control
    )
    # One table writes every observer, in layout order; its column for one
    # observer alone is that observer's rule, and the table is their product.
    (table,) = perception.stages
    product = np.eye(layout.total_dimension)
    for name, at in zip(observers, table.target[0].tolist(), strict=True):
        one = ControlledRewrite(table.control, table.when, at, table.image)
        rule = naive_perception_matrix(layout, name, rules, condition)
        operators.append((UnitaryOp(layout, f"perception[{name}]", (one,)), rule))
        product = rule @ product
    operators += [
        (perception, product),
        (compose(chain.perception, chain.record), None),
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
    dense = dense_amplitudes(state)
    operators = chain_operators(chain)
    for op, oracle in operators:
        matrix = dense_matrix(op)
        if oracle is not None:
            assert np.array_equal(matrix, oracle)
        assert np.array_equal(dense_amplitudes(apply_unitary(op, state)), matrix @ dense)
        assert np.array_equal(dense_matrix(adjoint(op)), matrix.conj().T)

    span = version_span(chain.layout)
    # The builder ignores observer labels: give each row a message.
    rows = [
        chain.layout.row(version_labels(chain.layout, j, detected=True, message=j + 1))
        for j in (0, 1)
    ]
    plane = build_basis_rotation(chain.layout, *rows)
    matrix = dense_matrix(plane, theta)
    assert np.max(np.abs(matrix - naive_rotation_matrix(chain.layout, span, theta))) <= 1e-15
    moved = dense_amplitudes(rotate(plane, state, theta))
    assert np.max(np.abs(moved - matrix @ dense)) <= 1e-15

    # Composed: every permutation in one operator, then the rotation.
    ops = [op for op, _ in operators]
    composed = ops[0]
    for op in ops[1:]:
        composed = compose(op, composed)
    expected = dense
    for op in ops:
        expected = dense_matrix(op) @ expected
    assert np.array_equal(dense_matrix(composed) @ dense, expected)
    step_then_turn = rotate(plane, apply_unitary(composed, state), theta)
    assert np.max(np.abs(dense_amplitudes(step_then_turn) - matrix @ expected)) <= 1e-15


def bits(state):
    """A state's rows and the bytes of its amplitudes, signs of zero included."""
    return state.labels.tolist(), state.values.tobytes()


@st.composite
def drawn_operators(draw, layout, labels):
    """An operator of 1-4 stages on ``layout``, each a table over 0-2
    control registers whose 1-3 entries rewrite one other register, with
    phases among 1, -1 and i, or several of its size, with phases of 1;
    control rows are drawn from ``labels`` as often as from anywhere, so
    several stages rewrite one row."""
    dims = layout.dimension_array.tolist()
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(len(dims))))
        k = draw(st.integers(0, 2))
        control, (first, *rest) = order[:k], order[k:]
        alike = [p for p in rest if dims[p] == dims[first]]
        targets = [first, *alike[: draw(st.integers(0, len(alike)))]]
        keys = list(itertools.product(*(range(dims[c]) for c in control)))
        seen = [tuple(row) for row in labels[:, control].tolist()]
        rows = st.sampled_from(seen) | st.sampled_from(keys)
        when = draw(st.lists(rows, min_size=1, max_size=3, unique=True))
        roots = (1.0, -1.0, 1j) if len(targets) == 1 else (1.0,)
        image = [draw(st.permutations(range(dims[first]))) for _ in when]
        phase = [[draw(st.sampled_from(roots)) for _ in range(dims[first])] for _ in when]
        when = np.reshape(when, (len(when), k))
        stages.append(ControlledRewrite(control, when, [targets] * len(when), image, phase))
    return UnitaryOp(layout, "drawn", tuple(stages))


@given(
    sparse_states(),
    st.data(),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_label_and_amplitude_parts_are_the_application(drawn, data, theta2, theta):
    # One label part per operator and support serves other amplitudes on
    # that support, and one rotation call turns a batch by every angle, each
    # member at each angle bit for bit as alone.  The label part is one pass
    # over one copy of the labels: the rows of the stage-by-stage oracle byte
    # for byte, one phase per row equal to its stage phases multiplied in
    # stage order, and the caller's labels left as they were.
    chain, state = drawn
    layout = chain.layout
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    values = [complex(data.draw(parts), data.draw(parts)) for _ in state.values]
    other = StateVector(layout, state.labels, values)
    operators = [op for op, _ in chain_operators(chain)] + [chain.record]
    operators += [data.draw(drawn_operators(layout, state.labels)) for _ in range(3)]
    operators += [UnitaryOp(layout, "stage", (stage,)) for op in operators for stage in op.stages]
    for op in operators:
        labels = state.labels.copy()
        moved = op.relabel(labels)
        assert labels.tobytes() == state.labels.tobytes()
        rows, phases = labels, []
        for stage in op.stages:
            rows, phase = reference_relabel(stage, rows)
            phases.append(phase)
        assert moved.rows.dtype == rows.dtype and moved.rows.tobytes() == rows.tobytes()
        product = functools.reduce(np.multiply, phases, np.ones(len(labels), dtype=complex))
        assert moved.phases.shape == (len(labels),) and np.array_equal(moved.phases, product)
        for x in (state, other):
            split = StateVector(layout, moved.rows, moved.amplitudes(x.values))
            assert bits(split) == bits(apply_unitary(op, x))

    rows = [
        layout.row(version_labels(layout, j, detected=True, message=j + 1)) for j in (0, 1)
    ]
    plane = build_basis_rotation(layout, *rows)
    batch = StateVector(layout, state.labels, [state.values, other.values])
    c, s = (np.array([[f(angle)] for angle in (theta2, theta)]) for f in (np.cos, np.sin))
    turned = plane.rotate(batch, c, s)
    members = itertools.product((state, other), (theta2, theta))
    for values, (x, angle) in zip(turned.values, members, strict=True):
        assert bits(StateVector(layout, turned.labels, values)) == bits(rotate(plane, x, angle))


@given(
    sparse_states(),
    st.data(),
    st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_a_batched_rotation_is_the_dense_rotation_of_each_member_at_each_angle(
    drawn, data, thetas
):
    """``rotate`` on a batch of 1-3 members and a column of angles gives,
    member-major, the loop-built rotation matrix times each member at each
    angle.  The support always holds version 1's recorded row without its
    partner, so at least one plane has a missing member."""
    chain, state = drawn
    layout = chain.layout
    rows = [
        layout.row(version_labels(layout, j, detected=True, message=j + 1)) for j in (0, 1)
    ]
    plane = build_basis_rotation(layout, *rows)
    partner = rows[0].copy()
    partner[list(plane.fixed)] = plane.second
    labels = state.labels[~(state.labels == partner).all(axis=1)]
    labels = np.concatenate([labels, rows[0][None, :]])
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    size = st.lists(parts, min_size=2 * len(labels), max_size=2 * len(labels))
    members = data.draw(st.lists(size, min_size=1, max_size=3))
    batch = StateVector(layout, labels, np.array(members).view(complex))
    c, s = (np.array([[f(theta)] for theta in thetas]) for f in (np.cos, np.sin))
    turned = plane.rotate(batch, c, s)
    assert turned.values.shape == (len(batch.values) * len(thetas), len(turned.labels))
    span = version_span(layout)
    for (member, theta), values in zip(
        itertools.product(batch.values, thetas), turned.values, strict=True
    ):
        dense = dense_amplitudes(StateVector(layout, batch.labels, member))
        expected = naive_rotation_matrix(layout, span, theta) @ dense
        moved = dense_amplitudes(StateVector(layout, turned.labels, values))
        assert np.max(np.abs(moved - expected)) <= 1e-12


@given(sparse_states())
@settings(max_examples=30, deadline=None)
def test_support_decomposition_and_trace_match_the_dense_oracles(drawn):
    chain, state = drawn
    layout = chain.layout
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    for record in ("Obs1", detectors):
        branches = decompose_branches(state, record, tolerance=0.0)
        rebuilt = reconstruct_branches(state, record, branches)
        assert np.max(np.abs(dense_amplitudes(rebuilt) - dense_amplitudes(state))) <= 1e-15

    dims = [r.dimension for r in layout.registers]
    for keep in (["Obs1"], ["path"], detectors[:2]):
        rho = reduced_density_matrix(state, keep)
        positions = [layout.position(name) for name in keep]
        oracle = naive_partial_trace(dense_amplitudes(state), dims, positions)
        assert np.max(np.abs(rho.entries - oracle)) <= 1e-15


def with_shared_relative_rows(data, state, record_at):
    """``state`` plus copies of some of its rows with other labels at
    ``record_at``, normalized: a copy and its row share their relative rows,
    so their branches overlap."""
    layout = state.layout
    copies = data.draw(st.lists(st.integers(0, len(state.values) - 1), max_size=4))
    levels = st.tuples(
        *(st.integers(0, layout.registers[i].dimension - 1) for i in record_at)
    )
    labels = state.labels[copies]
    labels[:, record_at] = np.array(
        [data.draw(levels) for _ in copies], dtype=np.int64
    ).reshape(len(copies), len(record_at))
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    values = [complex(data.draw(parts), data.draw(parts)) for _ in copies]
    shared = StateVector(
        layout,
        np.concatenate([state.labels, labels]),
        np.concatenate([state.values, values]),
    )
    assume(norm(shared) > 1e-3)
    return normalize(shared)


@given(sparse_states(), st.data(), st.sampled_from([0.0, MIN_TOLERANCE, 0.3]))
@settings(max_examples=40, deadline=None)
def test_branches_are_the_relative_state_oracle_bit_for_bit(drawn, data, tolerance):
    # Labels, coefficients, relative states and the orthogonality residual
    # of the sections equal those of relative StateVectors on a relative
    # layout, bit for bit, whether or not branches share relative rows.
    chain, state = drawn
    layout = chain.layout
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    for record in ("Obs1", detectors):
        at = [layout.position(n) for n in ([record] if record == "Obs1" else record)]
        for x in (state, with_shared_relative_rows(data, state, at)):
            branches = decompose_branches(x, record, tolerance)
            reference = reference_branches(x, record, tolerance)
            assert [b.record_label for b in branches] == [label for label, _, _ in reference]
            coefficients = np.array([b.coefficient for b in branches], dtype=complex)
            expected = np.array([c for _, c, _ in reference], dtype=complex)
            assert coefficients.tobytes() == expected.tobytes()
            for b, (_, _, relative) in zip(branches, reference):
                assert np.array_equal(np.delete(x.labels[b.rows], at, axis=1), relative.labels)
                assert (x.values[b.rows] / b.coefficient).tobytes() == relative.values.tobytes()
            one_row = StateVector(layout, x.labels, x.values[None])
            (residual,) = experiments._branch_overlap(one_row, at, [branches])
            relatives = [r for _, _, r in reference]
            assert residual == reference_overlap(relatives)
            assert residual == pytest.approx(gram_overlap(relatives), abs=1e-15)


@given(sparse_states(), st.data())
@settings(max_examples=40, deadline=None)
def test_overlaps_are_the_exact_oracle_in_any_row_order(drawn, data):
    # Coherence is the largest over every observer of its exactly rounded
    # loop over the whole reduced density matrix, bit for bit, on states
    # whose message sections share relative rows, with one observer's cells
    # redrawn or every observer's, plain and batched; each observer's loop
    # stays within 1e-15 of one BLAS product.  The overlap engine's inputs,
    # read at any record, give the same bits in any row order.
    chain, state = drawn
    layout = chain.layout
    detectors = layout.at("detector")
    observers = layout.at("observer")
    names = [layout.registers[at].name for at in observers]

    def exact(x):
        return [naive_observer_coherence(exact_partial_trace(x, [name])) for name in names]

    for record_at in [[at] for at in observers] + [observers]:
        x = with_shared_relative_rows(data, state, record_at)
        each = exact(x)
        assert observer_coherence(x) == max(each)
        for name, coherence in zip(names, each):
            assert coherence == pytest.approx(dense_observer_coherence(x, name), abs=1e-15)
        # A batch of unit states on x's rows: each member's own coherence.
        order = data.draw(st.permutations(range(len(x.values))))
        members = np.stack([x.values, 1j * x.values, x.values[order]])
        batch = StateVector(layout, x.labels, members)
        alone = [max(exact(StateVector(layout, x.labels, v))) for v in members]
        assert observer_coherence(batch) == alone
    for at in ([layout.position("Obs1")], detectors):
        x = with_shared_relative_rows(data, state, at)
        relative = np.delete(x.labels, at, axis=1)
        _, owner = union_rows(x.labels[:, at])
        overlap = max_pair_overlap(relative, owner, x.values)
        order = data.draw(st.permutations(range(len(owner))))
        assert max_pair_overlap(relative[order], owner[order], x.values[order]) == overlap
        members = np.stack([x.values, x.values[order], np.zeros_like(x.values)])
        alone = [max_pair_overlap(relative, owner, v) for v in members]
        assert max_pair_overlap(relative, owner, members) == alone == [overlap, alone[1], 0.0]


@given(specs(max_versions=4), st.data())
@settings(max_examples=40, deadline=None)
def test_born_weight_drift_is_the_dict_oracle(spec, data):
    # Versions with zero coefficients, pruned branches and, on random
    # states, labels that are no version's give the dict-based drift.
    zeros = data.draw(st.lists(st.booleans(), min_size=spec.n_versions, max_size=spec.n_versions))
    coefficients = np.array(spec.coefficients) * ~np.array(zeros)
    assume(np.linalg.norm(coefficients) > 1e-3)
    coefficients /= np.linalg.norm(coefficients)
    chain = compile_chain(spec.n_versions, spec.observers, spec.photon_model)
    post, final = chain.evolve(experiments.initial_state(chain.layout, coefficients))
    names = [chain.layout.registers[at].name for at in chain.layout.at("detector")]
    cases = [(post, final)]
    if chain.layout.total_dimension <= MAX_ORACLE_DIMENSION:
        labels = basis_labels(chain.layout)
        rows = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=8))
        parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
        values = [complex(data.draw(parts), data.draw(parts)) for _ in rows]
        scattered = StateVector(chain.layout, labels[rows], values)
        assume(norm(scattered) > 1e-3)
        cases.append((normalize(scattered), normalize(scattered)))
    for post_detection, observed in cases:
        det = decompose_branches(post_detection, names, spec.tolerance)
        obs = decompose_branches(observed, "Obs1", spec.tolerance)
        drift = experiments._born_weight_drift(spec.n_versions, det, obs)
        assert drift == reference_born_weight_drift(spec.n_versions, det, obs)


angles = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e6, -1e6, 5e-324, -5e-324, 1e-310, -2.2e-308]),
    st.integers(min_value=-9, max_value=9).map(lambda k: k * math.pi / 2),
)


@given(specs(max_versions=2), st.booleans(), st.lists(angles, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_a_batch_of_angles_is_the_per_angle_oracle_byte_for_byte(spec, control, thetas):
    # The batch computes every angle's amplitudes as one row of an array;
    # the oracle builds each angle's states alone.  JSON tells signed zeros
    # apart.
    if control and abs(spec.coefficients[0]) > spec.tolerance:
        spec = replace(spec, negative_control=True)
    reports = run_appendix_rotation(spec, thetas)
    assert len(reports) == len(thetas)
    for report, reference in zip(reports, reference_appendix_rotation(spec, thetas)):
        assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


# Exact zeros of either sign, so that draws can prune branches and skip
# versions, and parts over the whole unit interval.
coefficient_parts = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
)


# Parts at least 0.01 in size.
anchor_parts = st.floats(min_value=-1.0, max_value=-0.01) | st.floats(min_value=0.01, max_value=1.0)


@st.composite
def draw_batches(draw, max_versions=5):
    """Specs of one chain configuration that differ only in their
    coefficients: 1-6 draws at N = 2 to ``max_versions``, some of them
    repeats."""
    n_versions = draw(st.integers(min_value=2, max_value=max_versions))
    observers = draw(st.integers(min_value=1, max_value=3))
    photon_model, negative_control = draw(st.booleans()), draw(st.booleans())
    draws = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if draws and draw(st.booleans()):
            draws.append(draw(st.sampled_from(draws)))
            continue
        parts = draw(st.lists(coefficient_parts, min_size=2 * n_versions, max_size=2 * n_versions))
        # One anchor part, in the first coefficient under the negative
        # control, keeps the norm nonzero; as the norm is at most sqrt(10),
        # that coefficient keeps over 1e-3 of it, and the control can fail.
        # Every other coefficient may still be an exact zero of either sign.
        anchor = draw(st.integers(0, 1 if negative_control else 2 * n_versions - 1))
        parts[anchor] = draw(anchor_parts)
        vector = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
        norm = math.sqrt(math.fsum(abs(c) ** 2 for c in vector))
        draws.append(tuple(complex(c.real / norm, c.imag / norm) for c in vector))
    return [
        ExperimentSpec(n_versions, c, observers, photon_model, negative_control=negative_control)
        for c in draws
    ]


def check_selections(available):
    return st.one_of(st.none(), st.lists(st.sampled_from(available), min_size=1, unique=True))


@given(
    draw_batches(),
    check_selections(experiments.CHAIN_CHECKS),
    draw_batches(max_versions=2),
    st.lists(angles, min_size=1, max_size=4),
    check_selections(experiments.APPENDIX_CHECKS),
)
@settings(max_examples=60, deadline=None)
def test_a_batch_of_draws_is_the_per_draw_oracle_byte_for_byte(
    specs, checks, pairs, thetas, rotation_checks
):
    # The batch holds every draw's amplitudes as one row of each state; the
    # oracle runs each draw alone, every state one state.  A rotation's
    # batch holds one row per draw and angle, and the oracle also turns
    # each angle alone.  JSON tells signed zeros apart.
    reports = run_measurement_chain(specs, checks)
    assert len(reports) == len(specs)
    for spec, report in zip(specs, reports):
        reference = reference_measurement_chain(spec, checks).to_dict()
        assert json.dumps(report.to_dict()) == json.dumps(reference)
    alone = run_measurement_chain(specs[0], checks)
    assert json.dumps(alone.to_dict()) == json.dumps(reports[0].to_dict())

    rotated = run_appendix_rotation(pairs, thetas, rotation_checks)
    assert len(rotated) == len(pairs) * len(thetas)
    for d, spec in enumerate(pairs):
        draw = rotated[d * len(thetas):(d + 1) * len(thetas)]
        references = reference_appendix_rotation(spec, thetas, rotation_checks)
        for a, (report, reference) in enumerate(zip(draw, references)):
            assert (report.spec, report.theta) == (spec, thetas[a])
            assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


@given(check_selections(experiments.CHAIN_CHECKS), check_selections(experiments.APPENDIX_CHECKS))
@settings(max_examples=40, deadline=None)
def test_a_report_lists_its_checks_in_the_public_order(chain_checks, rotation_checks):
    # Whatever order a selection names them in, a report lists its checks
    # as CHAIN_CHECKS or APPENDIX_CHECKS does.
    spec = ExperimentSpec(2, (0.6, 0.8), observers=2)
    for report, available, selection in (
        (run_measurement_chain(spec, chain_checks), experiments.CHAIN_CHECKS, chain_checks),
        (run_appendix_rotation(spec, [0.3], rotation_checks)[0], experiments.APPENDIX_CHECKS,
         rotation_checks),
    ):
        expected = [name for name in available if selection is None or name in selection]
        assert [c.name for c in report.checks] == expected

def float_bits(x):
    """A float's bytes, sign of zero and NaN payload included."""
    return struct.pack("<d", x)


# Residuals a check reaches: signed zeros, the least subnormal, the
# tolerance and the next float past it, a miss and NaN.
column_residuals = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-12, math.nextafter(1e-12, 1.0), 1.0, math.nan]
)


@given(st.lists(column_residuals, max_size=24), st.data())
@settings(max_examples=200, deadline=None)
def test_a_check_column_is_the_per_row_result_one_object_per_outcome(residuals, data):
    # A column of results is each row's CheckResult.from_residual, field
    # for field and bit for bit, and rows with equal outcomes (residual
    # bits and detail) hold one object, so its report entry is built and
    # written once.  A NaN row still fails.
    details = data.draw(
        st.one_of(
            st.sampled_from(["", "a detail"]),
            st.lists(st.sampled_from(["", "a detail"]), min_size=len(residuals),
                     max_size=len(residuals)),
        )
    )
    column = experiments._column("structure", residuals, 1e-12, details)
    per_row = [details] * len(residuals) if isinstance(details, str) else details
    assert len(column) == len(residuals)
    for got, residual, detail in zip(column, residuals, per_row):
        want = CheckResult.from_residual("structure", residual, 1e-12, detail)
        assert replace(got, residual=0.0) == replace(want, residual=0.0)
        assert float_bits(got.residual) == float_bits(want.residual)
        assert json.dumps(got.entry) == json.dumps(want.entry)
    outcomes = {(float_bits(r), d) for r, d in zip(residuals, per_row) if not math.isnan(r)}
    shared = {id(c) for c, r in zip(column, residuals) if not math.isnan(r)}
    assert len(shared) == len(outcomes)


def test_a_batch_refuses_specs_that_differ_beyond_their_coefficients():
    spec = ExperimentSpec(2, (0.6, 0.8))
    others = [
        replace(spec, observers=2),
        replace(spec, photon_model=True),
        replace(spec, negative_control=True),
        replace(spec, tolerance=1e-9),
    ]
    for run in (run_measurement_chain, lambda specs: run_appendix_rotation(specs, [0.7])):
        for batch in [*([spec, other] for other in others), []]:
            with pytest.raises(ValueError, match="differ only in their coefficients"):
                run(batch)


@given(sparse_states())
@settings(max_examples=30, deadline=None)
def test_a_basis_permutation_leaves_the_reported_norm_bit_identical(drawn):
    chain, state = drawn
    spec = ExperimentSpec(chain.n_versions, (1.0,) + (0.0,) * (chain.n_versions - 1))

    def reported_norm(final):
        report = RunReport("probe", spec, None, final, [], [])
        return report.to_dict()["final_state"]["norm"]

    reference = reported_norm(state)
    assert reference == norm(state)
    for op, _ in chain_operators(chain):
        assert reported_norm(apply_unitary(op, state)) == reference


# -- the table proof against the dense oracle ----------------------------------

DEFECTS = (None, "merged levels", "phase modulus", "target in control", "repeated row")

# Sums of two fourth roots of unity never have modulus 1, so a repeated
# control row can never add up to a unitary column by accident.
ROOTS = (1.0, -1.0, 1j, -1j)


@st.composite
def rewrite_tables(draw):
    """A small layout and the arguments of one controlled-rewrite table on
    it, sound or broken in exactly one way (``defect``) that makes its dense
    matrix non-unitary."""
    defect = draw(st.sampled_from(DEFECTS))
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    order = draw(st.permutations(range(len(dims))))
    k = draw(st.integers(1 if defect == "target in control" else 0, len(dims) - 1))
    control = order[:k]
    if defect == "target in control":
        targets = [control[0]]
    else:
        targets = [p for p in order[k:] if dims[p] == dims[order[k]]]
    levels = dims[targets[0]]
    rows = list(itertools.product(*(range(dims[c]) for c in control)))
    when = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4, unique=True))
    target = [draw(st.sampled_from(targets)) for _ in when]
    image = [list(draw(st.permutations(range(levels)))) for _ in when]
    phase = [[draw(st.sampled_from(ROOTS)) for _ in range(levels)] for _ in when]

    if defect == "merged levels":
        image[0][1] = image[0][0]
    elif defect == "phase modulus":
        phase[0][draw(st.integers(0, levels - 1))] *= draw(st.sampled_from((0.5, 2.0)))
    elif defect == "target in control":
        # One entry that moves the level it is controlled on: its image row
        # then matches no entry and is hit twice.
        when, target, phase = when[:1], target[:1], phase[:1]
        image = [[(level + 1) % levels for level in range(levels)]]
    elif defect == "repeated row":
        when.append(when[0])
        target.append(target[0])
        image.append(list(draw(st.permutations(range(levels)))))
        phase.append([draw(st.sampled_from(ROOTS)) for _ in range(levels)])

    layout = make_layout([(f"R{i}", d, "detector") for i, d in enumerate(dims)])
    arguments = (control, np.reshape(when, (len(when), k)), target, image, phase)
    oracle = naive_rewrite_matrix(layout, control, when, target, image, phase)
    return defect, layout, arguments, oracle


@given(rewrite_tables())
@settings(max_examples=150, deadline=None)
def test_the_table_proof_agrees_with_the_dense_oracle(drawn):
    defect, layout, arguments, oracle = drawn
    unitary = unitarity_residual(oracle) <= 1e-12
    assert unitary == (defect is None)
    # Construction is the proof: it succeeds exactly on the unitary tables.
    try:
        op = UnitaryOp(layout, f"drawn[{defect}]", (ControlledRewrite(*arguments),))
    except ValueError:
        op = None
    assert (op is not None) == unitary
    if unitary:
        # A sound table is applied, and inverted, as the oracle writes it.
        assert np.array_equal(dense_matrix(op), oracle)
        assert np.array_equal(dense_matrix(adjoint(op)), oracle.conj().T)


# -- the table lookup against the match cube -----------------------------------


def assert_relabels_as_the_cube(table, labels, relabel=ControlledRewrite._relabel):
    """``relabel``, the library's in-place step by default, handed a copy of
    ``labels`` and a phase of 1 per row, writes the rows and phases of
    ``reference_relabel`` byte for byte."""
    moved = labels.copy(), np.ones(len(labels), dtype=complex)
    relabel(table, *moved)
    for got, want in zip(moved, reference_relabel(table, labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def relabelled_tables(draw):
    """A table of 1-6 entries over 1-4 control registers, each entry
    targeting one free register or a row of 2-3 distinct free registers,
    phases among 1, -1 and i (1 with several targets), and label rows that
    match an entry, match none, or repeat."""
    k = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    free = draw(st.integers(1, 3))
    levels = draw(st.integers(2, 3))
    dims += [levels] * free
    rows = list(itertools.product(*(range(d) for d in dims[:k])))
    entries = st.lists(st.sampled_from(rows), min_size=1, max_size=min(6, len(rows)), unique=True)
    when = draw(entries)
    several = draw(st.integers(1, free))
    free_registers = st.permutations(range(k, k + free))
    target = [draw(free_registers)[:several] for _ in when]
    roots = (1.0, -1.0, 1j) if several == 1 else (1.0,)
    image = [list(draw(st.permutations(range(levels)))) for _ in when]
    phase = [[draw(st.sampled_from(roots)) for _ in range(levels)] for _ in when]
    layout = make_layout([(f"R{i}", d, "detector") for i, d in enumerate(dims)])
    table = ControlledRewrite(range(k), when, target, image, phase)
    UnitaryOp(layout, "drawn", (table,))  # a table the layout accepts
    labels = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.integers(0, d - 1)) for d in dims]
        if draw(st.booleans()):
            row[:k] = draw(st.sampled_from(when))
        labels += [row] * draw(st.integers(1, 3))
    return table, np.array(labels, dtype=np.int64).reshape(-1, len(dims))


@given(relabelled_tables())
@settings(max_examples=200, deadline=None)
def test_a_table_relabels_rows_as_the_match_cube_does(drawn):
    assert_relabels_as_the_cube(*drawn)


@st.composite
def independent_tables(draw):
    """A table of 1-4 entries, each over its own 1-2 control registers and
    writing its own one or two registers (as many for every entry) by a
    permutation other than the identity, phases 1, its registers shuffled
    into the layout and its entries into any order.  Each label row makes
    each entry read its ``when`` row or not, so none, one or several
    entries fire on it."""
    levels = draw(st.integers(2, 3))
    moved = st.permutations(range(levels)).filter(lambda image: image != sorted(image))
    controls, several = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    dims, entries = [], []
    for _ in range(draw(st.integers(1, 4))):
        at = list(range(len(dims), len(dims) + controls))
        dims += draw(st.lists(st.integers(2, 3), min_size=controls, max_size=controls))
        when = [draw(st.integers(0, dims[c] - 1)) for c in at]
        target = list(range(len(dims), len(dims) + several))
        dims += [levels] * several
        entries.append((at, when, target, list(draw(moved))))
    entries = draw(st.permutations(entries))
    order = draw(st.permutations(range(len(dims))))  # register p sits at order[p]
    placed = [order.index(at) for at in range(len(dims))]  # the register at each position
    layout = make_layout([(f"R{at}", dims[p], "detector") for at, p in enumerate(placed)])
    control, when, target, image = zip(*entries)
    table = ControlledRewrite(
        [[order[p] for p in at] for at in control],
        when,
        [[order[p] for p in at] for at in target],
        image,
    )
    UnitaryOp(layout, "drawn", (table,))  # a table the layout accepts
    labels = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.integers(0, d - 1)) for d in dims]
        for at, rule, *_ in entries:
            if draw(st.booleans()):
                for p, level in zip(at, rule):
                    row[p] = level
        labels.append([row[p] for p in placed])
    return table, np.array(labels, dtype=LABEL).reshape(-1, len(dims))


@given(independent_tables())
@settings(max_examples=200, deadline=None)
def test_a_table_over_several_control_rows_is_its_one_entry_tables_in_turn(drawn):
    """One pass of a table with a control row per entry gives, byte for
    byte, the rows and phases of its one-entry tables applied in turn by the
    match-cube oracle, however many of its entries fire on a row; so does
    the oracle on the whole table."""
    table, labels = drawn
    rows, phases = labels.copy(), np.ones(len(labels), dtype=complex)
    table._relabel(rows, phases)
    turned, product = labels, np.ones(len(labels), dtype=complex)
    for e in range(len(table.when)):
        one = ControlledRewrite(
            table.control[e], table.when[e : e + 1], table.target[e : e + 1],
            table.image[e : e + 1], table.phase[e : e + 1],
        )
        turned, phase = reference_relabel(one, turned)
        product *= phase
    assert rows.dtype == turned.dtype and rows.tobytes() == turned.tobytes()
    assert phases.tobytes() == product.tobytes()
    assert_relabels_as_the_cube(table, labels)


# Real and imaginary parts of drawn amplitudes, signed zeros and subnormals included.
amplitude_parts = st.floats(-1.0, 1.0) | st.sampled_from((-0.0, 0.0, 5e-324, -5e-324))


def assert_is_its_one_target_tables_in_turn(table, labels, values):
    """``table`` applied once gives the rows, phases and amplitudes of its
    one-target tables, one per column of its targets, applied in turn: the
    rows and every stage's phases byte for byte, and the amplitudes byte for
    byte up to the sign of a zero against each stage's phases multiplied in
    turn.  Each stage multiplies by its phases of 1 once more, and that can
    clear a zero's sign: ``-0-0j`` times 1 is ``0-0j``, and that times 1 is
    ``0j``; nothing else changes."""
    rows, phase = labels.copy(), np.ones(len(labels), dtype=complex)
    table._relabel(rows, phase)
    turned, steps = labels.copy(), []
    for column in table.target.T:
        one = ControlledRewrite(table.control, table.when, column, table.image, table.phase)
        steps.append(np.ones(len(labels), dtype=complex))
        one._relabel(turned, steps[-1])
    assert rows.dtype == turned.dtype and rows.tobytes() == turned.tobytes()
    assert all(step.tobytes() == phase.tobytes() for step in steps)
    at_once = PermutedRows(rows, phase).amplitudes(values) + 0.0
    in_turn = functools.reduce(np.multiply, steps, values) + 0.0
    assert at_once.tobytes() == in_turn.tobytes()


@given(relabelled_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_table_of_several_targets_is_its_one_target_tables_in_turn(drawn, data):
    table, labels = drawn
    parts = st.lists(amplitude_parts, min_size=2 * len(labels), max_size=2 * len(labels))
    values = np.array(data.draw(parts), dtype=float).view(complex)
    assert_is_its_one_target_tables_in_turn(table, labels, values)


@given(
    st.sampled_from((2, 3, 11)), st.integers(1, 3), st.booleans(), st.booleans(), st.data()
)
@settings(max_examples=40, deadline=None)
def test_every_chain_perception_is_one_table_of_its_observers_tables_in_turn(
    n_versions, observers, photon_model, negative_control, data
):
    """A compiled chain's perception is one table that writes every
    observer, in layout order, and equals their one-target tables applied in
    turn, on drawn label rows and on every version's recorded rows."""
    chain = compile_chain(n_versions, observers, photon_model, negative_control)
    (table,) = chain.perception.stages
    assert table.target.tolist() == [chain.layout.at("observer")] * n_versions
    dims = chain.layout.dimension_array.tolist()
    drawn = data.draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)), max_size=6))
    versions = experiments._version_rows(chain.layout, range(n_versions), detected=True)
    for labels in (np.array(drawn, dtype=LABEL).reshape(-1, len(dims)), versions):
        parts = st.lists(amplitude_parts, min_size=2 * len(labels), max_size=2 * len(labels))
        values = np.array(data.draw(parts), dtype=float).view(complex)
        assert_is_its_one_target_tables_in_turn(table, labels, values)


@given(
    st.sampled_from((2, 3, 11)), st.integers(1, 3), st.booleans(), st.booleans(), st.data()
)
@settings(max_examples=40, deadline=None)
def test_every_chain_table_relabels_as_the_match_cube_does(
    n_versions, observers, photon_model, negative_control, data
):
    """Every stage of the compiled chain and both probes, on drawn label
    rows and on every row a run hands them: evolution, the independence
    replay, the no-signaling probes and, at N=2, the rotation's
    perception, each run on the chain it builds itself."""

    def tables_of(chain, probes):
        tables = chain.record.stages + chain.perception.stages
        return tables + tuple(stage for probe in probes for stage in probe.stages)

    chain = compile_chain(n_versions, observers, photon_model, negative_control)
    tables = tables_of(chain, stock_probes(chain.layout))
    # Detection reads the path; emission, with photons, one detector per entry.
    assert [stage.control.ndim for stage in chain.record.stages] == [1, 2][: 1 + photon_model]
    dims = chain.layout.dimension_array.tolist()
    drawn = data.draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)), max_size=6))
    versions = experiments._version_rows(chain.layout, range(n_versions), detected=True)
    for labels in (np.array(drawn, dtype=np.int64).reshape(-1, len(dims)), versions):
        for table in tables:
            assert_relabels_as_the_cube(table, labels)

    applied, built, probes = [], [], []
    relabel = ControlledRewrite._relabel

    def checked(table, rows, phases):
        applied.append(table)
        assert_relabels_as_the_cube(table, rows, relabel)
        relabel(table, rows, phases)

    def compiled(*args, _compile=experiments.compile_chain):
        built.append(_compile(*args))
        return built[-1]

    def probed(specs, probe, _check=experiments.no_signaling_check, **kwargs):
        probes.append(probe)
        return _check(specs, probe, **kwargs)

    coefficients = (n_versions**-0.5,) * n_versions
    spec = ExperimentSpec(
        n_versions, coefficients, observers, photon_model, negative_control=negative_control
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ControlledRewrite, "_relabel", checked)
        patch.setattr(experiments, "compile_chain", compiled)
        patch.setattr(experiments, "no_signaling_check", probed)
        run_measurement_chain(spec)
        (run_chain,) = built
        assert len(probes) == 2
        assert set(map(id, applied)) == set(map(id, tables_of(run_chain, probes)))
        if n_versions == 2:
            applied.clear()
            run_appendix_rotation(spec, [0.0, 0.7])
            _, rotation_chain = built
            assert set(map(id, rotation_chain.perception.stages)) <= set(map(id, applied))


# -- the builders against register order ---------------------------------------


@given(st.integers(2, 4), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_the_builders_do_not_depend_on_register_order_across_roles(
    n_versions, observers, photon_model, data
):
    """Interleaving the roles of ``chain_layout``, each role's registers kept
    in their own order, permutes the columns of every record and perception
    stage's rows and changes nothing else.  Within a role, layout order pairs
    detectors with photons by design, so such shuffles are not drawn."""
    layout = experiments.chain_layout(n_versions, observers, photon_model)
    roles = [r.role for r in layout.registers]
    queues = {role: iter(layout.at(role)) for role in roles}
    order = [next(queues[role]) for role in data.draw(st.permutations(roles))]
    registers = [layout.registers[at] for at in order]
    shuffled = make_layout((r.name, r.dimension, r.role) for r in registers)

    # ``at`` lists a role's registers in layout order, their own order kept.
    for role in ("particle-path", "detector", "photon", "observer"):
        at = shuffled.at(role)
        assert at == sorted(at) and [order[i] for i in at] == layout.at(role)
    several = shuffled.at("detector", "observer")
    assert several == shuffled.at("observer", "detector")
    assert several == sorted(shuffled.at("detector") + shuffled.at("observer"))
    assert shuffled.at("no-such-role") == [] and shuffled.at() == []
    if not photon_model:
        assert shuffled.at("photon") == []

    builders = [build_detection_unitary]
    if photon_model:
        builders.append(build_photon_emission_unitary)
    configs = standard_classical_configs(n_versions)
    builders.append(functools.partial(build_perception_unitary, classical_configs=configs))
    dims = layout.dimension_array.tolist()
    drawn = data.draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)), max_size=6))
    armed = experiments._version_rows(layout, range(n_versions), detected=False)
    rows = np.concatenate([np.array(drawn, dtype=LABEL).reshape(-1, len(dims)), armed])
    # Each stage gets the rows the one before it moved, so perception reads
    # recorded configurations.
    for build in builders:
        op, permuted = build(layout), build(shuffled)
        moved, shuffled_moved = op.relabel(rows), permuted.relabel(rows[:, order])
        assert permuted.provenance == op.provenance
        assert np.array_equal(shuffled_moved.rows, moved.rows[:, order])
        assert shuffled_moved.phases.shape == moved.phases.shape == (len(rows),)
        assert np.array_equal(shuffled_moved.phases, moved.phases)
        rows = moved.rows


# -- the report writer against the stdlib encoder ------------------------------

# Keys and strings hold what JSON must escape, and text beyond ASCII.
json_text = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "a\tb", "é", "\U0001f600", ""])
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | json_text
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=24,
)


@st.composite
def poisoned_trees(draw):
    """A JSON tree with NaN or an infinity put into one of its lists or dicts."""
    tree = draw(json_trees)
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
    containers, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict)):
            containers.append(node)
        if isinstance(node, (list, tuple, dict)):
            stack.extend(node.values() if isinstance(node, dict) else node)
    if not containers:
        return (tree, bad)
    target = draw(st.sampled_from(containers))
    if isinstance(target, list):
        target.insert(draw(st.integers(0, len(target))), bad)
    else:
        target[draw(json_text)] = bad
    return tree


def written_json(tree):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_report(tree, None, "json")
    return out.getvalue()


@given(json_trees)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], {"c": ()}], "d": [{}]})
@example(([1, 2],))
@example({"long": ["x" * 5000, list(range(300))], "many": [[i] for i in range(200)]})
@settings(max_examples=300, deadline=None)
def test_the_report_writer_is_the_stdlib_indent_2_encoder(tree):
    assert written_json(tree) == reference_report_json(tree) + "\n"


class WriteLog:
    """Standard output that keeps the text of each ``write`` call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_the_report_writer_joins_its_pieces_into_batches_of_at_most_4096_characters():
    tree = {"long": ["x" * 5000, list(range(300))], "many": [[i] for i in range(200)]}
    log = WriteLog()
    with contextlib.redirect_stdout(log):
        cli.write_report(tree, None, "json")
    text = "".join(log.writes)
    assert text == reference_report_json(tree) + "\n"
    # Only the one piece over 4,096 characters, the long string, may be
    # written whole; an 8 KB report takes more than one write.
    long_piece = json.dumps("x" * 5000)
    assert all(len(written) <= 4096 or written == long_piece for written in log.writes)
    assert len(text) > 8192 and len(log.writes) > 1


def test_a_report_file_is_written_as_bytes_through_an_unbuffered_handle(tmp_path, monkeypatch):
    tree = {"long": ["x" * 5000, list(range(300))], "many": [[i] for i in range(200)]}
    files = []

    def recording_open(*args, **kwargs):
        files.append(RecordingFile(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = tmp_path / "report.json"
    cli.write_report(tree, str(out), "json")
    (file,) = files
    assert type(file.handle) is io.FileIO and file.handle.mode == "wb"
    assert out.read_bytes() == (reference_report_json(tree) + "\n").encode()
    assert b"".join(file.writes) == out.read_bytes()
    # Only the one piece over 4,096 characters, the long string, may be
    # written whole; an 8 KB report takes more than one write.
    long_piece = json.dumps("x" * 5000).encode()
    assert all(len(data) <= 4096 or data == long_piece for data in file.writes)
    assert len(file.writes) > 1


class RecordingFile:
    """A file that keeps the bytes of each ``write`` call."""

    def __init__(self, handle):
        self.handle, self.writes = handle, []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.handle.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


@given(poisoned_trees())
@settings(max_examples=100, deadline=None)
def test_the_report_writer_refuses_nan_and_infinity_as_the_stdlib_does(tree):
    with pytest.raises(ValueError):
        reference_report_json(tree)
    with pytest.raises(ValueError):
        written_json(tree)


# Stand-ins for the shared containers in a drawn skeleton.
INNER, OUTER = object(), object()
json_containers = (
    st.lists(json_trees, max_size=3)
    | st.lists(json_trees, max_size=3).map(tuple)
    | st.dictionaries(json_text, json_trees, max_size=3)
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")])



@given(non_finite | st.builds(complex, st.floats(-1, 1), non_finite), st.integers(0, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_non_finite_number_is_refused_where_it_enters(bad, at, batched):
    # NaN compares false with everything, so every guard must be written so
    # that NaN fails it: a table's phase, a density matrix's entry and a
    # state's amplitude (of one state or of a batch's member) are refused.
    layout = experiments.chain_layout(2, 2)
    where, recorded = experiments._version_configuration(layout, 1)
    with pytest.raises(ValueError, match="modulus other than 1"):
        ControlledRewrite(where, [recorded], layout.position("Obs2"), [np.arange(4)], bad)
    entries = np.eye(2, dtype=complex) / 2
    entries.flat[at] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(2, entries)
    values = np.full((2, 2), 0.6 + 0j)
    values.flat[at] = bad
    rows = experiments._version_rows(layout, [0, 1], detected=True)
    with pytest.raises(ValueError, match="finite"):
        StateVector(layout, rows, values if batched else values[at // 2])

def with_slots(*slots):
    """JSON trees whose leaves may be any of ``slots``."""
    return st.recursive(
        json_scalars | st.sampled_from(slots),
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_text, children, max_size=4),
        max_leaves=12,
    )


def fill(node, objects):
    """``node`` with each stand-in replaced by the object ``objects`` maps
    it to, the same object at every place."""
    for slot, value in objects.items():
        if node is slot:
            return value
    if isinstance(node, dict):
        return {key: fill(child, objects) for key, child in node.items()}
    if isinstance(node, (list, tuple)):
        return type(node)(fill(child, objects) for child in node)
    return node


@st.composite
def shared_trees(draw, poisoned=False):
    """A tree that holds one container object (empty ones included) twice
    at one depth and once deeper, and an outer container, itself in several
    places at different depths, that may hold it too.  When ``poisoned``,
    the shared inner container holds NaN or an infinity."""
    inner = draw(json_containers)
    if poisoned:
        bad = draw(non_finite)
        if isinstance(inner, dict):
            inner[draw(json_text)] = bad
        else:
            at = draw(st.integers(0, len(inner)))
            inner = type(inner)((*inner[:at], bad, *inner[at:]))
    skeleton = with_slots(INNER)
    outer = draw(st.lists(skeleton, max_size=3) | st.dictionaries(json_text, skeleton, max_size=3))
    outer = fill(outer, {INNER: inner})
    rest = fill(draw(with_slots(INNER, OUTER)), {INNER: inner, OUTER: outer})
    return {"deeper": [[inner], {"outer": outer}], "rest": rest, "same": [inner, outer, inner]}


EMPTY = []

# Met in each of 1,500 runs, across the writer's memo being emptied.
SHARED = {"coefficients": [0.6, 0.8], "label": "M1"}


@given(shared_trees())
@example({"a": [EMPTY], "b": EMPTY, "c": {"d": [[EMPTY], EMPTY]}})
@example({"runs": [{"index": [i], "shared": [SHARED, SHARED]} for i in range(1500)]})
@settings(max_examples=100, deadline=None)
def test_the_report_writer_encodes_shared_containers_where_they_stand(tree):
    assert written_json(tree) == reference_report_json(tree) + "\n"


@given(shared_trees(poisoned=True))
@settings(max_examples=50, deadline=None)
def test_a_poisoned_shared_container_raises_and_leaves_no_report(tree):
    with pytest.raises(ValueError):
        reference_report_json(tree)
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "report.json"
        with pytest.raises(ValueError):
            cli.write_report(tree, str(out), "json")
        assert not out.exists()
