from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    CapacityError,
    ControlledRewrite,
    PairedRotation,
    StateVector,
    UnitaryOp,
    apply_unitary,
    build_basis_rotation,
    build_detection_unitary,
    build_perception_unitary,
    build_photon_emission_unitary,
    chain_layout,
    compose,
    make_layout,
    phase_flip_perturbation,
    product_state,
    record_cycle_perturbation,
    standard_classical_configs,
    superpose,
)
from oracles import (
    adjoint,
    basis_labels,
    dense_amplitudes,
    encode,
    dense_matrix,
    identity,
    level_cycle,
    naive_detection_matrix,
    naive_emission_matrix,
    naive_perception_matrix,
    naive_rotation_matrix,
    rotate,
    unitarity_residual,
    version_labels,
)

SG = [("P", 2, "particle-path"), ("DH", 2, "detector"), ("DV", 2, "detector"),
      ("Obs", 4, "observer")]


def sg_layout():
    return make_layout(SG)


def photon_layout():
    return make_layout(
        [
            ("P", 2, "particle-path"),
            ("DH", 2, "detector"),
            ("DV", 2, "detector"),
            ("phH", 2, "photon"),
            ("phV", 2, "photon"),
            ("Obs", 4, "observer"),
        ]
    )


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(layout.total_dimension) + 1j * rng.standard_normal(
        layout.total_dimension
    )
    return StateVector(layout, basis_labels(layout), amps / np.linalg.norm(amps))


# -- detection ---------------------------------------------------------------


def test_detection_matches_brute_force_matrix():
    for layout in (sg_layout(), photon_layout()):
        built = dense_matrix(build_detection_unitary(layout))
        assert np.array_equal(built, naive_detection_matrix(layout))


def test_detection_splits_into_two_versions():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    before = superpose(
        [
            (0.6, product_state(layout, {"P": 0, "DH": 0, "DV": 0, "Obs": 0})),
            (0.8j, product_state(layout, {"P": 1, "DH": 0, "DV": 0, "Obs": 0})),
        ]
    )
    after = apply_unitary(detection, before)
    expected = superpose(
        [
            (0.6, product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})),
            (0.8j, product_state(layout, {"P": 1, "DH": 0, "DV": 1, "Obs": 0})),
        ]
    )
    assert np.array_equal(dense_amplitudes(after), dense_amplitudes(expected))


def test_detection_only_fires_detector_on_own_path():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    armed = product_state(layout, {"P": 0, "DH": 0, "DV": 0, "Obs": 0})
    fired = apply_unitary(detection, armed)
    assert dense_amplitudes(fired)[encode(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})] == 1.0


def test_detection_is_an_involution():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    twice = compose(detection, detection)
    assert np.array_equal(dense_matrix(twice), np.eye(layout.total_dimension))


def test_detection_requires_matching_registers():
    with pytest.raises(ValueError, match="particle-path"):
        build_detection_unitary(make_layout([("D", 2, "detector"), ("O", 4, "observer")]))
    with pytest.raises(ValueError, match="detectors"):
        build_detection_unitary(
            make_layout([("P", 3, "particle-path"), ("D1", 2, "detector"),
                         ("D2", 2, "detector")])
        )
    with pytest.raises(ValueError, match="two-level"):
        build_detection_unitary(
            make_layout([("P", 2, "particle-path"), ("D1", 3, "detector"),
                         ("D2", 2, "detector")])
        )


# -- photon emission ---------------------------------------------------------


def test_emission_matches_brute_force_matrix():
    layout = photon_layout()
    built = dense_matrix(build_photon_emission_unitary(layout))
    assert np.array_equal(built, naive_emission_matrix(layout))


def test_emission_copies_detector_into_photon():
    layout = photon_layout()
    emission = build_photon_emission_unitary(layout)
    fired = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 0, "phV": 0, "Obs": 0})
    lit = apply_unitary(emission, fired)
    target = encode(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 1, "phV": 0, "Obs": 0})
    assert dense_amplitudes(lit)[target] == 1.0
    assert np.array_equal(
        dense_matrix(compose(emission, emission)), np.eye(layout.total_dimension)
    )


def test_emission_is_one_table_whose_entries_read_their_own_detector():
    # Detector j flips photon j wherever it reads 1, also on rows where
    # several detectors do: one entry per detector, over its own position.
    layout = photon_layout()
    emission = build_photon_emission_unitary(layout)
    (table,) = emission.stages
    assert table.control.tolist() == [[1], [2]] and table.target.tolist() == [[3], [4]]
    both = product_state(layout, {"P": 0, "DH": 1, "DV": 1, "phH": 0, "phV": 1, "Obs": 0})
    lit = encode(layout, {"P": 0, "DH": 1, "DV": 1, "phH": 1, "phV": 0, "Obs": 0})
    assert dense_amplitudes(apply_unitary(emission, both))[lit] == 1.0


def test_emission_requires_paired_photons():
    with pytest.raises(ValueError, match="photon"):
        build_photon_emission_unitary(sg_layout())


# -- perception --------------------------------------------------------------


def test_perception_matches_brute_force_matrix():
    layout = sg_layout()
    configs = standard_classical_configs(2)
    built = dense_matrix(build_perception_unitary(layout, configs))
    oracle = naive_perception_matrix(layout, "Obs", configs, ["DH", "DV"])
    assert np.array_equal(built, oracle)


def test_perception_writes_message_per_version():
    layout = sg_layout()
    perception = build_perception_unitary(layout, standard_classical_configs(2))

    looked = apply_unitary(
        perception, product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})
    )
    assert dense_amplitudes(looked)[encode(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 1})] == 1.0

    both = apply_unitary(
        perception,
        superpose(
            [
                (0.6, product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})),
                (0.8, product_state(layout, {"P": 1, "DH": 0, "DV": 1, "Obs": 0})),
            ]
        ),
    )
    expected = superpose(
        [
            (0.6, product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 1})),
            (0.8, product_state(layout, {"P": 1, "DH": 0, "DV": 1, "Obs": 2})),
        ]
    )
    assert np.array_equal(dense_amplitudes(both), dense_amplitudes(expected))


def test_perception_identity_off_the_classical_configurations():
    layout = sg_layout()
    perception = build_perception_unitary(layout, standard_classical_configs(2))
    # Nothing detected: observer stays blank.
    idle = product_state(layout, {"P": 0, "DH": 0, "DV": 0, "Obs": 0})
    assert np.array_equal(dense_amplitudes(apply_unitary(perception, idle)), dense_amplitudes(idle))
    # The reserved mixed level is never moved.
    mixed = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 3})
    unmoved = apply_unitary(perception, mixed)
    assert np.array_equal(dense_amplitudes(unmoved), dense_amplitudes(mixed))


def test_perception_completion_unwrites_existing_message():
    # The transposition closure: a pre-written message on its own
    # configuration maps back to blank.
    layout = sg_layout()
    perception = build_perception_unitary(layout, standard_classical_configs(2))
    written = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 1})
    back = apply_unitary(perception, written)
    assert dense_amplitudes(back)[encode(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})] == 1.0


def test_perception_validation():
    layout = sg_layout()
    # A layout without observers has no one to perceive.
    with pytest.raises(ValueError, match="no observer register"):
        build_perception_unitary(make_layout(SG[:3]), standard_classical_configs(2))
    with pytest.raises(ValueError, match="levels"):
        small = make_layout(
            [("P", 3, "particle-path"), ("D1", 2, "detector"), ("D2", 2, "detector"),
             ("D3", 2, "detector"), ("Obs", 4, "observer")]
        )
        build_perception_unitary(small, standard_classical_configs(3))
    # Every observer is checked, and the error names the one too small.
    with pytest.raises(ValueError, match="observer register 'Obs2' has 3 levels, needs at least 4"):
        build_perception_unitary(
            make_layout(SG + [("Obs2", 3, "observer")]), standard_classical_configs(2)
        )
    with pytest.raises(ValueError, match="digits"):
        build_perception_unitary(layout, (np.array([[1, 0, 0]]), np.array([1])))
    with pytest.raises(ValueError, match="digits"):
        build_perception_unitary(layout, (np.eye(2), np.array([1])))
    with pytest.raises(ValueError, match="digit 2 out of range for 'DV'"):
        build_perception_unitary(layout, (np.array([[1, 0], [0, 2]]), np.array([1, 2])))
    # Messages may only target the mixed level through the explicit hook.
    with pytest.raises(ValueError, match="writable range"):
        build_perception_unitary(layout, (np.eye(2), np.array([3, 2])))
    build_perception_unitary(layout, (np.eye(2), np.array([3, 2])),
                             allow_mixed_message=True)


def test_one_perception_table_refuses_observers_of_unequal_sizes():
    # Obs has 4 levels and Obs2 5: each is large enough, but one table's
    # images cannot fit both (the levels are listed per entry and target).
    with pytest.raises(ValueError, match=r"4-level images for targets of \[4, 5, 4, 5\] levels"):
        build_perception_unitary(
            make_layout(SG + [("Obs2", 5, "observer")]), standard_classical_configs(2)
        )


def test_an_entry_of_several_targets_writes_distinct_registers_with_phases_of_1():
    layout = make_layout([("C", 2, "detector")] + [(f"T{i}", 2, "detector") for i in range(3)])
    flip, when = [[1, 0]], [[0], [1]]
    table = ControlledRewrite((0,), when, [[1, 2, 3], [3, 1, 2]], flip)
    assert table.target.shape == (2, 3)
    in_turn = [ControlledRewrite((0,), when, column, flip) for column in table.target.T]
    assert np.array_equal(
        dense_matrix(UnitaryOp(layout, "several", (table,))),
        dense_matrix(UnitaryOp(layout, "in turn", tuple(in_turn))),
    )
    several = "several targets must be distinct registers, with phases of 1"
    for target in ([[1, 2, 2], [1, 2, 3]], [[1, 2, 3], [3, 2, 3]], [[-1, -1], [1, 2]]):
        with pytest.raises(ValueError, match=several):
            ControlledRewrite((0,), when, target, flip)
    for phase in ([[1.0, -1.0]], [[1j, 1.0]], [[1.0, 1.0], [1.0, np.exp(1e-13j)]]):
        with pytest.raises(ValueError, match=several):
            ControlledRewrite((0,), when, [[1, 2], [2, 3]], flip, phase)
    # Every target is a register: a -1 among several targets is off the layout.
    for target in ([[1, -1], [1, 2]], [[2, 3], [3, -1]]):
        missing = ControlledRewrite((0,), when, target, flip)
        with pytest.raises(ValueError, match="position -1 is off"):
            UnitaryOp(layout, "missing", (missing,))
    # One target per entry keeps any unit phase, the identity image included.
    UnitaryOp(layout, "sign", (ControlledRewrite((0,), [[1]], 1, [[0, 1]], [[-1.0]]),))
    UnitaryOp(layout, "phases", (ControlledRewrite((0,), when, [1, 2], flip, [[1j, -1.0]]),))


def test_entries_over_their_own_controls_touch_disjoint_registers():
    layout = make_layout([(f"R{i}", 2, "detector") for i in range(6)])
    flip = [1, 0]
    # Over R0 and R5 one entry flips R1; over R2 and R3 another flips R4, and
    # it may fire on the same rows as the first does.
    table = ControlledRewrite([[0, 5], [2, 3]], [[1, 0], [1, 1]], [1, 4], [flip])
    in_turn = [
        ControlledRewrite(table.control[e], table.when[e : e + 1], table.target[e], [flip])
        for e in range(2)
    ]
    assert np.array_equal(
        dense_matrix(UnitaryOp(layout, "one table", (table,))),
        dense_matrix(UnitaryOp(layout, "in turn", tuple(in_turn))),
    )
    # Their ``when`` rows may repeat, since no two entries read one register.
    ControlledRewrite([[0], [2]], [[1], [1]], [1, 3], [flip])
    refused = {
        "repeat a register": [
            ([[0, 1], [0, 2]], [3, 4]),  # a control of two entries
            ([[0, 1], [0, 1]], [4, 5]),  # one control row for two entries
            ([[0, 0], [2, 3]], [4, 5]),  # a control repeated
        ],
        "among the controls": [
            ([[0, 1], [2, 3]], [2, 4]),  # one entry's target is the other's control
            ([[0, 1], [2, 3]], [4, 0]),  # a target among its own controls
        ],
        "several targets": [([[0, 1], [2, 3]], [4, 4])],  # a target of two entries
        "do not describe": [([[0, 1]] * 3, [4, 5]), ([[0], [1]], [4, 5])],
    }
    for message, tables in refused.items():
        for control, target in tables:
            with pytest.raises(ValueError, match=message):
                ControlledRewrite(control, [[1, 1], [1, 1]], target, [flip])
    with pytest.raises(ValueError, match="several targets"):  # entries that fire together
        ControlledRewrite([[0], [2]], [[1], [1]], [1, 3], [flip], [[1.0, -1.0]])
    with pytest.raises(ValueError, match="position 6 is off"):
        UnitaryOp(layout, "off", (ControlledRewrite([[0], [6]], [[1], [1]], [1, 2], [flip]),))
    with pytest.raises(ValueError, match="digit 2 out of range for 'R3'"):
        UnitaryOp(layout, "digit", (ControlledRewrite([[0], [3]], [[1], [2]], [1, 2], [flip]),))


def test_perception_conditions_on_photons_when_the_layout_has_them():
    layout = photon_layout()
    perception = build_perception_unitary(layout, standard_classical_configs(2))
    # The builder reads the condition registers off the layout: its photons.
    (table,) = perception.stages
    assert [layout.registers[at].name for at in table.control] == ["phH", "phV"]
    # Photons carry the record; detector digits are irrelevant to it.
    lit = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 1, "phV": 0, "Obs": 0})
    saw = apply_unitary(perception, lit)
    written = encode(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 1, "phV": 0, "Obs": 1})
    assert dense_amplitudes(saw)[written] == 1.0
    dark = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 0, "phV": 0, "Obs": 0})
    assert np.array_equal(dense_amplitudes(apply_unitary(perception, dark)), dense_amplitudes(dark))


# -- basis rotation ----------------------------------------------------------


def version_span():
    return (
        {"P": 0, "DH": 1, "DV": 0},
        {"P": 1, "DH": 0, "DV": 1},
    )


def version_rows(layout):
    """The two span configurations as label rows, observer blank."""
    return [layout.row({**span, "Obs": 0}) for span in version_span()]


def test_rotation_at_zero_is_identity():
    layout = sg_layout()
    plane = build_basis_rotation(layout, *version_rows(layout))
    assert np.array_equal(dense_matrix(plane, 0.0), dense_matrix(identity(sg_layout())))
    state = random_state(layout, 11)
    assert np.array_equal(dense_amplitudes(rotate(plane, state, 0.0)), dense_amplitudes(state))


def test_rotation_composes_and_inverts():
    layout = sg_layout()
    theta, theta2 = 0.41, 1.13
    plane = build_basis_rotation(layout, *version_rows(layout))
    forward = dense_matrix(plane, theta)
    eye = dense_matrix(identity(sg_layout()))
    assert np.max(np.abs(dense_matrix(plane, -theta) @ forward - eye)) <= 1e-12

    chained = dense_matrix(plane, theta2) @ forward
    assert np.max(np.abs(chained - dense_matrix(plane, theta + theta2))) <= 1e-12

    # The same, applied to states rather than multiplied out.
    state = random_state(layout, 12)
    there_and_back = rotate(plane, rotate(plane, state, theta), -theta)
    assert np.max(np.abs(dense_amplitudes(there_and_back) - dense_amplitudes(state))) <= 1e-12
    both = rotate(plane, rotate(plane, state, theta), theta2)
    once = rotate(plane, state, theta + theta2)
    assert np.max(np.abs(dense_amplitudes(both) - dense_amplitudes(once))) <= 1e-12


def test_rotation_coefficient_transform():
    # Amplitudes on the rotated plane follow the published transform:
    # (a1 cos - a2 sin, a2 cos + a1 sin).
    layout = sg_layout()
    theta = 0.77
    a1, a2 = 0.6, 0.8j
    plane = build_basis_rotation(layout, *version_rows(layout))
    span1, span2 = version_span()
    state = superpose(
        [
            (a1, product_state(layout, {**span1, "Obs": 0})),
            (a2, product_state(layout, {**span2, "Obs": 0})),
        ]
    )
    rotated = rotate(plane, state, theta)
    c, s = np.cos(theta), np.sin(theta)
    i1 = encode(layout, {**span1, "Obs": 0})
    i2 = encode(layout, {**span2, "Obs": 0})
    assert abs(dense_amplitudes(rotated)[i1] - (a1 * c - a2 * s)) <= 1e-12
    assert abs(dense_amplitudes(rotated)[i2] - (a2 * c + a1 * s)) <= 1e-12


def test_rotation_basis_vector_images():
    # U|1> = cos|1> + sin|2>, so the rotated first basis vector is exactly
    # the "mixed" configuration fed to the perception step.
    layout = sg_layout()
    theta = 1.0
    plane = build_basis_rotation(layout, *version_rows(layout))
    span1, span2 = version_span()
    image = rotate(plane, product_state(layout, {**span1, "Obs": 0}), theta)
    i1 = encode(layout, {**span1, "Obs": 0})
    i2 = encode(layout, {**span2, "Obs": 0})
    assert abs(dense_amplitudes(image)[i1] - np.cos(theta)) <= 1e-12
    assert abs(dense_amplitudes(image)[i2] - np.sin(theta)) <= 1e-12


def test_rotation_rejects_degenerate_or_incomplete_spans():
    layout = sg_layout()
    first, second = version_rows(layout)
    with pytest.raises(ValueError, match="distinct"):
        build_basis_rotation(layout, first, first.copy())
    # Observer labels ride along: rows that differ only there name one
    # configuration.
    with pytest.raises(ValueError, match="distinct"):
        build_basis_rotation(layout, first, layout.row({**version_span()[0], "Obs": 2}))
    with pytest.raises(ValueError, match="expected 4 labels"):
        build_basis_rotation(layout, first, second[:3])
    with pytest.raises(ValueError, match="out of range"):
        build_basis_rotation(layout, first, [1, 0, 2, 0])


def test_rotation_capacity_cap():
    # The rotation itself has no dimension cap: it is built and applied as
    # index pairs.  Only its dense view is capped.  A plane that constructs
    # is sound, unitary at every angle.
    big = make_layout([(f"D{i}", 2, "detector") for i in range(13)])
    plane = build_basis_rotation(big, [0] * 13, [1] * 13)
    assert plane.layout.total_dimension == 8192
    assert (plane.fixed, plane.first, plane.second) == (tuple(range(13)), (0,) * 13, (1,) * 13)
    state = random_state(big, 4)
    moved = rotate(plane, state, 0.3)
    a, b = dense_amplitudes(state)[0], dense_amplitudes(state)[-1]
    c, s = np.cos(0.3), np.sin(0.3)
    assert dense_amplitudes(moved)[0] == c * a - s * b
    assert dense_amplitudes(moved)[-1] == s * a + c * b
    assert np.array_equal(dense_amplitudes(moved)[1:-1], dense_amplitudes(state)[1:-1])
    with pytest.raises(CapacityError):
        dense_matrix(plane, 0.3)


@pytest.mark.parametrize("observers", [1, 2])
@pytest.mark.parametrize("photon_model", [False, True])
def test_rotation_matches_brute_force_oracle(observers, photon_model):
    layout = chain_layout(2, observers, photon_model)
    non_observer = lambda labels: {
        k: v for k, v in labels.items() if layout.register(k).role != "observer"
    }
    labels = [version_labels(layout, j, detected=True) for j in (0, 1)]
    span = tuple(non_observer(version) for version in labels)
    plane = build_basis_rotation(layout, *map(layout.row, labels))
    for theta in (0.0, 0.77, -2.3):
        oracle = naive_rotation_matrix(layout, span, theta)
        assert np.max(np.abs(dense_matrix(plane, theta) - oracle)) <= 1e-15
        for seed in range(3):
            state = random_state(layout, seed)
            fast = dense_amplitudes(rotate(plane, state, theta))
            assert np.max(np.abs(fast - oracle @ dense_amplitudes(state))) <= 1e-15


# -- apply / compose / verify ------------------------------------------------


def test_apply_identity_and_dimension_mismatch():
    layout = sg_layout()
    state = random_state(layout, 3)
    same = apply_unitary(identity(sg_layout()), state)
    assert np.array_equal(dense_amplitudes(same), dense_amplitudes(state))
    with pytest.raises(ValueError, match="dimension"):
        apply_unitary(identity(make_layout([("P", 16, "particle-path")])), state)
    plane = build_basis_rotation(layout, *version_rows(layout))
    with pytest.raises(ValueError, match="dimension"):
        plane.rotate(random_state(make_layout([("P", 16, "particle-path")]), 3), 1.0, 0.0)


def test_apply_unitary_refuses_a_rotation_and_delegates_to_any_other_operator():
    # A rotation has no image without an angle, so apply_unitary names the
    # call that turns a state; any other operator's own label and amplitude
    # parts are applied, whatever its class.
    layout = sg_layout()
    state = random_state(layout, 5)
    plane = build_basis_rotation(layout, *version_rows(layout))
    with pytest.raises(TypeError, match=r"PairedRotation\.rotate"):
        apply_unitary(plane, state)
    detection = build_detection_unitary(layout)
    stand_in = SimpleNamespace(layout=layout, relabel=detection.relabel)
    moved, expected = apply_unitary(stand_in, state), apply_unitary(detection, state)
    assert moved.labels.tobytes() == expected.labels.tobytes()
    assert moved.values.tobytes() == expected.values.tobytes()


def test_full_chain_reaches_the_recorded_state():
    layout = sg_layout()
    step = compose(
        build_perception_unitary(layout, standard_classical_configs(2)),
        build_detection_unitary(layout),
    )
    a1, a2 = 0.48 + 0.6j, 0.64
    start = superpose(
        [
            (a1, product_state(layout, {"P": 0, "DH": 0, "DV": 0, "Obs": 0})),
            (a2, product_state(layout, {"P": 1, "DH": 0, "DV": 0, "Obs": 0})),
        ]
    )
    finish = apply_unitary(step, start)
    expected = superpose(
        [
            (a1, product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 1})),
            (a2, product_state(layout, {"P": 1, "DH": 0, "DV": 1, "Obs": 2})),
        ]
    )
    assert np.max(np.abs(dense_amplitudes(finish) - dense_amplitudes(expected))) <= 1e-12


def test_permutation_apply_agrees_with_dense_oracle():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    dense = naive_detection_matrix(layout)
    for seed in range(5):
        state = random_state(layout, seed)
        fast = apply_unitary(detection, state)
        assert np.allclose(dense_amplitudes(fast), dense @ dense_amplitudes(state), atol=1e-14)
        assert np.linalg.norm(dense_amplitudes(fast)) == pytest.approx(1.0, abs=1e-12)


def test_compose_with_adjoint_gives_identity():
    layout = sg_layout()
    perception = build_perception_unitary(layout, standard_classical_configs(2))
    round_trip = compose(adjoint(perception), perception)
    assert np.array_equal(dense_matrix(round_trip), np.eye(32))

    # A rotation's adjoint is the rotation by the opposite angle.
    plane = build_basis_rotation(layout, *version_rows(layout))
    rotation, back = dense_matrix(plane, 0.9), dense_matrix(plane, -0.9)
    round_trip = back @ rotation
    assert np.max(np.abs(round_trip - dense_matrix(identity(sg_layout())))) <= 1e-12
    assert np.array_equal(back, rotation.conj().T)

    # Only permutations compose; a rotation is applied on its own.
    with pytest.raises(TypeError, match="permutation"):
        compose(plane, perception)
    with pytest.raises(TypeError, match="permutation"):
        compose(perception, plane)
    with pytest.raises(ValueError, match="compose"):
        compose(
            identity(make_layout([("P", 8, "particle-path")])),
            identity(make_layout([("P", 4, "particle-path")])),
        )


def test_construction_accepts_builders_and_rejects_defects():
    # Building is the proof: every builder's tables construct, and the
    # operator they make is unitary.
    layout = sg_layout()
    for op in (
        build_detection_unitary(layout),
        build_perception_unitary(layout, standard_classical_configs(2)),
        level_cycle(layout, "Obs"),
    ):
        assert unitarity_residual(dense_matrix(op)) <= 1e-12

    # A plane is sound once built: the builder's planes construct, and no
    # plane with a structure that describes no unitary can be built.
    assert build_basis_rotation(layout, *version_rows(layout)).fixed == (0, 1, 2)
    PairedRotation(layout, (0, 1, 2), (0, 1, 0), (1, 0, 1))
    for fixed, first, second, match in (
        # The same configuration on both sides: overlapping pairs.
        ((0, 1, 2), (0, 1, 0), (0, 1, 0), "distinct configurations"),
        # A label off the space, above or below it.
        ((0, 1, 2), (0, 1, 0), (1, 0, 2), "out of range"),
        ((0, 1, 2), (0, 1, 0), (1, 0, -1), "out of range"),
        # A repeated fixed position, or one past the registers.
        ((0, 1, 1), (0, 1, 0), (1, 0, 1), "distinct registers"),
        ((0, 1, 4), (0, 1, 0), (1, 0, 1), "distinct registers"),
        # Configurations that do not read every fixed position.
        ((0, 1, 2), (0, 1), (1, 0, 1), "must read 3 positions"),
        # A label past 64 bits, either sign, fits no integer dtype.
        ((0, 1, 2), (0, 1, 0), (1, 0, 2**70), "do not fit int16"),
        ((0, 1, 2), (0, 1, 0), (1, 0, -(2**70)), "do not fit int16"),
    ):
        with pytest.raises(ValueError, match=match):
            PairedRotation(layout, fixed, first, second)

    # No table that describes no unitary can be built.  Each case breaks one
    # condition a table can judge alone: a table that scales every observer
    # level by 0.5, one that sends every observer level to blank, a repeated
    # control position, a target among the controls, and a repeated control
    # row, next to its twin or not, or of no control cells at all.
    # Nor can a label reach a table by wrapping: 65,541 = 2^16 + 5 would
    # read 5 in 16 bits, in a control row, an image or a target; a label past
    # 64 bits, either sign, fits no integer dtype and is refused the same way.
    for arguments, match in (
        (((), [[]], 3, [[0, 1, 2, 3]], [[0.5]]), "modulus"),
        (((), [[]], 3, [[0, 0, 0, 0]]), "not a permutation"),
        (((0, 0), [[0, 0]], 1, [[1, 0]]), "repeat a register"),
        (((0, 1), [[0, 1]], 1, [[1, 0]]), "among the controls"),
        (((0,), [[1], [1]], 1, [[1, 0]]), "control rows repeat"),
        (((0, 1), [[1, 0], [0, 1], [1, 0]], 2, [[1, 0]]), "control rows repeat"),
        (((), [[], []], 3, [[1, 2, 3, 0]]), "control rows repeat"),
        (((0,), [[65541]], 1, [[1, 0]]), "do not fit int16"),
        (((0,), np.array([[65541]], dtype=np.uint32), 1, [[1, 0]]), "do not fit int16"),
        (((0,), [[1]], 1, [[1, 65541]]), "do not fit int16"),
        (((0,), [[1]], 65541, [[1, 0]]), "do not fit int16"),
        (((0,), [[2**70]], 1, [[1, 0]]), "do not fit int16"),
        (((0,), [[-(2**70)]], 1, [[1, 0]]), "do not fit int16"),
        (((0,), [[1]], 1, [[1, 2**70]]), "do not fit int16"),
        (((0,), [[1]], -(2**70), [[1, 0]]), "do not fit int16"),
    ):
        with pytest.raises(ValueError, match=match):
            ControlledRewrite(*arguments)

    # Nor any operator whose tables do not fit its layout: a control or
    # target position off the four registers (-1 names none of them), a
    # control digit out of its register's range, or images that do not cover
    # the target's levels.
    for table, match in (
        (ControlledRewrite((4,), [[0]], 3, [[1, 2, 3, 0]]), "position 4 is off"),
        (ControlledRewrite((-1,), [[0]], 3, [[1, 2, 3, 0]]), "position -1 is off"),
        (ControlledRewrite((0,), [[1]], 4, [[1, 0]]), "position 4 is off"),
        (ControlledRewrite((0,), [[1]], -2, [[0]]), "position -2 is off"),
        (ControlledRewrite((0, 1), [[0, 1], [2, 0]], 3, [[1, 0, 2, 3]]),
         "digit 2 out of range for 'P'"),
        (ControlledRewrite((0,), [[-1]], 3, [[1, 0, 2, 3]]), "digit -1 out of range for 'P'"),
        (ControlledRewrite((0,), [[1]], 1, [[1, 0, 2, 3]]), r"4-level images for targets of \[2\]"),
        (ControlledRewrite((0,), [[1]], -1, [[1, 0]]), "position -1 is off"),
        (ControlledRewrite((0,), [[1]], -1, [[0]], [[-1.0]]), "position -1 is off"),
    ):
        with pytest.raises(ValueError, match=match):
            UnitaryOp(layout, "misfit", (table,))


def test_a_built_table_owns_read_only_copies_of_its_arrays():
    # Changing the caller's arrays after a build leaves the table as built.
    when, image, phase = np.array([[1]]), np.array([[1, 0]]), np.array([[1.0, -1.0]])
    table = ControlledRewrite((0,), when, 1, image, phase)
    op = UnitaryOp(sg_layout(), "flip", (table,))
    before = dense_matrix(op)
    when[0, 0], image[0, 1], phase[0, 0] = 0, 1, 0.0
    assert table.when.tolist() == [[1]]
    assert table.image.tolist() == [[1, 0]]
    assert table.phase.tolist() == [[1.0, -1.0]]
    assert np.array_equal(dense_matrix(op), before)
    # And the stored arrays cannot be written through.
    for stored in (table.when, table.target, table.image, table.phase):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = stored[0]


def test_a_label_past_the_label_dtype_is_refused_where_it_enters_a_plane():
    # Register D has 2^62 levels, so 65,541 = 2^16 + 5 is in its range; cast
    # to 16 bits first, it would wrap to 5 and pass.
    wide = make_layout([("P", 3, "particle-path"), ("D", 2**62, "detector")])
    with pytest.raises(ValueError, match="do not fit int16"):
        PairedRotation(wide, (0, 1), (0, 65541), (1, 5))


def test_a_table_takes_labels_as_lists_and_integer_arrays_of_any_width():
    tables = [
        ControlledRewrite((0,), when, 1, [[1, 0]])
        for when in ([[1], [2]], *(np.array([[1], [2]], dtype=t) for t in (np.int8, np.uint64)))
    ]
    for table in tables:
        assert table.when.dtype == table.target.dtype == table.image.dtype == np.int16
        assert table.when.tolist() == [[1], [2]]


def test_label_parts_are_read_only():
    # A label part may be read by more than one amplitude part, so none of
    # its arrays can be written through.
    layout = sg_layout()
    labels = basis_labels(layout)
    step = compose(
        build_perception_unitary(layout, standard_classical_configs(2)),
        build_detection_unitary(layout),
    )
    permuted = step.relabel(labels)
    assert permuted.phases.shape == (len(labels),)
    for array in (permuted.rows, permuted.phases):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@given(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_every_builder_is_linear(alpha, beta, seed):
    layout = sg_layout()
    x = random_state(layout, seed)
    z = random_state(layout, seed + 1)
    mixed = alpha * dense_amplitudes(x) + beta * dense_amplitudes(z)
    mix = StateVector(layout, basis_labels(layout), mixed)
    plane = build_basis_rotation(layout, *version_rows(layout))
    for move in (
        partial(apply_unitary, build_detection_unitary(layout)),
        partial(
            apply_unitary,
            build_perception_unitary(layout, standard_classical_configs(2)),
        ),
        lambda state: rotate(plane, state, 0.83),
    ):
        left = dense_amplitudes(move(mix))
        right = alpha * dense_amplitudes(move(x))
        right = right + beta * dense_amplitudes(move(z))
        assert np.linalg.norm(left - right) <= 1e-12 * max(1.0, abs(alpha) + abs(beta))


def test_norm_preserved_by_every_builder():
    layout = sg_layout()
    plane = build_basis_rotation(layout, *version_rows(layout))
    moves = (
        partial(apply_unitary, build_detection_unitary(layout)),
        partial(
            apply_unitary,
            build_perception_unitary(layout, standard_classical_configs(2)),
        ),
        lambda state: rotate(plane, state, 2.2),
    )
    for seed, move in enumerate(moves):
        moved = move(random_state(layout, 100 + seed))
        assert np.linalg.norm(dense_amplitudes(moved)) == pytest.approx(1.0, abs=1e-12)


def test_stages_commute_with_untouched_registers():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    perception = build_perception_unitary(layout, standard_classical_configs(2))
    observer_shuffle = level_cycle(layout, "Obs")
    path_shuffle = level_cycle(layout, "P")

    # Detection never reads or writes the observer register.
    ab = compose(detection, observer_shuffle)
    ba = compose(observer_shuffle, detection)
    assert np.array_equal(dense_matrix(ab), dense_matrix(ba))

    # Perception never reads or writes the path register.
    ab = compose(perception, path_shuffle)
    ba = compose(path_shuffle, perception)
    assert np.array_equal(dense_matrix(ab), dense_matrix(ba))


def test_every_stage_proves_unitary_on_an_uncapped_layout():
    # N=64 with photons and three observers: about 2^152 basis states, far
    # past any dense view.  Construction reads only the tables.
    n = 64
    registers = [("path", n, "particle-path")]
    registers += [(f"D{j + 1}", 2, "detector") for j in range(n)]
    registers += [(f"ph{j + 1}", 2, "photon") for j in range(n)]
    registers += [(f"Obs{k + 1}", n + 2, "observer") for k in range(3)]
    layout = make_layout(registers)
    assert layout.total_dimension > 2**151
    stages = [
        build_detection_unitary(layout),
        build_photon_emission_unitary(layout),
        phase_flip_perturbation(layout, 1),
        record_cycle_perturbation(layout, 1),
        level_cycle(layout, "Obs3", shift=5),
        level_cycle(layout, "path", shift=n - 1),
        identity(layout),
    ]
    for negative_control in (False, True):
        configs, messages = standard_classical_configs(n)
        if negative_control:
            messages[0] = n + 1
        perception = build_perception_unitary(
            layout, (configs, messages), allow_mixed_message=negative_control
        )
        # One table reads the photons and writes every observer, in layout order.
        photons = [layout.position(f"ph{j + 1}") for j in range(n)]
        (table,) = perception.stages
        assert list(table.control) == photons
        observers = [layout.position(f"Obs{k + 1}") for k in range(3)]
        assert table.target.tolist() == [observers] * n
        stages.append(perception)
    # Building each stage, and its adjoint, is the proof; every phase is
    # exactly of modulus 1.
    for op in stages + [adjoint(op) for op in stages]:
        assert all((np.abs(stage.phase) == 1.0).all() for stage in op.stages), op.provenance
