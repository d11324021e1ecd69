import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    BasisRotation,
    CapacityError,
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
    identity,
    level_cycle,
    make_layout,
    product_state,
    standard_classical_configs,
    superpose,
    verify_unitary,
    version_labels,
)
from oracles import (
    naive_detection_matrix,
    naive_emission_matrix,
    naive_perception_matrix,
    naive_rotation_matrix,
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
    return StateVector(layout, layout.basis_labels(), amps / np.linalg.norm(amps))


# -- detection ---------------------------------------------------------------


def test_detection_matches_brute_force_matrix():
    for layout in (sg_layout(), photon_layout()):
        built = build_detection_unitary(layout).to_matrix()
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
    assert np.array_equal(after.amplitudes, expected.amplitudes)


def test_detection_only_fires_detector_on_own_path():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    armed = product_state(layout, {"P": 0, "DH": 0, "DV": 0, "Obs": 0})
    fired = apply_unitary(detection, armed)
    assert fired.amplitudes[layout.encode({"P": 0, "DH": 1, "DV": 0, "Obs": 0})] == 1.0


def test_detection_is_an_involution():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    twice = compose(detection, detection)
    assert np.array_equal(twice.perm, np.arange(layout.total_dimension))
    assert np.all(twice.phases == 1.0)


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
    built = build_photon_emission_unitary(layout).to_matrix()
    assert np.array_equal(built, naive_emission_matrix(layout))


def test_emission_copies_detector_into_photon():
    layout = photon_layout()
    emission = build_photon_emission_unitary(layout)
    fired = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 0, "phV": 0, "Obs": 0})
    lit = apply_unitary(emission, fired)
    target = layout.encode({"P": 0, "DH": 1, "DV": 0, "phH": 1, "phV": 0, "Obs": 0})
    assert lit.amplitudes[target] == 1.0
    assert np.array_equal(
        compose(emission, emission).perm, np.arange(layout.total_dimension)
    )


def test_emission_requires_paired_photons():
    with pytest.raises(ValueError, match="photon"):
        build_photon_emission_unitary(sg_layout())


# -- perception --------------------------------------------------------------


def test_perception_matches_brute_force_matrix():
    layout = sg_layout()
    configs = standard_classical_configs(2)
    built = build_perception_unitary(layout, "Obs", configs).to_matrix()
    oracle = naive_perception_matrix(layout, "Obs", configs, ["DH", "DV"])
    assert np.array_equal(built, oracle)


def test_perception_writes_message_per_version():
    layout = sg_layout()
    perception = build_perception_unitary(layout, "Obs", standard_classical_configs(2))

    looked = apply_unitary(
        perception, product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})
    )
    assert looked.amplitudes[layout.encode({"P": 0, "DH": 1, "DV": 0, "Obs": 1})] == 1.0

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
    assert np.array_equal(both.amplitudes, expected.amplitudes)


def test_perception_identity_off_the_classical_configurations():
    layout = sg_layout()
    perception = build_perception_unitary(layout, "Obs", standard_classical_configs(2))
    # Nothing detected: observer stays blank.
    idle = product_state(layout, {"P": 0, "DH": 0, "DV": 0, "Obs": 0})
    assert np.array_equal(apply_unitary(perception, idle).amplitudes, idle.amplitudes)
    # The reserved mixed level is never moved.
    mixed = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 3})
    assert np.array_equal(apply_unitary(perception, mixed).amplitudes, mixed.amplitudes)


def test_perception_completion_unwrites_existing_message():
    # The transposition closure: a pre-written message on its own
    # configuration maps back to blank.
    layout = sg_layout()
    perception = build_perception_unitary(layout, "Obs", standard_classical_configs(2))
    written = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 1})
    back = apply_unitary(perception, written)
    assert back.amplitudes[layout.encode({"P": 0, "DH": 1, "DV": 0, "Obs": 0})] == 1.0


def test_perception_validation():
    layout = sg_layout()
    with pytest.raises(ValueError, match="observer"):
        build_perception_unitary(layout, "DH", standard_classical_configs(2))
    with pytest.raises(ValueError, match="levels"):
        small = make_layout(
            [("P", 3, "particle-path"), ("D1", 2, "detector"), ("D2", 2, "detector"),
             ("D3", 2, "detector"), ("Obs", 4, "observer")]
        )
        build_perception_unitary(small, "Obs", standard_classical_configs(3))
    with pytest.raises(ValueError, match="digits"):
        build_perception_unitary(layout, "Obs", {(1, 0, 0): 1})
    # Messages may only target the mixed level through the explicit hook.
    with pytest.raises(ValueError, match="writable range"):
        build_perception_unitary(layout, "Obs", {(1, 0): 3, (0, 1): 2})
    build_perception_unitary(layout, "Obs", {(1, 0): 3, (0, 1): 2},
                             allow_mixed_message=True)


def test_perception_conditions_on_photons_when_asked():
    layout = photon_layout()
    perception = build_perception_unitary(
        layout, "Obs", standard_classical_configs(2), condition_registers=["phH", "phV"]
    )
    # Photons carry the record; detector digits are irrelevant to it.
    lit = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 1, "phV": 0, "Obs": 0})
    saw = apply_unitary(perception, lit)
    assert (
        saw.amplitudes[layout.encode({"P": 0, "DH": 1, "DV": 0, "phH": 1, "phV": 0, "Obs": 1})]
        == 1.0
    )
    dark = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "phH": 0, "phV": 0, "Obs": 0})
    assert np.array_equal(apply_unitary(perception, dark).amplitudes, dark.amplitudes)


# -- basis rotation ----------------------------------------------------------


def version_span():
    return (
        {"P": 0, "DH": 1, "DV": 0},
        {"P": 1, "DH": 0, "DV": 1},
    )


def test_rotation_at_zero_is_identity():
    layout = sg_layout()
    rotation = build_basis_rotation(layout, BasisRotation(0.0, version_span()))
    assert np.array_equal(rotation.to_matrix(), identity(sg_layout()).to_matrix())
    state = random_state(layout, 11)
    assert np.array_equal(apply_unitary(rotation, state).amplitudes, state.amplitudes)


def test_rotation_composes_and_inverts():
    layout = sg_layout()
    theta, theta2 = 0.41, 1.13
    span = version_span()
    forward = build_basis_rotation(layout, BasisRotation(theta, span))
    backward = build_basis_rotation(layout, BasisRotation(-theta, span))
    eye = identity(sg_layout()).to_matrix()
    assert np.max(np.abs(backward.to_matrix() @ forward.to_matrix() - eye)) <= 1e-12

    second = build_basis_rotation(layout, BasisRotation(theta2, span))
    direct = build_basis_rotation(layout, BasisRotation(theta + theta2, span))
    chained = second.to_matrix() @ forward.to_matrix()
    assert np.max(np.abs(chained - direct.to_matrix())) <= 1e-12

    # The same, applied to states rather than multiplied out.
    state = random_state(layout, 12)
    there_and_back = apply_unitary(backward, apply_unitary(forward, state))
    assert np.max(np.abs(there_and_back.amplitudes - state.amplitudes)) <= 1e-12
    both = apply_unitary(second, apply_unitary(forward, state))
    assert np.max(np.abs(both.amplitudes - apply_unitary(direct, state).amplitudes)) <= 1e-12


def test_rotation_coefficient_transform():
    # Amplitudes on the rotated plane follow the published transform:
    # (a1 cos - a2 sin, a2 cos + a1 sin).
    layout = sg_layout()
    theta = 0.77
    a1, a2 = 0.6, 0.8j
    rotation = build_basis_rotation(layout, BasisRotation(theta, version_span()))
    span1, span2 = version_span()
    state = superpose(
        [
            (a1, product_state(layout, {**span1, "Obs": 0})),
            (a2, product_state(layout, {**span2, "Obs": 0})),
        ]
    )
    rotated = apply_unitary(rotation, state)
    c, s = np.cos(theta), np.sin(theta)
    i1 = layout.encode({**span1, "Obs": 0})
    i2 = layout.encode({**span2, "Obs": 0})
    assert abs(rotated.amplitudes[i1] - (a1 * c - a2 * s)) <= 1e-12
    assert abs(rotated.amplitudes[i2] - (a2 * c + a1 * s)) <= 1e-12


def test_rotation_basis_vector_images():
    # U|1> = cos|1> + sin|2>, so the rotated first basis vector is exactly
    # the "mixed" configuration fed to the perception step.
    layout = sg_layout()
    theta = 1.0
    rotation = build_basis_rotation(layout, BasisRotation(theta, version_span()))
    span1, span2 = version_span()
    image = apply_unitary(rotation, product_state(layout, {**span1, "Obs": 0}))
    i1 = layout.encode({**span1, "Obs": 0})
    i2 = layout.encode({**span2, "Obs": 0})
    assert abs(image.amplitudes[i1] - np.cos(theta)) <= 1e-12
    assert abs(image.amplitudes[i2] - np.sin(theta)) <= 1e-12


def test_rotation_rejects_degenerate_or_incomplete_spans():
    layout = sg_layout()
    span1, _ = version_span()
    with pytest.raises(ValueError, match="distinct"):
        build_basis_rotation(layout, BasisRotation(0.3, (span1, dict(span1))))
    with pytest.raises(ValueError, match="non-observer"):
        build_basis_rotation(
            layout, BasisRotation(0.3, ({"P": 0, "DH": 1}, {"P": 1, "DH": 0}))
        )
    with pytest.raises(ValueError, match="non-observer"):
        bad = ({"P": 0, "DH": 1, "DV": 0, "Obs": 0}, {"P": 1, "DH": 0, "DV": 1, "Obs": 0})
        build_basis_rotation(layout, BasisRotation(0.3, bad))


def test_rotation_capacity_cap():
    # The rotation itself has no dimension cap: it is built and applied as
    # index pairs.  Only its dense view is capped.
    big = make_layout([(f"D{i}", 2, "detector") for i in range(13)])
    span = ({f"D{i}": 0 for i in range(13)}, {f"D{i}": 1 for i in range(13)})
    rotation = build_basis_rotation(big, BasisRotation(0.3, span))
    assert rotation.dimension == 8192
    assert verify_unitary(rotation).passed
    state = random_state(big, 4)
    moved = apply_unitary(rotation, state)
    a, b = state.amplitudes[0], state.amplitudes[-1]
    c, s = np.cos(0.3), np.sin(0.3)
    assert moved.amplitudes[0] == c * a - s * b
    assert moved.amplitudes[-1] == s * a + c * b
    assert np.array_equal(moved.amplitudes[1:-1], state.amplitudes[1:-1])
    with pytest.raises(CapacityError):
        rotation.to_matrix()


@pytest.mark.parametrize("observers", [1, 2])
@pytest.mark.parametrize("photon_model", [False, True])
def test_rotation_matches_brute_force_oracle(observers, photon_model):
    layout = chain_layout(2, observers, photon_model)
    non_observer = lambda labels: {
        k: v for k, v in labels.items() if layout.register(k).role != "observer"
    }
    span = tuple(non_observer(version_labels(layout, j, detected=True)) for j in (0, 1))
    for theta in (0.0, 0.77, -2.3):
        rotation = build_basis_rotation(layout, BasisRotation(theta, span))
        oracle = naive_rotation_matrix(layout, span, theta)
        assert np.max(np.abs(rotation.to_matrix() - oracle)) <= 1e-15
        for seed in range(3):
            state = random_state(layout, seed)
            fast = apply_unitary(rotation, state).amplitudes
            assert np.max(np.abs(fast - oracle @ state.amplitudes)) <= 1e-15


# -- apply / compose / verify ------------------------------------------------


def test_apply_identity_and_dimension_mismatch():
    layout = sg_layout()
    state = random_state(layout, 3)
    same = apply_unitary(identity(sg_layout()), state)
    assert np.array_equal(same.amplitudes, state.amplitudes)
    with pytest.raises(ValueError, match="dimension"):
        apply_unitary(identity(make_layout([("P", 16, "particle-path")])), state)


def test_full_chain_reaches_the_recorded_state():
    layout = sg_layout()
    step = compose(
        build_perception_unitary(layout, "Obs", standard_classical_configs(2)),
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
    assert np.max(np.abs(finish.amplitudes - expected.amplitudes)) <= 1e-12


def test_permutation_apply_agrees_with_dense_oracle():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    dense = naive_detection_matrix(layout)
    for seed in range(5):
        state = random_state(layout, seed)
        fast = apply_unitary(detection, state)
        assert np.allclose(fast.amplitudes, dense @ state.amplitudes, atol=1e-14)
        assert np.linalg.norm(fast.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_compose_with_adjoint_gives_identity():
    layout = sg_layout()
    perception = build_perception_unitary(layout, "Obs", standard_classical_configs(2))
    round_trip = compose(perception.adjoint(), perception)
    assert np.array_equal(round_trip.perm, np.arange(32))

    rotation = build_basis_rotation(layout, BasisRotation(0.9, version_span()))
    adjoint = rotation.adjoint()
    assert adjoint.theta == -0.9
    round_trip = adjoint.to_matrix() @ rotation.to_matrix()
    assert np.max(np.abs(round_trip - identity(sg_layout()).to_matrix())) <= 1e-12
    assert np.array_equal(adjoint.to_matrix(), rotation.to_matrix().conj().T)

    # Only permutations compose; a rotation is applied on its own.
    with pytest.raises(TypeError, match="permutation"):
        compose(rotation, perception)
    with pytest.raises(TypeError, match="permutation"):
        compose(perception, rotation)
    with pytest.raises(ValueError, match="compose"):
        compose(
            identity(make_layout([("P", 8, "particle-path")])),
            identity(make_layout([("P", 4, "particle-path")])),
        )


def test_verify_unitary_accepts_builders_and_rejects_defects():
    layout = sg_layout()
    for op in (
        build_detection_unitary(layout),
        build_perception_unitary(layout, "Obs", standard_classical_configs(2)),
        build_basis_rotation(layout, BasisRotation(0.37, version_span())),
        level_cycle(layout, "Obs"),
    ):
        result = verify_unitary(op)
        assert result.passed and result.residual <= 1e-12

    # Overlapping pairs (the same configuration on both sides) or a label
    # off the space describe no unitary.
    for first, second in (((0, 1, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 2))):
        broken = PairedRotation(layout, "broken", (0, 1, 2), first, second, 0.4)
        result = verify_unitary(broken)
        assert not result.passed and result.residual >= 1.0

    lossy = UnitaryOp(
        layout, "lossy", lambda labels: (labels, np.full(len(labels), 0.5, dtype=complex))
    )
    assert not verify_unitary(lossy).passed

    clash = UnitaryOp(
        layout,
        "clash",
        lambda labels: (np.zeros_like(labels), np.ones(len(labels), dtype=complex)),
    )
    result = verify_unitary(clash)
    assert not result.passed and result.residual >= 1.0


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
    mix = StateVector(layout, layout.basis_labels(), alpha * x.amplitudes + beta * z.amplitudes)
    for op in (
        build_detection_unitary(layout),
        build_perception_unitary(layout, "Obs", standard_classical_configs(2)),
        build_basis_rotation(layout, BasisRotation(0.83, version_span())),
    ):
        left = apply_unitary(op, mix).amplitudes
        right = alpha * apply_unitary(op, x).amplitudes + beta * apply_unitary(op, z).amplitudes
        assert np.linalg.norm(left - right) <= 1e-12 * max(1.0, abs(alpha) + abs(beta))


def test_norm_preserved_by_every_builder():
    layout = sg_layout()
    ops = (
        build_detection_unitary(layout),
        build_perception_unitary(layout, "Obs", standard_classical_configs(2)),
        build_basis_rotation(layout, BasisRotation(2.2, version_span())),
    )
    for seed, op in enumerate(ops):
        moved = apply_unitary(op, random_state(layout, 100 + seed))
        assert np.linalg.norm(moved.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_stages_commute_with_untouched_registers():
    layout = sg_layout()
    detection = build_detection_unitary(layout)
    perception = build_perception_unitary(layout, "Obs", standard_classical_configs(2))
    observer_shuffle = level_cycle(layout, "Obs")
    path_shuffle = level_cycle(layout, "P")

    # Detection never reads or writes the observer register.
    ab = compose(detection, observer_shuffle)
    ba = compose(observer_shuffle, detection)
    assert np.array_equal(ab.perm, ba.perm)

    # Perception never reads or writes the path register.
    ab = compose(perception, path_shuffle)
    ba = compose(path_shuffle, perception)
    assert np.array_equal(ab.perm, ba.perm)
