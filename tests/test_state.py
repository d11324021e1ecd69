import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    MAX_REGISTERS,
    CapacityError,
    DegenerateStateError,
    DensityMatrix,
    chain_layout,
    make_layout,
    norm,
    normalize,
    product_state,
    superpose,
)
from oracles import inner_product, naive_decode, naive_encode

SG = [("P", 2, "particle-path"), ("DH", 2, "detector"), ("DV", 2, "detector"),
      ("Obs", 4, "observer")]


def test_layout_total_dimension():
    assert make_layout(SG).total_dimension == 32
    assert make_layout([("P", 2, "particle-path")]).total_dimension == 2


def test_layout_rejects_duplicates_and_bad_dimensions():
    with pytest.raises(ValueError, match="duplicate"):
        make_layout([("P", 2, "particle-path"), ("P", 2, "particle-path")])
    with pytest.raises(ValueError, match="dimension"):
        make_layout([("P", 1, "particle-path")])
    with pytest.raises(ValueError, match="role"):
        make_layout([("P", 2, "screen")])
    with pytest.raises(ValueError):
        make_layout([])


@pytest.mark.parametrize(
    "n, observers, photon_model",
    [(510, 1, False), (255, 1, True), (2, 509, False), (2, 507, True)],
)
def test_chain_layout_register_bound(n, observers, photon_model):
    # Each shape has exactly MAX_REGISTERS registers; one more observer is
    # one register over the bound, whatever the dimension.
    layout = chain_layout(n, observers, photon_model)
    assert len(layout.registers) == MAX_REGISTERS == 512
    with pytest.raises(CapacityError, match="a chain of 513 registers exceeds MAX_REGISTERS"):
        chain_layout(n, observers + 1, photon_model)


@pytest.mark.parametrize("dims", [(3, 2**62), (4, 2**70)])
def test_flat_indices_refuse_layouts_past_the_dense_view_cap(dims):
    # (3, 2^62) would wrap round in int64 and (4, 2^70) overflow it.
    layout = make_layout([("P", dims[0], "particle-path"), ("D", dims[1], "detector")])
    with pytest.raises(CapacityError, match="dense view"):
        layout.flat_indices(np.array([[2, 5]]))
    state = product_state(layout, [2, 5])
    with pytest.raises(CapacityError, match="dense view"):
        state.amplitudes


def test_strides_first_register_most_significant():
    layout = make_layout(SG)
    assert layout.strides == (16, 8, 4, 1)
    assert layout.encode({"P": 1, "DH": 1, "DV": 0, "Obs": 0}) == 16 + 8


@given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4))
@settings(max_examples=40)
def test_index_round_trip(dims):
    layout = make_layout([(f"r{i}", d, "detector") for i, d in enumerate(dims)])
    for flat in range(layout.total_dimension):
        labels = layout.decode(flat)
        assert layout.encode(labels) == flat
        # Against the independent mixed-radix oracle.
        assert labels == naive_decode(dims, flat)
        assert naive_encode(dims, labels) == flat


@given(
    st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=40)
def test_digit_tables_and_label_grid_match_naive_indexing(dims, data):
    layout = make_layout([(f"r{i}", d, "detector") for i, d in enumerate(dims)])
    labels = [naive_decode(dims, flat) for flat in range(layout.total_dimension)]
    assert layout.basis_labels().tolist() == [list(lab) for lab in labels]
    for pos, name in enumerate(layout.names()):
        assert layout.digit_values(name).tolist() == [lab[pos] for lab in labels]
    chosen = data.draw(st.lists(st.sampled_from(layout.names()), unique=True))
    kept = [p for p, n in enumerate(layout.names()) if n in chosen]
    # The chosen registers' labels, in flat-index order of the basis states
    # where every other register reads zero.
    others_zero = [
        [lab[p] for p in kept]
        for lab in labels
        if all(lab[p] == 0 for p in range(len(dims)) if p not in kept)
    ]
    assert layout.label_grid(chosen).tolist() == others_zero


def test_decode_out_of_range():
    layout = make_layout(SG)
    with pytest.raises(ValueError):
        layout.decode(32)


def test_product_state_places_single_amplitude():
    layout = make_layout(SG)
    # Version 1 upon detection: path 1, DH fired, DV idle, observer blank.
    labels = {"P": 0, "DH": 1, "DV": 0, "Obs": 0}
    state = product_state(layout, labels)
    expected_index = naive_encode([2, 2, 2, 4], [0, 1, 0, 0])
    assert state.amplitudes[expected_index] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1

    origin = product_state(layout, [0, 0, 0, 0])
    assert origin.amplitudes[0] == 1.0


def test_product_state_label_out_of_range():
    layout = make_layout(SG)
    with pytest.raises(ValueError, match="out of range"):
        product_state(layout, {"P": 2, "DH": 0, "DV": 0, "Obs": 0})
    with pytest.raises(ValueError):
        product_state(layout, [0, 0, 0])  # one label short


def test_product_states_orthogonal_iff_labels_differ():
    layout = make_layout([("P", 2, "particle-path"), ("D", 3, "detector")])
    states = [product_state(layout, [p, d]) for p in range(2) for d in range(3)]
    for i, x in enumerate(states):
        for j, y in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert inner_product(x, y) == expected


def test_superpose_weights_and_identity():
    layout = make_layout(SG)
    one = product_state(layout, [0, 1, 0, 0])
    two = product_state(layout, [1, 0, 1, 0])
    combined = superpose([(0.6, one), (0.8, two)])
    assert norm(combined) == pytest.approx(1.0, abs=1e-12)

    same = superpose([(1.0, one)])
    assert np.array_equal(same.amplitudes, one.amplitudes)

    # Not auto-normalized: the same state twice at 1/sqrt(2) has norm sqrt(2).
    doubled = superpose([(2**-0.5, one), (2**-0.5, one)])
    assert norm(doubled) == pytest.approx(2**0.5, abs=1e-12)


def test_superpose_layout_mismatch():
    a = product_state(make_layout(SG), [0, 0, 0, 0])
    b = product_state(make_layout([("P", 2, "particle-path")]), [0])
    with pytest.raises(ValueError, match="layout"):
        superpose([(1.0, a), (1.0, b)])


@given(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=50)
def test_superpose_is_linear(alpha, beta):
    layout = make_layout(SG)
    x = product_state(layout, [1, 1, 0, 2])
    merged = superpose([(alpha + beta, x)])
    split = superpose([(alpha, x), (beta, x)])
    assert np.max(np.abs(merged.amplitudes - split.amplitudes)) <= 1e-12


def test_inner_product_conventions():
    layout = make_layout(SG)
    x = product_state(layout, [0, 0, 0, 0])
    assert inner_product(x, x) == 1.0
    scaled = superpose([(3 + 4j, x)])
    assert inner_product(x, scaled) == 3 + 4j
    # Conjugate-linear in the first slot.
    assert inner_product(scaled, x) == 3 - 4j


def test_detector_readings_make_versions_orthogonal():
    layout = make_layout(SG)
    version1 = product_state(layout, {"P": 0, "DH": 1, "DV": 0, "Obs": 0})
    version2 = product_state(layout, {"P": 1, "DH": 0, "DV": 1, "Obs": 0})
    assert inner_product(version1, version2) == 0.0


def test_cauchy_schwarz_on_random_vectors():
    from branchsim import StateVector

    layout = make_layout(SG)
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        vx = StateVector(layout, layout.basis_labels(), rng.standard_normal(32) + 1j * rng.standard_normal(32))
        vy = StateVector(layout, layout.basis_labels(), rng.standard_normal(32) + 1j * rng.standard_normal(32))
        assert abs(inner_product(vx, vy)) <= norm(vx) * norm(vy) + 1e-12


def test_norm_and_normalize():
    layout = make_layout([("P", 2, "particle-path")])
    from branchsim import StateVector

    state = StateVector(layout, layout.basis_labels(), np.array([0.6, 0.8j]))
    assert norm(state) == pytest.approx(1.0, abs=1e-12)

    stretched = StateVector(layout, layout.basis_labels(), np.array([2.0, 0.0]))
    unit = normalize(stretched)
    assert np.allclose(unit.amplitudes, [1.0, 0.0])

    with pytest.raises(DegenerateStateError):
        normalize(StateVector(layout, layout.basis_labels(), np.zeros(2)))


def test_state_vector_length_must_match_layout():
    layout = make_layout(SG)
    from branchsim import StateVector

    with pytest.raises(ValueError):
        StateVector(layout, layout.basis_labels(), np.zeros(31))


def test_density_matrix_validation():
    good = DensityMatrix(2, np.diag([0.5, 0.5]).astype(complex))
    good.validate()
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(2, np.array([[0.5, 1.0], [0.0, 0.5]])).validate()
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, np.diag([0.9, 0.5]).astype(complex)).validate()
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(2, np.diag([1.5, -0.5]).astype(complex)).validate()
