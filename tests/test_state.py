import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import (
    MAX_REGISTERS,
    CapacityError,
    DegenerateStateError,
    DensityMatrix,
    StateVector,
    chain_layout,
    make_layout,
    norm,
    normalize,
    product_state,
    superpose,
)
from branchsim import state
from branchsim.state import LABEL, Register, SubsystemLayout, aligned, union_rows
from oracles import (
    basis_labels,
    decode,
    dense_amplitudes,
    encode,
    flat_indices,
    inner_product,
    naive_decode,
    naive_encode,
)

SG = [("P", 2, "particle-path"), ("DH", 2, "detector"), ("DV", 2, "detector"),
      ("Obs", 4, "observer")]


def test_layout_total_dimension():
    assert make_layout(SG).total_dimension == 32
    assert make_layout([("P", 2, "particle-path")]).total_dimension == 2
    # The dimension is derived from the registers, never given.
    registers = make_layout(SG).registers
    assert SubsystemLayout(registers).total_dimension == math.prod(r.dimension for r in registers)
    with pytest.raises(TypeError):
        SubsystemLayout(registers, 7)
    with pytest.raises(TypeError):
        SubsystemLayout(registers=registers, total_dimension=32)


def test_layout_rejects_duplicates_and_bad_dimensions():
    # The layout itself refuses each defect, however it is built.
    path = ("P", 2, "particle-path")
    for registers, match in (
        ([path, path], "duplicate"),
        ([("P", 1, "particle-path")], "dimension"),
        ([("P", 2, "screen")], "role"),
        ([], "at least one register"),
    ):
        with pytest.raises(ValueError, match=match):
            make_layout(registers)
        with pytest.raises(ValueError, match=match):
            SubsystemLayout(tuple(Register(*r) for r in registers))


@pytest.mark.parametrize("dimension", [2.5, "2", True, None, np.float64(3.0)])
def test_a_register_dimension_must_be_an_integer(dimension):
    registers = [("P", dimension, "particle-path"), ("D", 2, "detector")]
    with pytest.raises(ValueError, match="the dimension of register 'P' must be an integer, got "):
        make_layout(registers)


def test_a_numpy_integer_dimension_is_kept_as_a_python_int():
    layout = make_layout([("P", np.int64(3), "particle-path"), ("D", 2**70, "detector")])
    assert type(layout.registers[0].dimension) is int
    assert layout.total_dimension == 3 * 2**70
    assert type(layout.total_dimension) is int
    assert layout == make_layout([("P", 3, "particle-path"), ("D", 2**70, "detector")])


@pytest.mark.parametrize(
    "other, differs",
    [
        ([("B", 2, "detector"), ("O", 4, "observer")], "'A'.* against .*'B'"),
        ([("A", 2, "photon"), ("O", 4, "observer")], "'detector'.* against .*'photon'"),
        ([("A", 2, "detector"), ("O", 5, "observer")], "register 1 is .*=4.* against .*=5"),
        ([("A", 2, "detector")], r"register 1 is Register\(name='O'.* against missing"),
    ],
)
def test_require_same_names_the_first_register_that_differs(other, differs):
    ours = make_layout([("A", 2, "detector"), ("O", 4, "observer")])
    with pytest.raises(ValueError, match=f"^apply_unitary: a layout of dimensions .*{differs}"):
        ours.require_same(make_layout(other), "apply_unitary")
    ours.require_same(make_layout([("A", 2, "detector"), ("O", 4, "observer")]), "apply_unitary")


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
        flat_indices(layout, np.array([[2, 5]]))
    state = product_state(layout, [2, 5])
    with pytest.raises(CapacityError, match="dense view"):
        dense_amplitudes(state)
    with pytest.raises(CapacityError, match="dense view"):
        layout.digit_values("P")


def test_a_label_past_the_label_dtype_is_refused_not_wrapped():
    # Register D of this layout has 2^62 levels, so 65,541 = 2^16 + 5 is in
    # its range; cast to 16 bits first, it would wrap to 5 and pass.  Labels
    # past 64 bits, either sign, fit no integer dtype and are refused alike.
    layout = make_layout([("P", 3, "particle-path"), ("D", 2**62, "detector")])
    for labels in (
        [[2, 65541]],
        [[2, 2**70]],
        [[2, -(2**70)]],
        np.array([[2, 65541]]),
        np.array([[2, 65541]], np.uint64),
    ):
        with pytest.raises(ValueError, match="do not fit int16"):
            StateVector(layout, labels, [1.0])
    with pytest.raises(ValueError, match="do not fit int16"):
        product_state(layout, [2, 65541])
    wide = make_layout([("P", 3, "particle-path"), ("D", 2**72, "detector")])
    with pytest.raises(ValueError, match="do not fit int16"):
        product_state(wide, [2, 2**70])
    # Labels that fit are taken from lists and integer arrays of any width.
    widths = (np.int8, np.int64, np.uint64)
    for labels in ([[2, 5]], *(np.array([[2, 5]], dtype=t) for t in widths)):
        state = StateVector(layout, labels, [1.0])
        assert state.labels.dtype == LABEL and state.labels.tolist() == [[2, 5]]
    assert product_state(layout, [2, 5]).labels.dtype == LABEL


def test_the_label_dtype_holds_every_level_under_the_register_bound():
    # A chain of MAX_REGISTERS registers has at most MAX_REGISTERS - 2
    # versions, whose observers have N + 2 levels; raising the bound past
    # the dtype must fail here.
    assert np.iinfo(LABEL).max >= MAX_REGISTERS + 2


def test_encode_first_register_most_significant():
    layout = make_layout(SG)
    assert encode(layout, {"P": 1, "DH": 1, "DV": 0, "Obs": 0}) == 16 + 8
    assert encode(layout, [0, 0, 1, 3]) == 4 + 3


@given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4))
@settings(max_examples=40)
def test_index_round_trip(dims):
    # The oracle's loop-built encode and decode against its array-built
    # basis_labels and flat_indices.
    layout = make_layout([(f"r{i}", d, "detector") for i, d in enumerate(dims)])
    rows = basis_labels(layout)
    assert flat_indices(layout, rows).tolist() == list(range(layout.total_dimension))
    for flat in range(layout.total_dimension):
        labels = decode(layout, flat)
        assert encode(layout, labels) == flat
        assert list(labels) == rows[flat].tolist()


@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4))
@settings(max_examples=40)
def test_digit_values_match_naive_decode(dims):
    layout = make_layout([(f"r{i}", d, "detector") for i, d in enumerate(dims)])
    labels = [naive_decode(dims, flat) for flat in range(layout.total_dimension)]
    for pos, name in enumerate(layout.names()):
        assert layout.digit_values(name).tolist() == [lab[pos] for lab in labels]


@st.composite
def layouts_and_repeated_rows(draw):
    """Register dimensions and label rows on them, a third of them repeats,
    in random order."""
    dims = draw(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=5))
    labels = st.tuples(*(st.integers(min_value=0, max_value=d - 1) for d in dims))
    rows = draw(st.lists(labels, min_size=1, max_size=12))
    return dims, draw(st.permutations(rows + rows[: len(rows) // 2]))


@given(layouts_and_repeated_rows())
@settings(max_examples=80)
def test_states_and_union_rows_keep_strictly_increasing_flat_order(case):
    # The one ordering fact the package relies on: sorting label rows as
    # tuples sorts them by their mixed-radix flat index, first register most
    # significant.  The rows repeat, so duplicates are merged.
    dims, rows = case
    layout = make_layout([(f"r{i}", d, "detector") for i, d in enumerate(dims)])
    labels = np.array(rows, dtype=np.int64).reshape(len(rows), len(dims))
    distinct, position = union_rows(labels)
    flats = [encode(layout, row) for row in distinct.tolist()]
    assert flats == sorted(set(flats)) == sorted({encode(layout, row) for row in rows})
    assert distinct[position].tolist() == labels.tolist()
    state = StateVector(layout, labels, np.arange(1, len(rows) + 1))
    assert state.labels.tolist() == distinct.tolist()
    expected = np.zeros(layout.total_dimension, dtype=complex)
    np.add.at(expected, [encode(layout, row) for row in rows], np.arange(1, len(rows) + 1))
    assert np.array_equal(dense_amplitudes(state), expected)


@given(
    layouts_and_repeated_rows(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_a_batched_state_is_its_one_row_states_bit_for_bit(case, members, seed):
    # The rows repeat and come out of order: a batch sorts and merges them
    # once, along the last axis, and each member equals the state built from
    # its own row of amplitudes, signed zeros included.
    dims, rows = case
    layout = make_layout([(f"r{i}", d, "detector") for i, d in enumerate(dims)])
    labels = np.array(rows, dtype=np.int64).reshape(len(rows), len(dims))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((members, len(rows))) + 1j * rng.standard_normal(
        (members, len(rows))
    )
    values[rng.random(values.shape) < 0.3] = -0.0
    batch = StateVector(layout, labels, values)
    assert batch.values.shape == (members, len(batch.labels))
    for amplitudes, member in zip(values, batch.values):
        alone = StateVector(layout, labels, amplitudes)
        assert np.array_equal(batch.labels, alone.labels)
        assert member.tobytes() == alone.values.tobytes()


def test_aligned_batched_states_give_the_per_row_tables():
    layout = make_layout(SG)
    rng = np.random.default_rng(8)
    x_rows = [[1, 0, 1, 3], [0, 0, 0, 0]]
    y_rows = [[1, 0, 1, 3], [0, 1, 0, 2], [0, 0, 1, 1]]
    x = StateVector(layout, x_rows, rng.standard_normal((3, 2)) + 1j)
    y = StateVector(layout, y_rows, rng.standard_normal((3, 3)) - 1j)
    rows, table = aligned(x, y)
    assert table.shape == (2, 3, len(rows))
    for m in range(3):
        alone = aligned(*(StateVector(layout, s.labels, s.values[m]) for s in (x, y)))
        assert np.array_equal(rows, alone[0])
        assert np.array_equal(table[:, m], alone[1])


def test_a_batch_must_run_along_the_last_axis():
    layout = make_layout(SG)
    labels = basis_labels(layout)[:3]
    assert StateVector(layout, labels, np.ones((2, 3))).values.shape == (2, 3)
    for shape in ((2, 4), (3, 2), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="does not describe rows"):
            StateVector(layout, labels, np.ones(shape))


def test_decode_out_of_range():
    layout = make_layout(SG)
    with pytest.raises(ValueError):
        decode(layout, 32)


def test_product_state_places_single_amplitude():
    layout = make_layout(SG)
    # Version 1 upon detection: path 1, DH fired, DV idle, observer blank.
    labels = {"P": 0, "DH": 1, "DV": 0, "Obs": 0}
    state = product_state(layout, labels)
    expected_index = naive_encode([2, 2, 2, 4], [0, 1, 0, 0])
    assert dense_amplitudes(state)[expected_index] == 1.0
    assert np.count_nonzero(dense_amplitudes(state)) == 1

    origin = product_state(layout, [0, 0, 0, 0])
    assert dense_amplitudes(origin)[0] == 1.0


def test_product_state_label_out_of_range():
    layout = make_layout(SG)
    with pytest.raises(ValueError, match="out of range"):
        product_state(layout, {"P": 2, "DH": 0, "DV": 0, "Obs": 0})
    with pytest.raises(ValueError):
        product_state(layout, [0, 0, 0])  # one label short


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda layout: StateVector(layout, [[0, 0, 0, -1]], [1.0]), "label out of range"),
        (lambda layout: StateVector(layout, [[0, 0, 2, 0]], [1.0]), "label out of range"),
        (lambda layout: layout.row({"P": 0, "DH": 0, "DV": 0}),
         r"missing=\['Obs'\], unknown=\[\]"),
        (lambda layout: layout.row({"P": 0, "DH": 0, "DV": 0, "Obs": 0, "X": 0}),
         r"missing=\[\], unknown=\['X'\]"),
        (lambda layout: superpose([]), "at least one term"),
    ],
    ids=["raw_row_negative", "raw_row_at_dimension", "row_missing_name", "row_unknown_name",
         "superpose_nothing"],
)
def test_a_state_refuses_rows_outside_its_layout(build, message):
    # product_state meets layout.row's range check first, so the raw rows
    # here test the state's own guard.
    with pytest.raises(ValueError, match=message):
        build(make_layout(SG))


def test_a_label_row_leaves_no_cache_entry_per_argument_type():
    # An ABC check on the labels would add negative-cache entries across
    # the ABC's subclass tree for each new argument type, kept for the
    # process (about 3.6 KB for these three); a child process, since this
    # one has long since passed lists, tuples and arrays to such checks.
    script = (
        "import gc, tracemalloc\n"
        "import numpy as np\n"
        "from branchsim import chain_layout\n"
        "layout = chain_layout(2)\n"
        "layout.row({r.name: 0 for r in layout.registers})\n"
        "arguments = [np.zeros(4, dtype=int), [0, 0, 0, 0], (0, 0, 0, 0)]\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "for labels in arguments:\n"
        "    layout.row(labels)\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(state.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 512


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
    assert np.array_equal(dense_amplitudes(same), dense_amplitudes(one))

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
    assert np.max(np.abs(dense_amplitudes(merged) - dense_amplitudes(split))) <= 1e-12


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
        vx = StateVector(layout, basis_labels(layout), rng.standard_normal(32) + 1j * rng.standard_normal(32))
        vy = StateVector(layout, basis_labels(layout), rng.standard_normal(32) + 1j * rng.standard_normal(32))
        assert abs(inner_product(vx, vy)) <= norm(vx) * norm(vy) + 1e-12


def test_norm_and_normalize():
    layout = make_layout([("P", 2, "particle-path")])
    from branchsim import StateVector

    state = StateVector(layout, basis_labels(layout), np.array([0.6, 0.8j]))
    assert norm(state) == pytest.approx(1.0, abs=1e-12)

    stretched = StateVector(layout, basis_labels(layout), np.array([2.0, 0.0]))
    unit = normalize(stretched)
    assert np.allclose(dense_amplitudes(unit), [1.0, 0.0])

    with pytest.raises(DegenerateStateError):
        normalize(StateVector(layout, basis_labels(layout), np.zeros(2)))


def test_state_vector_length_must_match_layout():
    layout = make_layout(SG)
    from branchsim import StateVector

    with pytest.raises(ValueError):
        StateVector(layout, basis_labels(layout), np.zeros(31))


def test_density_matrix_validation():
    # A density matrix is valid by construction, or not built, and stays
    # valid: it keeps a read-only copy of the caller's entries.
    entries = np.diag([0.5, 0.5]).astype(complex)
    good = DensityMatrix(2, entries)
    entries[0, 1] = 1.0
    assert np.array_equal(good.entries, np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="read-only"):
        good.entries[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(2, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, np.diag([0.9, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(2, np.diag([1.5, -0.5]).astype(complex))
