import numpy as np
import pytest

from branchsim import (
    CapacityError,
    DensityMatrix,
    ExperimentSpec,
    StateVector,
    chain_layout,
    fragment_mutual_information,
    make_layout,
    observer_coherence,
    product_state,
    reduced_density_matrix,
    run_measurement_chain,
    superpose,
    von_neumann_entropy,
)
from branchsim.state import require_unit
from oracles import (
    basis_labels,
    dense_amplitudes,
    dense_observer_coherence,
    exact_partial_trace,
    naive_entropy_bits,
    naive_observer_coherence,
    naive_partial_trace,
    version_labels,
)

# Oracle-computed constants for the recorded two-branch state with
# coefficients (0.6, 0.8): see oracles.naive_partial_trace and
# oracles.naive_entropy_bits.
ENTROPY_36_64_BITS = 0.9426831892554921


def recorded_state(a1, a2):
    layout = chain_layout(2, 1)
    return layout, superpose(
        [
            (a1, product_state(layout, version_labels(layout, 0, detected=True, message=1))),
            (a2, product_state(layout, version_labels(layout, 1, detected=True, message=2))),
        ]
    )


# -- reduced density matrices --------------------------------------------------


def test_product_state_reduces_to_rank_one_projector():
    layout = chain_layout(2, 1)
    state = product_state(layout, version_labels(layout, 1, detected=True, message=2))
    for name in ("path", "DH", "Obs1"):
        rho = reduced_density_matrix(state, [name])
        eigenvalues = np.sort(np.linalg.eigvalsh(rho.entries))
        assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(eigenvalues[:-1])) <= 1e-12


def test_observer_reduction_matches_brute_force_oracle():
    layout, state = recorded_state(0.6, 0.8)
    rho = reduced_density_matrix(state, ["Obs1"])
    dims = [r.dimension for r in layout.registers]
    oracle = naive_partial_trace(dense_amplitudes(state), dims, [layout.position("Obs1")])
    assert np.max(np.abs(rho.entries - oracle)) <= 1e-14
    assert np.allclose(np.diag(rho.entries), [0.0, 0.36, 0.64, 0.0], atol=1e-12)
    off_diagonal = rho.entries - np.diag(np.diag(rho.entries))
    assert np.max(np.abs(off_diagonal)) <= 1e-12


def test_keep_everything_gives_the_projector():
    layout, state = recorded_state(0.6, 0.8)
    rho = reduced_density_matrix(state, [r.name for r in layout.registers])
    outer = np.outer(dense_amplitudes(state), dense_amplitudes(state).conj())
    assert np.max(np.abs(rho.entries - outer)) <= 1e-14


def test_reduction_validation():
    layout, state = recorded_state(0.6, 0.8)
    with pytest.raises(KeyError):
        reduced_density_matrix(state, ["nope"])
    with pytest.raises(ValueError, match="at least one"):
        reduced_density_matrix(state, [])
    with pytest.raises(ValueError, match="unit"):
        reduced_density_matrix(superpose([(0.5, state)]), ["Obs1"])


# -- entropy ---------------------------------------------------------------------


def test_entropy_of_pure_and_mixed_states():
    assert von_neumann_entropy(DensityMatrix(2, np.diag([1.0, 0.0]).astype(complex))) == 0.0
    flat = von_neumann_entropy(DensityMatrix(2, np.diag([0.5, 0.5]).astype(complex)))
    assert flat == pytest.approx(1.0, abs=1e-12)


def test_observer_entropy_matches_frozen_oracle_value():
    layout, state = recorded_state(0.6, 0.8)
    rho = reduced_density_matrix(state, ["Obs1"])
    entropy = von_neumann_entropy(rho)
    assert entropy == pytest.approx(ENTROPY_36_64_BITS, abs=1e-12)
    # And re-derive it through the independent eigendecomposition oracle.
    dims = [r.dimension for r in layout.registers]
    oracle = naive_entropy_bits(
        naive_partial_trace(dense_amplitudes(state), dims, [layout.position("Obs1")])
    )
    assert entropy == pytest.approx(oracle, abs=1e-12)


def test_entropy_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        von_neumann_entropy(DensityMatrix(2, np.array([[0.5, 1.0], [0.0, 0.5]])))


def test_entropy_bounds_on_random_reductions():
    layout = chain_layout(2, 2)
    rng = np.random.default_rng(55)
    for _ in range(25):
        amps = rng.standard_normal(layout.total_dimension) + 1j * rng.standard_normal(
            layout.total_dimension
        )
        state = StateVector(layout, basis_labels(layout), amps / np.linalg.norm(amps))
        for keep in (["path"], ["Obs1"], ["DH", "DV"], ["path", "Obs2"]):
            rho = reduced_density_matrix(state, keep)
            entropy = von_neumann_entropy(rho)
            assert -1e-12 <= entropy <= np.log2(rho.dimension) + 1e-9


# -- observer coherence ------------------------------------------------------------


def test_recorded_state_has_no_message_coherence():
    _, state = recorded_state(0.6, 0.8)
    assert observer_coherence(state) <= 1e-12


def test_unentangled_message_superposition_is_maximally_coherent():
    layout = chain_layout(2, 1)
    state = superpose(
        [
            (2**-0.5, product_state(layout, version_labels(layout, 0, detected=True, message=1))),
            (2**-0.5, product_state(layout, version_labels(layout, 0, detected=True, message=2))),
        ]
    )
    assert observer_coherence(state) == pytest.approx(0.5, abs=1e-12)


def test_blank_observer_has_no_message_coherence():
    layout = chain_layout(2, 1)
    state = superpose(
        [
            (0.6, product_state(layout, version_labels(layout, 0, detected=False))),
            (0.8, product_state(layout, version_labels(layout, 1, detected=False))),
        ]
    )
    assert observer_coherence(state) == 0.0


@pytest.mark.parametrize(
    "amplitude", [np.nan, complex(0.6, np.nan), np.inf, -np.inf, complex(0.0, -np.inf)]
)
def test_a_norm_of_nan_or_inf_is_not_a_unit_state(amplitude):
    # NaN compares false with everything, so a NaN norm must be refused as
    # plainly as an infinite one, not read as within 1e-9 of 1.  A state is
    # refused such amplitudes where it is built, before any check reads it;
    # observer_coherence still refuses a finite state that is not a unit one.
    layout = chain_layout(2, 1)
    labels = layout.row(version_labels(layout, 0, detected=True, message=1))[None]
    for values in ([amplitude], [[1.0], [amplitude]]):  # plain, and a batch's second member
        values = np.array(values, dtype=complex)
        with pytest.raises(ValueError, match="probe expects a unit state, norm is"):
            require_unit(values, "probe")
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector(layout, labels, values)
    with pytest.raises(ValueError, match="observer_coherence expects a unit state"):
        observer_coherence(StateVector(layout, labels, [[1.0], [2.0]]))
    assert observer_coherence(StateVector(layout, labels, [1.0])) == 0.0


def test_coherence_is_the_pairwise_loop_bit_for_bit():
    # Random superpositions over every observer level, blank and mixed
    # included, in one unentangled configuration of the other registers.
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        layout = chain_layout(n, 1)
        dimension = layout.register("Obs1").dimension
        for _ in range(5):
            amplitudes = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
            state = superpose(
                [
                    (a, product_state(layout, version_labels(layout, 0, detected=True, message=m)))
                    for m, a in enumerate(amplitudes / np.linalg.norm(amplitudes))
                ]
            )
            rho = exact_partial_trace(state, ["Obs1"])
            coherence = observer_coherence(state)
            assert coherence == naive_observer_coherence(rho)
            assert coherence > 0.0
            assert coherence == pytest.approx(dense_observer_coherence(state, "Obs1"), abs=1e-15)


def test_coherence_vanishes_after_every_suite_run():
    rng = np.random.default_rng(77)
    for n, observers in ((2, 1), (3, 2), (5, 1)):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = ExperimentSpec(n, tuple(v / np.linalg.norm(v)), observers=observers)
        report = run_measurement_chain(spec, checks=["structure"])
        assert observer_coherence(report.final_state) <= 1e-12


# -- fragment mutual information -----------------------------------------------------


def test_product_state_has_zero_mutual_information():
    layout = chain_layout(2, 1)
    state = product_state(layout, version_labels(layout, 0, detected=True, message=1))
    assert fragment_mutual_information(state, ["DH"], ["path"]) <= 1e-12


def test_single_detector_carries_the_full_record():
    _, state = recorded_state(2**-0.5, 2**-0.5)
    one = fragment_mutual_information(state, ["DH"], ["path"])
    both = fragment_mutual_information(state, ["DH", "DV"], ["path"])
    assert one == pytest.approx(1.0, abs=1e-9)
    assert both == pytest.approx(1.0, abs=1e-9)


def test_redundancy_plateau_for_random_coefficients():
    # Any single detector already holds everything the pair holds: the
    # record is redundantly spread over the chain.
    rng = np.random.default_rng(99)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        _, state = recorded_state(*v)
        w = abs(v[0]) ** 2
        expected = naive_entropy_bits(np.diag([w, 1 - w]))
        one = fragment_mutual_information(state, ["DH"], ["path"])
        both = fragment_mutual_information(state, ["DH", "DV"], ["path"])
        assert one == pytest.approx(expected, abs=1e-9)
        assert both == pytest.approx(expected, abs=1e-9)


def test_unemitted_photons_know_nothing():
    from branchsim import apply_unitary, build_detection_unitary, initial_state

    layout = chain_layout(2, 1, photon_model=True)
    detected = apply_unitary(
        build_detection_unitary(layout), initial_state(layout, (0.6, 0.8))
    )
    assert fragment_mutual_information(detected, ["ph1"], ["path"]) <= 1e-12


def test_mutual_information_validation():
    _, state = recorded_state(0.6, 0.8)
    with pytest.raises(ValueError, match="overlap"):
        fragment_mutual_information(state, ["DH"], ["DH", "path"])
    with pytest.raises(ValueError, match="nonempty"):
        fragment_mutual_information(state, [], ["path"])


def test_mutual_information_capacity_cap():
    layout = make_layout([(f"D{i}", 2, "detector") for i in range(13)])
    amps = np.zeros(layout.total_dimension, dtype=complex)
    amps[0] = 1.0
    state = StateVector(layout, basis_labels(layout), amps)
    with pytest.raises(CapacityError):
        fragment_mutual_information(
            state, [f"D{i}" for i in range(1, 13)], ["D0"]
        )
