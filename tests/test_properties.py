"""Property tests over every chain shape and tolerance the gate accepts.

Each example draws N in [2, 6], one to three observers, photons on or off,
random normalized coefficients and any tolerance the gate accepts, in
[MIN_TOLERANCE, MAX_TOLERANCE].  Shapes past ``MAX_DIMENSION`` basis states
are skipped to keep the suite fast; the acceptance tests cover larger ones.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchsim import (
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    ExperimentSpec,
    decompose_branches,
    reconstruct_branches,
    run_measurement_chain,
)

MAX_DIMENSION = 40_000


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
