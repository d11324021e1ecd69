"""Reduced-state diagnostics for contrasting with environment-based accounts.

These quantities (reduced density matrices, von Neumann entropy, record
coherence, system-fragment mutual information) are not needed to establish
the branch structure -- linearity alone does that -- but they let a run
show what an environment/redundancy analysis of the same state sees.

A reduced density matrix is accumulated from the state's support, so only
the kept registers' dimension is dense, and it is capped at
``DENSE_TRACE_CAP``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import CapacityError
from .state import (
    DensityMatrix,
    ROLE_OBSERVER,
    StateVector,
    TOLERANCE,
    mixed_record_level,
    norm,
    union_rows,
)

ENTROPY_EIGENVALUE_FLOOR = 1e-14
DENSE_TRACE_CAP = 2**12


def reduced_density_matrix(state: StateVector, keep: Sequence[str]) -> DensityMatrix:
    """Partial trace onto the named registers (layout order preserved).

    Writing the support as a matrix with one row per kept label and one
    column per distinct traced label, rho is that matrix times its adjoint.
    ``CapacityError`` if the kept dimension exceeds ``DENSE_TRACE_CAP``.
    """
    layout = state.layout
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep set must name at least one register")
    positions = sorted(layout.position(name) for name in keep_set)
    total = norm(state)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"reduced_density_matrix expects a unit state, norm is {total!r}")
    kept = layout.drop([n for n in layout.names() if n not in keep_set])
    if kept.total_dimension > DENSE_TRACE_CAP:
        raise CapacityError(
            f"kept dimension {kept.total_dimension} exceeds dense cap {DENSE_TRACE_CAP}"
        )

    traced = [i for i in range(len(layout.registers)) if i not in positions]
    environments, column = union_rows(state.labels[:, traced])
    psi = np.zeros((kept.total_dimension, len(environments)), dtype=complex)
    psi[kept.flat_indices(state.labels[:, positions]), column] = state.values
    matrix = DensityMatrix(kept.total_dimension, psi @ psi.conj().T)
    matrix.validate()
    return matrix


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues below the floor contribute zero."""
    defect = np.max(np.abs(rho.entries - rho.entries.conj().T))
    if defect > TOLERANCE:
        raise ValueError(f"entropy of a non-Hermitian matrix (defect {defect:.3e})")
    eigenvalues = np.linalg.eigvalsh(rho.entries)
    positive = eigenvalues[eigenvalues >= ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(positive * np.log2(positive)))


def observer_coherence(state: StateVector, observer_register: str) -> float:
    """Largest interference term between two distinct written messages.

    Off-diagonal entries of the observer's reduced density matrix between
    message levels (the blank and mixed-record levels are excluded).  After
    perception this must vanish: the rest of each branch is orthogonal to
    the rest of every other branch.
    """
    reg = state.layout.register(observer_register)
    if reg.role != ROLE_OBSERVER:
        raise ValueError(
            f"register {observer_register!r} has role {reg.role!r}, not observer"
        )
    rho = reduced_density_matrix(state, [observer_register]).entries
    messages = range(1, mixed_record_level(reg.dimension))
    worst = 0.0
    for m in messages:
        for m2 in messages:
            if m2 > m:
                worst = max(worst, abs(rho[m, m2]))
    return float(worst)


def fragment_mutual_information(
    state: StateVector, fragment: Sequence[str], system: Sequence[str]
) -> float:
    """I(S:F) = S(rho_S) + S(rho_F) - S(rho_SF), in bits."""
    fragment_set, system_set = set(fragment), set(system)
    if not fragment_set or not system_set:
        raise ValueError("fragment and system must both be nonempty")
    overlap = fragment_set & system_set
    if overlap:
        raise ValueError(f"fragment and system overlap on {sorted(overlap)}")
    joint = fragment_set | system_set
    joint_dimension = 1
    for name in joint:
        joint_dimension *= state.layout.register(name).dimension
    if joint_dimension > DENSE_TRACE_CAP:
        raise CapacityError(
            f"joint dimension {joint_dimension} exceeds dense cap {DENSE_TRACE_CAP}"
        )
    s_system = von_neumann_entropy(reduced_density_matrix(state, sorted(system_set)))
    s_fragment = von_neumann_entropy(reduced_density_matrix(state, sorted(fragment_set)))
    s_joint = von_neumann_entropy(reduced_density_matrix(state, sorted(joint)))
    return s_system + s_fragment - s_joint
