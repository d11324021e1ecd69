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

import math
from collections.abc import Sequence

import numpy as np

from .errors import CapacityError
from .state import (
    DensityMatrix,
    ROLE_OBSERVER,
    StateVector,
    mixed_record_level,
    require_unit,
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
    require_unit(state.values, "reduced_density_matrix")
    dims = [layout.registers[i].dimension for i in positions]
    kept = math.prod(dims)
    if kept > DENSE_TRACE_CAP:
        raise CapacityError(f"kept dimension {kept} exceeds dense cap {DENSE_TRACE_CAP}")

    traced = np.ones(len(layout.registers), dtype=bool)
    traced[positions] = False
    environments, column = union_rows(state.labels.compress(traced, axis=1))
    psi = np.zeros((kept, len(environments)), dtype=complex)
    psi[np.ravel_multi_index(state.labels[:, positions].T, dims), column] = state.values
    return DensityMatrix(kept, psi @ psi.conj().T)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues below the floor contribute zero."""
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
    top = mixed_record_level(reg.dimension)
    upper = np.triu(rho[1:top, 1:top], 1)
    # Scalar ``abs`` of a complex number is hypot of its parts; numpy's
    # vectorized complex ``abs`` can differ from it in the last bit.
    return float(np.hypot(upper.real, upper.imag).max(initial=0.0))


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
