"""Reduced-state diagnostics for contrasting with environment-based accounts.

These quantities (reduced density matrices, von Neumann entropy,
system-fragment mutual information) are not needed to establish the branch
structure -- linearity alone does that -- but they let a run show what an
environment/redundancy analysis of the same state sees.  Record coherence
is a chain check over every observer at once and builds no matrix: it groups
the rows once by their non-observer registers and pairs only rows that share
a group (``state.max_pair_overlap``).

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
    is_message,
    max_pair_overlap,
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

    environments, column = union_rows(np.delete(state.labels, positions, axis=1))
    psi = np.zeros((kept, len(environments)), dtype=complex)
    psi[np.ravel_multi_index(state.labels[:, positions].T, dims), column] = state.values
    return DensityMatrix(kept, psi @ psi.conj().T)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues below the floor contribute zero."""
    eigenvalues = np.linalg.eigvalsh(rho.entries)
    positive = eigenvalues[eigenvalues >= ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(positive * np.log2(positive)))


def observer_coherence(state: StateVector) -> float | list[float]:
    """Largest interference term, over every observer, between two distinct
    written messages: off-diagonal entries of each observer's reduced density
    matrix between message levels (blank and mixed excluded), found by
    ``max_pair_overlap`` of the rows at those levels, owned by their level.
    Such rows agree on every other register, so only rows that share their
    non-observer labels are paired; a working chain has none.  After
    perception this must vanish.  A batched state gets a list, one per member.
    """
    observers = state.layout.at(ROLE_OBSERVER)
    require_unit(state.values, "observer_coherence")
    _, group = union_rows(np.delete(state.labels, observers, axis=1))
    shared = np.bincount(group)[group] > 1
    labels, values = state.labels[shared], np.atleast_2d(state.values)[:, shared]
    worst = [0.0] * len(values)
    for at in observers if shared.any() else ():
        levels = labels[:, at]
        message = is_message(levels, state.layout.registers[at].dimension)
        relative = np.delete(labels[message], at, axis=1)
        overlaps = max_pair_overlap(relative, levels[message], values[:, message])
        worst = list(map(max, worst, overlaps))
    return worst if state.values.ndim == 2 else worst[0]


def fragment_mutual_information(
    state: StateVector, fragment: Sequence[str], system: Sequence[str]
) -> float:
    """I(S:F) = S(rho_S) + S(rho_F) - S(rho_SF), in bits; the joint reduction
    comes first, so its ``CapacityError`` precedes any other work."""
    fragment_set, system_set = set(fragment), set(system)
    if not fragment_set or not system_set:
        raise ValueError("fragment and system must both be nonempty")
    overlap = fragment_set & system_set
    if overlap:
        raise ValueError(f"fragment and system overlap on {sorted(overlap)}")
    rho_joint = reduced_density_matrix(state, sorted(fragment_set | system_set))
    s_system = von_neumann_entropy(reduced_density_matrix(state, sorted(system_set)))
    s_fragment = von_neumann_entropy(reduced_density_matrix(state, sorted(fragment_set)))
    return s_system + s_fragment - von_neumann_entropy(rho_joint)
