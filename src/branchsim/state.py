"""Composite states over named registers, stored as their support.

A layout names the subsystems (particle path, detectors, photons, observer
memories) and fixes their order.  A basis state is a row of per-register
labels.  A ``StateVector`` keeps only its support: a (k x registers) label
array whose rows are distinct and sorted in flat-index order, plus the k
amplitudes.  Every state of a measurement chain has support N (one basis
state per version) whatever the dimension, so states cost O(support).

The flat index of a label row is its mixed-radix number, first register most
significant; sorting rows lexicographically sorts them by flat index without
computing it.  Flat indices appear only in the dense views --
``StateVector.amplitudes``, ``SubsystemLayout.digit_values`` and
``basis_labels`` -- which serve oracle comparisons and refuse layouts above
``DENSE_VIEW_CAP``.  A dense vector becomes a state as
``StateVector(layout, layout.basis_labels(), amplitudes)``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, DegenerateStateError

# Register roles understood by the operator builders.
ROLE_PATH = "particle-path"
ROLE_DETECTOR = "detector"
ROLE_PHOTON = "photon"
ROLE_OBSERVER = "observer"
ROLES = frozenset({ROLE_PATH, ROLE_DETECTOR, ROLE_PHOTON, ROLE_OBSERVER})

# Basis-label conventions.  Detectors and photons are two-level registers.
DETECTOR_NO = 0
DETECTOR_YES = 1
PHOTON_VACUUM = 0
PHOTON_EMITTED = 1

# Observer registers have levels {blank, message 1..N, mixed-record}.
# Level 0 is the "has not looked yet" state; the top level is reserved for
# the record "a non-classical mixture was perceived" and no builder in this
# package ever writes it -- that reservation is what the mixed-record checks
# probe.
OBSERVER_BLANK = 0

DEFAULT_DIMENSION_CAP = 2**24
# Largest dimension a dense view (one entry per basis state) is built for.
DENSE_VIEW_CAP = DEFAULT_DIMENSION_CAP
TOLERANCE = 1e-12


def observer_dimension(n_versions: int) -> int:
    """Number of observer levels needed for ``n_versions`` outcomes."""
    return n_versions + 2


def message_level(version: int) -> int:
    """Observer level recording outcome ``version`` (0-based)."""
    return version + 1


def mixed_record_level(dimension: int) -> int:
    """The reserved never-written top level of an observer register."""
    return dimension - 1


def message_name(level: int, dimension: int) -> str:
    """Human-readable name of an observer level ("blank", "M1", "mixed")."""
    if level == OBSERVER_BLANK:
        return "blank"
    if level == mixed_record_level(dimension):
        return "mixed"
    return f"M{level}"


@dataclass(frozen=True)
class Register:
    name: str
    dimension: int
    role: str


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered registers of a composite space plus index arithmetic.

    The flat index of a basis state is the mixed-radix encoding of its
    per-register labels, first register most significant.  Layouts are
    immutable; all methods are pure.
    """

    registers: tuple[Register, ...]
    total_dimension: int
    strides: tuple[int, ...]
    _positions: dict = field(repr=False, compare=False)

    @cached_property
    def dimension_array(self) -> np.ndarray:
        """Register dimensions as an array, to compare label rows against."""
        return np.array(self.dimensions())

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def dimensions(self) -> tuple[int, ...]:
        return tuple(r.dimension for r in self.registers)

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"no register named {name!r} in layout {self.names()}") from None

    def register(self, name: str) -> Register:
        return self.registers[self.position(name)]

    def by_role(self, role: str) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == role)

    def encode(self, labels: Sequence[int] | Mapping[str, int]) -> int:
        """Flat index of the basis state with the given per-register labels."""
        digits = self._labels_to_digits(labels)
        return int(sum(d * s for d, s in zip(digits, self.strides)))

    def decode(self, flat_index: int) -> tuple[int, ...]:
        """Per-register labels of the basis state at ``flat_index``."""
        if not 0 <= flat_index < self.total_dimension:
            raise ValueError(
                f"flat index {flat_index} out of range [0, {self.total_dimension})"
            )
        return tuple(
            (flat_index // s) % r.dimension for r, s in zip(self.registers, self.strides)
        )

    def row(self, labels: Sequence[int] | Mapping[str, int]) -> np.ndarray:
        """Label row of the basis state with the given per-register labels."""
        return np.array(self._labels_to_digits(labels), dtype=np.int64)

    def label_grid(self, names: Sequence[str]) -> np.ndarray:
        """Every joint label of the named registers, one row each.

        Columns follow layout order and rows mixed-radix order, last named
        register fastest.
        """
        grid = np.zeros((1, 0), dtype=np.int64)
        for pos in sorted(self.position(name) for name in names):
            levels = np.arange(self.registers[pos].dimension, dtype=np.int64)
            grid = np.hstack(
                [np.repeat(grid, levels.size, axis=0), np.tile(levels, len(grid))[:, None]]
            )
        return grid

    def require_dense_view(self) -> None:
        """``CapacityError`` unless an array over every basis state fits."""
        if self.total_dimension > DENSE_VIEW_CAP:
            raise CapacityError(
                f"refusing a dense view of dimension {self.total_dimension} "
                f"(cap {DENSE_VIEW_CAP})"
            )

    def basis_labels(self) -> np.ndarray:
        """Dense view: the label row of every flat index, in order."""
        self.require_dense_view()
        return self.label_grid(self.names())

    def digit_values(self, name: str) -> np.ndarray:
        """Dense view: this register's digit at every flat index."""
        return self.basis_labels()[:, self.position(name)]

    def flat_indices(self, labels: np.ndarray) -> np.ndarray:
        """The flat index of each label row (exact while the layout cap
        keeps the dimension within int64)."""
        return labels @ np.array(self.strides, dtype=np.int64)

    def drop(self, names: Sequence[str]) -> "SubsystemLayout":
        """Layout with the named registers removed (order preserved)."""
        dropped = set(names)
        for name in dropped:
            self.position(name)  # raise on unknown names
        remaining = [r for r in self.registers if r.name not in dropped]
        if not remaining:
            raise ValueError("cannot drop every register from a layout")
        return make_layout([(r.name, r.dimension, r.role) for r in remaining])

    def _labels_to_digits(self, labels: Sequence[int] | Mapping[str, int]) -> tuple[int, ...]:
        if isinstance(labels, Mapping):
            missing = set(self.names()) - set(labels)
            extra = set(labels) - set(self.names())
            if missing or extra:
                raise ValueError(
                    f"labels must cover every register exactly once "
                    f"(missing={sorted(missing)}, unknown={sorted(extra)})"
                )
            digits = tuple(labels[r.name] for r in self.registers)
        else:
            digits = tuple(labels)
            if len(digits) != len(self.registers):
                raise ValueError(
                    f"expected {len(self.registers)} labels, got {len(digits)}"
                )
        for reg, d in zip(self.registers, digits):
            if not 0 <= d < reg.dimension:
                raise ValueError(
                    f"label {d} out of range for register {reg.name!r} "
                    f"(dimension {reg.dimension})"
                )
        return digits


def make_layout(
    registers: Sequence[tuple[str, int, str]],
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> SubsystemLayout:
    """Build a layout from ``(name, dimension, role)`` triples.

    Raises ``ValueError`` on duplicate names, dimensions below 2 or unknown
    roles, and ``CapacityError`` when the product of dimensions exceeds
    ``dimension_cap``.
    """
    if not registers:
        raise ValueError("layout needs at least one register")
    regs = []
    seen: set[str] = set()
    for name, dimension, role in registers:
        if name in seen:
            raise ValueError(f"duplicate register name {name!r}")
        seen.add(name)
        if dimension < 2:
            raise ValueError(f"register {name!r} has dimension {dimension}, need >= 2")
        if role not in ROLES:
            raise ValueError(f"register {name!r} has unknown role {role!r}")
        regs.append(Register(name, dimension, role))

    total = 1
    for r in regs:
        total *= r.dimension
        if total > dimension_cap:
            raise CapacityError(
                f"total dimension exceeds cap {dimension_cap} "
                f"(at register {r.name!r})"
            )

    # First register most significant: stride[i] = product of later dims.
    strides = [1] * len(regs)
    for i in range(len(regs) - 2, -1, -1):
        strides[i] = strides[i + 1] * regs[i + 1].dimension

    return SubsystemLayout(
        registers=tuple(regs),
        total_dimension=total,
        strides=tuple(strides),
        _positions={r.name: i for i, r in enumerate(regs)},
    )


@dataclass(frozen=True)
class StateVector:
    """A state stored as its support: label rows and their amplitudes.

    ``labels`` is a (k x registers) integer array and ``values`` the k
    amplitudes.  Construction puts the rows in flat-index order and adds the
    amplitudes of repeated rows, so equal states have equal arrays.  Treat
    instances as immutable: every operation returns a fresh state.
    """

    layout: SubsystemLayout
    labels: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        values = np.asarray(self.values, dtype=complex)
        registers = len(self.layout.registers)
        if labels.ndim != 2 or labels.shape[1] != registers or values.shape != labels.shape[:1]:
            raise ValueError(
                f"{labels.shape} label array with {values.shape} amplitudes does not "
                f"describe rows of {registers} registers"
            )
        if (labels < 0).any() or (labels >= self.layout.dimension_array).any():
            raise ValueError(f"label out of range for layout {self.layout.names()}")
        rows, position = union_rows(labels)
        if rows is not labels:
            summed = np.zeros(len(rows), dtype=complex)
            np.add.at(summed, position, values)
            object.__setattr__(self, "labels", rows)
            values = summed
        object.__setattr__(self, "values", values)

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense view: the amplitude at every flat index."""
        self.layout.require_dense_view()
        dense = np.zeros(self.layout.total_dimension, dtype=complex)
        dense[self.layout.flat_indices(self.labels)] = self.values
        return dense


def union_rows(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a label array in flat-index order, and the position
    of each input row among them.

    Sorting rows as tuples (first register first) orders them by flat index
    without computing one; supports are small, so Python's sort is the
    cheapest way to do it.
    """
    rows = labels.tolist()
    position = [0] * len(rows)
    distinct: list[int] = []
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        if not distinct or rows[i] != rows[distinct[-1]]:
            distinct.append(i)
        position[i] = len(distinct) - 1
    if distinct == list(range(len(rows))):
        return labels, np.arange(len(rows))  # already distinct and in order
    return labels[distinct], np.array(position, dtype=np.intp)


def aligned(*states: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The union of the states' supports and their amplitudes on it.

    Returns the union's label rows in flat-index order and a (states x rows)
    array holding each state's amplitude there, zero off its support.
    """
    layout = states[0].layout
    if any(state.layout != layout for state in states):
        raise ValueError("aligned states must share one layout")
    rows, position = union_rows(np.concatenate([state.labels for state in states]))
    table = np.zeros((len(states), len(rows)), dtype=complex)
    start = 0
    for index, state in enumerate(states):
        table[index, position[start : start + len(state.values)]] = state.values
        start += len(state.values)
    return rows, table


def product_state(
    layout: SubsystemLayout, labels: Sequence[int] | Mapping[str, int]
) -> StateVector:
    """Unit basis vector with every register in a definite level."""
    return StateVector(layout, layout.row(labels)[None, :], np.ones(1, dtype=complex))


def superpose(terms: Sequence[tuple[complex, StateVector]]) -> StateVector:
    """Componentwise linear combination.  Not normalized; callers decide."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    layout = terms[0][1].layout
    for _, state in terms:
        if state.layout != layout:
            raise ValueError("superpose terms must share one layout")
    return StateVector(
        layout,
        np.concatenate([state.labels for _, state in terms]),
        np.concatenate([complex(c) * state.values for c, state in terms]),
    )


def inner_product(x: StateVector, y: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if x.layout != y.layout:
        raise ValueError("inner product requires states on the same layout")
    _, (xs, ys) = aligned(x, y)
    return complex(np.vdot(xs, ys))


def norm(x: StateVector) -> float:
    return vector_norm(x.values)


def vector_norm(values: np.ndarray) -> float:
    """Euclidean norm of complex amplitudes.

    The squared real parts and the squared imaginary parts are each summed
    exactly (``math.fsum``), so the result does not depend on the order of
    the amplitudes or on zeros between them.
    """
    real = math.fsum(np.square(values.real).tolist())
    return math.sqrt(real + math.fsum(np.square(values.imag).tolist()))


def normalize(x: StateVector) -> StateVector:
    n = norm(x)
    if n <= 1e-14:
        raise DegenerateStateError(f"cannot normalize state with norm {n}")
    return StateVector(x.layout, x.labels, x.values / n)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix with construction-time sanity checks."""

    dimension: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.dimension, self.dimension):
            raise ValueError(
                f"entries shape {entries.shape} does not match dimension {self.dimension}"
            )
        object.__setattr__(self, "entries", entries)

    def validate(self, tolerance: float = TOLERANCE) -> None:
        """Raise unless Hermitian, unit trace and PSD within tolerance."""
        hermitian_defect = np.max(np.abs(self.entries - self.entries.conj().T))
        if hermitian_defect > tolerance:
            raise ValueError(f"density matrix not Hermitian (defect {hermitian_defect:.3e})")
        trace_defect = abs(np.trace(self.entries) - 1.0)
        if trace_defect > tolerance:
            raise ValueError(f"density matrix trace off by {trace_defect:.3e}")
        lowest = float(np.min(np.linalg.eigvalsh(self.entries)))
        if lowest < -tolerance:
            raise ValueError(f"density matrix has eigenvalue {lowest:.3e} < 0")
