"""Composite state vectors over named registers.

A layout names the subsystems (particle path, detectors, photons, observer
memories) and fixes the index arithmetic between flat amplitude indices and
per-register basis labels.  Flat indices are mixed-radix numbers with the
first register as the most significant digit, so index arithmetic is
deterministic and easy to check by hand.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

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

    def digit_values(self, name: str) -> np.ndarray:
        """Vector of this register's digit for every flat index."""
        pos = self.position(name)
        shape = [1] * len(self.registers)
        shape[pos] = self.registers[pos].dimension
        levels = np.arange(shape[pos]).reshape(shape)
        # Flattening the broadcast in C order enumerates the flat indices,
        # so no integer division is needed.
        return np.broadcast_to(levels, self.dimensions()).flatten()

    def label_offsets(self, names: Sequence[str]) -> np.ndarray:
        """Flat offsets of every joint label of the named registers.

        Every other register reads zero.  The offsets increase, so entry k
        belongs to the k-th joint label in mixed-radix order (registers in
        layout order).
        """
        offsets = np.zeros(1, dtype=int)
        for pos in sorted(self.position(name) for name in names):
            steps = np.arange(self.registers[pos].dimension) * self.strides[pos]
            offsets = (offsets[:, None] + steps[None, :]).ravel()
        return offsets

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
    """Complex amplitudes over the composite computational basis.

    Treat instances as immutable: every operation returns a fresh vector.
    """

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != self.layout.total_dimension:
            raise ValueError(
                f"amplitude array of length {amps.shape} does not match "
                f"layout dimension {self.layout.total_dimension}"
            )
        object.__setattr__(self, "amplitudes", amps)


def product_state(
    layout: SubsystemLayout, labels: Sequence[int] | Mapping[str, int]
) -> StateVector:
    """Unit basis vector with every register in a definite level."""
    amps = np.zeros(layout.total_dimension, dtype=complex)
    amps[layout.encode(labels)] = 1.0
    return StateVector(layout, amps)


def superpose(terms: Sequence[tuple[complex, StateVector]]) -> StateVector:
    """Componentwise linear combination.  Not normalized; callers decide."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    layout = terms[0][1].layout
    amps = np.zeros(layout.total_dimension, dtype=complex)
    for coefficient, state in terms:
        if state.layout != layout:
            raise ValueError("superpose terms must share one layout")
        amps += complex(coefficient) * state.amplitudes
    return StateVector(layout, amps)


def inner_product(x: StateVector, y: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if x.layout != y.layout:
        raise ValueError("inner product requires states on the same layout")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def norm(x: StateVector) -> float:
    return float(np.linalg.norm(x.amplitudes))


def normalize(x: StateVector) -> StateVector:
    n = norm(x)
    if n <= 1e-14:
        raise DegenerateStateError(f"cannot normalize state with norm {n}")
    return StateVector(x.layout, x.amplitudes / n)


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
