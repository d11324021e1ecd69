"""Composite states over named registers, stored as their support.

A layout names the subsystems (particle path, detectors, photons, observer
memories) and fixes their order.  A basis state is a row of per-register
labels.  A ``StateVector`` keeps only its support: a (k x registers) label
array whose rows are distinct and sorted lexicographically, first register
first, plus the k amplitudes.  That order is called flat-index order: it is
the order of the rows' mixed-radix numbers, first register most
significant; a run computes one only in ``analysis.reduced_density_matrix``.
Every state of a measurement chain has support N (one basis state per
version) whatever the dimension, so states cost O(support) and have no dense view.
A layout has no size bound of its own (its dimension is a Python integer);
a chain run is bounded by its register count, ``experiments.MAX_REGISTERS``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
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
DETECTOR_YES = 1

# Observer registers have levels {blank, message 1..N, mixed-record}.
# Level 0 is the "has not looked yet" state; the top level is reserved for
# the record "a non-classical mixture was perceived" and no builder in this
# package ever writes it -- that reservation is what the mixed-record checks
# probe.
OBSERVER_BLANK = 0

# The dtype of every label row and table; signed, so a negative label stays negative.
LABEL = np.int16

# Largest dimension ``SubsystemLayout.digit_values`` is built for.
DENSE_VIEW_CAP = 2**24
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


def is_message(levels, dimension):
    """Whether observer ``levels`` of a register of ``dimension`` levels are
    plain messages, neither blank nor mixed; elementwise on arrays."""
    return (levels != OBSERVER_BLANK) & (levels != mixed_record_level(dimension))


def message_name(level: int, dimension: int) -> str:
    """Human-readable name of an observer level ("blank", "M1", "mixed")."""
    if level == OBSERVER_BLANK:
        return "blank"
    if level == mixed_record_level(dimension):
        return "mixed"
    return f"M{level}"


@dataclass(frozen=True, slots=True)
class Register:
    name: str
    dimension: int
    role: str

    def __post_init__(self):
        if type(self.dimension) is not int:  # a numpy integer, a bool or no integer
            what = f"the dimension of register {self.name!r}"
            dimension = converted(what, self.dimension, operator.index, bool, "an integer")
            object.__setattr__(self, "dimension", dimension)


@dataclass(frozen=True, slots=True)
class SubsystemLayout:
    """Ordered registers of a composite space.  Layouts are immutable; all
    methods are pure.  Construction refuses (``ValueError``) no registers, a
    repeated name, a dimension that is no integer (a ``Register`` keeps a
    numpy one as ``int``) or is below 2 and an unknown role, and derives
    ``total_dimension``, the product of the register dimensions.  Each builds
    once its ``dimension_array``, the register dimensions to compare label
    rows against, and the role table ``at`` reads."""

    registers: tuple[Register, ...]
    total_dimension: int = field(init=False)
    dimension_array: np.ndarray = field(init=False, repr=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)
    _roles: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.registers:
            raise ValueError("layout needs at least one register")
        positions, roles = {}, {}  # name -> position, role -> positions
        for i, r in enumerate(self.registers):
            if r.name in positions:
                raise ValueError(f"duplicate register name {r.name!r}")
            if r.dimension < 2:
                raise ValueError(f"register {r.name!r} has dimension {r.dimension}, need >= 2")
            if r.role not in ROLES:
                raise ValueError(f"register {r.name!r} has unknown role {r.role!r}")
            positions[r.name] = i
            roles.setdefault(r.role, []).append(i)
        dimensions = self.dimensions()
        object.__setattr__(self, "total_dimension", math.prod(dimensions))
        object.__setattr__(self, "dimension_array", np.array(dimensions))
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_roles", roles)

    def require_same(self, other: "SubsystemLayout", caller: str) -> None:
        """``ValueError`` naming ``caller`` and the first register that
        differs, on both sides, unless ``other`` is this layout."""
        if other != self:
            pairs = enumerate(itertools.zip_longest(self.registers, other.registers))
            at, ours, theirs = next((i, a, b) for i, (a, b) in pairs if a != b)
            raise ValueError(
                f"{caller}: a layout of dimensions {self.dimensions()} does not match "
                f"the layout of dimensions {other.dimensions()}: register {at} is "
                f"{ours or 'missing'} against {theirs or 'missing'}"
            )

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

    def at(self, *roles: str) -> list[int]:
        """Positions of the registers with any of ``roles``, in layout order."""
        found = []
        for role in set(roles):
            found += self._roles.get(role, ())
        return sorted(found)

    def digit_values(self, name: str) -> np.ndarray:
        """Dense view: this register's digit at every flat index, refused
        above ``DENSE_VIEW_CAP``.

        No run path calls it.  It stays only because the benchmark's tracer
        hooks it, and goes when the benchmark drops that hook.
        """
        if self.total_dimension > DENSE_VIEW_CAP:
            raise CapacityError(
                f"refusing a dense view of dimension {self.total_dimension} "
                f"(cap {DENSE_VIEW_CAP})"
            )
        position = self.position(name)
        stride = math.prod(self.dimensions()[position + 1 :])
        return np.arange(self.total_dimension) // stride % self.registers[position].dimension

    def row(self, labels: Sequence[int] | Mapping[str, int]) -> np.ndarray:
        """Label row of the basis state with the given per-register labels, by
        name when they have ``keys`` (an ABC check would cache each new type)."""
        if hasattr(labels, "keys"):
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
        return label_array(digits)


def converted(name: str, value, convert, refused, kind: str):
    """``convert(value)``; ``ValueError`` naming ``name`` if ``value`` is one
    of the ``refused`` types or ``convert`` refuses it."""
    try:
        if not isinstance(value, refused):
            return convert(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def label_array(labels, copy: bool = False) -> np.ndarray:
    """``labels`` as ``LABEL`` (a copy if ``copy``); ``ValueError`` if a value would wrap."""
    given = np.asarray(labels)
    try:
        cast = given.astype(LABEL, copy=copy)
    except OverflowError:  # a Python int past 64 bits
        cast = None
    if cast is None or (given.dtype != LABEL and cast.tolist() != given.tolist()):
        raise ValueError(f"labels {given.min()}..{given.max()} do not fit {np.dtype(LABEL)}")
    return cast


def make_layout(registers: Iterable[tuple[str, int, str]]) -> SubsystemLayout:
    """The layout of ``(name, dimension, role)`` triples, in order; it refuses
    what ``SubsystemLayout`` refuses."""
    # tuple() of a list, unlike a generator, reuses a freed tuple: a lower peak.
    return SubsystemLayout(tuple([Register(name, dim, role) for name, dim, role in registers]))


@dataclass(frozen=True, slots=True)
class StateVector:
    """A state stored as its support: label rows and their amplitudes.

    ``labels`` is a (k x registers) ``LABEL`` array and ``values`` the k
    finite amplitudes, or a batch of states on those rows: one row of k
    amplitudes per member, shape (members x k).  Construction puts the rows in
    flat-index order and adds the amplitudes of repeated rows, along the
    last axis of ``values``, so equal states have equal arrays and each
    member of a batch equals the one-row state built from it.  Treat
    instances as immutable: every operation returns a fresh state.
    """

    layout: SubsystemLayout
    labels: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = label_array(self.labels)
        values = np.asarray(self.values, dtype=complex)
        registers = len(self.layout.registers)
        shaped = labels.ndim == 2 and labels.shape[1] == registers and values.ndim in (1, 2)
        if not shaped or values.shape[-1:] != labels.shape[:1]:
            raise ValueError(
                f"{labels.shape} label array with {values.shape} amplitudes does not "
                f"describe rows of {registers} registers"
            )
        if (labels < 0).any() or (labels >= self.layout.dimension_array).any():
            raise ValueError(f"label out of range for layout {self.layout.names()}")
        if not np.isfinite(values).all():
            raise ValueError("a state's amplitudes must be finite")
        rows, position = union_rows(labels)
        if rows is not labels:
            summed = np.zeros(values.shape[:-1] + (len(rows),), dtype=complex)
            np.add.at(summed, (..., position), values)
            values = summed
        object.__setattr__(self, "labels", rows)
        object.__setattr__(self, "values", values)


def union_rows(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a label array in flat-index order, and the position
    of each input row among them.

    The one row key: states, sections, overlaps, tables' distinct ``when``
    rows and their lookups all group rows here.  Sorting rows as lists
    (first register first) orders them by flat index without computing one;
    supports are small, so Python's sort is the cheapest way to do it.
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


def max_pair_overlap(
    relative: np.ndarray, owner: np.ndarray, values: np.ndarray
) -> float | list[float]:
    """Largest modulus, over owners a < b, of the sum of conj(v_i) * v_j over
    their rows i and j with equal ``relative`` label rows (0.0 if none).
    Only repeated relative rows are multiplied; each part is a ``math.fsum``
    of rounded products and the modulus their ``math.hypot``, so the result
    does not depend on row order.  For 2-D ``values``, one row of amplitudes
    per batch member, the pairs are found once and each row gets its own
    result, in a list."""
    _, group = union_rows(relative)
    owners, groups = owner.tolist(), group.tolist()
    shared = np.flatnonzero(np.bincount(group)[group] > 1).tolist()
    pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for _, rows in itertools.groupby(sorted(shared, key=groups.__getitem__), groups.__getitem__):
        for i, j in itertools.combinations(sorted(rows, key=owners.__getitem__), 2):
            if owners[i] != owners[j]:
                pairs.setdefault((owners[i], owners[j]), []).append((i, j))
    batch = np.atleast_2d(values)
    overlaps = [0.0] * len(batch)
    for pair in pairs.values():
        p, q = (batch[:, at] for at in np.array(pair).T)
        real = np.hstack([p.real * q.real, p.imag * q.imag]).tolist()
        imag = np.hstack([p.real * q.imag, -(p.imag * q.real)]).tolist()
        moduli = [math.hypot(math.fsum(r), math.fsum(i)) for r, i in zip(real, imag)]
        overlaps = list(map(max, overlaps, moduli))
    return overlaps if values.ndim == 2 else overlaps[0]


def read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through."""
    view = array.view()
    view.flags.writeable = False
    return view


def aligned(*states: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The union of the states' supports and their amplitudes on it.

    Returns the union's label rows in flat-index order and a (states x rows)
    array holding each state's amplitude there, zero off its support; for
    batched states, a (states x members x rows) array.
    """
    for state in states:
        states[0].layout.require_same(state.layout, "aligned")
    rows, position = union_rows(np.concatenate([state.labels for state in states]))
    leading = np.broadcast_shapes(*(state.values.shape[:-1] for state in states))
    table = np.zeros((len(states), *leading, len(rows)), dtype=complex)
    start = 0
    for index, state in enumerate(states):
        table[index][..., position[start : start + len(state.labels)]] = state.values
        start += len(state.labels)
    return rows, table


def product_state(
    layout: SubsystemLayout, labels: Sequence[int] | Mapping[str, int]
) -> StateVector:
    """Unit basis vector with every register in a definite level."""
    return StateVector(layout, layout.row(labels)[None, :], np.ones(1, dtype=complex))


def superpose(terms: Sequence[tuple[complex, StateVector]]) -> StateVector:
    """Componentwise linear combination, batched by array coefficients.  Not normalized."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    layout = terms[0][1].layout
    for _, state in terms:
        layout.require_same(state.layout, "superpose")
    return StateVector(
        layout,
        np.concatenate([state.labels for _, state in terms]),
        np.concatenate([np.multiply.outer(c, state.values) for c, state in terms], axis=-1),
    )


def norm(x: StateVector) -> float:
    return vector_norm(x.values)


def vector_norm(values: np.ndarray) -> float:
    """Euclidean norm of complex amplitudes.

    The squared real parts and the squared imaginary parts are each summed
    exactly (``math.fsum``), so the result does not depend on the order of
    the amplitudes or on zeros between them.
    """
    return vector_norms(values[None])[0]


def vector_norms(values: np.ndarray) -> list[float]:
    """``vector_norm`` of each row of a 2-D array of amplitudes, a row at a time."""
    rows = zip(np.square(values.real), np.square(values.imag))
    return [math.sqrt(math.fsum(r.tolist()) + math.fsum(i.tolist())) for r, i in rows]


def require_unit(values: np.ndarray, caller: str) -> None:
    """``ValueError`` unless the amplitudes ``values`` (each row of them, for
    a 2-D array) have norm 1 within 1e-9; a norm of NaN is not."""
    for total in vector_norms(np.atleast_2d(values)):
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"{caller} expects a unit state, norm is {total!r}")


def normalize(x: StateVector) -> StateVector:
    n = norm(x)
    if n <= 1e-14:
        raise DegenerateStateError(f"cannot normalize state with norm {n}")
    return StateVector(x.layout, x.labels, x.values / n)


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Dense density matrix: finite, Hermitian, of unit trace and positive
    semidefinite within ``TOLERANCE`` once built; it owns a read-only copy
    of its entries, so it stays so."""

    dimension: int
    entries: np.ndarray

    def __post_init__(self):
        entries = read_only(np.array(self.entries, dtype=complex))
        if entries.shape != (self.dimension, self.dimension) or not np.isfinite(entries).all():
            raise ValueError(
                f"entries {entries.shape} are not a finite {self.dimension}-square matrix"
            )
        hermitian_defect = np.max(np.abs(entries - entries.conj().T))
        if not hermitian_defect <= TOLERANCE:
            raise ValueError(f"density matrix not Hermitian (defect {hermitian_defect:.3e})")
        trace_defect = abs(np.trace(entries) - 1.0)
        if not trace_defect <= TOLERANCE:
            raise ValueError(f"density matrix trace off by {trace_defect:.3e}")
        lowest = float(np.min(np.linalg.eigvalsh(entries)))
        if not lowest >= -TOLERANCE:
            raise ValueError(f"density matrix has eigenvalue {lowest:.3e} < 0")
        object.__setattr__(self, "entries", entries)
