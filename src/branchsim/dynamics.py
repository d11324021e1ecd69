"""Construction and application of the evolution operators.

Every step of the measurement chain is a controlled permutation of the
computational basis (detection toggles a detector conditioned on the path,
perception transposes an observer level conditioned on the record).  Each is
defined once, as a vectorized rule that rewrites label rows: a ``UnitaryOp``
maps every row of a (k x registers) label array to its image row and phase,
so applying it to a state touches only the state's support.  The mixed-basis
rotation turns disjoint pairs of basis states within their planes; a
``PairedRotation`` stores the two configurations of the registers it fixes
and one angle, and acts on the rows that read either configuration.

``UnitaryOp.perm``/``phases`` and ``to_matrix()`` are dense views for oracle
comparisons: the same rule evaluated on the label row of every basis state,
refused above ``state.DENSE_VIEW_CAP`` (``DENSE_DIMENSION_CAP`` for
matrices).  Nothing on the run path builds them.

Permutation convention: ``U e_i = phases[i] * e_perm[i]``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CapacityError
from .state import (
    DETECTOR_YES,
    OBSERVER_BLANK,
    ROLE_DETECTOR,
    ROLE_OBSERVER,
    ROLE_PATH,
    ROLE_PHOTON,
    StateVector,
    SubsystemLayout,
    TOLERANCE,
    message_level,
    mixed_record_level,
    union_rows,
)

# Dense matrices only below this dimension, for oracle comparisons.
DENSE_DIMENSION_CAP = 4096

# A label rule maps a (k x registers) label array to the image rows and the
# k phases; it never writes to its argument.
LabelRule = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification: residual against a tolerance."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    skipped: bool = False
    detail: str = ""

    @classmethod
    def from_residual(
        cls, name: str, residual: float, tolerance: float, detail: str = ""
    ) -> "CheckResult":
        return cls(name, residual <= tolerance, float(residual), tolerance, False, detail)

    @classmethod
    def skip(cls, name: str, detail: str) -> "CheckResult":
        return cls(name, True, 0.0, 0.0, True, detail)


def unit_phases(labels: np.ndarray) -> np.ndarray:
    return np.ones(len(labels), dtype=complex)


@dataclass(frozen=True)
class UnitaryOp:
    """Basis permutation with phases, defined by a rule on label rows.

    ``rule`` sends each row x to ``(perm(x), phase(x))``, meaning
    ``U e_x = phase(x) e_perm(x)``; ``inverse`` is the rule of the adjoint,
    or None when unknown.  Operators are immutable once built and
    application is a pure function, so one operator may be applied from
    many threads at once.
    """

    layout: SubsystemLayout
    provenance: str
    rule: LabelRule = field(repr=False)
    inverse: LabelRule | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.layout.total_dimension

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        rows, phases = self.rule(self.layout.basis_labels())
        return self.layout.flat_indices(rows), phases

    @property
    def perm(self) -> np.ndarray:
        """Dense view: the image flat index of every flat index."""
        return self._dense[0]

    @property
    def phases(self) -> np.ndarray:
        """Dense view: the phase picked up by every flat index."""
        return self._dense[1]

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator (capped at DENSE_DIMENSION_CAP)."""
        _require_dense_matrix(self.dimension)
        m = np.zeros((self.dimension, self.dimension), dtype=complex)
        m[self.perm, np.arange(self.dimension)] = self.phases
        return m

    def adjoint(self) -> "UnitaryOp":
        if self.inverse is None:
            raise ValueError(f"operator {self.provenance!r} has no known inverse rule")
        return UnitaryOp(
            self.layout, f"adjoint({self.provenance})", self.inverse, self.rule
        )

    def _apply(self, labels: np.ndarray, values: np.ndarray):
        rows, phases = self.rule(labels)
        return rows, phases * values

    def _unitarity_residual(self) -> float:
        residual = float(np.max(np.abs(np.abs(self.phases) ** 2 - 1.0)))
        counts = np.bincount(self.perm, minlength=self.dimension)
        if np.any(counts != 1):
            # Colliding columns i, j give |(U^dagger U)[i, j]| = |p_i p_j|.
            for target in np.flatnonzero(counts > 1):
                mags = np.sort(np.abs(self.phases[self.perm == target]))
                residual = max(residual, float(mags[-1] * mags[-2]))
        return residual


def _require_dense_matrix(dimension: int) -> None:
    if dimension > DENSE_DIMENSION_CAP:
        raise CapacityError(
            f"refusing dense {dimension}x{dimension} matrix (cap {DENSE_DIMENSION_CAP})"
        )


@dataclass(frozen=True)
class PairedRotation:
    """Rotation by ``theta`` in each plane ``(e_x1, e_x2)``.

    ``fixed`` names register positions; x1 reads ``first`` there and x2
    reads ``second``, and the two agree everywhere else.  Then
    ``U e_x1 = cos e_x1 + sin e_x2`` and ``U e_x2 = -sin e_x1 + cos e_x2``;
    every other basis state is fixed.  Unitary when the configurations
    differ and every label is in range.
    """

    layout: SubsystemLayout
    provenance: str
    fixed: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]
    theta: float

    @property
    def dimension(self) -> int:
        return self.layout.total_dimension

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator (capped at DENSE_DIMENSION_CAP)."""
        _require_dense_matrix(self.dimension)
        rows, columns = self._apply(
            self.layout.basis_labels(), np.eye(self.dimension, dtype=complex)
        )
        m = np.zeros((self.dimension, self.dimension), dtype=complex)
        m[self.layout.flat_indices(rows)] = columns
        return m

    def adjoint(self) -> "PairedRotation":
        return replace(self, provenance=f"adjoint({self.provenance})", theta=-self.theta)

    def _apply(self, labels: np.ndarray, values: np.ndarray):
        """Rotate the amplitudes (rows of amplitudes, for a matrix) on each
        plane in closed form; a missing partner row has amplitude zero."""
        fixed = list(self.fixed)
        key = labels[:, fixed]
        in_first = (key == self.first).all(axis=1)
        in_second = (key == self.second).all(axis=1)
        moving = in_first | in_second
        planes = labels[moving]
        planes[:, fixed] = self.first
        planes, position = union_rows(planes)
        a = np.zeros((len(planes),) + values.shape[1:], dtype=complex)
        b = np.zeros_like(a)
        a[position[in_first[moving]]] = values[in_first]
        b[position[in_second[moving]]] = values[in_second]
        c, s = np.cos(self.theta), np.sin(self.theta)
        partners = planes.copy()
        partners[:, fixed] = self.second
        rows = np.concatenate([labels[~moving], planes, partners])
        return rows, np.concatenate([values[~moving], c * a - s * b, s * a + c * b])

    def _unitarity_residual(self) -> float:
        dims = np.array(self.layout.dimensions())[list(self.fixed)]
        configurations = np.array([self.first, self.second])
        if (
            len(set(self.fixed)) != len(self.fixed)
            or configurations.shape != (2, dims.size)
            or np.any((configurations < 0) | (configurations >= dims))
            or tuple(self.first) == tuple(self.second)
        ):
            return 1.0
        return float(abs(np.cos(self.theta) ** 2 + np.sin(self.theta) ** 2 - 1.0))


def identity(layout: SubsystemLayout) -> UnitaryOp:
    rule = lambda labels: (labels, unit_phases(labels))
    return UnitaryOp(layout, "identity", rule, rule)


def apply_unitary(op: UnitaryOp | PairedRotation, x: StateVector) -> StateVector:
    if op.layout != x.layout:
        raise ValueError(
            f"operator on registers of dimensions {op.layout.dimensions()} does not "
            f"match state registers of dimensions {x.layout.dimensions()}"
        )
    return StateVector(x.layout, *op._apply(x.labels, x.values))


def _chain(first: LabelRule, second: LabelRule) -> LabelRule:
    def rule(labels):
        middle, phases = first(labels)
        rows, more = second(middle)
        return rows, phases * more

    return rule


def compose(second: UnitaryOp, first: UnitaryOp) -> UnitaryOp:
    """Permutation equal to applying ``first`` and then ``second``."""
    for op in (second, first):
        if not isinstance(op, UnitaryOp):
            raise TypeError(f"compose takes permutation operators only, got {op!r}")
    if second.layout != first.layout:
        raise ValueError(
            f"cannot compose operators on dimensions {second.layout.dimensions()} "
            f"and {first.layout.dimensions()}"
        )
    inverse = None
    if first.inverse is not None and second.inverse is not None:
        inverse = _chain(second.inverse, first.inverse)
    return UnitaryOp(
        first.layout,
        f"{second.provenance} . {first.provenance}",
        _chain(first.rule, second.rule),
        inverse,
    )


def verify_unitary(
    op: UnitaryOp | PairedRotation, tolerance: float = TOLERANCE
) -> CheckResult:
    """Check ``U^dagger U = I``; the residual is ``max |U^dagger U - I|``.

    It is computed structurally: a permutation through its dense view, a
    rotation from its configurations, which have residual 1 when they
    coincide or leave the space.
    """
    return CheckResult.from_residual(
        f"unitary[{op.provenance}]", op._unitarity_residual(), tolerance
    )


def _role_registers(layout: SubsystemLayout, role: str) -> list[str]:
    return [r.name for r in layout.by_role(role)]


def _require_two_level(layout: SubsystemLayout, names: Sequence[str], what: str) -> None:
    for name in names:
        if layout.register(name).dimension != 2:
            raise ValueError(f"{what} register {name!r} must be two-level")


def build_detection_unitary(layout: SubsystemLayout) -> UnitaryOp:
    """Controlled toggle: path level j flips detector j, identity elsewhere.

    The layout must carry one particle-path register of N levels and N
    two-level detector registers (in layout order).  The result is an
    involution.
    """
    paths = _role_registers(layout, ROLE_PATH)
    detectors = _role_registers(layout, ROLE_DETECTOR)
    if len(paths) != 1:
        raise ValueError(f"layout needs exactly one particle-path register, found {paths}")
    n = layout.register(paths[0]).dimension
    if len(detectors) != n:
        raise ValueError(
            f"path register has {n} levels but layout has {len(detectors)} detectors"
        )
    _require_two_level(layout, detectors, "detector")

    path = layout.position(paths[0])
    detector_at = np.array([layout.position(name) for name in detectors])

    def detect(labels):
        rows = labels.copy()
        hit = (np.arange(len(rows)), detector_at[labels[:, path]])
        rows[hit] = 1 - rows[hit]
        return rows, unit_phases(labels)

    return UnitaryOp(layout, "detection", detect, detect)


def build_photon_emission_unitary(layout: SubsystemLayout) -> UnitaryOp:
    """Each activated detector flips its paired photon register.

    Detector j is paired with photon register j (layout order); counts must
    match.  Also an involution.
    """
    detectors = _role_registers(layout, ROLE_DETECTOR)
    photons = _role_registers(layout, ROLE_PHOTON)
    if not photons or len(photons) != len(detectors):
        raise ValueError(
            f"need one photon register per detector, found "
            f"{len(photons)} photons for {len(detectors)} detectors"
        )
    _require_two_level(layout, photons, "photon")

    detector_at = [layout.position(name) for name in detectors]
    photon_at = [layout.position(name) for name in photons]

    def emit(labels):
        rows = labels.copy()
        fired = labels[:, detector_at] == DETECTOR_YES
        rows[:, photon_at] = np.where(fired, 1 - labels[:, photon_at], labels[:, photon_at])
        return rows, unit_phases(labels)

    return UnitaryOp(layout, "photon-emission", emit, emit)


def standard_classical_configs(n_versions: int) -> dict[tuple[int, ...], int]:
    """One-hot record configurations mapped to their message levels."""
    configs = {}
    for j in range(n_versions):
        key = tuple(1 if k == j else 0 for k in range(n_versions))
        configs[key] = message_level(j)
    return configs


def build_perception_unitary(
    layout: SubsystemLayout,
    observer_register: str,
    classical_configs: Mapping[tuple[int, ...], int],
    condition_registers: Sequence[str] | None = None,
    allow_mixed_message: bool = False,
) -> UnitaryOp:
    """Write a message conditioned on the record configuration.

    For each entry ``config -> m`` the operator transposes the observer
    levels blank and m on basis states whose condition registers (detectors
    by default, photons when a photon model conditions on them) read exactly
    ``config``; it is the identity on every other configuration and on every
    other observer level, in particular on the reserved mixed-record level.

    ``allow_mixed_message`` is the negative-control hook: it lifts the
    validation that no message may target the mixed-record level, so tests
    can prove the mixed-record checks are not vacuous.
    """
    obs = layout.register(observer_register)
    if obs.role != ROLE_OBSERVER:
        raise ValueError(f"register {observer_register!r} has role {obs.role!r}, not observer")
    if condition_registers is None:
        condition_registers = _role_registers(layout, ROLE_DETECTOR)
    if not condition_registers:
        raise ValueError("no condition registers for perception")
    if not classical_configs:
        raise ValueError("classical_configs is empty")
    n = len(classical_configs)
    if obs.dimension < n + 2:
        raise ValueError(
            f"observer register {observer_register!r} has {obs.dimension} levels, "
            f"needs at least {n + 2} for {n} configurations"
        )

    top_message = mixed_record_level(obs.dimension) - 1
    if allow_mixed_message:
        top_message = mixed_record_level(obs.dimension)
    for config, message in classical_configs.items():
        if len(config) != len(condition_registers):
            raise ValueError(
                f"configuration {config} has {len(config)} digits for "
                f"{len(condition_registers)} condition registers"
            )
        for name, digit in zip(condition_registers, config):
            if not 0 <= digit < layout.register(name).dimension:
                raise ValueError(f"configuration digit {digit} out of range for {name!r}")
        if not 1 <= message <= top_message:
            raise ValueError(
                f"message level {message} out of writable range [1, {top_message}]"
            )
    if len(set(classical_configs.keys())) != n:
        raise ValueError("classical configurations must be distinct")

    observer = layout.position(observer_register)
    condition_at = [layout.position(name) for name in condition_registers]
    configs = np.array(list(classical_configs), dtype=np.int64)
    messages = np.array(list(classical_configs.values()), dtype=np.int64)

    def perceive(labels):
        hits = (labels[:, None, condition_at] == configs[None]).all(axis=2)
        recorded = hits.any(axis=1)
        message = messages[hits.argmax(axis=1)]
        level = labels[:, observer]
        rows = labels.copy()
        rows[:, observer] = np.where(
            recorded & (level == OBSERVER_BLANK),
            message,
            np.where(recorded & (level == message), OBSERVER_BLANK, level),
        )
        return rows, unit_phases(labels)

    return UnitaryOp(layout, f"perception[{observer_register}]", perceive, perceive)


@dataclass(frozen=True)
class BasisRotation:
    """Planar rotation bridging two product configurations.

    ``span`` gives the two configurations (labels for every non-observer
    register) whose plane is rotated by ``theta``; observer registers ride
    along untouched, so the rotation never relabels any written record.
    """

    theta: float
    span: tuple[Mapping[str, int], Mapping[str, int]]


def build_basis_rotation(
    layout: SubsystemLayout, rotation: BasisRotation
) -> PairedRotation:
    """Rotate the two-dimensional span for every fixed observer label.

    Writing ``|1>``, ``|2>`` for the span configurations, the images are

        ``U |1> = cos(theta) |1> + sin(theta) |2>``
        ``U |2> = -sin(theta) |1> + cos(theta) |2>``

    so applying U to ``a1 |1> + a2 |2>`` leaves amplitudes
    ``(a1 cos - a2 sin, a2 cos + a1 sin)`` on the plane, and the inverse is
    the rotation by ``-theta``.
    """
    observers = {r.name for r in layout.by_role(ROLE_OBSERVER)}
    fixed = [name for name in layout.names() if name not in observers]
    configurations = []
    for tag, labels in zip(("first", "second"), rotation.span):
        if set(labels) != set(fixed):
            raise ValueError(
                f"{tag} span labels must cover exactly the non-observer registers "
                f"{sorted(fixed)}, got {sorted(labels)}"
            )
        row = layout.row({**labels, **dict.fromkeys(observers, OBSERVER_BLANK)})
        configurations.append(tuple(int(row[layout.position(name)]) for name in fixed))
    if configurations[0] == configurations[1]:
        raise ValueError("span labels must name two distinct configurations")

    return PairedRotation(
        layout,
        f"basis-rotation[theta={rotation.theta:g}]",
        fixed=tuple(layout.position(name) for name in fixed),
        first=configurations[0],
        second=configurations[1],
        theta=rotation.theta,
    )


def level_cycle(layout: SubsystemLayout, register: str, shift: int = 1) -> UnitaryOp:
    """Cyclically shift one register's levels; identity on all others."""
    pos = layout.position(register)
    levels = layout.register(register).dimension

    def cycle_by(step):
        def rule(labels):
            rows = labels.copy()
            rows[:, pos] = (labels[:, pos] + step) % levels
            return rows, unit_phases(labels)

        return rule

    return UnitaryOp(
        layout, f"level-cycle[{register}+{shift}]", cycle_by(shift), cycle_by(-shift)
    )
