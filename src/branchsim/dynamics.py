"""Construction and application of the evolution operators.

Every step of the measurement chain acts on one version's configuration at a
time: a control configuration selects a permutation, with phases, of one
target register that the control does not read.  Each step is therefore
defined once, as a ``ControlledRewrite`` table: control register positions,
the control rows (``when``) it acts on and, for each row, the target
position (or none), the image of each target level and the phase picked up
there.  A ``UnitaryOp`` is a sequence of such tables applied in order to the
(k x registers) label rows of a state, so applying it touches only the
state's support; ``compose`` concatenates the tables.

Applying an operator is two parts run in turn.  The label part
(``relabel``) reads only label rows: it gives the rows after the operator
and, per row, what its amplitude needs -- the phase picked up at each stage
of a permutation (``PermutedRows``), or the plane a rotated row shares with
its partner (``RotatedRows``).  The amplitude part (``amplitudes``)
multiplies by those phases in stage order, or mixes each plane in closed
form.  ``apply_unitary`` runs both; a caller that applies one operator to
the same rows with many amplitudes or angles runs the label part once.

A table is unitary when its control positions are distinct and exclude
the target, its ``when`` rows are distinct and in range, every image is a
permutation and every phase has modulus 1: each control row then permutes,
with phases, the basis states it selects, and they stay selected.
``verify_unitary`` proves those conditions from the table alone, in
O(entries x levels) whatever the dimension.

The mixed-basis rotation turns disjoint pairs of basis states within their
planes; a ``PairedRotation`` stores the non-observer columns of two label
rows and one angle, and acts on the rows that read either configuration.

Convention: ``U e_x = phase(x) e_image(x)``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

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
    read_only,
    union_rows,
)

# Image of a two-level register that a rewrite flips.
FLIP = (1, 0)


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


@dataclass(frozen=True, eq=False)
class ControlledRewrite:
    """One controlled rewrite of label rows.

    Entry e applies to the rows whose registers at ``control`` read
    ``when[e]``: it sends level l of register ``target[e]`` to
    ``image[e, l]`` and multiplies the amplitude by ``phase[e, l]``.  A
    target of -1 names no register; such an entry reads level 0 and only
    multiplies by its phase.  Rows that match no entry are left alone.
    ``target``, ``image`` and ``phase`` broadcast over the entries.  Every
    entry's target has ``image.shape[1]`` levels, counting a missing target
    as one level.
    """

    control: tuple[int, ...]
    when: np.ndarray
    target: np.ndarray
    image: np.ndarray
    phase: np.ndarray = 1.0

    def __post_init__(self):
        when = np.asarray(self.when, dtype=np.int64)
        image = np.asarray(self.image, dtype=np.int64)
        if when.ndim != 2 or when.shape[1] != len(self.control) or image.ndim != 2:
            raise ValueError(
                f"{when.shape} control rows and {image.shape} images do not describe a "
                f"table over {len(self.control)} control registers"
            )
        shape = (len(when), image.shape[1])
        for name, value in (
            ("control", tuple(int(c) for c in self.control)),
            ("when", when),
            ("target", np.broadcast_to(np.asarray(self.target, dtype=np.int64), shape[:1])),
            ("image", np.broadcast_to(image, shape)),
            ("phase", np.broadcast_to(np.asarray(self.phase, dtype=complex), shape)),
        ):
            object.__setattr__(self, name, value)

    def _relabel(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows after the table and the phase each row picks up."""
        # At most one entry matches a row, since the ``when`` rows are distinct.
        row, entry = np.nonzero(
            (labels[:, None, list(self.control)] == self.when).all(axis=2)
        )
        target = self.target[entry]
        moved = target >= 0
        level = np.where(moved, labels[row, target], 0)
        rows = labels.copy()
        rows[row[moved], target[moved]] = self.image[entry, level][moved]
        phases = np.ones(len(labels), dtype=complex)
        phases[row] = self.phase[entry, level]
        return rows, phases

    def _unitarity_residual(self, dimensions: np.ndarray) -> float:
        """1 unless the table is well formed; else the worst ``||phase|^2 - 1|``."""
        control = np.array(self.control, dtype=np.int64)
        entries, levels = self.image.shape
        registers = len(dimensions)
        if not (
            ((control >= 0) & (control < registers)).all()
            and ((self.target >= -1) & (self.target < registers)).all()
        ):
            return 1.0
        target_levels = np.append(dimensions, 1)[self.target]
        if (
            len(set(self.control)) != len(self.control)
            or set(self.target.tolist()) & set(self.control)
            or ((self.when < 0) | (self.when >= dimensions[control])).any()
            or len(union_rows(self.when)[0]) != entries
            or (target_levels != levels).any()
            or not (np.sort(self.image, axis=1) == np.arange(levels)).all()
        ):
            return 1.0
        return float(np.max(np.abs(np.abs(self.phase) ** 2 - 1.0), initial=0.0))


@dataclass(frozen=True)
class UnitaryOp:
    """Basis permutation with phases: controlled rewrites applied in order.

    ``U e_x = phase(x) e_image(x)``, where each stage rewrites the label row
    x in turn.  Operators are immutable once built and application is a pure
    function, so one operator may be applied from many threads at once.
    """

    layout: SubsystemLayout
    provenance: str
    stages: tuple[ControlledRewrite, ...] = field(repr=False)

    def relabel(self, labels: np.ndarray) -> "PermutedRows":
        """Label part: every stage's rewrite of ``labels``, and its phases."""
        phases = []
        for stage in self.stages:
            labels, phase = stage._relabel(labels)
            phases.append(phase)
        return PermutedRows(labels, tuple(phases))

    def _apply(self, labels: np.ndarray, values: np.ndarray):
        moved = self.relabel(labels)
        return moved.rows, moved.amplitudes(values)

    def _unitarity_residual(self) -> float:
        dimensions = self.layout.dimension_array
        return max(
            (stage._unitarity_residual(dimensions) for stage in self.stages), default=0.0
        )


@dataclass(frozen=True)
class PairedRotation:
    """Rotation by ``theta`` in each plane ``(e_x1, e_x2)``.

    ``fixed`` names register positions; x1 reads ``first`` there and x2
    reads ``second``, and the two agree everywhere else.  Then
    ``U e_x1 = cos e_x1 + sin e_x2`` and ``U e_x2 = -sin e_x1 + cos e_x2``;
    every other basis state is fixed.  Unitary when the configurations
    differ and every label is in range.

    The label part ``relabel`` never reads ``theta``: rows rotated at one
    angle land on the rows of every angle, and only the amplitude part,
    ``RotatedRows.amplitudes``, takes the angle's cosine and sine.
    """

    layout: SubsystemLayout
    provenance: str
    fixed: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]
    theta: float

    def relabel(self, labels: np.ndarray) -> "RotatedRows":
        """Label part: the rows after the rotation, whatever the angle."""
        fixed = list(self.fixed)
        key = labels[:, fixed]
        in_first = (key == self.first).all(axis=1)
        in_second = (key == self.second).all(axis=1)
        moving = in_first | in_second
        planes = labels[moving]
        planes[:, fixed] = self.first
        planes, position = union_rows(planes)
        partners = planes.copy()
        partners[:, fixed] = self.second
        members = np.full((len(planes), 2), -1)
        members[position[in_first[moving]], 0] = np.flatnonzero(in_first)
        members[position[in_second[moving]], 1] = np.flatnonzero(in_second)
        return RotatedRows(
            np.concatenate([labels[~moving], planes, partners]), np.flatnonzero(~moving), members
        )

    def _apply(self, labels: np.ndarray, values: np.ndarray):
        turn = self.relabel(labels)
        return turn.rows, turn.amplitudes(values, np.cos(self.theta), np.sin(self.theta))

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


@dataclass(frozen=True, eq=False)
class PermutedRows:
    """Label part of a permutation applied to some rows.

    ``rows`` are the rows after every stage, in input order, and
    ``phases[i]`` holds the phase each row picks up at stage i.  The arrays
    are read-only views, so one label part can serve many amplitude parts.
    """

    rows: np.ndarray
    phases: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", read_only(self.rows))
        object.__setattr__(self, "phases", tuple(map(read_only, self.phases)))

    def amplitudes(self, values: np.ndarray) -> np.ndarray:
        """Amplitude part: ``values`` times each stage's phases, in stage order."""
        for phase in self.phases:
            values = values * phase
        return values


@dataclass(frozen=True, eq=False)
class RotatedRows:
    """Label part of a paired rotation applied to some rows.

    ``rows`` are the input rows at ``kept``, which read neither
    configuration, then one row per plane reading the first configuration,
    then its partner reading the second.  ``members[p]`` names the input
    rows on plane p that read the first and the second configuration, -1
    where the state has no such row.  The arrays are read-only views.
    """

    rows: np.ndarray
    kept: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        for name in ("rows", "kept", "members"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def amplitudes(self, values: np.ndarray, c: float, s: float) -> np.ndarray:
        """Amplitude part: rotate the amplitudes (rows of amplitudes, for a
        matrix) on each plane by the angle of cosine ``c`` and sine ``s``;
        a missing member has amplitude zero."""
        padded = np.zeros((len(values) + 1,) + values.shape[1:], dtype=complex)
        padded[:-1] = values
        a, b = padded[self.members[:, 0]], padded[self.members[:, 1]]
        return np.concatenate([values[self.kept], c * a - s * b, s * a + c * b])


def apply_unitary(op: UnitaryOp | PairedRotation, x: StateVector) -> StateVector:
    if op.layout != x.layout:
        raise ValueError(
            f"operator on registers of dimensions {op.layout.dimensions()} does not "
            f"match state registers of dimensions {x.layout.dimensions()}"
        )
    return StateVector(x.layout, *op._apply(x.labels, x.values))


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
    return UnitaryOp(
        first.layout, f"{second.provenance} . {first.provenance}", first.stages + second.stages
    )


def verify_unitary(
    op: UnitaryOp | PairedRotation, tolerance: float = TOLERANCE
) -> CheckResult:
    """Check ``U^dagger U = I``; the residual is ``max |U^dagger U - I|``.

    It is computed structurally: a permutation from its tables, a rotation
    from its configurations.  Either has residual 1 when its structure
    describes no unitary (a table rewriting its own control, repeating or
    leaving the space with a control row, or merging two levels; rotation
    configurations that coincide or leave the space).
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

    when = np.arange(n)[:, None]
    detector_at = [layout.position(name) for name in detectors]
    return UnitaryOp(
        layout,
        "detection",
        (ControlledRewrite((layout.position(paths[0]),), when, detector_at, [FLIP]),),
    )


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

    stages = tuple(
        ControlledRewrite(
            (layout.position(detector),), [[DETECTOR_YES]], layout.position(photon), [FLIP]
        )
        for detector, photon in zip(detectors, photons)
    )
    return UnitaryOp(layout, "photon-emission", stages)


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
    for config in classical_configs:
        if len(config) != len(condition_registers):
            raise ValueError(
                f"configuration {config} has {len(config)} digits for "
                f"{len(condition_registers)} condition registers"
            )
    condition_at = [layout.position(name) for name in condition_registers]
    when = np.array(list(classical_configs)).reshape(n, len(condition_at))
    outside = (when < 0) | (when >= layout.dimension_array[condition_at])
    if outside.any():
        entry, column = np.argwhere(outside)[0]
        raise ValueError(
            f"configuration digit {when[entry, column]} out of range for "
            f"{condition_registers[column]!r}"
        )
    messages = np.array(list(classical_configs.values()))
    unwritable = (messages < 1) | (messages > top_message)
    if unwritable.any():
        raise ValueError(
            f"message level {messages[unwritable][0]} out of writable range [1, {top_message}]"
        )

    # Each entry transposes blank with its message and fixes every other level.
    image = np.tile(np.arange(obs.dimension), (n, 1))
    image[:, OBSERVER_BLANK] = messages
    image[np.arange(n), messages] = OBSERVER_BLANK
    table = ControlledRewrite(condition_at, when, layout.position(observer_register), image)
    return UnitaryOp(layout, f"perception[{observer_register}]", (table,))


def build_basis_rotation(
    layout: SubsystemLayout, theta: float, first: Sequence[int], second: Sequence[int]
) -> PairedRotation:
    """Rotate the plane of two configurations for every fixed observer label.

    The label rows ``first`` and ``second`` name the configurations by their
    non-observer labels; observer registers ride along untouched, so their
    labels are ignored and no written record is ever relabeled.  Writing
    ``|1>``, ``|2>`` for the two configurations, the images are

        ``U |1> = cos(theta) |1> + sin(theta) |2>``
        ``U |2> = -sin(theta) |1> + cos(theta) |2>``

    so applying U to ``a1 |1> + a2 |2>`` leaves amplitudes
    ``(a1 cos - a2 sin, a2 cos + a1 sin)`` on the plane, and the inverse is
    the rotation by ``-theta``.
    """
    fixed = [i for i, r in enumerate(layout.registers) if r.role != ROLE_OBSERVER]
    configurations = [tuple(layout.row(row)[fixed].tolist()) for row in (first, second)]
    if configurations[0] == configurations[1]:
        raise ValueError("the rows must name two distinct non-observer configurations")

    return PairedRotation(
        layout, f"basis-rotation[theta={theta:g}]", tuple(fixed), *configurations, theta
    )
