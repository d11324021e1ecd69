"""Construction and application of the evolution operators.

Every step of the measurement chain acts on one version's configuration at a
time: a control configuration selects a permutation, with phases, of one
target register that the control does not read.  Each step is therefore
defined once, as a ``ControlledRewrite`` table: control register positions,
the control rows (``when``) it acts on and, for each row, the target
position (or none), the image of each target level and the phase picked up
there.  A ``UnitaryOp`` is a sequence of such tables applied in order to the
(k x registers) label rows of a state, each table looking a row's control
labels up among its ``when`` rows, so it costs k x registers whatever its
entries or the dimension; ``compose`` concatenates the tables.

Applying an operator is two parts run in turn.  The label part
(``relabel``) reads only label rows: it gives the rows after the operator
and, per row, what its amplitude needs -- the phase picked up at each stage
of a permutation (``PermutedRows``), or the plane a rotated row shares with
its partner (``RotatedRows``).  The amplitude part (``amplitudes``)
multiplies by those phases in stage order, or mixes each plane in closed
form, along the last axis of the amplitudes.  ``apply_unitary`` runs both,
so one label part moves every row of a batched state (see ``StateVector``),
and one plane turns a state by many angles at once.

A table is unitary when its control positions are distinct and exclude
the target, its ``when`` rows are distinct and in range, every image is a
permutation and every phase has modulus 1: each control row then permutes,
with phases, the basis states it selects, and they stay selected.  Building
a table and an operator checks exactly that, in O(entries x levels)
whatever the dimension, so an operator that exists is unitary.

The mixed-basis rotation turns disjoint pairs of basis states within their
planes; a ``PairedRotation`` is those planes, the same at every angle, and
only its amplitude part takes the angle's cosine and sine.  It is unitary at
every angle by construction, so only permutations go through
``apply_unitary`` and ``compose``.

Convention: ``U e_x = phase(x) e_image(x)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .state import (
    DETECTOR_YES,
    LABEL,
    OBSERVER_BLANK,
    ROLE_DETECTOR,
    ROLE_OBSERVER,
    ROLE_PATH,
    ROLE_PHOTON,
    StateVector,
    SubsystemLayout,
    TOLERANCE,
    label_array,
    message_level,
    mixed_record_level,
    read_only,
    union_rows,
)

# Image of a two-level register that a rewrite flips.
FLIP = (1, 0)


@dataclass(frozen=True, eq=False, slots=True)
class ControlledRewrite:
    """One controlled rewrite of label rows.

    Entry e applies to the rows whose registers at ``control`` read
    ``when[e]``: it sends level l of register ``target[e]`` to
    ``image[e, l]`` and multiplies the amplitude by ``phase[e, l]``.  A
    target of -1 names no register; such an entry reads level 0 and only
    multiplies by its phase.  Rows that match no entry are left alone.
    ``target``, ``image`` and ``phase`` broadcast over the entries.  Every
    entry's target has ``image.shape[1]`` levels, counting a missing target
    as one level.  Construction keeps read-only copies (labels as ``LABEL``)
    and refuses (``ValueError``) labels that would wrap, repeated control
    positions, a target among them, repeated ``when`` rows, images that are
    not permutations and phases whose modulus is off 1 by over ``TOLERANCE``.
    """

    control: tuple[int, ...]
    when: np.ndarray
    target: np.ndarray
    image: np.ndarray
    phase: np.ndarray = 1.0

    def __post_init__(self):
        control = tuple(int(c) for c in self.control)
        when, image = (label_array(a, copy=True) for a in (self.when, self.image))
        phase = np.array(self.phase, dtype=complex)
        if when.ndim != 2 or when.shape[1] != len(control) or image.ndim != 2:
            raise ValueError(
                f"{when.shape} control rows and {image.shape} images do not describe a "
                f"table over {len(control)} control registers"
            )
        shape = (len(when), image.shape[1])
        when.flags.writeable = image.flags.writeable = False
        # Broadcast views are read-only, so every array is a read-only copy.
        for name, value in (
            ("control", control),
            ("when", when),
            ("target", np.broadcast_to(label_array(self.target, copy=True), shape[:1])),
            ("image", image if image.shape == shape else np.broadcast_to(image, shape)),
            ("phase", np.broadcast_to(phase, shape)),
        ):
            object.__setattr__(self, name, value)
        if len(set(control)) != len(control):
            raise ValueError(f"control positions {control} repeat a register")
        if not set(control).isdisjoint(self.target.tolist()):
            raise ValueError(f"a target in {self.target.tolist()} is among the controls {control}")
        if len(set(map(tuple, when.tolist()))) != len(when):
            raise ValueError(f"control rows repeat in a table over {control}")
        permutes = (np.sort(image, axis=1) == np.arange(shape[1])).all(axis=1)
        if not permutes.all():
            raise ValueError(f"image {image[~permutes][0].tolist()} is not a permutation")
        if (np.abs(np.abs(phase) - 1.0) > TOLERANCE).any():
            raise ValueError(f"a phase in a table over {control} has modulus other than 1")

    def _relabel(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows after the table and the phase each row picks up."""
        keys = labels[:, list(self.control)]
        if len(self.when) == 1:  # photon emission and the probes: one compare per row
            entry = np.where((keys == self.when[0]).all(axis=1), 0, -1)
        else:  # the ``when`` rows are distinct, so a row's key names at most one entry
            index = {key: e for e, key in enumerate(map(tuple, self.when.tolist()))}
            entry = np.array([index.get(key, -1) for key in map(tuple, keys.tolist())], int)
        row = np.flatnonzero(entry >= 0)
        entry = entry[row]
        target = self.target[entry].astype(np.intp)  # LABEL indices are cast per use
        moved = target >= 0
        level = np.where(moved, labels[row, target].astype(np.intp), 0)
        rows = labels.copy()
        rows[row[moved], target[moved]] = self.image[entry, level][moved]
        phases = np.ones(len(labels), dtype=complex)
        phases[row] = self.phase[entry, level]
        return rows, phases


# Keeps its __dict__: the benchmark's tracer reads every built operator's vars().
@dataclass(frozen=True)
class UnitaryOp:
    """Basis permutation with phases: controlled rewrites applied in order.

    ``U e_x = phase(x) e_image(x)``, where each stage rewrites the label row
    x in turn.  Operators are immutable once built and application is a pure
    function, so one operator may be applied from many threads at once.
    Construction refuses (``ValueError``) a stage with a position off the
    layout, a ``when`` digit out of range or images of the wrong width.
    """

    layout: SubsystemLayout
    provenance: str
    stages: tuple[ControlledRewrite, ...] = field(repr=False)

    def __post_init__(self):
        dimensions, n = self.layout.dimension_array, len(self.layout.registers)
        for stage in self.stages:
            control, targets = list(stage.control), stage.target.tolist()
            off = [p for p in control if not 0 <= p < n]
            off += [t for t in targets if not -1 <= t < n]
            if off:
                raise ValueError(f"position {off[0]} is off the layout's {n} registers")
            outside = (stage.when < 0) | (stage.when >= dimensions[control])
            if outside.any():
                entry, column = np.argwhere(outside)[0]
                name = self.layout.registers[control[column]].name
                raise ValueError(f"digit {stage.when[entry, column]} out of range for {name!r}")
            # A missing target (-1) has one level.
            levels = [int(dimensions[t]) if t >= 0 else 1 for t in targets]
            width = stage.image.shape[1]
            if any(level != width for level in levels):
                raise ValueError(f"{width}-level images for targets of {levels} levels")

    def relabel(self, labels: np.ndarray) -> "PermutedRows":
        """Label part: every stage's rewrite of ``labels``, and its phases."""
        phases = []
        for stage in self.stages:
            labels, phase = stage._relabel(labels)
            phases.append(phase)
        return PermutedRows(labels, tuple(phases))


# Keeps its __dict__: the benchmark's tracer reads every built operator's vars().
@dataclass(frozen=True)
class PairedRotation:
    """The planes ``(e_x1, e_x2)`` of a rotation, the same at every angle.

    ``fixed`` names register positions; x1 reads ``first`` there and x2
    reads ``second``, and the two agree everywhere else.  The rotation by
    the angle of cosine c and sine s (``RotatedRows.amplitudes``) sends
    ``e_x1`` to ``c e_x1 + s e_x2`` and ``e_x2`` to ``-s e_x1 + c e_x2``
    and fixes every other basis state.  Construction refuses any structure
    for which that is not unitary at every angle: repeated or out-of-range
    positions, labels out of range, or configurations that coincide.
    """

    layout: SubsystemLayout
    fixed: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        fixed, registers = list(self.fixed), len(self.layout.registers)
        if len(set(fixed)) != len(fixed) or not all(0 <= p < registers for p in fixed):
            raise ValueError(f"fixed positions {self.fixed} must be distinct registers")
        if not len(self.first) == len(self.second) == len(fixed):
            raise ValueError(f"{self.first} and {self.second} must read {len(fixed)} positions")
        configurations = label_array([self.first, self.second])
        if ((configurations < 0) | (configurations >= self.layout.dimension_array[fixed])).any():
            raise ValueError(f"configuration label out of range in {configurations.tolist()}")
        if tuple(self.first) == tuple(self.second):
            raise ValueError(f"{self.first} twice: a plane needs two distinct configurations")

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


@dataclass(frozen=True, eq=False, slots=True)
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


@dataclass(frozen=True, eq=False, slots=True)
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

    def amplitudes(self, values: np.ndarray, c, s) -> np.ndarray:
        """Amplitude part: rotate the amplitudes along the last axis of
        ``values`` on each plane by the angle of cosine ``c`` and sine ``s``
        (a missing member has amplitude zero).  All three broadcast: a column
        of cosines and sines gives one row of amplitudes per angle."""
        a, b = (np.where(at >= 0, values[..., at], 0) for at in self.members.T)
        turned = (c * a - s * b, s * a + c * b)
        kept = np.broadcast_to(values[..., self.kept], turned[0].shape[:-1] + self.kept.shape)
        return np.concatenate([kept, *turned], axis=-1)


def apply_unitary(op: UnitaryOp, x: StateVector) -> StateVector:
    if op.layout != x.layout:
        raise ValueError(
            f"operator on registers of dimensions {op.layout.dimensions()} does not "
            f"match state registers of dimensions {x.layout.dimensions()}"
        )
    moved = op.relabel(x.labels)
    return StateVector(x.layout, moved.rows, moved.amplitudes(x.values))


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


def _require_two_level(layout: SubsystemLayout, positions: Sequence[int], what: str) -> None:
    for register in (layout.registers[at] for at in positions):
        if register.dimension != 2:
            raise ValueError(f"{what} register {register.name!r} must be two-level")


def build_detection_unitary(layout: SubsystemLayout) -> UnitaryOp:
    """Controlled toggle: path level j flips detector j, identity elsewhere.

    The layout must carry one particle-path register of N levels and N
    two-level detector registers (in layout order).  The result is an
    involution.
    """
    paths, detectors = layout.at(ROLE_PATH), layout.at(ROLE_DETECTOR)
    if len(paths) != 1:
        found = [layout.registers[at].name for at in paths]
        raise ValueError(f"layout needs exactly one particle-path register, found {found}")
    n = layout.registers[paths[0]].dimension
    if len(detectors) != n:
        raise ValueError(
            f"path register has {n} levels but layout has {len(detectors)} detectors"
        )
    _require_two_level(layout, detectors, "detector")
    table = ControlledRewrite(paths, np.arange(n)[:, None], detectors, [FLIP])
    return UnitaryOp(layout, "detection", (table,))


def build_photon_emission_unitary(layout: SubsystemLayout) -> UnitaryOp:
    """Each activated detector flips its paired photon register.

    Detector j is paired with photon register j (layout order); counts must
    match.  Also an involution.
    """
    detectors, photons = layout.at(ROLE_DETECTOR), layout.at(ROLE_PHOTON)
    if not photons or len(photons) != len(detectors):
        raise ValueError(
            f"need one photon register per detector, found "
            f"{len(photons)} photons for {len(detectors)} detectors"
        )
    _require_two_level(layout, photons, "photon")
    stages = tuple(
        ControlledRewrite((detector,), [[DETECTOR_YES]], photon, [FLIP])
        for detector, photon in zip(detectors, photons)
    )
    return UnitaryOp(layout, "photon-emission", stages)


def standard_classical_configs(n_versions: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-hot record configurations, one row per version, and their
    message levels."""
    return np.eye(n_versions, dtype=LABEL), message_level(np.arange(n_versions))


def build_perception_unitary(
    layout: SubsystemLayout,
    classical_configs: tuple[np.ndarray, np.ndarray],
    allow_mixed_message: bool = False,
) -> UnitaryOp:
    """Every observer writes a message conditioned on the record configuration.

    ``classical_configs`` holds two arrays: record configurations, one row
    each, and their messages.  The record is read from the condition
    registers: the photons when the layout has any, the detectors otherwise.
    For configuration row c with message m, each observer's table (one per
    observer register, in layout order) transposes that observer's levels
    blank and m on basis states whose condition registers read exactly c; it
    is the identity on every other configuration and on every other observer
    level, in particular on the reserved mixed-record level.

    ``allow_mixed_message`` is the negative-control hook: it lifts the
    validation that no message may target the mixed-record level, so tests
    can prove the mixed-record checks are not vacuous.
    """
    observers = layout.at(ROLE_OBSERVER)
    if not observers:
        raise ValueError("layout has no observer register to perceive with")
    condition_at = layout.at(ROLE_PHOTON) or layout.at(ROLE_DETECTOR)
    if not condition_at:
        raise ValueError("no condition registers for perception")
    when, messages = (label_array(part) for part in classical_configs)
    if messages.ndim != 1 or when.shape != (messages.size, len(condition_at)):
        raise ValueError(
            f"{when.shape} configuration digits for {messages.shape} messages: need one row "
            f"of {len(condition_at)} digits per message, one per condition register"
        )
    n = messages.size
    if not n:
        raise ValueError("classical_configs is empty")

    tables = []
    for at in observers:
        obs = layout.registers[at]
        if obs.dimension < n + 2:
            raise ValueError(
                f"observer register {obs.name!r} has {obs.dimension} levels, "
                f"needs at least {n + 2} for {n} configurations"
            )
        top_message = mixed_record_level(obs.dimension) - (0 if allow_mixed_message else 1)
        unwritable = (messages < 1) | (messages > top_message)
        if unwritable.any():
            raise ValueError(
                f"message level {messages[unwritable][0]} out of writable range [1, {top_message}]"
            )
        # Each entry transposes blank with its message and fixes every other level.
        image = np.tile(np.arange(obs.dimension, dtype=LABEL), (n, 1))
        image[:, OBSERVER_BLANK] = messages
        image[np.arange(n), messages] = OBSERVER_BLANK
        tables.append(ControlledRewrite(condition_at, when, at, image))
    provenance = " . ".join(f"perception[{layout.registers[at].name}]" for at in observers[::-1])
    return UnitaryOp(layout, provenance, tuple(tables))


def build_basis_rotation(
    layout: SubsystemLayout, first: Sequence[int], second: Sequence[int]
) -> PairedRotation:
    """The planes of two configurations, one for every fixed observer label.

    The label rows ``first`` and ``second`` name the configurations by their
    non-observer labels; observer registers ride along untouched, so their
    labels are ignored and no written record is ever relabeled.  Writing
    ``|1>``, ``|2>`` for the two configurations and c, s for the cosine and
    sine of an angle, the rotation by that angle sends

        ``|1>`` to ``c |1> + s |2>`` and ``|2>`` to ``-s |1> + c |2>``,

    so it leaves amplitudes ``(a1 c - a2 s, a2 c + a1 s)`` on the plane of
    ``a1 |1> + a2 |2>``, and the rotation by the opposite angle undoes it.
    The planes are the same at every angle (see ``PairedRotation``).
    """
    fixed = layout.at(ROLE_PATH, ROLE_DETECTOR, ROLE_PHOTON)
    configurations = [tuple(layout.row(row)[fixed].tolist()) for row in (first, second)]
    return PairedRotation(layout, tuple(fixed), *configurations)
