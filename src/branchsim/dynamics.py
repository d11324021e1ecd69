"""Construction and application of the evolution operators.

Every step of the measurement chain acts on one version's configuration at a
time: a control configuration selects a permutation, with phases, of target
registers that the control does not read.  Each step is therefore defined
once, as a ``ControlledRewrite`` table: control positions, shared or one row
per entry (emission's entry j reads detector j), the control rows (``when``)
it acts on and, for each, the targets, the image of each target level and
the phase picked up there.  A ``UnitaryOp`` applies such tables in order, in
place, to one copy of the (k x registers) label rows of a state.  A table
looks a row's shared control labels up among its ``when`` rows, or compares
them entry by entry, so it costs k x registers or k x entries x controls
whatever the dimension; ``compose`` concatenates the tables.

Applying a permutation is two parts run in turn.  The label part
(``relabel``) reads only label rows: it gives the rows after the operator
and, per row, the product of the phases it picks up at the stages
(``PermutedRows``).  The amplitude part (``amplitudes``) multiplies by that
phase along the last axis of the amplitudes.  ``apply_unitary`` runs both,
so one label part moves every row of a batched state (see ``StateVector``).

A table is unitary when its control positions are distinct and exclude
the targets, each entry's targets are distinct, its ``when`` rows are
distinct (with a control row per entry, its registers are, and its phases
are 1), in range, every image is a permutation and every phase has modulus
1: each control row then permutes, with phases, the basis states it
selects, and they stay selected.  Building a table and an operator checks
exactly that, in O(entries x (levels + controls + targets)) whatever the
dimension, so an operator that exists is unitary.

The mixed-basis rotation turns disjoint pairs of basis states within their
planes; a ``PairedRotation`` is those planes, the same at every angle, and
its ``rotate`` turns a state on them in one call, by many angles at once.
It is unitary at every angle by construction, so only permutations go
through ``apply_unitary`` and ``compose``.

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

    Entry e applies to the rows whose registers at its control positions
    read ``when[e]``: it sends level l of each register in ``target[e]`` to
    ``image[e, l]`` and multiplies the amplitude by ``phase[e, l]``; an
    entry that only multiplies by a phase has the identity image.  Rows that
    match no entry are left alone.  ``control`` is one row of positions for
    every entry, or one row each; ``target`` (entries x targets; a scalar or
    1-D one is one column), ``image`` and ``phase`` broadcast over the
    entries.  Every target is a register of ``image.shape[1]`` levels.
    Construction keeps read-only copies (labels as ``LABEL``) and refuses
    (``ValueError``) labels that would wrap, repeated control positions, a
    target among them, repeated ``when`` rows, images that are not
    permutations and phases whose modulus is off 1 by over ``TOLERANCE``;
    with several targets, repeated ones and phases other than 1, so the
    table is its one-target tables applied in turn.  With a control row per
    entry, the positions and targets of all entries count as one table's,
    and ``when`` rows may repeat: entries touch disjoint registers, so
    several may fire on one row, and the table is its one-entry tables
    applied in turn.
    """

    control: np.ndarray
    when: np.ndarray
    target: np.ndarray
    image: np.ndarray
    phase: np.ndarray = 1.0

    def __post_init__(self):
        control = label_array(self.control, copy=True)
        when, image = (label_array(a, copy=True) for a in (self.when, self.image))
        phase = np.array(self.phase, dtype=complex)
        if when.ndim != 2 or control.shape not in (when.shape, when.shape[1:]) or image.ndim != 2:
            raise ValueError(
                f"{when.shape} control rows and {image.shape} images do not describe a "
                f"table over {control.shape} control positions"
            )
        shape, target = (len(when), image.shape[1]), label_array(self.target, copy=True)
        if target.ndim < 2:  # a scalar, or one target per entry
            target = target.reshape(-1, 1)
        control.flags.writeable = when.flags.writeable = image.flags.writeable = False
        # Broadcast views are read-only, so every array is a read-only copy.
        for name, value in (
            ("control", control),
            ("when", when),
            ("target", np.broadcast_to(target, (len(when), target.shape[1]))),
            ("image", image if image.shape == shape else np.broadcast_to(image, shape)),
            ("phase", np.broadcast_to(phase, shape)),
        ):
            object.__setattr__(self, name, value)
        # A table with a control row per entry has every register distinct and
        # phases of 1, so several of its entries may fire on one row.
        at, apart = control.ravel().tolist(), control.ndim == 2
        if len(set(at)) != len(at):
            raise ValueError(f"control positions {control.tolist()} repeat a register")
        if not set(at).isdisjoint(self.target.ravel().tolist()):
            raise ValueError(f"a target in {self.target.tolist()} is among the controls {at}")
        targets = self.target.reshape(1, -1) if apart else self.target
        if (apart or targets.shape[1] > 1) and (
            (np.diff(np.sort(targets), axis=1) == 0).any() or (self.phase != 1).any()
        ):
            raise ValueError("several targets must be distinct registers, with phases of 1")
        if not apart and len(set(map(tuple, when.tolist()))) != len(when):
            raise ValueError(f"control rows repeat in a table over {at}")
        permutes = (np.sort(image, axis=1) == np.arange(shape[1])).all(axis=1)
        if not permutes.all():
            raise ValueError(f"image {image[~permutes][0].tolist()} is not a permutation")
        if (np.abs(np.abs(phase) - 1.0) > TOLERANCE).any():
            raise ValueError(f"a phase in a table over {at} has modulus other than 1")

    def _relabel(self, rows: np.ndarray, phases: np.ndarray) -> None:
        """Rewrite the target cells of the matched ``rows`` and multiply their
        ``phases``, in place: no target is a control, and every level is read
        before a cell is written."""
        if self.control.ndim == 1 and len(self.when) > 1:  # a key names at most one entry
            index = {key: e for e, key in enumerate(map(tuple, self.when.tolist()))}
            keys = map(tuple, rows[:, self.control].tolist())
            entry = np.array([index.get(key, -1) for key in keys], int)
            row, entry = np.flatnonzero(entry >= 0), entry[entry >= 0]
        else:  # one compare per row and entry: photon emission and the probes
            row, entry = np.nonzero((rows[:, np.atleast_2d(self.control)] == self.when).all(axis=2))
        # Matches x targets cells; an entry's targets share its phases of 1, and
        # entries that fire on one row write disjoint cells with phases of 1.
        target = self.target[entry].astype(np.intp)  # LABEL indices cast per use
        level = rows[row[:, None], target].astype(np.intp)
        rows[row[:, None], target] = self.image[entry[:, None], level]
        phases[row] *= self.phase[entry, level[:, 0]]


# Keeps its __dict__: the benchmark's tracer reads every built operator's vars().
@dataclass(frozen=True)
class UnitaryOp:
    """Basis permutation with phases: controlled rewrites applied in order.

    ``U e_x = phase(x) e_image(x)``, where each stage rewrites the label row
    x in turn.  Operators are immutable once built and application is a pure
    function, so one operator may be applied from many threads at once.
    Construction refuses (``ValueError``) a stage with a position off the
    layout (-1 included), a ``when`` digit out of range or images of the
    wrong width.
    """

    layout: SubsystemLayout
    provenance: str
    stages: tuple[ControlledRewrite, ...] = field(repr=False)

    def __post_init__(self):
        dimensions, n = self.layout.dimension_array, len(self.layout.registers)
        for stage in self.stages:
            control, targets = stage.control, stage.target.ravel().tolist()
            off = [p for p in control.ravel().tolist() + targets if not 0 <= p < n]
            if off:
                raise ValueError(f"position {off[0]} is off the layout's {n} registers")
            outside = (stage.when < 0) | (stage.when >= dimensions[control])
            if outside.any():
                bad = tuple(np.argwhere(outside)[0])
                name = self.layout.registers[np.broadcast_to(control, outside.shape)[bad]].name
                raise ValueError(f"digit {stage.when[bad]} out of range for {name!r}")
            levels = [int(dimensions[t]) for t in targets]
            width = stage.image.shape[1]
            if any(level != width for level in levels):
                raise ValueError(f"{width}-level images for targets of {levels} levels")

    def relabel(self, labels: np.ndarray) -> "PermutedRows":
        """Label part: the stages in turn rewrite one copy of ``labels`` and
        multiply one phase per row."""
        rows, phases = labels.copy(), np.ones(len(labels), dtype=complex)
        for stage in self.stages:
            stage._relabel(rows, phases)
        return PermutedRows(rows, phases)


# Keeps its __dict__: the benchmark's tracer reads every built operator's vars().
@dataclass(frozen=True)
class PairedRotation:
    """The planes ``(e_x1, e_x2)`` of a rotation, the same at every angle.

    ``fixed`` names register positions; x1 reads ``first`` there and x2
    reads ``second``, and the two agree everywhere else.  The rotation by
    the angle of cosine c and sine s (``rotate``) sends
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

    def rotate(self, state: StateVector, c, s) -> StateVector:
        """``state`` turned on each plane by the angle of cosine ``c`` and
        sine ``s`` (a missing member has amplitude zero).  Both broadcast: a
        column of them gives one row of amplitudes per member of ``state``
        and angle, member-major.  ``ValueError`` for a state of another
        layout."""
        _require_layout(self, state)
        labels, fixed = state.labels, list(self.fixed)
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
        values, kept = state.values[..., None, :], np.flatnonzero(~moving)
        a, b = (np.where(at >= 0, values[..., at], 0) for at in members.T)
        turned = (c * a - s * b, s * a + c * b)
        rest = np.broadcast_to(values[..., kept], turned[0].shape[:-1] + kept.shape)
        values = np.concatenate([rest, *turned], axis=-1)
        rows = np.concatenate([labels[kept], planes, partners])
        return StateVector(self.layout, rows, values.reshape(-1, values.shape[-1]))


@dataclass(frozen=True, eq=False, slots=True)
class PermutedRows:
    """Label part of a permutation applied to some rows.

    ``rows`` are the rows after every stage, in input order, and
    ``phases[r]`` is the product, in stage order, of the phases row r picks
    up; every phase the package builds is 1 or -1, so multiplying by it
    rounds as multiplying stage by stage would.  The arrays are read-only
    views.  It stays apart from its amplitude part because the independence
    replay reads it on version rows no state merges, and an operator that is
    not a table of stages stands in through its own ``relabel``.
    """

    rows: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        for name in ("rows", "phases"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def amplitudes(self, values: np.ndarray) -> np.ndarray:
        """Amplitude part: ``values`` times each row's phase."""
        return values * self.phases


def _require_layout(op, x: StateVector) -> None:
    if op.layout != x.layout:
        raise ValueError(
            f"operator on registers of dimensions {op.layout.dimensions()} does not "
            f"match state registers of dimensions {x.layout.dimensions()}"
        )


def apply_unitary(op: UnitaryOp, x: StateVector) -> StateVector:
    if isinstance(op, PairedRotation):
        raise TypeError("a rotation turns a state by an angle: use PairedRotation.rotate")
    _require_layout(op, x)
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
    match.  One table whose entry j reads detector j alone, so it flips photon
    j also on rows where several detectors fired.  Also an involution.
    """
    detectors, photons = layout.at(ROLE_DETECTOR), layout.at(ROLE_PHOTON)
    if not photons or len(photons) != len(detectors):
        raise ValueError(
            f"need one photon register per detector, found "
            f"{len(photons)} photons for {len(detectors)} detectors"
        )
    _require_two_level(layout, photons, "photon")
    control = np.reshape(detectors, (-1, 1))  # one control row per entry
    table = ControlledRewrite(control, [[DETECTOR_YES]] * len(detectors), photons, [FLIP])
    return UnitaryOp(layout, "photon-emission", (table,))


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
    For configuration row c with message m, one table transposes every
    observer's levels blank and m on basis states whose condition registers
    read exactly c; it is the identity on every other configuration and on
    every other observer level, in particular on the reserved mixed-record
    level.  Observers of unequal sizes cannot share its images (``UnitaryOp``).

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

    obs = min((layout.registers[at] for at in observers), key=lambda register: register.dimension)
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
    table = ControlledRewrite(condition_at, when, [observers], image)
    provenance = " . ".join(f"perception[{layout.registers[at].name}]" for at in observers[::-1])
    return UnitaryOp(layout, provenance, (table,))


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
