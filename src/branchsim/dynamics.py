"""Construction and application of the evolution operators.

Every step of the measurement chain is a controlled permutation of the
computational basis (detection toggles a detector conditioned on the path,
perception transposes an observer level conditioned on the record), stored
as a permutation with phases (``UnitaryOp``).  The mixed-basis rotation
turns disjoint pairs of basis states within their planes and is stored as
the index pairs and one angle (``PairedRotation``).  Neither is ever dense;
``to_matrix`` serves small oracle comparisons.

Permutation convention: ``U e_i = phases[i] * e_perm[i]``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

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
)

# Dense matrices only below this dimension, for oracle comparisons.
DENSE_DIMENSION_CAP = 4096


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


@dataclass(frozen=True)
class UnitaryOp:
    """Basis permutation with phases on the composite space.

    ``U e_i = phases[i] * e_perm[i]``.  Operators are immutable once built
    and application is a pure function, so one operator may be applied from
    many threads at once.
    """

    dimension: int
    provenance: str
    perm: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.perm.shape != (self.dimension,) or self.phases.shape != (self.dimension,):
            raise ValueError("perm/phases length must equal dimension")

    @classmethod
    def permutation(cls, provenance: str, perm: np.ndarray) -> "UnitaryOp":
        """Basis permutation with unit phases."""
        return cls(perm.size, provenance, perm=perm, phases=np.ones(perm.size, dtype=complex))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator (capped at DENSE_DIMENSION_CAP)."""
        if self.dimension > DENSE_DIMENSION_CAP:
            raise CapacityError(
                f"refusing dense {self.dimension}x{self.dimension} matrix "
                f"(cap {DENSE_DIMENSION_CAP})"
            )
        m = np.zeros((self.dimension, self.dimension), dtype=complex)
        m[self.perm, np.arange(self.dimension)] = self.phases
        return m

    def adjoint(self) -> "UnitaryOp":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.dimension)
        inv_phases = np.empty_like(self.phases)
        inv_phases[self.perm] = np.conj(self.phases)
        return UnitaryOp(
            self.dimension, f"adjoint({self.provenance})", perm=inv, phases=inv_phases
        )

    def _apply(self, amplitudes: np.ndarray) -> np.ndarray:
        out = np.zeros_like(amplitudes)
        out[self.perm] = self.phases * amplitudes
        return out

    def _unitarity_residual(self) -> float:
        residual = float(np.max(np.abs(np.abs(self.phases) ** 2 - 1.0)))
        counts = np.bincount(self.perm, minlength=self.dimension)
        if np.any(counts != 1):
            # Colliding columns i, j give |(U^dagger U)[i, j]| = |p_i p_j|.
            for target in np.flatnonzero(counts > 1):
                mags = np.sort(np.abs(self.phases[self.perm == target]))
                residual = max(residual, float(mags[-1] * mags[-2]))
        return residual


@dataclass(frozen=True)
class PairedRotation:
    """Rotation by ``theta`` in each plane ``(e_first[k], e_second[k])``.

    ``U e_first[k] = cos e_first[k] + sin e_second[k]`` and
    ``U e_second[k] = -sin e_first[k] + cos e_second[k]``; every other basis
    state is fixed.  Unitary when the pairs are disjoint and in range.
    """

    dimension: int
    provenance: str
    first: np.ndarray = field(repr=False)
    second: np.ndarray = field(repr=False)
    theta: float

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator (capped at DENSE_DIMENSION_CAP)."""
        return self._apply(identity(self.dimension).to_matrix())

    def adjoint(self) -> "PairedRotation":
        return replace(self, provenance=f"adjoint({self.provenance})", theta=-self.theta)

    def _apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Rotate the paired entries (rows, for a matrix) in closed form."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        a, b = amplitudes[self.first], amplitudes[self.second]
        out = amplitudes.copy()
        out[self.first] = c * a - s * b
        out[self.second] = s * a + c * b
        return out

    def _unitarity_residual(self) -> float:
        paired = np.concatenate([self.first, self.second])
        in_range = np.all((paired >= 0) & (paired < self.dimension))
        if not in_range or np.unique(paired).size != paired.size:
            return 1.0
        return float(abs(np.cos(self.theta) ** 2 + np.sin(self.theta) ** 2 - 1.0))


def identity(dimension: int) -> UnitaryOp:
    return UnitaryOp.permutation("identity", np.arange(dimension))


def apply_unitary(op: UnitaryOp | PairedRotation, x: StateVector) -> StateVector:
    if op.dimension != x.layout.total_dimension:
        raise ValueError(
            f"operator dimension {op.dimension} does not match "
            f"state dimension {x.layout.total_dimension}"
        )
    return StateVector(x.layout, op._apply(x.amplitudes))


def compose(second: UnitaryOp, first: UnitaryOp) -> UnitaryOp:
    """Permutation equal to applying ``first`` and then ``second``."""
    for op in (second, first):
        if not isinstance(op, UnitaryOp):
            raise TypeError(f"compose takes permutation operators only, got {op!r}")
    if second.dimension != first.dimension:
        raise ValueError(
            f"cannot compose dimensions {second.dimension} and {first.dimension}"
        )
    provenance = f"{second.provenance} . {first.provenance}"
    perm = second.perm[first.perm]
    phases = first.phases * second.phases[first.perm]
    return UnitaryOp(first.dimension, provenance, perm=perm, phases=phases)


def verify_unitary(
    op: UnitaryOp | PairedRotation, tolerance: float = TOLERANCE
) -> CheckResult:
    """Check ``U^dagger U = I``; the residual is ``max |U^dagger U - I|``.

    It is computed structurally, so there is no dimension limit; a rotation
    whose pairs overlap or leave the space has residual 1.
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

    path_digit = layout.digit_values(paths[0])
    perm = np.arange(layout.total_dimension)
    for j, det in enumerate(detectors):
        mask = path_digit == j
        digit = layout.digit_values(det)
        stride = layout.strides[layout.position(det)]
        perm[mask] += (1 - 2 * digit[mask]) * stride
    return UnitaryOp.permutation("detection", perm)


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

    perm = np.arange(layout.total_dimension)
    for det, ph in zip(detectors, photons):
        mask = layout.digit_values(det) == DETECTOR_YES
        digit = layout.digit_values(ph)
        stride = layout.strides[layout.position(ph)]
        perm[mask] += (1 - 2 * digit[mask]) * stride
    return UnitaryOp.permutation("photon-emission", perm)


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

    obs_digit = layout.digit_values(observer_register)
    obs_stride = layout.strides[layout.position(observer_register)]
    condition_digits = [layout.digit_values(name) for name in condition_registers]

    perm = np.arange(layout.total_dimension)
    for config, message in classical_configs.items():
        mask = np.ones(layout.total_dimension, dtype=bool)
        for digits, wanted in zip(condition_digits, config):
            mask &= digits == wanted
        perm[mask & (obs_digit == OBSERVER_BLANK)] += message * obs_stride
        perm[mask & (obs_digit == message)] -= message * obs_stride
    return UnitaryOp.permutation(f"perception[{observer_register}]", perm)


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
    observers = [r.name for r in layout.by_role(ROLE_OBSERVER)]
    expected = set(layout.names()) - set(observers)
    offsets = []
    for tag, labels in zip(("first", "second"), rotation.span):
        if set(labels) != expected:
            raise ValueError(
                f"{tag} span labels must cover exactly the non-observer registers "
                f"{sorted(expected)}, got {sorted(labels)}"
            )
        offsets.append(layout.encode({**labels, **dict.fromkeys(observers, OBSERVER_BLANK)}))
    if offsets[0] == offsets[1]:
        raise ValueError("span labels must name two distinct configurations")

    obs_offsets = layout.label_offsets(observers)
    return PairedRotation(
        layout.total_dimension,
        f"basis-rotation[theta={rotation.theta:g}]",
        first=offsets[0] + obs_offsets,
        second=offsets[1] + obs_offsets,
        theta=rotation.theta,
    )


def level_cycle(layout: SubsystemLayout, register: str, shift: int = 1) -> UnitaryOp:
    """Cyclically shift one register's levels; identity on all others."""
    reg = layout.register(register)
    digit = layout.digit_values(register)
    stride = layout.strides[layout.position(register)]
    new_digit = (digit + shift) % reg.dimension
    perm = np.arange(layout.total_dimension) + (new_digit - digit) * stride
    return UnitaryOp.permutation(f"level-cycle[{register}+{shift}]", perm)
