"""The measurement-chain experiments and their certification checks.

A run prepares a path superposition in front of an armed detector bank,
evolves it through the step operator (detection, optional photon emission,
one perception step per observer) and decomposes the result into branches:
one coefficient and one relative state per record label.  The checks
certify the package's core claims on the finished state -- the branch
structure is exactly the weighted sum of single-version outcomes, branches
are mutually orthogonal, no observer register ever holds the mixed-record
level, observers agree, removing other branches does not change a branch's
evolution, and perturbing one branch cannot signal another.

The step operator is compiled once per chain configuration
(``compile_chain``): the layout, the record stages (detection, then photon
emission) composed into one permutation, and every observer's perception
stage composed into another.  Every run, coefficient draw, rotation angle
and check of one configuration shares that ``CompiledChain``.  A run
evolves its initial state once; the independence check reuses the final
state and reads each standalone version's evolution off the permutations
as a single basis state; the no-signaling probes reuse the post-detection
state.  Functions called without a compiled chain build their own.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .dynamics import (
    BasisRotation,
    CheckResult,
    UnitaryOp,
    apply_unitary,
    build_basis_rotation,
    build_detection_unitary,
    build_perception_unitary,
    build_photon_emission_unitary,
    compose,
    standard_classical_configs,
)
from .errors import InvalidPerturbationError
from .state import (
    OBSERVER_BLANK,
    ROLE_DETECTOR,
    ROLE_OBSERVER,
    ROLE_PATH,
    ROLE_PHOTON,
    StateVector,
    SubsystemLayout,
    TOLERANCE,
    inner_product,
    make_layout,
    message_level,
    message_name,
    mixed_record_level,
    norm,
    observer_dimension,
    product_state,
    superpose,
)

# The loosest tolerance a run accepts.  Weights are compared against the
# squared tolerance, so this still tells a weight of 1e-6 from zero.
MAX_TOLERANCE = 1e-3

# The tightest tolerance a run accepts: sound runs leave rounding residuals
# of up to a few 1e-16, which a tighter setting would report as failures.
MIN_TOLERANCE = 1e-14

CHAIN_CHECKS = (
    "structure",
    "branch_orthogonality",
    "born_weights",
    "mixed_record",
    "observer_coherence",
    "observer_agreement",
    "coefficient_independence",
    "no_signaling",
)

APPENDIX_CHECKS = (
    "structure",
    "primed_coefficients",
    "primed_evolution",
    "record_invariance",
    "branch_orthogonality",
    "born_weights",
    "mixed_record",
    "observer_coherence",
    "observer_agreement",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment family.

    ``tolerance`` must lie in ``[MIN_TOLERANCE, MAX_TOLERANCE]``; the
    coefficients must be finite, with ``is_normalized`` squared moduli.
    """

    n_versions: int
    coefficients: tuple[complex, ...]
    observers: int = 1
    photon_model: bool = False
    tolerance: float = TOLERANCE

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))
        # Written so that NaN fails the comparison too.
        if not MIN_TOLERANCE <= self.tolerance <= MAX_TOLERANCE:
            raise ValueError(
                f"tolerance must lie in [{MIN_TOLERANCE}, {MAX_TOLERANCE}], "
                f"got {self.tolerance!r}"
            )
        if self.n_versions < 2:
            raise ValueError(f"n_versions must be >= 2, got {self.n_versions}")
        if self.observers < 1:
            raise ValueError(f"observers must be >= 1, got {self.observers}")
        if len(self.coefficients) != self.n_versions:
            raise ValueError(
                f"{len(self.coefficients)} coefficients for {self.n_versions} versions"
            )
        if not all(cmath.isfinite(c) for c in self.coefficients):
            raise ValueError(f"coefficients must be finite, got {self.coefficients!r}")
        total = sum(abs(c) ** 2 for c in self.coefficients)
        if not is_normalized(total):
            raise ValueError(
                f"squared moduli of coefficients sum to {total!r}, expected 1 "
                f"within {TOLERANCE}"
            )

    def require_live_negative_control(self) -> None:
        """``ValueError`` if a negative control of this spec could not fail.

        The control rewires the first version's message onto the mixed
        level, so a first coefficient of modulus at most the tolerance puts
        a weight there no larger than the squared tolerance it is held to.
        """
        if abs(self.coefficients[0]) <= self.tolerance:
            raise ValueError(
                f"negative control needs a first coefficient of modulus above the "
                f"tolerance {self.tolerance}, got {self.coefficients[0]!r}"
            )


def is_normalized(total: float) -> bool:
    """Whether squared moduli summing to ``total`` are normalized: within
    ``TOLERANCE`` of 1, as ``DensityMatrix.validate`` holds every trace."""
    return abs(total - 1.0) <= TOLERANCE


@dataclass(frozen=True)
class Branch:
    """One version of reality: record label, weight and relative state."""

    record_label: int | tuple[int, ...]
    coefficient: complex
    relative_state: StateVector
    record_register: str | tuple[str, ...]

    @property
    def weight(self) -> float:
        return abs(self.coefficient) ** 2


@dataclass
class RunReport:
    """Result of one run: branch table and check results."""

    experiment: str
    spec: ExperimentSpec
    theta: float | None
    layout: SubsystemLayout
    final_state: StateVector
    branches: list[Branch]
    checks: list[CheckResult]

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate check names in report: {names}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """JSON-ready view; byte-identical across reruns of the same
        configuration."""
        amps = self.final_state.amplitudes
        return {
            "experiment": self.experiment,
            "n_versions": self.spec.n_versions,
            "observers": self.spec.observers,
            "photon_model": self.spec.photon_model,
            "coefficients": [[c.real, c.imag] for c in self.spec.coefficients],
            "theta": self.theta,
            "final_state": {
                "dimension": self.layout.total_dimension,
                "norm": float(np.linalg.norm(amps)),
                "support": int(np.count_nonzero(np.abs(amps) > self.spec.tolerance)),
            },
            "branches": [
                {
                    "label": _label_text(self.layout, b.record_register, b.record_label),
                    "weight": b.weight,
                    "message": _message_text(self.layout, b.record_register, b.record_label),
                    "coefficient": [b.coefficient.real, b.coefficient.imag],
                }
                for b in self.branches
            ],
            "checks": [
                {
                    "name": c.name,
                    "status": "skip" if c.skipped else ("pass" if c.passed else "fail"),
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Layout and stage construction


def chain_layout(
    n_versions: int, observers: int = 1, photon_model: bool = False
) -> SubsystemLayout:
    """Canonical layout: path, one detector per version, optional photons,
    then the observer registers."""
    regs: list[tuple[str, int, str]] = [("path", n_versions, ROLE_PATH)]
    for name in _detector_names(n_versions):
        regs.append((name, 2, ROLE_DETECTOR))
    if photon_model:
        for j in range(n_versions):
            regs.append((f"ph{j + 1}", 2, ROLE_PHOTON))
    for k in range(observers):
        regs.append((f"Obs{k + 1}", observer_dimension(n_versions), ROLE_OBSERVER))
    return make_layout(regs)


def _detector_names(n_versions: int) -> list[str]:
    if n_versions == 2:
        return ["DH", "DV"]
    return [f"D{j + 1}" for j in range(n_versions)]


def version_labels(
    layout: SubsystemLayout,
    version: int,
    *,
    detected: bool,
    message: int | None = None,
) -> dict[str, int]:
    """Basis labels of the single-version configuration.

    ``detected=False`` is the armed pre-measurement configuration (all
    detectors idle, photons in vacuum); ``detected=True`` sets the one-hot
    record for ``version``.  ``message`` fills every observer register, or
    blank when None.
    """
    labels: dict[str, int] = {}
    detector_index = 0
    photon_index = 0
    for reg in layout.registers:
        if reg.role == ROLE_PATH:
            labels[reg.name] = version
        elif reg.role == ROLE_DETECTOR:
            labels[reg.name] = int(detected and detector_index == version)
            detector_index += 1
        elif reg.role == ROLE_PHOTON:
            labels[reg.name] = int(detected and photon_index == version)
            photon_index += 1
        else:
            labels[reg.name] = OBSERVER_BLANK if message is None else message
    return labels


def _version_index(layout: SubsystemLayout, version: int, **kwargs) -> int:
    """Flat index of ``version_labels(layout, version, **kwargs)``."""
    return layout.encode(version_labels(layout, version, **kwargs))


def _basis_superposition(
    layout: SubsystemLayout, indices: Sequence[int], coefficients: Sequence[complex]
) -> StateVector:
    """``sum_j c_j e_{i_j}`` over distinct indices, written by index.

    Adding onto zeros, as ``superpose`` does, leaves the same amplitudes
    down to the sign of zero parts.
    """
    amps = np.zeros(layout.total_dimension, dtype=complex)
    amps[np.asarray(indices, dtype=int)] += np.asarray(coefficients, dtype=complex)
    return StateVector(layout, amps)


def initial_state(layout: SubsystemLayout, coefficients: Sequence[complex]) -> StateVector:
    """Path superposition in front of armed detectors, observers blank."""
    indices = [_version_index(layout, j, detected=False) for j in range(len(coefficients))]
    return _basis_superposition(layout, indices, coefficients)


def expected_final_state(
    layout: SubsystemLayout, coefficients: Sequence[complex]
) -> StateVector:
    """The branch-table target: each version tagged with its own message."""
    indices = [
        _version_index(layout, j, detected=True, message=message_level(j))
        for j in range(len(coefficients))
    ]
    return _basis_superposition(layout, indices, coefficients)


@dataclass(frozen=True)
class CompiledChain:
    """Layout and step operator of one chain configuration, built once.

    ``record`` is detection followed, with the photon model, by photon
    emission, composed into one permutation; ``perception`` composes every
    observer's perception stage in layout order.  It depends only on
    ``(n_versions, observers, photon_model, negative_control)``, so runs
    that differ in coefficients, angle or checks share one.
    """

    n_versions: int
    observers: int
    photon_model: bool
    negative_control: bool
    layout: SubsystemLayout
    record: UnitaryOp
    perception: UnitaryOp

    @property
    def step(self) -> UnitaryOp:
        """The whole step operator: record stages, then perception."""
        return compose(self.perception, self.record)

    def evolve(self, state: StateVector) -> tuple[StateVector, StateVector]:
        """The post-detection and final states reached from ``state``."""
        post_detection = apply_unitary(self.record, state)
        return post_detection, apply_unitary(self.perception, post_detection)

    def evolve_basis(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Image index and phase of each basis state under the step.

        ``U e_i = phases[i] e_perm[i]``, so a single basis state evolves by
        reading one entry of each permutation, as ``compose`` combines them.
        """
        mid = self.record.perm[indices]
        phases = self.record.phases[indices] * self.perception.phases[mid]
        return self.perception.perm[mid], phases


def compile_chain(
    n_versions: int,
    observers: int = 1,
    photon_model: bool = False,
    negative_control: bool = False,
) -> CompiledChain:
    """Build the layout and every stage once and compose the stages.

    ``negative_control`` rewires version 1's message onto the reserved
    mixed-record level, so tests can prove the mixed-record checks can fail.
    """
    layout = chain_layout(n_versions, observers, photon_model)
    record = build_detection_unitary(layout)
    condition = [r.name for r in layout.by_role(ROLE_DETECTOR)]
    if photon_model:
        record = compose(build_photon_emission_unitary(layout), record)
        condition = [r.name for r in layout.by_role(ROLE_PHOTON)]

    configs = standard_classical_configs(n_versions)
    if negative_control:
        one_hot_first = tuple(1 if k == 0 else 0 for k in range(n_versions))
        configs[one_hot_first] = mixed_record_level(observer_dimension(n_versions))

    perception = None
    for reg in layout.by_role(ROLE_OBSERVER):
        stage = build_perception_unitary(
            layout,
            reg.name,
            configs,
            condition_registers=condition,
            allow_mixed_message=negative_control,
        )
        perception = stage if perception is None else compose(stage, perception)
    return CompiledChain(
        n_versions, observers, photon_model, negative_control, layout, record, perception
    )


def _compiled(
    spec: ExperimentSpec, negative_control: bool, chain: CompiledChain | None
) -> CompiledChain:
    """``chain`` after checking it matches the spec, or a new one; a
    negative control that could not fail raises ``ValueError``."""
    if negative_control:
        spec.require_live_negative_control()
    wanted = (spec.n_versions, spec.observers, spec.photon_model, negative_control)
    if chain is None:
        return compile_chain(*wanted)
    have = (chain.n_versions, chain.observers, chain.photon_model, chain.negative_control)
    if have != wanted:
        raise ValueError(
            f"compiled chain for (n_versions, observers, photon_model, "
            f"negative_control) = {have} does not match {wanted}"
        )
    return chain


# ---------------------------------------------------------------------------
# Branch decomposition


def _record_names(record_register: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(record_register, str):
        return (record_register,)
    return tuple(record_register)


def _record_embedding(
    layout: SubsystemLayout, names: tuple[str, ...]
) -> tuple[SubsystemLayout, np.ndarray]:
    """Sub-layout without the record registers and the index map embedding
    each relative flat index at record label zero."""
    relative = layout.drop(names)
    return relative, layout.label_offsets(relative.names())


def decompose_branches(
    state: StateVector,
    record_register: str | Sequence[str],
    tolerance: float = TOLERANCE,
) -> list[Branch]:
    """Split a unit state into branches labeled by the record register.

    Labels whose weight is below ``tolerance**2`` are pruned.  The phase
    convention puts the largest relative amplitude on the positive real
    axis, so for record-tagged product states the branch coefficient is
    exactly the amplitude attached to that label.  The weighted branches
    reconstruct the input exactly.
    """
    layout = state.layout
    total = norm(state)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"decompose_branches expects a unit state, norm is {total!r}")
    names = _record_names(record_register)
    relative_layout, rel_to_full = _record_embedding(layout, names)
    strides = [layout.strides[layout.position(n)] for n in names]
    dims = [layout.register(n).dimension for n in names]

    branches: list[Branch] = []
    for raw_label in np.ndindex(*dims):
        offset = sum(d * s for d, s in zip(raw_label, strides))
        section = state.amplitudes[rel_to_full + offset]
        section_norm = float(np.linalg.norm(section))
        weight = section_norm**2
        if weight <= tolerance**2:
            continue
        anchor = section[int(np.argmax(np.abs(section)))]
        coefficient = complex(section_norm * anchor / abs(anchor))
        label = raw_label[0] if len(names) == 1 else tuple(int(x) for x in raw_label)
        branches.append(
            Branch(
                record_label=label,
                coefficient=coefficient,
                relative_state=StateVector(relative_layout, section / coefficient),
                record_register=record_register if isinstance(record_register, str) else names,
            )
        )
    return branches


def reconstruct_branches(
    layout: SubsystemLayout, branches: Sequence[Branch]
) -> StateVector:
    """Reassemble ``sum_j a(j) * (relative_j (x) |label_j>)``."""
    amps = np.zeros(layout.total_dimension, dtype=complex)
    for branch in branches:
        names = _record_names(branch.record_register)
        _, rel_to_full = _record_embedding(layout, names)
        label = branch.record_label if isinstance(branch.record_label, tuple) else (branch.record_label,)
        offset = sum(
            d * layout.strides[layout.position(n)] for d, n in zip(label, names)
        )
        amps[rel_to_full + offset] += branch.coefficient * branch.relative_state.amplitudes
    return StateVector(layout, amps)


def _label_text(layout, record_register, label) -> str:
    names = _record_names(record_register)
    if len(names) == 1:
        reg = layout.register(names[0])
        if reg.role == ROLE_OBSERVER:
            return message_name(label, reg.dimension)
        return f"{names[0]}={label}"
    labels = label if isinstance(label, tuple) else (label,)
    return ",".join(f"{n}={d}" for n, d in zip(names, labels))


def _message_text(layout, record_register, label) -> str:
    names = _record_names(record_register)
    if len(names) == 1 and layout.register(names[0]).role == ROLE_OBSERVER:
        return message_name(label, layout.register(names[0]).dimension)
    return _label_text(layout, record_register, label)


# ---------------------------------------------------------------------------
# The main experiment


def run_measurement_chain(
    spec: ExperimentSpec,
    checks: Sequence[str] | None = None,
    negative_control: bool = False,
    chain: CompiledChain | None = None,
) -> RunReport:
    """Run detection then perception and certify the branch structure.

    ``checks`` selects by name from ``CHAIN_CHECKS``; None runs all of
    them.  ``negative_control`` corrupts the perception step so that the
    first version's message lands on the reserved mixed-record level,
    proving the mixed-record check can fail.  ``chain`` is the compiled
    chain to share with other runs of the same configuration.
    """
    enabled = _select_checks(checks, CHAIN_CHECKS)
    chain = _compiled(spec, negative_control, chain)
    post_detection, final = chain.evolve(initial_state(chain.layout, spec.coefficients))

    branches = decompose_branches(final, "Obs1", spec.tolerance)
    results = _state_checks(spec, post_detection, final, branches, enabled)
    if "coefficient_independence" in enabled:
        results.append(
            coefficient_independence_check(
                spec, negative_control=negative_control, chain=chain, final_state=final
            )
        )
    if "no_signaling" in enabled:
        results.append(_canonical_no_signaling(spec, chain, post_detection))

    return RunReport(
        experiment="measurement_chain",
        spec=spec,
        theta=None,
        layout=chain.layout,
        final_state=final,
        branches=branches,
        checks=results,
    )


def _select_checks(requested: Sequence[str] | None, available: Sequence[str]) -> list[str]:
    if requested is None:
        return list(available)
    unknown = set(requested) - set(available)
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}; available: {list(available)}")
    return [name for name in available if name in set(requested)]


def _state_checks(
    spec: ExperimentSpec,
    post_detection: StateVector,
    final: StateVector,
    obs_branches: Sequence[Branch],
    enabled: Sequence[str],
) -> list[CheckResult]:
    """The checks evaluated directly on the run's states; ``obs_branches``
    is the decomposition of ``final`` by the first observer's record."""
    results: list[CheckResult] = []
    layout = final.layout
    detector_names = tuple(r.name for r in layout.by_role(ROLE_DETECTOR))
    observer_names = [r.name for r in layout.by_role(ROLE_OBSERVER)]

    if "structure" in enabled:
        target = expected_final_state(layout, spec.coefficients)
        residual = float(np.linalg.norm(final.amplitudes - target.amplitudes))
        results.append(
            CheckResult.from_residual("structure", residual, spec.tolerance)
        )

    det_branches: list[Branch] = []
    if "branch_orthogonality" in enabled or "born_weights" in enabled:
        det_branches = decompose_branches(post_detection, detector_names, spec.tolerance)

    if "branch_orthogonality" in enabled:
        residual = max(
            _max_pairwise_overlap(det_branches), _max_pairwise_overlap(obs_branches)
        )
        results.append(
            CheckResult.from_residual("branch_orthogonality", residual, spec.tolerance)
        )

    if "born_weights" in enabled:
        residual = _born_weight_drift(spec.n_versions, det_branches, obs_branches)
        results.append(
            CheckResult.from_residual("born_weights", residual, spec.tolerance)
        )

    if "mixed_record" in enabled:
        weight = max(mixed_record_weight(final), mixed_record_weight(post_detection))
        results.append(
            CheckResult.from_residual("mixed_record", weight, spec.tolerance**2)
        )

    if "observer_coherence" in enabled:
        residual = max(
            analysis.observer_coherence(final, name) for name in observer_names
        )
        results.append(
            CheckResult.from_residual("observer_coherence", residual, spec.tolerance)
        )

    if "observer_agreement" in enabled:
        if spec.observers < 2:
            results.append(
                CheckResult.skip("observer_agreement", "needs at least two observers")
            )
        else:
            weight = disagreement_weight(final)
            results.append(
                CheckResult.from_residual(
                    "observer_agreement", weight, spec.tolerance**2
                )
            )
    return results


def _max_pairwise_overlap(branches: Sequence[Branch]) -> float:
    worst = 0.0
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            overlap = abs(
                inner_product(branches[i].relative_state, branches[j].relative_state)
            )
            worst = max(worst, overlap)
    return worst


def _born_weight_drift(
    n_versions: int, det_branches: Sequence[Branch], obs_branches: Sequence[Branch]
) -> float:
    """Per-version weight difference between the two decompositions."""
    det_weights = {b.record_label: b.weight for b in det_branches}
    obs_weights = {b.record_label: b.weight for b in obs_branches}
    drift = 0.0
    for j in range(n_versions):
        one_hot = tuple(1 if k == j else 0 for k in range(n_versions))
        seen = det_weights.pop(one_hot, 0.0)
        recorded = obs_weights.pop(message_level(j), 0.0)
        drift = max(drift, abs(seen - recorded))
    # Weight on any other record label (non-one-hot configuration, blank or
    # mixed observer level) is itself a conservation failure.
    leftovers = list(det_weights.values()) + list(obs_weights.values())
    if leftovers:
        drift = max(drift, max(leftovers))
    return drift


def mixed_record_weight(state: StateVector) -> float:
    """Total squared amplitude sitting on any observer's mixed level."""
    layout = state.layout
    mask = np.zeros(layout.total_dimension, dtype=bool)
    for reg in layout.by_role(ROLE_OBSERVER):
        mask |= layout.digit_values(reg.name) == mixed_record_level(reg.dimension)
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def disagreement_weight(state: StateVector) -> float:
    """Squared amplitude on basis states where observers' records differ."""
    layout = state.layout
    observers = [r.name for r in layout.by_role(ROLE_OBSERVER)]
    if len(observers) < 2:
        return 0.0
    first = layout.digit_values(observers[0])
    mask = np.zeros(layout.total_dimension, dtype=bool)
    for name in observers[1:]:
        mask |= layout.digit_values(name) != first
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


# ---------------------------------------------------------------------------
# Coefficient independence (each branch evolves as if alone)


def coefficient_independence_check(
    spec: ExperimentSpec,
    version_states: Sequence[StateVector] | None = None,
    negative_control: bool = False,
    *,
    chain: CompiledChain | None = None,
    final_state: StateVector | None = None,
) -> CheckResult:
    """Compare each branch of the full run against its standalone run.

    The versions are the armed single-path configurations, or
    ``version_states`` when given (they may be non-orthogonal, in which
    case record projection could not separate them).  Version j's
    standalone run evolves it alone; for a configuration that is a single
    basis state, read off the compiled step.  From the full run's final
    state the check subtracts every other version's standalone run,
    rescales by ``1 / a_j`` and compares with version j's.  ``final_state``
    is that full run's final state when the caller already has it.
    Versions with zero coefficient are skipped and noted.
    """
    chain = _compiled(spec, negative_control, chain)
    layout = chain.layout
    if version_states is None:
        starts = np.array(
            [_version_index(layout, j, detected=False) for j in range(spec.n_versions)]
        )
        if final_state is None:
            _, final_state = chain.evolve(initial_state(layout, spec.coefficients))
        ends, phases = chain.evolve_basis(starts)
        # Every vector compared below vanishes off this support.
        support = np.union1d(np.flatnonzero(final_state.amplitudes), ends)
        singles = np.zeros((spec.n_versions, support.size), dtype=complex)
        singles[np.arange(spec.n_versions), np.searchsorted(support, ends)] = phases
    else:
        if len(version_states) != spec.n_versions:
            raise ValueError(
                f"{len(version_states)} version states for {spec.n_versions} versions"
            )
        if final_state is None:
            _, final_state = chain.evolve(
                superpose(list(zip(spec.coefficients, version_states)))
            )
        support = np.arange(layout.total_dimension)
        singles = np.array([chain.evolve(v)[1].amplitudes for v in version_states])
    whole = final_state.amplitudes[support]

    skipped: list[int] = []
    residual = 0.0
    for j, a in enumerate(spec.coefficients):
        if abs(a) <= spec.tolerance:
            skipped.append(j)
            continue
        rest = whole.copy()
        for k, b in enumerate(spec.coefficients):
            if k != j:
                rest -= b * singles[k]
        residual = max(residual, float(np.linalg.norm(rest / a - singles[j])))

    detail = f"skipped zero-coefficient versions {skipped}" if skipped else ""
    return CheckResult.from_residual(
        "coefficient_independence", residual, spec.tolerance, detail
    )


# ---------------------------------------------------------------------------
# No signaling between branches


def phase_flip_perturbation(layout: SubsystemLayout, version: int) -> UnitaryOp:
    """Flip the sign of every basis state in one version's configuration."""
    phases = np.ones(layout.total_dimension, dtype=complex)
    phases[_version_configuration_indices(layout, version)] = -1.0
    return UnitaryOp(
        layout.total_dimension,
        f"phase-flip[version {version + 1}]",
        perm=np.arange(layout.total_dimension),
        phases=phases,
    )


def record_cycle_perturbation(
    layout: SubsystemLayout, version: int, observer_register: str | None = None
) -> UnitaryOp:
    """Cycle an observer's levels inside one version's configuration.

    A permutation supported on the perturbed version's subspace: it
    scrambles what that version's observer will have seen, and must leave
    every other branch untouched.
    """
    if observer_register is None:
        observer_register = layout.by_role(ROLE_OBSERVER)[0].name
    reg = layout.register(observer_register)
    indices = _version_configuration_indices(layout, version)
    stride = layout.strides[layout.position(observer_register)]
    digit = (indices // stride) % reg.dimension
    perm = np.arange(layout.total_dimension)
    perm[indices] += ((digit + 1) % reg.dimension - digit) * stride
    return UnitaryOp.permutation(f"record-cycle[version {version + 1}]", perm)


def _version_configuration_indices(layout: SubsystemLayout, version: int) -> np.ndarray:
    """Basis states whose non-observer registers read version's record,
    in increasing order."""
    base = _version_index(layout, version, detected=True)
    return base + layout.label_offsets([r.name for r in layout.by_role(ROLE_OBSERVER)])


def no_signaling_check(
    spec: ExperimentSpec,
    perturbation: UnitaryOp,
    negative_control: bool = False,
    *,
    chain: CompiledChain | None = None,
    post_detection: StateVector | None = None,
) -> CheckResult:
    """Perturb the second version mid-run; the first branch must not move.

    The perturbation is applied after the records form but before any
    observer looks.  It must be the identity on the first version's
    configuration subspace, else ``InvalidPerturbationError``.
    ``post_detection`` is the run's state at that point when the caller
    already has it.
    """
    chain = _compiled(spec, negative_control, chain)
    layout = chain.layout
    if perturbation.dimension != layout.total_dimension:
        raise ValueError(
            f"perturbation dimension {perturbation.dimension} does not match "
            f"layout dimension {layout.total_dimension}"
        )
    # Branch 1 is everything living on version 1's configuration, observer
    # included; a perturbed version 2 may do anything, even display the
    # first version's message, without touching that subspace.
    first_branch = _version_configuration_indices(layout, 0)
    _require_identity_on(perturbation, first_branch)

    if post_detection is None:
        post_detection, _ = chain.evolve(initial_state(layout, spec.coefficients))
    baseline = apply_unitary(chain.perception, post_detection)
    perturbed = apply_unitary(chain.perception, apply_unitary(perturbation, post_detection))
    residual = float(
        np.linalg.norm(
            baseline.amplitudes[first_branch] - perturbed.amplitudes[first_branch]
        )
    )
    return CheckResult.from_residual(
        "no_signaling", residual, spec.tolerance, detail=perturbation.provenance
    )


def _require_identity_on(op: UnitaryOp, indices: np.ndarray) -> None:
    clean = np.all(op.perm[indices] == indices) and np.all(
        np.abs(op.phases[indices] - 1.0) <= TOLERANCE
    )
    if not clean:
        raise InvalidPerturbationError(
            f"perturbation {op.provenance!r} is not the identity on the "
            f"protected branch subspace"
        )


def _canonical_no_signaling(
    spec: ExperimentSpec, chain: CompiledChain, post_detection: StateVector
) -> CheckResult:
    """Worst residual over the stock phase-flip and record-cycle probes."""
    probes = [
        phase_flip_perturbation(chain.layout, 1),
        record_cycle_perturbation(chain.layout, 1),
    ]
    worst = max(
        (
            no_signaling_check(
                spec,
                probe,
                chain.negative_control,
                chain=chain,
                post_detection=post_detection,
            )
            for probe in probes
        ),
        key=lambda result: result.residual,
    )
    return replace(worst, detail="phase flip and record cycle on version 2")


# ---------------------------------------------------------------------------
# Multi-observer agreement


def multi_observer_agreement(
    spec: ExperimentSpec, negative_control: bool = False
) -> CheckResult:
    """Weight on any inter-observer disagreement after the full chain."""
    report = run_measurement_chain(
        spec, checks=("observer_agreement",), negative_control=negative_control
    )
    return report.checks[0]


# ---------------------------------------------------------------------------
# Mixed-basis rotation (no record ever reads "mixed", in any basis)


def primed_coefficients(a1: complex, a2: complex, theta: float) -> tuple[complex, complex]:
    """Coefficient pair on the rotated two-version plane."""
    c, s = np.cos(theta), np.sin(theta)
    return (a1 * c - a2 * s, a2 * c + a1 * s)


def _version_span(layout: SubsystemLayout) -> tuple[dict[str, int], ...]:
    observers = {r.name for r in layout.by_role(ROLE_OBSERVER)}
    labels = [version_labels(layout, j, detected=True) for j in (0, 1)]
    return tuple({k: v for k, v in l.items() if k not in observers} for l in labels)


def run_appendix_rotation(
    spec: ExperimentSpec,
    theta: float,
    checks: Sequence[str] | None = None,
    negative_control: bool = False,
    chain: CompiledChain | None = None,
) -> RunReport:
    """Rerun perception in a deliberately mixed basis.

    Starts from the post-detection state, rotates the two-version plane by
    ``theta``, and certifies that (a) the rotated amplitudes follow the
    closed-form coefficient transform, (b) the rotated first basis vector
    evolves into the expected two-message expansion, and (c) no observer
    level outside the plain messages is ever populated -- the records are
    properties of the state, not of the basis used to display it.  ``chain``
    is the compiled chain to share with the other angles.
    """
    if spec.n_versions != 2:
        raise ValueError("the rotation experiment is defined for exactly two versions")
    enabled = _select_checks(checks, APPENDIX_CHECKS)
    chain = _compiled(spec, negative_control, chain)
    layout = chain.layout

    a1, a2 = spec.coefficients
    i1 = _version_index(layout, 0, detected=True)
    i2 = _version_index(layout, 1, detected=True)
    post_detection = _basis_superposition(layout, [i1, i2], [a1, a2])
    final = apply_unitary(chain.perception, post_detection)
    branches = decompose_branches(final, "Obs1", spec.tolerance)

    span = _version_span(layout)
    rotation = build_basis_rotation(layout, BasisRotation(theta, span))

    results = _state_checks(spec, post_detection, final, branches, enabled)

    if "primed_coefficients" in enabled:
        rotated = apply_unitary(rotation, post_detection)
        computed = (rotated.amplitudes[i1], rotated.amplitudes[i2])
        formula = primed_coefficients(a1, a2, theta)
        residual = max(abs(computed[0] - formula[0]), abs(computed[1] - formula[1]))
        results.append(
            CheckResult.from_residual("primed_coefficients", float(residual), spec.tolerance)
        )

    primed_evolved = None
    if "primed_evolution" in enabled or "mixed_record" in enabled:
        primed_first = apply_unitary(
            rotation, product_state(layout, version_labels(layout, 0, detected=True))
        )
        primed_evolved = apply_unitary(chain.perception, primed_first)

    if "primed_evolution" in enabled:
        target = _basis_superposition(
            layout,
            [
                _version_index(layout, j, detected=True, message=message_level(j))
                for j in (0, 1)
            ],
            [np.cos(theta), np.sin(theta)],
        )
        residual = float(np.linalg.norm(primed_evolved.amplitudes - target.amplitudes))
        results.append(
            CheckResult.from_residual("primed_evolution", residual, spec.tolerance)
        )

    if "mixed_record" in enabled:
        # Tighten the verdict beyond the chain version: after perception,
        # weight on any level outside the plain messages (blank included)
        # counts, for the plain run and the rotated-basis run alike.
        weight = max(
            mixed_record_weight(post_detection),
            _non_message_weight(final),
            _non_message_weight(primed_evolved),
        )
        results = [
            r
            if r.name != "mixed_record"
            else CheckResult.from_residual("mixed_record", max(r.residual, weight), r.tolerance)
            for r in results
        ]

    if "record_invariance" in enabled:
        results.append(_record_invariance(layout, final, rotation, spec.tolerance))

    return RunReport(
        experiment="appendix_rotation",
        spec=spec,
        theta=theta,
        layout=layout,
        final_state=final,
        branches=branches,
        checks=results,
    )


def _non_message_weight(state: StateVector) -> float:
    """Weight on observer levels outside the plain messages 1..N."""
    layout = state.layout
    mask = np.zeros(layout.total_dimension, dtype=bool)
    for reg in layout.by_role(ROLE_OBSERVER):
        digit = layout.digit_values(reg.name)
        mask |= (digit == OBSERVER_BLANK) | (digit == mixed_record_level(reg.dimension))
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def _record_invariance(
    layout: SubsystemLayout,
    final: StateVector,
    rotation: UnitaryOp,
    tolerance: float,
) -> CheckResult:
    """Same message table whether or not the state is re-expressed."""
    plain = decompose_branches(final, "Obs1", tolerance)
    rotated = decompose_branches(apply_unitary(rotation, final), "Obs1", tolerance)
    labels_plain = {b.record_label: b.weight for b in plain}
    labels_rotated = {b.record_label: b.weight for b in rotated}
    if set(labels_plain) != set(labels_rotated):
        return CheckResult(
            "record_invariance",
            False,
            1.0,
            tolerance,
            detail=f"message sets differ: {sorted(labels_plain)} vs {sorted(labels_rotated)}",
        )
    residual = max(
        (abs(labels_plain[k] - labels_rotated[k]) for k in labels_plain), default=0.0
    )
    return CheckResult.from_residual("record_invariance", residual, tolerance)
