"""The measurement-chain experiments and their certification checks.

A run prepares a path superposition in front of an armed detector bank,
evolves it through the step operator (detection, optional photon emission,
one perception step per observer) and decomposes the result into branches:
the sections of its rows by record label, each with a coefficient.  The checks
certify the package's core claims on the finished state -- the branch
structure is exactly the weighted sum of single-version outcomes, branches
are mutually orthogonal, no observer register ever holds the mixed-record
level, observers agree, removing other branches does not change a branch's
evolution, and perturbing one branch cannot signal another.

An ``ExperimentSpec`` is the whole input of a run, negative control
included; a control that could not fail is refused when the spec is built.
The step operator is compiled once per chain configuration by the
memoized ``compile_chain``: the layout, the record stages (detection, then
photon emission) composed into one operator, every observer's perception
stage built into another, and the stock no-signaling probes, each stage a
controlled-rewrite table that is unitary because it could be built (see
``dynamics``).  Every run, coefficient draw, rotation angle and check of
one configuration shares that ``CompiledChain``.

Both experiments evolve and certify a spec through one path: the initial
state goes through the record stages, then perception, the final state is
decomposed by the first observer's record, and the state checks read the
result, a ``CertifiedRun``.  The measurement chain adds the independence
check, which reuses the final state, replays every standalone version's
rows through the record stages and then perception and takes one linearity
difference against their weighted sum, and the no-signaling probes, which
reuse the post-detection state and take the final state as their baseline.
A rotation sweep certifies the unrotated run once per coefficient draw
(``plain_rotation_run``); that run and the draw's angles are the only
inputs of ``run_appendix_rotation(plain, thetas)``, one call per draw.
Every state an angle touches has the same label rows at every angle, so
the call builds each rotated state once, as a batched state with one row
of amplitudes per angle, and certifies it with the chain's own state code.

Everything is support arithmetic on label rows: a run's states hold N rows,
branches group rows by their record labels, and the record weights, probes
and residuals read rows and amplitudes, never flat indices, so a run costs
O(support) whatever the dimension.  The probes are tables too, so
``no_signaling_check`` proves that a probe leaves the first branch alone by
looking its control rows up against that branch's configuration, without
enumerating the observer levels the branch spans.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from . import analysis
from .dynamics import (
    ControlledRewrite,
    UnitaryOp,
    apply_unitary,
    build_basis_rotation,
    build_detection_unitary,
    build_perception_unitary,
    build_photon_emission_unitary,
    compose,
    standard_classical_configs,
)
from .errors import CapacityError, InvalidPerturbationError
from .state import (
    OBSERVER_BLANK,
    ROLE_DETECTOR,
    ROLE_OBSERVER,
    ROLE_PATH,
    ROLE_PHOTON,
    StateVector,
    SubsystemLayout,
    TOLERANCE,
    aligned,
    make_layout,
    max_pair_overlap,
    message_level,
    message_name,
    mixed_record_level,
    norm,
    observer_dimension,
    product_state,
    read_only,
    require_unit,
    superpose,
    union_rows,
    vector_norm,
    vector_norms,
)

# The loosest tolerance a run accepts.  Weights are compared against the
# squared tolerance, so this still tells a weight of 1e-6 from zero.
MAX_TOLERANCE = 1e-3

# The tightest tolerance a run accepts: sound runs leave rounding residuals
# of up to a few 1e-16, which a tighter setting would report as failures.
MIN_TOLERANCE = 1e-14

# The most registers a chain may have, the one bound on the size of a run
# (checked by ``chain_layout``).  A run's time grows with support x
# registers whatever its dimension, but its peak memory grows as N^3
# through the perception tables' match cube; the README lists the measured
# worst shapes at this bound.
MAX_REGISTERS = 512

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

    @cached_property
    def entry(self) -> dict:
        """The check's report entry, built once and shared by every report
        that holds the check."""
        return {
            "name": self.name,
            "status": "skip" if self.skipped else ("pass" if self.passed else "fail"),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one run, the whole input of the experiments.

    ``tolerance`` must lie in ``[MIN_TOLERANCE, MAX_TOLERANCE]``; the
    coefficients must be finite, with ``is_normalized`` squared moduli.
    ``negative_control`` corrupts the perception step so that the first
    version's message lands on the reserved mixed-record level, proving the
    checks can fail; it needs a first coefficient of modulus above the
    tolerance, since a smaller one puts a weight on that level no larger
    than the squared tolerance it is held to.
    """

    n_versions: int
    coefficients: tuple[complex, ...]
    observers: int = 1
    photon_model: bool = False
    tolerance: float = TOLERANCE
    negative_control: bool = False

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
        if self.negative_control and abs(self.coefficients[0]) <= self.tolerance:
            raise ValueError(
                f"negative control needs a first coefficient of modulus above the "
                f"tolerance {self.tolerance}, got {self.coefficients[0]!r}"
            )


def is_normalized(total: float) -> bool:
    """Whether squared moduli summing to ``total`` are normalized: within
    ``TOLERANCE`` of 1, as a ``DensityMatrix`` holds its trace when built."""
    return abs(total - 1.0) <= TOLERANCE


@dataclass(frozen=True)
class Branch:
    """One version of reality, a section of the state it was decomposed from:
    record label, coefficient and the read-only positions of its rows there,
    in flat-index order (its relative state is their amplitudes / coefficient)."""

    record_label: int | tuple[int, ...]
    coefficient: complex
    rows: np.ndarray = field(compare=False, repr=False)

    @property
    def weight(self) -> float:
        return abs(self.coefficient) ** 2


@dataclass
class RunReport:
    """Result of one run: branch table and check results.  ``draw`` holds
    the report entries that only the spec, the final state and the branches
    decide, built when not given; the runs of one draw share one."""

    experiment: str
    spec: ExperimentSpec
    theta: float | None
    final_state: StateVector
    branches: list[Branch]
    checks: list[CheckResult]
    draw: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate check names in report: {names}")
        if self.draw is None:
            # A report's branches are by the first observer's record.
            dimension = observer_dimension(self.spec.n_versions)
            values = self.final_state.values
            self.draw = {
                "n_versions": self.spec.n_versions,
                "observers": self.spec.observers,
                "photon_model": self.spec.photon_model,
                "coefficients": [[c.real, c.imag] for c in self.spec.coefficients],
                "final_state": {
                    "dimension": self.final_state.layout.total_dimension,
                    "norm": norm(self.final_state),
                    "support": int(np.count_nonzero(np.abs(values) > self.spec.tolerance)),
                },
                "branches": [
                    {
                        "label": message_name(b.record_label, dimension),
                        "weight": b.weight,
                        "coefficient": [b.coefficient.real, b.coefficient.imag],
                    }
                    for b in self.branches
                ],
            }

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """JSON-ready view; byte-identical across reruns of the same
        configuration.  Other reports may share its containers: do not
        change them."""
        return {
            **self.draw,
            "experiment": self.experiment,
            "theta": self.theta,
            "checks": [c.entry for c in self.checks],
        }


# ---------------------------------------------------------------------------
# Layout and stage construction


def chain_layout(
    n_versions: int, observers: int = 1, photon_model: bool = False
) -> SubsystemLayout:
    """Canonical layout: path, one detector per version, optional photons,
    then the observer registers.

    ``CapacityError`` when the chain has more than ``MAX_REGISTERS``
    registers, counted before any register is built.
    """
    count = 1 + n_versions * (2 if photon_model else 1) + observers
    if count > MAX_REGISTERS:
        raise CapacityError(
            f"a chain of {count} registers exceeds MAX_REGISTERS = {MAX_REGISTERS}"
        )
    detectors = ["DH", "DV"] if n_versions == 2 else [f"D{j + 1}" for j in range(n_versions)]
    registers = [("path", n_versions, ROLE_PATH)] + [(d, 2, ROLE_DETECTOR) for d in detectors]
    if photon_model:
        registers += [(f"ph{j + 1}", 2, ROLE_PHOTON) for j in range(n_versions)]
    dimension = observer_dimension(n_versions)
    registers += [(f"Obs{k + 1}", dimension, ROLE_OBSERVER) for k in range(observers)]
    return make_layout(registers)


def _version_rows(
    layout: SubsystemLayout,
    versions: Sequence[int],
    *,
    detected: bool,
    message: int | Sequence[int] | None = None,
) -> np.ndarray:
    """The label rows of each version's single-version configuration, as a
    (versions x registers) array.

    ``detected=False`` is the armed pre-measurement configuration (all
    detectors idle, photons in vacuum); ``detected=True`` sets the one-hot
    record of each version.  ``message`` fills every observer register, as
    one level or one per version, or leaves it blank when None.
    """
    roles = [r.role for r in layout.registers]
    at = lambda role: [i for i, r in enumerate(roles) if r == role]
    versions = np.asarray(versions, dtype=np.int64)[:, None]
    rows = np.zeros((len(versions), len(roles)), dtype=np.int64)
    rows[:, at(ROLE_PATH)] = versions
    if detected:
        for role in (ROLE_DETECTOR, ROLE_PHOTON):
            columns = at(role)
            rows[:, columns] = versions == np.arange(len(columns))
    if message is not None:
        rows[:, at(ROLE_OBSERVER)] = np.asarray(message)[..., None]
    return rows


def initial_state(layout: SubsystemLayout, coefficients: Sequence[complex]) -> StateVector:
    """Path superposition in front of armed detectors, observers blank."""
    rows = _version_rows(layout, range(len(coefficients)), detected=False)
    return StateVector(layout, rows, coefficients)


def expected_final_state(
    layout: SubsystemLayout, coefficients: Sequence[complex]
) -> StateVector:
    """The branch-table target: each version tagged with its own message."""
    return StateVector(layout, _expected_rows(layout, len(coefficients)), coefficients)


def _expected_rows(layout: SubsystemLayout, n_versions: int) -> np.ndarray:
    """The label rows of ``expected_final_state``, in version order."""
    versions = np.arange(n_versions)
    return _version_rows(layout, versions, detected=True, message=message_level(versions))


@dataclass(frozen=True)
class CompiledChain:
    """Layout and step operator of one chain configuration, built once.

    ``record`` is detection followed, with the photon model, by photon
    emission, composed into one operator; ``perception`` holds every
    observer's perception stage in layout order, and ``probes`` the stock
    no-signaling probes of version 2.  It depends only on
    ``(n_versions, observers, photon_model, negative_control)``, so runs
    that differ in coefficients, angle or checks share one (see
    ``compile_chain``).
    """

    n_versions: int
    observers: int
    photon_model: bool
    negative_control: bool
    layout: SubsystemLayout
    record: UnitaryOp
    perception: UnitaryOp
    probes: tuple[UnitaryOp, ...]

    def evolve(self, state: StateVector) -> tuple[StateVector, StateVector]:
        """The post-detection and final states reached from ``state``."""
        post_detection = apply_unitary(self.record, state)
        return post_detection, apply_unitary(self.perception, post_detection)


def compile_chain(
    n_versions: int,
    observers: int = 1,
    photon_model: bool = False,
    negative_control: bool = False,
) -> CompiledChain:
    """Build the layout and every stage once and compose the stages.

    Memoized on the full argument list, defaults filled in, so that every
    caller in the process that asks for one configuration gets the same
    frozen chain and its stages are built once; ``lru_cache`` alone keys on
    how the call is spelled, and ``compile_chain(2)`` and
    ``compile_chain(n_versions=2)`` would each build one.  ``cache_info``
    and ``cache_clear`` are those of the cache.  ``negative_control``
    rewires version 1's message onto the reserved mixed-record level, so
    tests can prove the mixed-record checks can fail.

    Every operator is unitary because it was built: a stage whose table
    describes no unitary is a bug in a builder, and its construction raises
    ``ValueError`` rather than failing a check.  A chain over
    ``MAX_REGISTERS`` raises ``CapacityError`` (``chain_layout``) before
    anything is built.
    """
    return _build_chain(n_versions, observers, photon_model, negative_control)


@lru_cache(maxsize=None)
def _build_chain(
    n_versions: int, observers: int, photon_model: bool, negative_control: bool
) -> CompiledChain:
    layout = chain_layout(n_versions, observers, photon_model)
    record = build_detection_unitary(layout)
    condition = [r.name for r in layout.by_role(ROLE_DETECTOR)]
    if photon_model:
        record = compose(build_photon_emission_unitary(layout), record)
        condition = [r.name for r in layout.by_role(ROLE_PHOTON)]

    configs, messages = standard_classical_configs(n_versions)
    if negative_control:
        messages[0] = mixed_record_level(observer_dimension(n_versions))

    stages = [
        build_perception_unitary(layout, r.name, (configs, messages), condition, negative_control)
        for r in layout.by_role(ROLE_OBSERVER)
    ]
    # One operator over every observer's tables: composing them one at a
    # time would check the earlier tables again at every step.
    tables = tuple(table for op in stages for table in op.stages)
    perception = UnitaryOp(layout, " . ".join(op.provenance for op in stages[::-1]), tables)
    probes = (phase_flip_perturbation(layout, 1), record_cycle_perturbation(layout, 1))
    return CompiledChain(
        n_versions, observers, photon_model, negative_control, layout, record, perception, probes
    )


compile_chain.cache_info = _build_chain.cache_info
compile_chain.cache_clear = _build_chain.cache_clear


def _compiled(spec: ExperimentSpec) -> CompiledChain:
    """The spec's compiled chain."""
    return compile_chain(
        spec.n_versions, spec.observers, spec.photon_model, spec.negative_control
    )


# ---------------------------------------------------------------------------
# Branch decomposition


def decompose_branches(
    state: StateVector,
    record_register: str | Sequence[str],
    tolerance: float = TOLERANCE,
) -> list[Branch]:
    """Split a unit state into branches labeled by the record register: one
    label (an int for one register, a tuple for several) per section of the
    state's rows.

    Labels whose weight is below ``tolerance**2`` are pruned.  The phase
    convention puts the largest relative amplitude on the positive real
    axis, so for record-tagged product states the branch coefficient is
    exactly the amplitude attached to that label.  The weighted branches
    reconstruct the input exactly.  Branches come in increasing record label
    order, and each one's rows keep their flat-index order.
    """
    require_unit(state.values, "decompose_branches")
    names = [record_register] if isinstance(record_register, str) else record_register
    record_at = [state.layout.position(n) for n in names]
    return _branches(_sections(state.labels, record_at), state.values[None], tolerance)[0]


def _sections(
    labels: np.ndarray, record_at: list[int]
) -> list[tuple[int | tuple[int, ...], np.ndarray]]:
    """The rows of ``labels`` grouped by their labels at ``record_at`` (an int
    for one position, a tuple for several), in increasing record order, each
    group the read-only positions of its rows, in order."""
    records, position = union_rows(labels[:, record_at])
    order = np.argsort(position, kind="stable")
    bounds = np.cumsum(np.bincount(position, minlength=len(records)))[:-1]
    keys = [r[0] if len(record_at) == 1 else tuple(r) for r in records.tolist()]
    return [(key, read_only(at)) for key, at in zip(keys, np.split(order, bounds))]


def _branches(
    sections: Sequence[tuple[int | tuple[int, ...], np.ndarray]],
    values: np.ndarray,
    tolerance: float,
) -> list[list[Branch]]:
    """The branches on ``sections`` of each row of amplitudes, in flat-index
    order, of the 2-D ``values``.  A section's coefficient is its norm with
    the phase of its largest amplitude (the first of equal ones); a section
    of weight ``||section||**2`` at most ``tolerance**2`` has no branch."""
    per_row: list[list[Branch]] = [[] for _ in values]
    for label, rows in sections:
        section = values[:, rows]
        anchors = section[np.arange(len(section)), np.argmax(np.abs(section), axis=1)]
        for branches, section_norm, anchor in zip(per_row, vector_norms(section), anchors):
            if section_norm**2 > tolerance**2:
                branches.append(Branch(label, complex(section_norm * anchor / abs(anchor)), rows))
    return per_row


# ---------------------------------------------------------------------------
# The main experiment


@dataclass(frozen=True)
class CertifiedRun:
    """One evolved and certified run of a spec.

    The post-detection and final states, the branches by the first
    observer's record and the checks that read only those states.  A
    rotation sweep computes it once per coefficient draw with
    ``plain_rotation_run`` and passes it with all the draw's angles to one
    ``run_appendix_rotation`` call.
    """

    spec: ExperimentSpec
    enabled: tuple[str, ...]
    chain: CompiledChain
    post_detection: StateVector
    final: StateVector
    branches: tuple[Branch, ...]
    checks: tuple[CheckResult, ...]


def _certified_run(
    spec: ExperimentSpec, checks: Sequence[str] | None, available: Sequence[str]
) -> CertifiedRun:
    """Evolve the spec's initial state through the record stages, then
    perception, decompose the result by ``Obs1`` and run the state checks
    among ``checks`` (all of ``available`` when None)."""
    enabled = tuple(_select_checks(checks, available))
    chain = _compiled(spec)
    post_detection, final = chain.evolve(initial_state(chain.layout, spec.coefficients))
    branches = decompose_branches(final, "Obs1", spec.tolerance)
    results = _state_checks(spec, post_detection, final, branches, enabled)
    return CertifiedRun(
        spec, enabled, chain, post_detection, final, tuple(branches), tuple(results)
    )


def run_measurement_chain(
    spec: ExperimentSpec, checks: Sequence[str] | None = None
) -> RunReport:
    """Run detection then perception and certify the branch structure.

    ``checks`` selects by name from ``CHAIN_CHECKS``; None runs all of
    them, and an empty selection raises ``ValueError``.
    """
    run = _certified_run(spec, checks, CHAIN_CHECKS)
    results = list(run.checks)
    if "coefficient_independence" in run.enabled:
        results.append(coefficient_independence_check(spec, final_state=run.final))
    if "no_signaling" in run.enabled:
        results.append(_canonical_no_signaling(run))

    return RunReport(
        experiment="measurement_chain",
        spec=spec,
        theta=None,
        final_state=run.final,
        branches=list(run.branches),
        checks=results,
    )


def _select_checks(requested: Sequence[str] | None, available: Sequence[str]) -> list[str]:
    if requested is None:
        return list(available)
    unknown = set(requested) - set(available)
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}; available: {list(available)}")
    if not requested:
        raise ValueError("an empty check selection certifies nothing")
    return [name for name in available if name in set(requested)]


def _state_checks(
    spec: ExperimentSpec,
    post_detection: StateVector,
    final: StateVector,
    obs_branches: Sequence[Branch],
    enabled: Sequence[str],
) -> list[CheckResult]:
    """The checks evaluated directly on the run's states.

    ``final`` is the state every observer has looked at; ``obs_branches`` is
    its decomposition by the first observer's record.
    """
    results: list[CheckResult] = []
    layout = final.layout
    detector_names = tuple(r.name for r in layout.by_role(ROLE_DETECTOR))
    observer_names = [r.name for r in layout.by_role(ROLE_OBSERVER)]

    if "structure" in enabled:
        residual = _distance(final, expected_final_state(layout, spec.coefficients))
        results.append(
            CheckResult.from_residual("structure", residual, spec.tolerance)
        )

    detector_at = [layout.position(n) for n in detector_names]
    det_branches: list[Branch] = []
    if "branch_orthogonality" in enabled or "born_weights" in enabled:
        det_branches = decompose_branches(post_detection, detector_names, spec.tolerance)

    if "branch_orthogonality" in enabled:
        residual = max(
            _branch_overlap(post_detection, detector_at, det_branches),
            _branch_overlap(final, [layout.position("Obs1")], obs_branches),
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
        # Once every observer has looked, any level outside the plain
        # messages counts, blank included.
        non_message = _weight_where(final.values, _non_message_rows(layout, final.labels))
        weight = max(mixed_record_weight(post_detection), float(non_message))
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


def _branch_overlap(
    state: StateVector, record_at: list[int], branches: Sequence[Branch]
) -> float:
    """``max_pair_overlap`` of the relative states of ``branches``, sections
    of ``state`` by the registers at ``record_at``: each branch owns its rows
    without those registers, with its amplitudes over its coefficient."""
    rows = np.concatenate([b.rows for b in branches])
    owner = np.concatenate([np.full(len(b.rows), k) for k, b in enumerate(branches)])
    values = np.concatenate([state.values[b.rows] / b.coefficient for b in branches])
    return max_pair_overlap(np.delete(state.labels[rows], record_at, axis=1), owner, values)


def _born_weight_drift(
    n_versions: int, det_branches: Sequence[Branch], obs_branches: Sequence[Branch]
) -> float:
    """Per-version weight difference between the two decompositions."""
    seen, recorded = np.zeros(n_versions), np.zeros(n_versions)
    # Weight on any other record label (non-one-hot configuration, blank or
    # mixed observer level) is itself a conservation failure.
    leftovers = [0.0]
    for b in det_branches:
        if sum(b.record_label) == 1:
            seen[b.record_label.index(1)] = b.weight
        else:
            leftovers.append(b.weight)
    for b in obs_branches:
        if 1 <= b.record_label <= n_versions:
            recorded[b.record_label - 1] = b.weight
        else:
            leftovers.append(b.weight)
    return float(max(np.abs(seen - recorded).max(), *leftovers))


def _distance(x: StateVector, y: StateVector) -> float | list[float]:
    """Euclidean distance between two states, over their joint support; for
    batched states, one per row of amplitudes."""
    _, (xs, ys) = aligned(x, y)
    return vector_norm(xs - ys) if xs.ndim == 1 else vector_norms(xs - ys)


def _observer_columns(
    layout: SubsystemLayout, labels: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Dimensions and label columns of the observer registers."""
    observers = layout.by_role(ROLE_OBSERVER)
    at = [layout.position(r.name) for r in observers]
    return [r.dimension for r in observers], labels[:, at]


def _weight_where(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Summed squared moduli of ``values[..., rows]`` along the last axis,
    in the order ``rows`` lists them (the sum's rounding depends on it)."""
    return np.sum(np.abs(values[..., rows]) ** 2, axis=-1)


def mixed_record_weight(state: StateVector) -> float:
    """Total squared amplitude sitting on any observer's mixed level."""
    dims, levels = _observer_columns(state.layout, state.labels)
    mixed = [mixed_record_level(d) for d in dims]
    return float(_weight_where(state.values, (levels == mixed).any(axis=1)))


def _non_message_rows(layout: SubsystemLayout, labels: np.ndarray) -> np.ndarray:
    """Which label rows put some observer outside the plain messages 1..N."""
    dims, levels = _observer_columns(layout, labels)
    mixed = [mixed_record_level(d) for d in dims]
    return ((levels == OBSERVER_BLANK) | (levels == mixed)).any(axis=1)


def disagreement_weight(state: StateVector) -> float:
    """Squared amplitude on basis states where observers' records differ."""
    _, levels = _observer_columns(state.layout, state.labels)
    if levels.shape[1] < 2:
        return 0.0
    return float(_weight_where(state.values, (levels[:, 1:] != levels[:, :1]).any(axis=1)))


# ---------------------------------------------------------------------------
# Coefficient independence (each branch evolves as if alone)


def coefficient_independence_check(
    spec: ExperimentSpec,
    version_states: Sequence[StateVector] | None = None,
    *,
    final_state: StateVector | None = None,
) -> CheckResult:
    """Compare the full run with the weighted sum of standalone runs.

    The versions v_k are the armed single-path configurations, or
    ``version_states`` when given (they may be non-orthogonal, in which
    case record projection could not separate them).  Every version's rows
    go through the compiled record stages and then perception, with no
    state built in between, giving its standalone run s_k.  Version j's
    residual -- the full run less every other version's weighted run,
    rescaled by ``1 / a_j``, against s_j -- is ``||D|| / |a_j|`` for
    ``D = final - sum_k a_k s_k``, so the check reports ``||D||`` over the
    smallest such ``|a_j|``.  ``final_state`` is the full run's final state
    when the caller already has it.  Versions with a coefficient of modulus
    at most the tolerance are skipped and noted; with none left the
    residual is 0.
    """
    chain = _compiled(spec)
    layout = chain.layout
    if version_states is None:
        labels = _version_rows(layout, range(spec.n_versions), detected=False)
        values, sizes = np.ones(spec.n_versions, dtype=complex), 1
    elif len(version_states) != spec.n_versions:
        raise ValueError(
            f"{len(version_states)} version states for {spec.n_versions} versions"
        )
    else:
        labels = np.concatenate([v.labels for v in version_states])
        values = np.concatenate([v.values for v in version_states])
        sizes = [len(v.values) for v in version_states]
    if final_state is None:
        _, final_state = chain.evolve(
            initial_state(layout, spec.coefficients)
            if version_states is None
            else superpose(list(zip(spec.coefficients, version_states)))
        )
    recorded = chain.record.relabel(labels)
    moved = chain.perception.relabel(recorded.rows)
    # a_k (U v_k); the state adds, in version order, the rows runs share.
    weighted = np.repeat(spec.coefficients, sizes) * moved.amplitudes(recorded.amplitudes(values))
    linear = StateVector(layout, moved.rows, weighted)

    live = [abs(a) for a in spec.coefficients if abs(a) > spec.tolerance]
    residual = _distance(final_state, linear) / min(live) if live else 0.0
    skipped = [j for j, a in enumerate(spec.coefficients) if abs(a) <= spec.tolerance]
    detail = f"skipped zero-coefficient versions {skipped}" if skipped else ""
    return CheckResult.from_residual(
        "coefficient_independence", residual, spec.tolerance, detail
    )


# ---------------------------------------------------------------------------
# No signaling between branches


def phase_flip_perturbation(layout: SubsystemLayout, version: int) -> UnitaryOp:
    """Flip the sign of every basis state in one version's configuration."""
    at, recorded = _version_configuration(layout, version)
    table = ControlledRewrite(at, [recorded], -1, [[0]], [[-1.0]])
    return UnitaryOp(layout, f"phase-flip[version {version + 1}]", (table,))


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
    at, recorded = _version_configuration(layout, version)
    levels = np.arange(layout.register(observer_register).dimension)
    table = ControlledRewrite(
        at, [recorded], layout.position(observer_register), [np.roll(levels, -1)]
    )
    return UnitaryOp(layout, f"record-cycle[version {version + 1}]", (table,))


def _version_configuration(
    layout: SubsystemLayout, version: int
) -> tuple[list[int], np.ndarray]:
    """Positions of the non-observer registers and the labels they read in
    ``version``'s recorded configuration."""
    at = [i for i, r in enumerate(layout.registers) if r.role != ROLE_OBSERVER]
    return at, _version_rows(layout, [version], detected=True)[0, at]


def _restricted(state: StateVector, at: list[int], labels: np.ndarray) -> StateVector:
    """The part of ``state`` whose registers at ``at`` read ``labels``."""
    rows = (state.labels[:, at] == labels).all(axis=1)
    return StateVector(state.layout, state.labels[rows], state.values[rows])


def no_signaling_check(
    spec: ExperimentSpec,
    perturbation: UnitaryOp,
    *,
    states: tuple[StateVector, StateVector] | None = None,
) -> CheckResult:
    """Perturb the second version mid-run; the first branch must not move.

    The perturbation is applied after the records form but before any
    observer looks.  It must be the identity on the first version's
    configuration subspace, else ``InvalidPerturbationError``.  The
    unperturbed run is the baseline: ``states`` is its post-detection and
    final state when the caller already has them, as ``CompiledChain.evolve``
    returns them.
    """
    chain = _compiled(spec)
    layout = chain.layout
    if perturbation.layout != layout:
        raise ValueError(
            f"perturbation on dimensions {perturbation.layout.dimensions()} does not "
            f"match layout dimensions {layout.dimensions()}"
        )
    # Branch 1 is everything living on version 1's configuration, observer
    # included; a perturbed version 2 may do anything, even display the
    # first version's message, without touching that subspace.
    at, recorded = _version_configuration(layout, 0)
    _require_protected(perturbation, at, recorded)

    if states is None:
        states = chain.evolve(initial_state(layout, spec.coefficients))
    post_detection, baseline = states
    perturbed = apply_unitary(chain.perception, apply_unitary(perturbation, post_detection))
    residual = _distance(
        _restricted(baseline, at, recorded), _restricted(perturbed, at, recorded)
    )
    return CheckResult.from_residual(
        "no_signaling", residual, spec.tolerance, detail=perturbation.provenance
    )


def _require_protected(op: UnitaryOp, at: list[int], labels: np.ndarray) -> None:
    """``InvalidPerturbationError`` unless ``op`` is the identity wherever
    the registers at ``at`` read ``labels``.

    Every other register is free there, so a table entry can fire there
    exactly when its control row agrees with ``labels`` on the control
    registers among ``at``; each such entry must fix every level with phase
    1.  A lookup in each table, whatever the number of free levels.
    """
    fixed = dict(zip(at, labels.tolist()))
    for stage in op.stages:
        columns = [i for i, c in enumerate(stage.control) if c in fixed]
        wanted = [fixed[stage.control[i]] for i in columns]
        fires = (stage.when[:, columns] == wanted).all(axis=1)
        fixes = (stage.image == np.arange(stage.image.shape[1])).all(axis=1)
        fixes &= (np.abs(stage.phase - 1.0) <= TOLERANCE).all(axis=1)
        if (fires & ~fixes).any():
            raise InvalidPerturbationError(
                f"perturbation {op.provenance!r} is not the identity on the "
                f"protected branch subspace"
            )


def _canonical_no_signaling(run: CertifiedRun) -> CheckResult:
    """Worst residual over the stock phase-flip and record-cycle probes."""
    states = (run.post_detection, run.final)
    results = [no_signaling_check(run.spec, probe, states=states) for probe in run.chain.probes]
    worst = max(results, key=lambda result: result.residual)
    return replace(worst, detail="phase flip and record cycle on version 2")


# ---------------------------------------------------------------------------
# Mixed-basis rotation (no record ever reads "mixed", in any basis)


def primed_coefficients(a1: complex, a2: complex, theta: float) -> tuple[complex, complex]:
    """Coefficient pair on the rotated two-version plane."""
    c, s = np.cos(theta), np.sin(theta)
    return (a1 * c - a2 * s, a2 * c + a1 * s)


def plain_rotation_run(
    spec: ExperimentSpec, checks: Sequence[str] | None = None
) -> CertifiedRun:
    """Evolve and certify the unrotated run of the rotation experiment."""
    if spec.n_versions != 2:
        raise ValueError("the rotation experiment is defined for exactly two versions")
    return _certified_run(spec, checks, APPENDIX_CHECKS)


def run_appendix_rotation(plain: CertifiedRun, thetas: Sequence[float]) -> list[RunReport]:
    """Rerun perception in a deliberately mixed basis, once per angle.

    Starts from the post-detection state, rotates the two-version plane by
    each angle of ``thetas``, and certifies that (a) the rotated amplitudes
    follow the closed-form coefficient transform, (b) the rotated first
    basis vector evolves into the expected two-message expansion, and (c)
    no observer level outside the plain messages is ever populated -- the
    records are properties of the state, not of the basis used to display
    it.  Returns one ``RunReport`` per angle, in order.

    ``plain`` is ``plain_rotation_run`` of a spec and check list, and gives
    the spec, the enabled checks, the chain and the unrotated run; a sweep
    passes one per draw with all its angles.  The plane is built once per
    call, and every rotated state is a batched state (see ``StateVector``)
    with one row of amplitudes per angle, so the checks run the chain's own
    state code on all the angles at once and each angle's report is the
    one it gets alone.  A non-finite angle anywhere in ``thetas`` raises
    ``ValueError`` before any check runs; so does a rotated final state
    that is not a unit state, when ``record_invariance`` is enabled, as its
    decomposition would.
    """
    for theta in thetas:
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
    spec, enabled, layout = plain.spec, plain.enabled, plain.chain.layout
    # Columns of the scalar cosines and sines primed_coefficients takes: an
    # array call may take another loop and round differently.
    c = np.array([np.cos(theta) for theta in thetas]).reshape(-1, 1)
    s = np.array([np.sin(theta) for theta in thetas]).reshape(-1, 1)
    versions = _version_rows(layout, [0, 1], detected=True)
    plane = build_basis_rotation(layout, *versions)

    def turned(state: StateVector) -> StateVector:
        moved = plane.relabel(state.labels)
        return StateVector(layout, moved.rows, moved.amplitudes(state.values, c, s))

    basis = product_state(layout, versions[0].tolist())
    primed_evolved = apply_unitary(plain.chain.perception, turned(basis))
    per_angle = [list(plain.checks) for _ in thetas]

    if "mixed_record" in enabled:
        # The rotated-basis run is perceived too: the verdict is the worse
        # of it and the plain run, whose weight on the post-detection state
        # the plain verdict already holds.
        at = [r.name for r in plain.checks].index("mixed_record")
        non_message = _non_message_rows(layout, primed_evolved.labels)
        weights = _weight_where(primed_evolved.values, non_message).tolist()
        for results, weight in zip(per_angle, weights):
            primed = CheckResult.from_residual("mixed_record", weight, spec.tolerance**2)
            results[at] = max(results[at], primed, key=lambda r: r.residual)

    if "primed_coefficients" in enabled:
        rotated = turned(plain.post_detection)
        hits = [(rotated.labels == row).all(axis=1) for row in versions]
        for results, theta, amplitudes in zip(per_angle, thetas, rotated.values):
            computed = [amplitudes[hit][0] if hit.any() else 0j for hit in hits]
            formula = primed_coefficients(*spec.coefficients, theta)
            residual = max(abs(computed[0] - formula[0]), abs(computed[1] - formula[1]))
            results.append(
                CheckResult.from_residual("primed_coefficients", float(residual), spec.tolerance)
            )

    if "primed_evolution" in enabled:
        target = StateVector(layout, _expected_rows(layout, 2), np.hstack([c, s]))
        for results, residual in zip(per_angle, _distance(primed_evolved, target)):
            results.append(CheckResult.from_residual("primed_evolution", residual, spec.tolerance))

    if "record_invariance" in enabled:
        final = turned(plain.final)
        require_unit(final.values, "record_invariance")
        sections = _sections(final.labels, [layout.position("Obs1")])
        for results, branches in zip(per_angle, _branches(sections, final.values, spec.tolerance)):
            results.append(_record_invariance(plain.branches, branches, spec.tolerance))

    reports: list[RunReport] = []
    for theta, results in zip(thetas, per_angle):
        draw = reports[0].draw if reports else None
        reports.append(
            RunReport(
                "appendix_rotation", spec, theta, plain.final, [*plain.branches], results, draw
            )
        )
    return reports


def _record_invariance(
    plain: Sequence[Branch], rotated: Sequence[Branch], tolerance: float
) -> CheckResult:
    """Same message table whether or not the state is re-expressed:
    ``plain`` is the run's decomposition by the first observer's record and
    ``rotated`` that of the final state with the basis rotation applied;
    the message sets and each message's branch weight must agree."""
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
