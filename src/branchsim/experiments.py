"""The measurement-chain experiments and their certification checks.

A run prepares a path superposition in front of an armed detector bank,
evolves it through the step operator (detection, optional photon emission,
perception) and decomposes the result into branches: the sections of its
rows by record label, each with a coefficient.  The checks certify the
package's core claims on the finished state -- the branch structure is
exactly the weighted sum of single-version outcomes, branches are mutually
orthogonal, no observer register ever holds the mixed-record level,
observers agree, removing other branches does not change a branch's
evolution, and perturbing one branch cannot signal another.

An ``ExperimentSpec`` is the whole input of a run, negative control
included; a control that could not fail is refused when the spec is built.
The step operator is compiled once per engine call by ``compile_chain``:
the layout, the record stages (detection, then photon emission) composed
into one operator, and perception as one table that writes every observer,
each stage a controlled-rewrite table that is unitary because it could be
built (see ``dynamics``).  Every coefficient draw, rotation angle and check
of that call shares the ``CompiledChain``, which is let go when the call
returns; the stock no-signaling probes are built by the check that applies
them.

Both experiments evolve specs through one path: the initial state goes
through the record stages, then perception, and the final state is
decomposed by the first observer's record, a ``CertifiedRun``.  Each check
is one of its methods, listed in report order in one table, ``CHECKS``,
whose enabled entries ``_certify`` runs.  By linearity, the label rows a
chain moves do not depend on the coefficients, only the amplitudes do.  So
that path takes a batch: the coefficient draws of one configuration, as
specs that differ only in their coefficients, and every state is a batched
state (see ``StateVector``) with one row of amplitudes per draw.  Every
relabel, section, check mask and probe is then done once for all the draws,
and each check gives one residual per row; one spec is the one-row case.
A rotation sweep certifies its draws' unrotated run the same way, and
every state an angle touches has the same label rows at every draw and
angle, so ``run_appendix_rotation`` builds each once, as a batched state
with one row of amplitudes per draw and angle, and certifies it with the
chain's own state code.

Everything is support arithmetic on label rows: a run's states hold N rows,
branches group rows by their record labels, and the record weights, probes
and residuals read rows and amplitudes, never flat indices, so a run costs
O(support) whatever the dimension.  The probes are tables too, so
``no_signaling_check`` proves that a probe leaves the first branch alone by
a lookup of its control rows against that branch's configuration that
enumerates no observer level (``UnitaryOp.is_identity_where``).
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import analysis
from .dynamics import (
    ControlledRewrite,
    PairedRotation,
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
    LABEL,
    ROLE_DETECTOR,
    ROLE_OBSERVER,
    ROLE_PATH,
    ROLE_PHOTON,
    StateVector,
    SubsystemLayout,
    TOLERANCE,
    aligned,
    converted,
    is_message,
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
    vector_norms,
)

# The loosest tolerance a run accepts.  Weights are compared against the
# squared tolerance, so this still tells a weight of 1e-6 from zero.
MAX_TOLERANCE = 1e-3

# The tightest tolerance a run accepts: sound runs leave rounding residuals
# of up to a few 1e-16, which a tighter setting would report as failures.
MIN_TOLERANCE = 1e-14

# The most registers a chain may have (checked by ``chain_layout``), the one
# bound on a run, whose time and memory grow with support x registers; a grid
# of the worst shapes (README) may raise it while N + 2 levels fit ``LABEL``.
MAX_REGISTERS = 512


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one verification: residual against a tolerance.  ``entry``
    is its report entry, built once and shared by every report that holds
    the result."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    skipped: bool = False
    detail: str = ""
    entry: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        status = "skip" if self.skipped else ("pass" if self.passed else "fail")
        object.__setattr__(self, "entry", {
            "name": self.name, "status": status, "residual": self.residual,
            "tolerance": self.tolerance, "detail": self.detail,
        })

    @classmethod
    def from_residual(
        cls, name: str, residual: float, tolerance: float, detail: str = ""
    ) -> "CheckResult":
        return cls(name, residual <= tolerance, float(residual), tolerance, False, detail)

    @classmethod
    def skip(cls, name: str, detail: str) -> "CheckResult":
        return cls(name, True, 0.0, 0.0, True, detail)


def _column(
    name: str, residuals, tolerance: float, details: str | Sequence[str] = ""
) -> list[CheckResult]:
    """Each row's ``CheckResult.from_residual`` for check ``name`` (a string
    ``details`` is every row's detail).  Rows with equal outcomes -- residual,
    sign of zero and detail -- share one frozen result, so its report entry."""
    shared: dict = {}
    column = []
    details = repeat(details) if isinstance(details, str) else details
    for residual, detail in zip(map(float, residuals), details):
        key = (residual, math.copysign(1.0, residual), detail)
        if key not in shared:
            shared[key] = CheckResult.from_residual(name, residual, tolerance, detail)
        column.append(shared[key])
    return column


def _rows(columns: Sequence[Sequence[CheckResult]]) -> list[tuple[CheckResult, ...]]:
    """The rows of ``columns``, as tuples of results; rows that hold the same
    result objects are one tuple, as ``_column`` shares them.  Keys unpack the
    ids: ``tuple(map(...))`` would leave a resized tuple a row on a free list."""
    shared: dict = {}
    return [shared.setdefault((*map(id, row),), row) for row in zip(*columns)]


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Parameters of one run, the whole input of the experiments.

    Construction refuses (``ValueError``, naming the field) counts that are
    not integers or are ``bool``, flags that are not ``bool``, and a
    tolerance or coefficients that are not numbers; it stores the counts as
    ``int`` and the coefficients as ``complex``.  ``tolerance`` must lie in
    ``[MIN_TOLERANCE, MAX_TOLERANCE]``; the coefficients must be finite,
    with ``is_normalized`` squared moduli.
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
        for name in ("n_versions", "observers"):
            count = converted(name, getattr(self, name), operator.index, bool, "an integer")
            object.__setattr__(self, name, count)
        for name in ("photon_model", "negative_control"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        text = (str, bytes)
        converted("tolerance", self.tolerance, float, text, "a number")
        coefficients = tuple(
            converted("coefficients", c, complex, text, "numbers") for c in self.coefficients
        )
        object.__setattr__(self, "coefficients", coefficients)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class RunReport:
    """Result of one run: branch table and check results.  ``draw`` holds
    the report entries that only the spec, the final state and the branches
    decide, built when not given.  Runs of one draw share it and the
    ``branches`` tuple; runs with the same results share the ``checks`` tuple."""

    experiment: str
    spec: ExperimentSpec
    theta: float | None
    final_state: StateVector
    branches: tuple[Branch, ...]
    checks: tuple[CheckResult, ...]
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


def chain_registers(n_versions: int, observers: int = 1, photon_model: bool = False) -> int:
    """The number of registers of a chain, counted without building any;
    ``CapacityError`` when it exceeds ``MAX_REGISTERS``."""
    count = 1 + n_versions * (2 if photon_model else 1) + observers
    if count > MAX_REGISTERS:
        raise CapacityError(
            f"a chain of {count} registers exceeds MAX_REGISTERS = {MAX_REGISTERS}"
        )
    return count


def chain_layout(
    n_versions: int, observers: int = 1, photon_model: bool = False
) -> SubsystemLayout:
    """Canonical layout: path, one detector per version, optional photons,
    then the observer registers; ``chain_registers`` refuses an over-cap chain first."""
    chain_registers(n_versions, observers, photon_model)
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
    versions = np.asarray(versions)[:, None]
    rows = np.zeros((len(versions), len(layout.registers)), dtype=LABEL)
    rows[:, layout.at(ROLE_PATH)] = versions
    if detected:
        for role in (ROLE_DETECTOR, ROLE_PHOTON):
            columns = layout.at(role)
            rows[:, columns] = versions == np.arange(len(columns))
    if message is not None:
        rows[:, layout.at(ROLE_OBSERVER)] = np.asarray(message)[..., None]
    return rows


def initial_state(layout: SubsystemLayout, coefficients: Sequence[complex]) -> StateVector:
    """Path superposition in front of armed detectors, observers blank; a
    (draws x versions) array of coefficients gives a batched state."""
    rows = _version_rows(layout, range(np.shape(coefficients)[-1]), detected=False)
    return StateVector(layout, rows, coefficients)


def expected_final_state(
    layout: SubsystemLayout, coefficients: Sequence[complex]
) -> StateVector:
    """The branch-table target: each version tagged with its own message."""
    versions = np.arange(np.shape(coefficients)[-1])
    rows = _version_rows(layout, versions, detected=True, message=message_level(versions))
    return StateVector(layout, rows, coefficients)


# Keeps its __dict__: tests hold weak references to it, and Python 3.10 has no weakref_slot.
@dataclass(frozen=True)
class CompiledChain:
    """Layout and step operator of one chain configuration, built once.

    ``record`` is the detection table followed, with the photon model, by
    the emission table, one entry per detector, and ``perception`` one table
    that writes every observer.  It depends only on
    ``(n_versions, observers, photon_model, negative_control)``, so the
    draws, angles and checks of one engine call share one, built when the
    call starts and let go when it returns.
    """

    n_versions: int
    observers: int
    photon_model: bool
    negative_control: bool
    layout: SubsystemLayout
    record: UnitaryOp
    perception: UnitaryOp

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

    Each call builds a new chain; the engine calls it once per call of its
    own and hands the result to every check of that call.  ``negative_control``
    rewires version 1's message onto the reserved mixed-record level, so
    tests can prove the mixed-record checks can fail.

    Every operator is unitary because it was built: a stage whose table
    describes no unitary is a bug in a builder, and its construction raises
    ``ValueError`` rather than failing a check.  A chain over
    ``MAX_REGISTERS`` raises ``CapacityError`` (``chain_layout``) before
    anything is built.
    """
    layout = chain_layout(n_versions, observers, photon_model)
    record = build_detection_unitary(layout)
    if photon_model:
        record = compose(build_photon_emission_unitary(layout), record)

    configs, messages = standard_classical_configs(n_versions)
    if negative_control:
        messages[0] = mixed_record_level(observer_dimension(n_versions))
    perception = build_perception_unitary(layout, (configs, messages), negative_control)
    return CompiledChain(
        n_versions, observers, photon_model, negative_control, layout, record, perception
    )


def _compiled(spec: ExperimentSpec, chain: CompiledChain | None = None) -> CompiledChain:
    """The spec's compiled chain: ``chain`` when given, built otherwise.
    ``ValueError`` when ``chain`` is another configuration's."""
    config = (spec.n_versions, spec.observers, spec.photon_model, spec.negative_control)
    if chain is None:
        return compile_chain(*config)
    given = (chain.n_versions, chain.observers, chain.photon_model, chain.negative_control)
    if given != config:
        raise ValueError(f"a chain compiled for {given} cannot certify a spec of {config}")
    return chain


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
    order, and each one's rows keep their flat-index order.  A batched state
    gets one list of branches per member, on sections found once.  An empty
    selection of record registers raises ``ValueError``.
    """
    require_unit(state.values, "decompose_branches")
    names = [record_register] if isinstance(record_register, str) else record_register
    if len(names) == 0:
        raise ValueError("an empty record selection labels no branch")
    sections = _sections(state.labels, [state.layout.position(n) for n in names])
    coefficients = _coefficients(sections, np.atleast_2d(state.values), tolerance)
    branches = [[Branch(k, c, sections[k]) for k, c in row.items()] for row in coefficients]
    return branches if state.values.ndim == 2 else branches[0]


def _sections(labels: np.ndarray, record_at: list[int]) -> dict[int | tuple[int, ...], np.ndarray]:
    """The read-only positions of the rows of ``labels``, in order, by their
    labels at ``record_at`` (an int for one position, a tuple for several),
    in increasing record order."""
    records, position = union_rows(labels[:, record_at])
    order = np.argsort(position, kind="stable")
    bounds = np.cumsum(np.bincount(position, minlength=len(records)))[:-1]
    keys = [r[0] if len(record_at) == 1 else tuple(r) for r in records.tolist()]
    return {key: read_only(at) for key, at in zip(keys, np.split(order, bounds))}


def _coefficients(
    sections: dict[int | tuple[int, ...], np.ndarray], values: np.ndarray, tolerance: float
) -> Iterator[dict]:
    """Each row's branch coefficients by label on ``sections`` of the 2-D
    ``values``, one dict a row as it is reached.  A section's coefficient is
    its norm with the phase of its largest amplitude (the first of equal
    ones); a section of weight ``||section||**2`` at most ``tolerance**2`` has none."""
    columns = []
    for label, rows in sections.items():
        section = values[:, rows]
        anchors = section[np.arange(len(section)), np.argmax(np.abs(section), axis=1)]
        columns.append((label, vector_norms(section), anchors))
    for row in range(len(values)):
        kept = [(label, n[row], x[row]) for label, n, x in columns if n[row] ** 2 > tolerance**2]
        yield {label: complex(n * x / abs(x)) for label, n, x in kept}


# ---------------------------------------------------------------------------
# The main experiment


@dataclass(frozen=True, slots=True)
class CertifiedRun:
    """The evolved run of a batch of specs (see ``_batch``), one per call.

    Its states hold one row of amplitudes per spec, ``branches`` each spec's
    branches by the first observer's record and ``enabled`` the checks to run.
    A ``check_`` method gives one result per report (see ``_column``) from
    the run, the ``Sweep`` (None for a chain) and the values it shares (see
    ``CHECKS``); it finds the checked code in module globals, for profilers.
    """

    specs: tuple[ExperimentSpec, ...]
    enabled: tuple[str, ...]
    chain: CompiledChain
    post_detection: StateVector
    final: StateVector
    branches: tuple[tuple[Branch, ...], ...]

    @property
    def tolerance(self) -> float:
        return self.specs[0].tolerance

    def reports(self, experiment: str, thetas: Sequence, checks: Sequence) -> list[RunReport]:
        """One report per entry of ``checks``, draw-major over ``thetas``; the
        reports of one draw share its branches, its ``draw`` entries and its
        final state, set on the batch's label rows (already in order)."""
        reports, rows, batch = [], iter(checks), self.final
        for spec, values, b in zip(self.specs, batch.values, self.branches):
            final, draw = object.__new__(StateVector), None
            for name, value in zip(StateVector.__slots__, (batch.layout, batch.labels, values)):
                object.__setattr__(final, name, value)
            for theta in thetas:
                reports.append(RunReport(experiment, spec, theta, final, b, next(rows), draw))
                draw = reports[-1].draw
        return reports

    def check_structure(self, sweep):
        target = expected_final_state(self.final.layout, [s.coefficients for s in self.specs])
        distances = _distance(self.final, target)
        return _per_angle(_column("structure", distances, self.tolerance), sweep)

    def detector_branches(self, sweep):
        """Each draw's branches of the post-detection state by its detector records."""
        layout = self.post_detection.layout
        names = [layout.registers[at].name for at in layout.at(ROLE_DETECTOR)]
        return decompose_branches(self.post_detection, names, self.tolerance)

    def check_branch_orthogonality(self, sweep, detected):
        layout = self.final.layout
        residuals = np.maximum(
            _branch_overlap(self.post_detection, layout.at(ROLE_DETECTOR), detected),
            _branch_overlap(self.final, [layout.position("Obs1")], self.branches),
        )
        return _per_angle(_column("branch_orthogonality", residuals, self.tolerance), sweep)

    def check_born_weights(self, sweep, detected):
        n_versions = self.specs[0].n_versions
        drifts = [_born_weight_drift(n_versions, *pair) for pair in zip(detected, self.branches)]
        return _per_angle(_column("born_weights", drifts, self.tolerance), sweep)

    def check_mixed_record(self, sweep, perceived):
        # Once every observer has looked, any level outside the plain
        # messages counts, blank included.
        final, tolerance = self.final, self.tolerance**2
        non_message = _weight_where(final.values, _non_message_rows(final.layout, final.labels))
        weights = np.maximum(mixed_record_weight(self.post_detection), non_message)
        column = _per_angle(_column("mixed_record", weights, tolerance), sweep)
        if perceived is None:
            return column
        # The rotated-basis run is perceived too: the verdict is the worse of
        # it and the plain run, whose weight on the post-detection state the
        # plain verdict already holds.
        non_message = _non_message_rows(final.layout, perceived.labels)
        weights = _weight_where(perceived.values, non_message).tolist()
        primed = _column("mixed_record", weights, tolerance) * len(self.specs)
        return [max(pair, key=lambda r: r.residual) for pair in zip(column, primed)]

    def check_observer_coherence(self, sweep):
        coherence = analysis.observer_coherence(self.final)
        return _per_angle(_column("observer_coherence", coherence, self.tolerance), sweep)

    def check_observer_agreement(self, sweep):
        if self.specs[0].observers < 2:
            skip = CheckResult.skip("observer_agreement", "needs at least two observers")
            return _per_angle([skip] * len(self.specs), sweep)
        weights = disagreement_weight(self.final)
        return _per_angle(_column("observer_agreement", weights, self.tolerance**2), sweep)

    def check_coefficient_independence(self, sweep):
        return coefficient_independence_check(self.specs, final_state=self.final, chain=self.chain)

    def check_no_signaling(self, sweep):
        """Worst residual of the stock phase-flip and record-cycle probes, per row."""
        states, chain, layout = (self.post_detection, self.final), self.chain, self.chain.layout
        probes = (phase_flip_perturbation(layout, 1), record_cycle_perturbation(layout, 1))
        results = [no_signaling_check(self.specs, p, states=states, chain=chain) for p in probes]
        worst = [max(r.residual for r in row) for row in zip(*results)]
        detail = "phase flip and record cycle on version 2"
        return _column("no_signaling", worst, self.tolerance, detail)

    def perceived_basis(self, sweep):
        """The first version's basis vector turned by every angle and
        perceived, one row per angle, as no draw moves it; None for a chain."""
        if sweep is None:
            return None
        basis = product_state(self.chain.layout, sweep.versions[0].tolist())
        return apply_unitary(self.chain.perception, sweep.plane.rotate(basis, sweep.cos, sweep.sin))

    def check_primed_coefficients(self, sweep):
        rotated = sweep.plane.rotate(self.post_detection, sweep.cos, sweep.sin)
        # Each version row's amplitude in every draw and angle; 0 if absent.
        amplitudes = []
        for row in sweep.versions:
            at = np.flatnonzero((rotated.labels == row).all(axis=1))
            amplitudes.append(rotated.values[:, at[0]] if at.size else [0j] * len(rotated.values))
        rows = [(spec.coefficients, theta) for spec in self.specs for theta in sweep.thetas]
        residuals = [
            max(abs(x - y) for x, y in zip(computed, primed_coefficients(*draw, theta)))
            for (draw, theta), *computed in zip(rows, *amplitudes)
        ]
        return _column("primed_coefficients", residuals, self.tolerance)

    def check_primed_evolution(self, sweep, perceived):
        target = expected_final_state(perceived.layout, np.hstack([sweep.cos, sweep.sin]))
        column = _column("primed_evolution", _distance(perceived, target), self.tolerance)
        return column * len(self.specs)

    def check_record_invariance(self, sweep):
        final = sweep.plane.rotate(self.final, sweep.cos, sweep.sin)
        require_unit(final.values, "record_invariance")
        sections = _sections(final.labels, [final.layout.position("Obs1")])
        plain = [{b.record_label: b.coefficient for b in row} for row in self.branches]
        rotated = _coefficients(sections, final.values, self.tolerance)
        angles = len(sweep.thetas)
        outcomes = [_record_invariance(plain[i // angles], r) for i, r in enumerate(rotated)]
        residuals, details = [r for r, _ in outcomes], [d for _, d in outcomes]
        return _column("record_invariance", residuals, self.tolerance, details)


_CHAIN, _ROTATION = ("measurement_chain",), ("appendix_rotation",)
_BOTH = _CHAIN + _ROTATION

# Every check in report order: its name, the experiments that run it, its
# method and the methods of the values it shares with other checks.
CHECKS = (
    ("structure", _BOTH, CertifiedRun.check_structure, ()),
    ("branch_orthogonality", _BOTH, CertifiedRun.check_branch_orthogonality,
     (CertifiedRun.detector_branches,)),
    ("born_weights", _BOTH, CertifiedRun.check_born_weights, (CertifiedRun.detector_branches,)),
    ("mixed_record", _BOTH, CertifiedRun.check_mixed_record, (CertifiedRun.perceived_basis,)),
    ("observer_coherence", _BOTH, CertifiedRun.check_observer_coherence, ()),
    ("observer_agreement", _BOTH, CertifiedRun.check_observer_agreement, ()),
    ("coefficient_independence", _CHAIN, CertifiedRun.check_coefficient_independence, ()),
    ("no_signaling", _CHAIN, CertifiedRun.check_no_signaling, ()),
    ("primed_coefficients", _ROTATION, CertifiedRun.check_primed_coefficients, ()),
    ("primed_evolution", _ROTATION, CertifiedRun.check_primed_evolution,
     (CertifiedRun.perceived_basis,)),
    ("record_invariance", _ROTATION, CertifiedRun.check_record_invariance, ()),
)

CHAIN_CHECKS = tuple(name for name, serves, *_ in CHECKS if "measurement_chain" in serves)
APPENDIX_CHECKS = tuple(name for name, serves, *_ in CHECKS if "appendix_rotation" in serves)


def _certify(run: CertifiedRun, sweep: Sweep | None = None) -> list[list[CheckResult]]:
    """The columns of the run's enabled checks, in ``CHECKS`` order.  A
    shared value is computed for the first check that reads it and let go
    after the last, so it is gone before the next check turns a state."""
    selected = [entry for entry in CHECKS if entry[0] in run.enabled]
    shared, columns = {}, []
    for at, (_, _, check, needs) in enumerate(selected):
        shared.update({need: need(run, sweep) for need in needs if need not in shared})
        columns.append(check(run, sweep, *map(shared.__getitem__, needs)))
        for need in set(needs).difference(*(later for *_, later in selected[at + 1 :])):
            del shared[need]
    return columns


def _per_angle(column: list[CheckResult], sweep: Sweep | None) -> list[CheckResult]:
    """One result per report: each per-draw result of ``column`` at every angle."""
    return column if sweep is None else [r for r in column for _ in sweep.thetas]


def _batch(spec: ExperimentSpec | Sequence[ExperimentSpec]) -> tuple[list, np.ndarray]:
    """The specs of a batch and their (specs x versions) coefficients.  A
    batch is one spec, or specs that differ only in their coefficients."""
    specs = [spec] if isinstance(spec, ExperimentSpec) else list(spec)
    shared = {(s.n_versions, s.observers, s.photon_model, s.negative_control) for s in specs}
    if len(shared) != 1 or len({s.tolerance for s in specs}) != 1:
        raise ValueError("a batch holds specs that differ only in their coefficients")
    return specs, np.array([s.coefficients for s in specs], dtype=complex)


def _certified_run(
    spec: ExperimentSpec | Sequence[ExperimentSpec],
    checks: Sequence[str] | None,
    available: Sequence[str],
) -> CertifiedRun:
    """Evolve the batch's initial state through the record stages, then
    perception, and decompose the result by ``Obs1``, to run the ``checks``
    (all of ``available`` when None); ``ValueError`` before any work for an
    unknown name or an empty selection."""
    enabled = tuple(available if checks is None else checks)
    if unknown := sorted(set(enabled) - set(available)):
        raise ValueError(f"unknown checks {unknown}; available: {list(available)}")
    if not enabled:
        raise ValueError("an empty check selection certifies nothing")
    specs, coefficients = _batch(spec)
    chain = _compiled(specs[0])
    post_detection, final = chain.evolve(initial_state(chain.layout, coefficients))
    branches = tuple(map(tuple, decompose_branches(final, "Obs1", specs[0].tolerance)))
    return CertifiedRun(tuple(specs), enabled, chain, post_detection, final, branches)


def run_measurement_chain(
    spec: ExperimentSpec | Sequence[ExperimentSpec], checks: Sequence[str] | None = None
) -> RunReport | list[RunReport]:
    """Run detection then perception and certify the branch structure.

    A batch of specs (see ``_batch``), the draws of one configuration, runs
    as one batched run and gives a list of reports, each the one its spec
    gets alone.  ``checks`` selects by name from ``CHAIN_CHECKS``; None runs
    all of them, and an empty selection raises ``ValueError``.
    """
    run = _certified_run(spec, checks, CHAIN_CHECKS)
    reports = run.reports("measurement_chain", [None], _rows(_certify(run)))
    return reports[0] if isinstance(spec, ExperimentSpec) else reports


def _branch_overlap(
    state: StateVector, record_at: list[int], branches: Sequence[Sequence[Branch]]
) -> list[float]:
    """``max_pair_overlap`` of the relative states of each row's branches,
    sections of the batched ``state`` by the registers at ``record_at``: each
    branch owns its rows without those registers, with its row's amplitudes
    over its coefficient, and a section that is no branch of a row owns
    zeros there."""
    sections = {b.record_label: b.rows for row in branches for b in row}
    rows = np.concatenate([*sections.values()])
    owner = np.repeat(np.arange(len(sections)), [len(at) for at in sections.values()])
    coefficients = [{b.record_label: b.coefficient for b in row} for row in branches]
    scale = np.array([[row.get(label, 0j) for label in sections] for row in coefficients])[:, owner]
    values = np.divide(state.values[:, rows], scale, out=np.zeros_like(scale), where=scale != 0)
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
        if is_message(b.record_label, observer_dimension(n_versions)):
            recorded[b.record_label - 1] = b.weight
        else:
            leftovers.append(b.weight)
    return float(max(np.abs(seen - recorded).max(), *leftovers))


def _distance(x: StateVector, y: StateVector) -> list[float]:
    """Euclidean distance between two states, over their joint support, one
    per row of amplitudes (a state that is not batched is one row)."""
    _, (xs, ys) = aligned(x, y)
    return vector_norms(np.atleast_2d(xs - ys))


def _weight_where(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Summed squared moduli of ``values[..., rows]`` along the last axis,
    in the order ``rows`` lists them (the sum's rounding depends on it)."""
    return np.sum(np.abs(values[..., rows]) ** 2, axis=-1)


def mixed_record_weight(state: StateVector) -> float | list[float]:
    """Total squared amplitude on any observer's mixed level, per batch member."""
    at = state.layout.at(ROLE_OBSERVER)
    mixed = mixed_record_level(state.layout.dimension_array[at])
    return _weight_where(state.values, (state.labels[:, at] == mixed).any(axis=1)).tolist()


def _non_message_rows(layout: SubsystemLayout, labels: np.ndarray) -> np.ndarray:
    """Which label rows put some observer outside the plain messages 1..N."""
    at = layout.at(ROLE_OBSERVER)
    return ~is_message(labels[:, at], layout.dimension_array[at]).all(axis=1)


def disagreement_weight(state: StateVector) -> float | list[float]:
    """Squared amplitude where observers' records differ, per batch member."""
    levels = state.labels[:, state.layout.at(ROLE_OBSERVER)]
    return _weight_where(state.values, (levels[:, 1:] != levels[:, :1]).any(axis=1)).tolist()


# ---------------------------------------------------------------------------
# Coefficient independence (each branch evolves as if alone)


def coefficient_independence_check(
    spec: ExperimentSpec | Sequence[ExperimentSpec],
    version_states: Sequence[StateVector] | None = None,
    *,
    final_state: StateVector | None = None,
    chain: CompiledChain | None = None,
) -> CheckResult | list[CheckResult]:
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
    and ``chain`` the compiled chain when the caller already has them.
    Versions with a coefficient of modulus at most the tolerance are skipped
    and noted; with none left the residual is 0.

    ``spec`` may be a batch (see ``_batch``), with ``final_state`` batched;
    it gives a list of results, one per spec.
    """
    single = isinstance(spec, ExperimentSpec)
    specs, coefficients = _batch(spec)
    spec = specs[0]
    chain = _compiled(spec, chain)
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
            initial_state(layout, coefficients)
            if version_states is None
            else superpose(list(zip(coefficients.T, version_states)))
        )
    recorded = chain.record.relabel(labels)
    moved = chain.perception.relabel(recorded.rows)
    # a_k (U v_k); the state adds, in version order, the rows runs share.
    amplitudes = moved.amplitudes(recorded.amplitudes(values))
    weighted = np.repeat(coefficients, sizes, axis=1) * amplitudes
    linear = StateVector(layout, moved.rows, weighted)

    residuals, details = [], []
    for row, distance in zip(specs, _distance(final_state, linear)):
        live = [abs(a) for a in row.coefficients if abs(a) > spec.tolerance]
        residuals.append(distance / min(live) if live else 0.0)
        skipped = [j for j, a in enumerate(row.coefficients) if abs(a) <= spec.tolerance]
        details.append(f"skipped zero-coefficient versions {skipped}" if skipped else "")
    results = _column("coefficient_independence", residuals, spec.tolerance, details)
    return results[0] if single else results


# ---------------------------------------------------------------------------
# No signaling between branches


def phase_flip_perturbation(layout: SubsystemLayout, version: int) -> UnitaryOp:
    """Flip the sign of every basis state in one version's configuration:
    the first observer is rewritten there by the identity, with phase -1."""
    return _probe(layout, version, "phase-flip", 0, -1.0)


def record_cycle_perturbation(layout: SubsystemLayout, version: int) -> UnitaryOp:
    """Cycle the first observer's levels inside one version's configuration,
    scrambling what it saw there; every other branch must stay untouched."""
    return _probe(layout, version, "record-cycle", 1, 1.0)


def _probe(layout: SubsystemLayout, version: int, name: str, step: int, phase: float) -> UnitaryOp:
    """One entry: inside ``version``'s configuration, the first observer's
    level l goes to l + ``step`` (cyclically), with ``phase``."""
    observer = layout.at(ROLE_OBSERVER)[0]
    at, recorded = _version_configuration(layout, version)
    dimension = layout.registers[observer].dimension
    levels = (np.arange(dimension) + step) % dimension
    table = ControlledRewrite(at, [recorded], observer, [levels], phase)
    return UnitaryOp(layout, f"{name}[version {version + 1}]", (table,))


def _version_configuration(
    layout: SubsystemLayout, version: int
) -> tuple[list[int], np.ndarray]:
    """Positions of the non-observer registers and the labels they read in
    ``version``'s recorded configuration."""
    at = layout.at(ROLE_PATH, ROLE_DETECTOR, ROLE_PHOTON)
    return at, _version_rows(layout, [version], detected=True)[0, at]


def _restricted(state: StateVector, at: list[int], labels: np.ndarray) -> StateVector:
    """The part of ``state`` whose registers at ``at`` read ``labels``."""
    rows = (state.labels[:, at] == labels).all(axis=1)
    return StateVector(state.layout, state.labels[rows], state.values[..., rows])


def no_signaling_check(
    spec: ExperimentSpec | Sequence[ExperimentSpec],
    perturbation: UnitaryOp,
    *,
    states: tuple[StateVector, StateVector] | None = None,
    chain: CompiledChain | None = None,
) -> CheckResult | list[CheckResult]:
    """Perturb the second version mid-run; the first branch must not move.

    The perturbation is applied after the records form but before any
    observer looks.  It must be the identity on the first version's
    configuration subspace, else ``InvalidPerturbationError``.  The
    unperturbed run is the baseline: ``states`` is its post-detection and
    final state when the caller already has them, as ``CompiledChain.evolve``
    returns them, and ``chain`` the compiled chain when the caller already
    has it.  ``spec`` may be a batch (see ``_batch``), with ``states``
    batched; it gives a list of results, one per spec.  A perturbation that
    is not a permutation operator raises ``TypeError``.

    The check sees only what ``perturbation`` does, and neither stock probe
    changes the second version's weight: an engine that couples the first
    branch to that weight passes it, and fails ``structure`` and
    ``coefficient_independence`` instead.
    """
    if not isinstance(perturbation, UnitaryOp):
        raise TypeError(f"no_signaling takes permutation operators only, got {perturbation!r}")
    single = isinstance(spec, ExperimentSpec)
    specs, coefficients = _batch(spec)
    spec = specs[0]
    chain = _compiled(spec, chain)
    layout = chain.layout
    layout.require_same(perturbation.layout, "no_signaling_check")
    # Branch 1 is everything living on version 1's configuration, observer
    # included; a perturbed version 2 may do anything, even display the
    # first version's message, without touching that subspace.
    at, recorded = _version_configuration(layout, 0)
    if not perturbation.is_identity_where(at, recorded):
        what = f"perturbation {perturbation.provenance!r} is not the identity"
        raise InvalidPerturbationError(f"{what} on the protected branch subspace")

    if states is None:
        states = chain.evolve(initial_state(layout, coefficients))
    post_detection, baseline = states
    perturbed = apply_unitary(chain.perception, apply_unitary(perturbation, post_detection))
    residuals = _distance(
        _restricted(baseline, at, recorded), _restricted(perturbed, at, recorded)
    )
    results = _column("no_signaling", residuals, spec.tolerance, perturbation.provenance)
    return results[0] if single else results


# ---------------------------------------------------------------------------
# Mixed-basis rotation (no record ever reads "mixed", in any basis)


def primed_coefficients(a1: complex, a2: complex, theta: float) -> tuple[complex, complex]:
    """Coefficient pair on the rotated two-version plane."""
    c, s = np.cos(theta), np.sin(theta)
    return (a1 * c - a2 * s, a2 * c + a1 * s)


@dataclass(frozen=True, slots=True)
class Sweep:
    """Angles, their cosine and sine columns, and the two versions' rows and plane."""

    thetas: Sequence[float]
    cos: np.ndarray
    sin: np.ndarray
    versions: np.ndarray
    plane: PairedRotation


def run_appendix_rotation(
    spec: ExperimentSpec | Sequence[ExperimentSpec],
    thetas: Sequence[float],
    checks: Sequence[str] | None = None,
) -> list[RunReport]:
    """Rerun perception in a deliberately mixed basis, at every angle.

    Starts from the post-detection state, rotates the two-version plane by
    each angle of ``thetas``, and certifies that (a) the rotated amplitudes
    follow the closed-form coefficient transform, (b) the rotated first
    basis vector evolves into the expected two-message expansion, and (c)
    no observer level outside the plain messages is ever populated -- the
    records are properties of the state, not of the basis used to display
    it.  ``checks`` selects from ``APPENDIX_CHECKS``.

    ``spec`` may be a batch (see ``_batch``), whose unrotated run is
    certified once, as a chain config's is.  Every rotated state is a
    batched state with one row of amplitudes per draw and angle, checked by
    the chain's own state code at once.  A check frees the states it turns
    when it returns, and ``_certify`` frees the perceived turned basis
    vector after the last check that reads it, so the sweep holds one rotated
    batch at a time and none while the reports are built.  The reports come
    draw-major, each the one its draw gets alone at its angle (see
    ``CertifiedRun.reports``).
    No angle, a non-finite angle anywhere in ``thetas``, or a spec of other
    than two versions raises ``ValueError`` before any work; so does a
    rotated final state that is not a unit state, when ``record_invariance``
    is enabled.
    """
    if len(thetas) == 0:
        raise ValueError("an empty sweep certifies nothing")
    for theta in thetas:
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
    specs, _ = _batch(spec)
    if specs[0].n_versions != 2:
        raise ValueError("the rotation experiment is defined for exactly two versions")
    run = _certified_run(specs, checks, APPENDIX_CHECKS)
    layout = run.chain.layout
    # Columns of the scalar cosines and sines primed_coefficients takes: an
    # array call may take another loop and round differently.
    c, s = (np.array([f(theta) for theta in thetas]).reshape(-1, 1) for f in (np.cos, np.sin))
    versions = _version_rows(layout, [0, 1], detected=True)
    sweep = Sweep(thetas, c, s, versions, build_basis_rotation(layout, *versions))
    return run.reports("appendix_rotation", thetas, _rows(_certify(run, sweep)))


def _record_invariance(plain: dict, rotated: dict) -> tuple[float, str]:
    """Residual and detail of the same message table whether or not the
    state is re-expressed: ``plain`` maps the labels of the run's branches by
    the first observer's record to their coefficients, ``rotated`` those of the
    rotated final state; the message sets (else residual 1) and each message's
    weight ``abs(c) ** 2``, as ``Branch.weight``, must agree."""
    if set(plain) != set(rotated):
        return 1.0, f"message sets differ: {sorted(plain)} vs {sorted(rotated)}"
    residual = max((abs(abs(plain[k]) ** 2 - abs(rotated[k]) ** 2) for k in plain), default=0.0)
    return residual, ""

