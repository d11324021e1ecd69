"""Brute-force reference implementations for the test suite.

Everything here is written with explicit loops over per-register label
tuples and dense matrices, independent of the library's support-based
states and permutation representations, so agreement is meaningful.

The library stores a state as its support and never computes a flat
index.  The flat-index arithmetic lives here: ``encode`` and ``decode``
(the mixed-radix number of a label row, first register most significant),
``basis_labels`` (every label row in flat-index order, so that
``StateVector(layout, basis_labels(layout), amplitudes)`` turns a dense
vector into a state), ``flat_indices`` and ``dense_amplitudes`` (a state's
amplitude at every flat index).  The dense views of library operators
(``permutation_view``, ``dense_matrix``) evaluate the library's own
application on every basis state; they exist only to be compared against
the loop-built matrices.  Every dense view is refused above its cap.
``reference_branches`` decomposes a state into relative ``StateVector``s
on a relative layout, and ``reference_overlap`` takes their Gram matrix
entry by entry over the whole aligned table, each entry exactly rounded:
the reference for the library's branches, which are only sections of the
state's rows, and for its overlap engine, which multiplies only rows that
share relative labels.  ``exact_partial_trace`` is the reduced density
matrix with every entry exactly rounded, the reference for
``observer_coherence`` through ``naive_observer_coherence``.
``gram_overlap`` and ``dense_observer_coherence`` are the same residuals as
one BLAS product, which rounds in its own order, and
``reference_born_weight_drift`` is the Born-weight residual from dicts
keyed by one-hot tuples and message levels.
``rotate`` turns a state by an angle on the planes of a ``PairedRotation``
(the library's ``rotate`` at that angle), and
``reference_appendix_rotation`` certifies one draw's plain run alone and
evolves every state of each rotation angle afresh with ``rotate`` and
``apply_unitary``, the reference for the experiment's batched states, which
hold a whole batch of draws and angles at once.
``reference_measurement_chain`` is the per-draw path of the measurement
chain: one spec's run by itself, every state one state, its state checks
(``reference_state_checks``) on ``reference_pair_overlap``, the overlap
loop one row of amplitudes at a time, its independence check on each
version evolved as its own state and its probes applied one by one; the
library certifies all of a configuration's draws as the rows of one batch,
and each draw's report must equal this one bit for bit.
``reference_relabel`` applies one controlled-rewrite table by matching
every label row against every entry's control cells at once and writing
its targets one column at a time, the reference for the library's lookup
of each row's control labels and its one write of every target.
``reference_report_json``
is the stdlib's pure-Python ``indent=2`` encoding, the reference for the
report writer, and ``reference_argv`` is the ``argparse`` parser the CLI
once built, the reference for its one loop over argv.

The library's run path needs none of the helpers below; tests use them to
build states and operators by hand: ``version_labels`` (one version's
configuration, register by register), ``reconstruct_branches`` (the inverse
of ``decompose_branches``), ``inner_product``, the operators ``identity``
and ``level_cycle``, ``stock_probes`` (the two probes the chain's
no-signaling check builds), and the inverses ``inverse`` (of one table)
and ``adjoint`` (of an operator).
"""

import argparse
import dataclasses
import itertools
import json
import math

import numpy as np

from branchsim import (
    CapacityError,
    CheckResult,
    ControlledRewrite,
    InvalidPerturbationError,
    PairedRotation,
    RunReport,
    StateVector,
    UnitaryOp,
    apply_unitary,
    build_basis_rotation,
    decompose_branches,
    expected_final_state,
    make_layout,
    mixed_record_level,
    primed_coefficients,
    product_state,
    reduced_density_matrix,
)
from branchsim import experiments
from branchsim.state import aligned, union_rows, vector_norm
from branchsim.cli import _jsonify

# Dense matrices only below this dimension.
DENSE_DIMENSION_CAP = 4096
# Dense state views (one entry per basis state) only below this dimension,
# which also keeps flat indices exact in int64.
DENSE_VIEW_CAP = 2**24


def naive_encode(dims, labels):
    """Mixed-radix encode, first digit most significant."""
    flat = 0
    for dim, lab in zip(dims, labels):
        flat = flat * dim + lab
    return flat


def naive_decode(dims, flat):
    labels = []
    for dim in reversed(dims):
        labels.append(flat % dim)
        flat //= dim
    return tuple(reversed(labels))


def require_dense_view(layout):
    """``CapacityError`` unless an array over every basis state fits."""
    if layout.total_dimension > DENSE_VIEW_CAP:
        raise CapacityError(
            f"refusing a dense view of dimension {layout.total_dimension} "
            f"(cap {DENSE_VIEW_CAP})"
        )


def encode(layout, labels):
    """Flat index of the basis state with the given labels (a sequence in
    layout order, or a mapping from register names)."""
    return naive_encode(layout.dimensions(), layout.row(labels).tolist())


def decode(layout, flat):
    """Per-register labels of the basis state at flat index ``flat``."""
    if not 0 <= flat < layout.total_dimension:
        raise ValueError(f"flat index {flat} out of range [0, {layout.total_dimension})")
    return naive_decode(layout.dimensions(), flat)


def basis_labels(layout):
    """Dense view: the label row of every flat index, in order."""
    require_dense_view(layout)
    return np.indices(layout.dimensions()).reshape(len(layout.registers), -1).T


def flat_indices(layout, labels):
    """Dense view: the flat index of each label row."""
    require_dense_view(layout)
    return np.ravel_multi_index(np.asarray(labels, dtype=np.int64).T, layout.dimensions())


def dense_amplitudes(state):
    """Dense view: the state's amplitude at every flat index."""
    indices = flat_indices(state.layout, state.labels)
    dense = np.zeros(state.layout.total_dimension, dtype=complex)
    dense[indices] = state.values
    return dense


def _label_space(layout):
    return itertools.product(*(range(r.dimension) for r in layout.registers))


def _named(layout, labels):
    return dict(zip((r.name for r in layout.registers), labels))


def version_labels(layout, version, *, detected, message=None):
    """Basis labels of one version's configuration, register by register.

    The path reads ``version``.  ``detected=False`` is the armed
    configuration (every detector idle, every photon in vacuum);
    ``detected=True`` fires the version's detector and emits its photon,
    counting each role's registers in layout order.  ``message`` fills every
    observer register, blank (0) when None.
    """
    labels, seen = {}, {"detector": 0, "photon": 0}
    for reg in layout.registers:
        if reg.role == "particle-path":
            labels[reg.name] = version
        elif reg.role == "observer":
            labels[reg.name] = 0 if message is None else message
        else:
            labels[reg.name] = int(detected and seen[reg.role] == version)
            seen[reg.role] += 1
    return labels


def _record_names(record_register):
    if isinstance(record_register, str):
        return (record_register,)
    return tuple(record_register)


def reference_branches(state, record_register, tolerance):
    """The decomposition as relative states: ``(label, coefficient,
    relative)`` per record label in increasing order, ``relative`` the
    label's rows without the record registers, on a layout of the other
    registers, with their amplitudes divided by the coefficient.

    The rows are grouped by a dict of label tuples; a label is an int for
    one record register and a tuple for several.  Each section's
    coefficient is its norm with the phase of its largest amplitude (the
    first of equal ones), one section at a time, and a section of weight at
    most ``tolerance**2`` is pruned.
    """
    layout = state.layout
    names = _record_names(record_register)
    relative_layout = make_layout(
        [(r.name, r.dimension, r.role) for r in layout.registers if r.name not in names]
    )
    relative_at = [layout.position(n) for n in relative_layout.names()]
    record_at = [layout.position(n) for n in names]
    sections = {}
    for index, record in enumerate(state.labels[:, record_at].tolist()):
        sections.setdefault(tuple(record), []).append(index)
    branches = []
    for record, rows in sorted(sections.items()):
        section = state.values[rows]
        section_norm = vector_norm(section)
        if section_norm**2 <= tolerance**2:
            continue
        anchor = section[int(np.argmax(np.abs(section)))]
        coefficient = complex(section_norm * anchor / abs(anchor))
        relative = StateVector(
            relative_layout, state.labels[rows][:, relative_at], section / coefficient
        )
        branches.append((record[0] if len(names) == 1 else record, coefficient, relative))
    return branches


def _exact_product_sum(pairs):
    """sum p * conj(q) over the pairs (p, q): its real and its imaginary
    part each an exactly rounded sum (``math.fsum``) of rounded products."""
    real, imag = [], []
    for p, q in pairs:
        real += (p.real * q.real, p.imag * q.imag)
        imag += (p.imag * q.real, -(p.real * q.imag))
    return complex(math.fsum(real), math.fsum(imag))


def reference_overlap(relatives):
    """Largest off-diagonal modulus of the Gram matrix of the relative
    states, aligned on the union of their supports (0 for fewer than two):
    every entry an exactly rounded sum over the whole table, zeros
    included, and its modulus ``math.hypot`` of its parts."""
    _, table = aligned(*relatives)
    rows = table.tolist()
    worst = 0.0
    for a, b in itertools.combinations(range(len(rows)), 2):
        entry = _exact_product_sum(zip(rows[a], rows[b]))
        worst = max(worst, math.hypot(entry.real, entry.imag))
    return worst


def gram_overlap(relatives):
    """``reference_overlap`` as one BLAS product of the aligned table, in
    whatever order BLAS sums (0 for fewer than two)."""
    if len(relatives) < 2:
        return 0.0
    _, table = aligned(*relatives)
    gram = np.abs(table.conj() @ table.T)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def exact_partial_trace(state, keep):
    """The reduced density matrix on the registers ``keep`` (in layout
    order), rho[i, j] = sum_e psi[i, e] conj(psi[j, e]) over every traced
    label e of the state's rows, zeros included, each entry exactly rounded
    (``_exact_product_sum``)."""
    layout = state.layout
    at = sorted(layout.position(name) for name in keep)
    dims = [layout.registers[p].dimension for p in at]
    traced = [tuple(r) for r in np.delete(state.labels, at, axis=1).tolist()]
    columns = {label: column for column, label in enumerate(sorted(set(traced)))}
    psi = [[0j] * len(columns) for _ in range(math.prod(dims))]
    for kept, label, value in zip(state.labels[:, at].tolist(), traced, state.values.tolist()):
        psi[naive_encode(dims, kept)][columns[label]] = value
    return np.array([[_exact_product_sum(zip(p, q)) for q in psi] for p in psi])


def dense_observer_coherence(state, observer):
    """Largest modulus of an entry of ``reduced_density_matrix`` (one BLAS
    product) between two distinct message levels of ``observer``."""
    rho = reduced_density_matrix(state, [observer]).entries
    top = mixed_record_level(state.layout.register(observer).dimension)
    upper = np.triu(rho[1:top, 1:top], 1)
    return float(np.hypot(upper.real, upper.imag).max(initial=0.0))


def reference_born_weight_drift(n_versions, det_branches, obs_branches):
    """The largest per-version weight difference between the detector
    branches, keyed by one-hot configuration tuples, and the observer
    branches, keyed by message level; any other label's weight counts in
    full."""
    det_weights = {b.record_label: b.weight for b in det_branches}
    obs_weights = {b.record_label: b.weight for b in obs_branches}
    drift = 0.0
    for j in range(n_versions):
        one_hot = tuple(1 if k == j else 0 for k in range(n_versions))
        seen = det_weights.pop(one_hot, 0.0)
        recorded = obs_weights.pop(j + 1, 0.0)
        drift = max(drift, abs(seen - recorded))
    leftovers = list(det_weights.values()) + list(obs_weights.values())
    if leftovers:
        drift = max(drift, max(leftovers))
    return drift


def reconstruct_branches(state, record_register, branches):
    """Reassemble ``sum_j a(j) * (relative_j (x) |label_j>)`` row by row from
    the branches ``decompose_branches(state, record_register)`` gives: each
    branch's relative rows are the state's rows at ``rows`` read off every
    other register, with its record label written into the record
    registers."""
    layout = state.layout
    names = _record_names(record_register)
    rows, values = [], []
    for branch in branches:
        label = branch.record_label
        label = label if isinstance(label, tuple) else (label,)
        relative = state.values[branch.rows] / branch.coefficient
        for row, value in zip(state.labels[branch.rows].tolist(), relative.tolist()):
            named = {
                **{n: d for n, d in zip(layout.names(), row) if n not in names},
                **dict(zip(names, label)),
            }
            rows.append([named[name] for name in layout.names()])
            values.append(branch.coefficient * value)
    shape = (len(rows), len(layout.registers))
    return StateVector(layout, np.array(rows, dtype=np.int64).reshape(shape), values)


def inner_product(x, y):
    """Hermitian inner product, conjugate-linear in the first argument,
    summed over the rows both supports hold."""
    if x.layout != y.layout:
        raise ValueError("inner product requires states on the same layout")
    at = {tuple(row): value for row, value in zip(y.labels.tolist(), y.values.tolist())}
    return complex(
        sum(
            value.conjugate() * at[tuple(row)]
            for row, value in zip(x.labels.tolist(), x.values.tolist())
            if tuple(row) in at
        )
    )


def identity(layout):
    """The operator of no stages: every row is left as it is, with phase 1."""
    return UnitaryOp(layout, "identity", ())


def level_cycle(layout, register, shift=1):
    """Cyclically shift one register's levels; identity on all others."""
    levels = np.arange(layout.register(register).dimension)
    table = ControlledRewrite(
        (), [[]], layout.position(register), [(levels + shift) % levels.size]
    )
    return UnitaryOp(layout, f"level-cycle[{register}+{shift}]", (table,))


def inverse(stage):
    """The adjoint of one controlled-rewrite table: the same control rows,
    each image inverted and each phase conjugated at the level it now
    leaves from."""
    image = np.argsort(stage.image, axis=1)
    phase = np.take_along_axis(stage.phase, image, axis=1).conj()
    return ControlledRewrite(stage.control, stage.when, stage.target, image, phase)


def adjoint(op):
    """The adjoint of a permutation operator: every table inverted, in
    reverse order."""
    provenance = f"adjoint({op.provenance})"
    return UnitaryOp(op.layout, provenance, tuple(map(inverse, reversed(op.stages))))


def rotate(plane, state, theta):
    """``state`` turned by ``theta`` on the planes of ``plane``: the
    library's ``PairedRotation.rotate`` at the angle's cosine and sine, with
    the amplitudes in the state's own shape (one row, or one per member)."""
    turned = plane.rotate(state, np.cos(theta), np.sin(theta))
    values = turned.values.reshape(state.values.shape[:-1] + (-1,))
    return StateVector(state.layout, turned.labels, values)


def reference_relabel(table, labels):
    """What ``table._relabel`` writes into a copy of ``labels`` and a phase
    of 1 per row, from one (rows x entries x controls) boolean match of every
    row's cells at each entry's control positions against its ``when`` row:
    the rows after the table and the phase each row picks up, one column of
    targets at a time."""
    # A 1-D control row is every entry's, and its ``when`` rows are distinct,
    # so at most one entry matches a row.  With a control row per entry,
    # several may: their registers are disjoint and their phases 1.
    control = np.broadcast_to(table.control, table.when.shape)
    row, entry = np.nonzero((labels[:, control] == table.when).all(axis=2))
    rows = labels.copy()
    phases = np.ones(len(labels), dtype=complex)
    # An entry's targets are distinct and not among any matched entry's
    # controls, so each column reads the levels it rewrites from ``labels``;
    # with several columns, or several matches in a row, every phase is 1.
    for target in table.target[entry].T:
        level = labels[row, target]
        rows[row, target] = table.image[entry, level]
        phases[row] = table.phase[entry, level]
    return rows, phases


def permutation_view(op):
    """The image flat index and the phase of every flat index under a
    permutation operator: the library's own application evaluated on
    ``basis_labels`` and read back with ``flat_indices`` (refused above
    ``DENSE_VIEW_CAP``)."""
    layout = op.layout
    moved = op.relabel(basis_labels(layout))
    phases = moved.amplitudes(np.ones(layout.total_dimension, dtype=complex))
    return flat_indices(layout, moved.rows), phases


def dense_matrix(op, theta=None):
    """Dense matrix of a permutation operator, or of the rotation by
    ``theta`` on the planes of a ``PairedRotation``, from the library's own
    application on ``basis_labels`` (refused above ``DENSE_DIMENSION_CAP``)."""
    dimension = op.layout.total_dimension
    if dimension > DENSE_DIMENSION_CAP:
        raise CapacityError(
            f"refusing dense {dimension}x{dimension} matrix (cap {DENSE_DIMENSION_CAP})"
        )
    matrix = np.zeros((dimension, dimension), dtype=complex)
    if isinstance(op, PairedRotation):
        # Member i of the identity batch is basis state i, so row i of the
        # turned batch's amplitudes is the matrix's column i.
        identity = StateVector(op.layout, basis_labels(op.layout), np.eye(dimension))
        turned = op.rotate(identity, np.cos(theta), np.sin(theta))
        matrix[flat_indices(op.layout, turned.labels)] = turned.values.T
    else:
        image, phases = permutation_view(op)
        matrix[image, np.arange(dimension)] = phases
    return matrix


def reference_report_json(report):
    """A report's JSON text as the stdlib writes it with ``indent=2``, in
    pure Python, one small piece per token (without the final newline)."""
    return json.dumps(report, indent=2, sort_keys=True, default=_jsonify, allow_nan=False)


def reference_argv(argv):
    """``argv`` as the CLI's former ``argparse`` parser read it, in the form
    ``cli._parse_argv`` returns: ``{"config": path, option: value, ...}`` for
    the options given.  A usage error raises ``SystemExit(2)`` and help
    ``SystemExit(0)``, after argparse prints its message."""
    parser = argparse.ArgumentParser(
        prog="branchsim",
        description="Run branching measurement-chain experiments from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute the experiment in a config file")
    runner.add_argument("config", help="path to a JSON config")
    runner.add_argument(
        "--check",
        action="append",
        dest="checks",
        metavar="NAME",
        help="run only the named check (repeatable)",
    )
    runner.add_argument("--format", choices=("json", "text"), help="report format override")
    runner.add_argument("--out", metavar="PATH", help="report path override")
    runner.add_argument("--seed", type=int, metavar="U64", help="seed override")
    runner.add_argument("--tolerance", type=float, metavar="X", help="tolerance override")
    runner.add_argument(
        "--negative-control", action="store_true", help=argparse.SUPPRESS
    )
    args = vars(parser.parse_args(argv))
    names = {"checks": "--check", "negative_control": "--negative-control"}
    return {
        names.get(dest, dest if dest == "config" else "--" + dest): value
        for dest, value in args.items()
        if dest != "command" and value is not None and value is not False
    }


def unitarity_residual(matrix):
    """max |U^dagger U - I| of a dense matrix."""
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(len(matrix)))))


def naive_rewrite_matrix(layout, control, when, target, image, phase):
    """Dense matrix of one controlled-rewrite table, built state by state.

    Every entry whose control row basis state x reads adds
    ``phase[e][l] e_x'`` to column x, where l is x's level of ``target[e]``
    and x' is x with that level replaced by
    ``image[e][l]``; a state that no entry reads maps to itself.  A table
    whose control rows repeat therefore sums several images into one
    column, as the controlled operator it writes down would.
    """
    dims = [r.dimension for r in layout.registers]
    matrix = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for labels in _label_space(layout):
        column = naive_encode(dims, labels)
        hits = [
            e for e, row in enumerate(when)
            if all(labels[c] == w for c, w in zip(control, row))
        ]
        if not hits:
            matrix[column, column] += 1.0
        for e in hits:
            moved = list(labels)
            level = labels[target[e]]
            moved[target[e]] = image[e][level]
            matrix[naive_encode(dims, moved), column] += phase[e][level]
    return matrix


def naive_detection_matrix(layout):
    """Dense matrix of the detection rule, built state by state."""
    dims = [r.dimension for r in layout.registers]
    names = [r.name for r in layout.registers]
    path = [r.name for r in layout.registers if r.role == "particle-path"][0]
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    matrix = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for labels in _label_space(layout):
        state = _named(layout, labels)
        hit = detectors[state[path]]
        state[hit] = 1 - state[hit]
        new_flat = naive_encode(dims, [state[n] for n in names])
        matrix[new_flat, naive_encode(dims, labels)] = 1.0
    return matrix


def naive_emission_matrix(layout):
    dims = [r.dimension for r in layout.registers]
    names = [r.name for r in layout.registers]
    detectors = [r.name for r in layout.registers if r.role == "detector"]
    photons = [r.name for r in layout.registers if r.role == "photon"]
    matrix = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for labels in _label_space(layout):
        state = _named(layout, labels)
        for det, ph in zip(detectors, photons):
            if state[det] == 1:
                state[ph] = 1 - state[ph]
        new_flat = naive_encode(dims, [state[n] for n in names])
        matrix[new_flat, naive_encode(dims, labels)] = 1.0
    return matrix


def naive_perception_matrix(layout, observer, rules, condition):
    """Dense matrix of one observer's perception rule; ``rules`` pairs the
    record configurations (one row each) with their messages."""
    configs = {
        tuple(config): message
        for config, message in zip(np.asarray(rules[0]).tolist(), np.asarray(rules[1]).tolist())
    }
    dims = [r.dimension for r in layout.registers]
    names = [r.name for r in layout.registers]
    matrix = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for labels in _label_space(layout):
        state = _named(layout, labels)
        seen = tuple(state[n] for n in condition)
        if seen in configs:
            message = configs[seen]
            if state[observer] == 0:
                state[observer] = message
            elif state[observer] == message:
                state[observer] = 0
        new_flat = naive_encode(dims, [state[n] for n in names])
        matrix[new_flat, naive_encode(dims, labels)] = 1.0
    return matrix


def naive_chain_matrix(layout, observers, configs, condition, photon_model=False):
    """Full step operator: detection, optional emission, then perceptions."""
    matrix = naive_detection_matrix(layout)
    if photon_model:
        matrix = naive_emission_matrix(layout) @ matrix
    for observer in observers:
        matrix = naive_perception_matrix(layout, observer, configs, condition) @ matrix
    return matrix


def naive_evolve(layout, observers, configs, condition, psi, photon_model=False):
    """Apply the step matrices to a vector one by one (cheaper than
    composing the dense matrices on larger layouts)."""
    psi = naive_detection_matrix(layout) @ psi
    if photon_model:
        psi = naive_emission_matrix(layout) @ psi
    for observer in observers:
        psi = naive_perception_matrix(layout, observer, configs, condition) @ psi
    return psi


def naive_partial_trace(amplitudes, dims, keep_positions):
    """rho[i, j] = sum_e psi[i, e] conj(psi[j, e]) by explicit label loops."""
    keep_positions = sorted(keep_positions)
    traced = [p for p in range(len(dims)) if p not in keep_positions]
    keep_dims = [dims[p] for p in keep_positions]
    traced_dims = [dims[p] for p in traced]
    kept_dimension = int(np.prod(keep_dims)) if keep_dims else 1

    def full_flat(kept_labels, traced_labels):
        labels = [0] * len(dims)
        for pos, lab in zip(keep_positions, kept_labels):
            labels[pos] = lab
        for pos, lab in zip(traced, traced_labels):
            labels[pos] = lab
        return naive_encode(dims, labels)

    rho = np.zeros((kept_dimension, kept_dimension), dtype=complex)
    kept_space = list(itertools.product(*(range(d) for d in keep_dims)))
    traced_space = list(itertools.product(*(range(d) for d in traced_dims)))
    for i, row in enumerate(kept_space):
        for j, col in enumerate(kept_space):
            total = 0.0 + 0.0j
            for env in traced_space:
                total += amplitudes[full_flat(row, env)] * np.conj(
                    amplitudes[full_flat(col, env)]
                )
            rho[i, j] = total
    return rho


def naive_observer_coherence(rho):
    """Largest modulus (``math.hypot`` of the parts) among the entries of an
    observer's reduced density matrix ``rho`` between two distinct message
    levels (every level but the first, blank, and the last, mixed), by a
    loop over every pair."""
    worst = 0.0
    messages = range(1, len(rho) - 1)
    for m in messages:
        for m2 in messages:
            if m2 > m:
                worst = max(worst, math.hypot(rho[m, m2].real, rho[m, m2].imag))
    return float(worst)


def naive_entropy_bits(rho):
    """Shannon entropy of the eigenvalue spectrum, in bits."""
    eigenvalues = np.linalg.eigvalsh(rho)
    total = 0.0
    for lam in eigenvalues:
        if lam >= 1e-14:
            total -= lam * math.log2(lam)
    return total


def naive_disagreement_weight(layout, amplitudes):
    """Weight on basis states whose observer registers disagree."""
    observers = [i for i, r in enumerate(layout.registers) if r.role == "observer"]
    dims = [r.dimension for r in layout.registers]
    weight = 0.0
    for labels in _label_space(layout):
        records = {labels[i] for i in observers}
        if len(records) > 1:
            weight += abs(amplitudes[naive_encode(dims, labels)]) ** 2
    return weight


def naive_rotation_matrix(layout, span, theta):
    """Dense matrix of the basis rotation, built basis state by basis state.

    A state whose non-observer labels read ``span[0]`` maps to cos of itself
    plus sin of its partner reading ``span[1]`` (same observer labels); the
    partner maps to -sin of the first plus cos of itself; every other state
    is fixed.
    """
    dims = [r.dimension for r in layout.registers]
    names = [r.name for r in layout.registers]
    observers = {r.name for r in layout.registers if r.role == "observer"}
    c, s = math.cos(theta), math.sin(theta)
    matrix = np.zeros((layout.total_dimension, layout.total_dimension), dtype=complex)
    for labels in _label_space(layout):
        state = _named(layout, labels)
        column = naive_encode(dims, labels)
        config = {n: v for n, v in state.items() if n not in observers}
        for here, there, sign in ((span[0], span[1], 1.0), (span[1], span[0], -1.0)):
            if config == dict(here):
                partner = {**state, **there}
                matrix[column, column] = c
                matrix[naive_encode(dims, [partner[n] for n in names]), column] = sign * s
                break
        else:
            matrix[column, column] = 1.0
    return matrix


def linearity_residual(coefficients, tolerance, whole, singles):
    """The independence residual as one linearity difference.

    ``whole`` is the full run and ``singles[k]`` version k's standalone run,
    as amplitude arrays on one joint support.  The weighted runs a_k s_k are
    added in version order, and the norm of the full run's difference from
    their sum is divided by the smallest modulus among the coefficients
    above ``tolerance`` (0 when there is none).
    """
    linear = np.zeros_like(whole)
    for a, single in zip(coefficients, singles):
        linear += a * single
    live = [abs(a) for a in coefficients if abs(a) > tolerance]
    return vector_norm(whole - linear) / min(live) if live else 0.0


def naive_independence_residual(coefficients, tolerance, whole, singles):
    """The independence residual by the per-version loop.

    ``whole`` is the full run and ``singles[k]`` version k's standalone run,
    as amplitude arrays on one joint support.  For each version j whose
    coefficient exceeds ``tolerance`` in modulus, every other version's run
    is subtracted from the full run in version order, and the difference,
    rescaled by 1/a_j, is compared with version j's run.
    """
    residual = 0.0
    for j, a in enumerate(coefficients):
        if abs(a) <= tolerance:
            continue
        rest = whole.copy()
        for k, b in enumerate(coefficients):
            if k != j:
                rest -= b * singles[k]
        residual = max(residual, float(np.linalg.norm(rest / a - singles[j])))
    return residual


def reference_pair_overlap(relative, owner, values):
    """``max_pair_overlap`` of one row of amplitudes, pair by pair: for each
    two rows of different owners with equal ``relative`` label rows, the four
    rounded products go into their owner pair's real and imaginary lists,
    and each pair's modulus is ``math.hypot`` of the lists' ``math.fsum``."""
    _, group = union_rows(relative)
    owners, amplitudes, groups = owner.tolist(), values.tolist(), group.tolist()
    shared = np.flatnonzero(np.bincount(group)[group] > 1).tolist()
    sums = {}
    for _, rows in itertools.groupby(sorted(shared, key=groups.__getitem__), groups.__getitem__):
        for i, j in itertools.combinations(sorted(rows, key=owners.__getitem__), 2):
            if owners[i] != owners[j]:
                p, q = amplitudes[i], amplitudes[j]
                real, imag = sums.setdefault((owners[i], owners[j]), ([], []))
                real += (p.real * q.real, p.imag * q.imag)
                imag += (p.real * q.imag, -(p.imag * q.real))
    return max((math.hypot(math.fsum(r), math.fsum(i)) for r, i in sums.values()), default=0.0)


def _reference_branch_overlap(state, record_at, branches):
    """``reference_pair_overlap`` of the branches' relative states: each
    branch owns its rows without the registers at ``record_at``, with its
    amplitudes over its coefficient."""
    rows = np.concatenate([b.rows for b in branches])
    owner = np.concatenate([np.full(len(b.rows), k) for k, b in enumerate(branches)])
    values = np.concatenate([state.values[b.rows] / b.coefficient for b in branches])
    return reference_pair_overlap(np.delete(state.labels[rows], record_at, axis=1), owner, values)


def _reference_coherence(state, observer):
    """``observer_coherence`` of one state through ``reference_pair_overlap``."""
    at = state.layout.position(observer)
    levels = state.labels[:, at]
    top = mixed_record_level(state.layout.register(observer).dimension)
    message = (levels > 0) & (levels < top)
    relative = np.delete(state.labels[message], at, axis=1)
    return reference_pair_overlap(relative, levels[message], state.values[message])


def _reference_distance(x, y):
    _, (xs, ys) = aligned(x, y)
    return vector_norm(xs - ys)


def reference_state_checks(spec, post_detection, final, obs_branches, enabled):
    """The state checks of one spec's run, on states that are not batched:
    ``final`` is the state every observer has looked at, ``obs_branches``
    its decomposition by the first observer's record."""
    results = []
    layout = final.layout
    detector_names = tuple(layout.registers[at].name for at in layout.at("detector"))
    observer_names = [layout.registers[at].name for at in layout.at("observer")]
    check = lambda name, residual, tolerance=spec.tolerance: results.append(
        CheckResult.from_residual(name, residual, tolerance)
    )
    if "structure" in enabled:
        check("structure", _reference_distance(final, expected_final_state(layout, spec.coefficients)))
    if "branch_orthogonality" in enabled or "born_weights" in enabled:
        det_branches = decompose_branches(post_detection, detector_names, spec.tolerance)
    if "branch_orthogonality" in enabled:
        detector_at = [layout.position(n) for n in detector_names]
        residual = max(
            _reference_branch_overlap(post_detection, detector_at, det_branches),
            _reference_branch_overlap(final, [layout.position("Obs1")], obs_branches),
        )
        check("branch_orthogonality", residual)
    if "born_weights" in enabled:
        check("born_weights", reference_born_weight_drift(spec.n_versions, det_branches, obs_branches))
    if "mixed_record" in enabled:
        rows = experiments._non_message_rows(layout, final.labels)
        non_message = float(experiments._weight_where(final.values, rows))
        weight = max(experiments.mixed_record_weight(post_detection), non_message)
        check("mixed_record", weight, spec.tolerance**2)
    if "observer_coherence" in enabled:
        check("observer_coherence", max(_reference_coherence(final, n) for n in observer_names))
    if "observer_agreement" in enabled:
        if spec.observers < 2:
            results.append(CheckResult.skip("observer_agreement", "needs at least two observers"))
        else:
            check("observer_agreement", experiments.disagreement_weight(final), spec.tolerance**2)
    return results


def reference_independence(spec, final):
    """``coefficient_independence`` of one spec's run with final state
    ``final``: each version's standalone run evolved as its own state, the
    weighted runs added in version order, and the distance of the full run
    from their sum over the smallest coefficient modulus above the
    tolerance."""
    chain = experiments.compile_chain(
        spec.n_versions, spec.observers, spec.photon_model, spec.negative_control
    )
    rows = experiments._version_rows(chain.layout, range(spec.n_versions), detected=False)
    singles = [chain.evolve(StateVector(chain.layout, row[None], [1.0]))[1] for row in rows]
    linear = StateVector(
        chain.layout,
        np.concatenate([s.labels for s in singles]),
        np.concatenate([a * s.values for a, s in zip(spec.coefficients, singles)]),
    )
    live = [abs(a) for a in spec.coefficients if abs(a) > spec.tolerance]
    residual = _reference_distance(final, linear) / min(live) if live else 0.0
    skipped = [j for j, a in enumerate(spec.coefficients) if abs(a) <= spec.tolerance]
    detail = f"skipped zero-coefficient versions {skipped}" if skipped else ""
    return CheckResult.from_residual("coefficient_independence", residual, spec.tolerance, detail)


def stock_probes(layout):
    """The stock no-signaling probes on ``layout``: version 2's phase flip
    and record cycle."""
    return (
        experiments.phase_flip_perturbation(layout, 1),
        experiments.record_cycle_perturbation(layout, 1),
    )


def reference_no_signaling(spec, chain, post_detection, final):
    """The worst of the stock probes' ``no_signaling`` results for one
    spec's run: each probe applied to the post-detection state, the result
    perceived, and version 1's configuration compared with ``final``'s."""
    at, recorded = experiments._version_configuration(chain.layout, 0)
    results = []
    for probe in stock_probes(chain.layout):
        if not probe.is_identity_where(at, recorded):
            raise InvalidPerturbationError(f"probe {probe.provenance!r} moves branch 1")
        perturbed = apply_unitary(chain.perception, apply_unitary(probe, post_detection))
        residual = _reference_distance(
            experiments._restricted(final, at, recorded),
            experiments._restricted(perturbed, at, recorded),
        )
        results.append(
            CheckResult.from_residual("no_signaling", residual, spec.tolerance, probe.provenance)
        )
    worst = max(results, key=lambda result: result.residual)
    return dataclasses.replace(worst, detail="phase flip and record cycle on version 2")


def reference_measurement_chain(spec, checks=None):
    """One spec's measurement chain run by itself, every state one state:
    the reference for the library's batched run, which certifies all of a
    configuration's draws as the rows of one batch and must give each draw
    this report bit for bit."""
    enabled = experiments.CHAIN_CHECKS if checks is None else checks
    chain = experiments.compile_chain(
        spec.n_versions, spec.observers, spec.photon_model, spec.negative_control
    )
    post_detection, final = chain.evolve(
        experiments.initial_state(chain.layout, spec.coefficients)
    )
    branches = decompose_branches(final, "Obs1", spec.tolerance)
    results = reference_state_checks(spec, post_detection, final, branches, enabled)
    if "coefficient_independence" in enabled:
        results.append(reference_independence(spec, final))
    if "no_signaling" in enabled:
        results.append(reference_no_signaling(spec, chain, post_detection, final))
    return RunReport("measurement_chain", spec, None, final, list(branches), results)


def reference_appendix_rotation(spec, thetas, checks=None):
    """One draw of the rotation experiment, every angle's states evolved
    afresh: one report per angle of ``thetas``.

    The draw's plain run is evolved and decomposed alone, as
    ``_certified_run`` of a batch of one, and ``reference_state_checks``
    certifies it at every angle.  Then, for each angle, ``rotate`` turns the first
    version's basis vector, the post-detection state and the final state by
    ``theta`` on the version plane, building each state afresh, and
    ``apply_unitary`` sends the rotated first vector through perception; the
    rotated half of ``mixed_record`` runs the state check on the
    post-detection state and the perceived rotated vector, and
    ``record_invariance`` decomposes the rotated final state.  The library
    builds each of those states once for a whole batch of draws and angles,
    one row of amplitudes per draw and angle, and runs the same state code
    on every row, so each of its reports must equal these bit for bit.
    """
    plain = experiments._certified_run(spec, checks, experiments.APPENDIX_CHECKS)
    return [_reference_angle(plain, theta) for theta in thetas]


def _reference_angle(plain, theta):
    """The report of the plain run ``plain``, a batch of one, at ``theta``."""
    (spec,), (branches,), enabled, chain = plain.specs, plain.branches, plain.enabled, plain.chain
    layout = chain.layout
    post_detection, final = (_row(state, 0) for state in (plain.post_detection, plain.final))

    versions = experiments._version_rows(layout, [0, 1], detected=True)
    plane = build_basis_rotation(layout, *versions)
    primed_first = rotate(plane, product_state(layout, versions[0].tolist()), theta)
    primed_evolved = apply_unitary(chain.perception, primed_first)

    results = reference_state_checks(spec, post_detection, final, branches, enabled)
    if "mixed_record" in enabled:
        (primed,) = reference_state_checks(
            spec, post_detection, primed_evolved, branches, ["mixed_record"]
        )
        at = [r.name for r in results].index("mixed_record")
        results[at] = max(results[at], primed, key=lambda r: r.residual)

    if "primed_coefficients" in enabled:
        rotated = rotate(plane, post_detection, theta)
        computed = [_amplitude_at(rotated, row) for row in versions]
        formula = primed_coefficients(*spec.coefficients, theta)
        residual = max(abs(computed[0] - formula[0]), abs(computed[1] - formula[1]))
        results.append(
            CheckResult.from_residual("primed_coefficients", float(residual), spec.tolerance)
        )

    if "primed_evolution" in enabled:
        target = expected_final_state(layout, [np.cos(theta), np.sin(theta)])
        residual = _reference_distance(primed_evolved, target)
        results.append(CheckResult.from_residual("primed_evolution", residual, spec.tolerance))

    if "record_invariance" in enabled:
        results.append(
            _record_invariance(branches, rotate(plane, final, theta), spec.tolerance)
        )

    return RunReport(
        experiment="appendix_rotation",
        spec=spec,
        theta=theta,
        final_state=final,
        branches=list(branches),
        checks=results,
    )


def _row(state, row):
    """One row of a batched state, as a state that is not batched."""
    return StateVector(state.layout, state.labels, state.values[row])


def _amplitude_at(state, row):
    """The state's amplitude on the basis state with label row ``row``."""
    hit = (state.labels == row).all(axis=1)
    return state.values[hit][0] if hit.any() else 0j


def _record_invariance(plain, rotated_final, tolerance):
    """``record_invariance`` by decomposing the rotated final state: the
    message sets and the branch weights of ``plain`` and of the decomposition
    of ``rotated_final`` by ``Obs1`` must agree."""
    rotated = decompose_branches(rotated_final, "Obs1", tolerance)
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
