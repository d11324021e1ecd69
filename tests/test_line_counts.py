"""Deterministic cost: the Python lines a run executes in the package, and
the label cells it groups.

Timing is too noisy to tell a quadratic from a linear term run to run, but
the line events ``sys.settrace`` reports in the package's own files are
exact, and numpy's work is bounded by array sizes.  Doubling the observers
of a two-version chain, or the versions of a one-observer chain, doubles
its stages and about doubles its registers and support, so a run's line
count may grow at most ``MAX_GROWTH`` times per doubling; a lookup that
scans the layout once per observer makes it grow by more.

Line events miss work that numpy does in one call per observer, such as
regrouping the whole label array once per observer.  So every label cell
passed to ``union_rows``, the grouping each check and stage builds on, is
counted too, and one run may group at most ``MAX_CELLS_GROUPED`` times the
cells of its final state (support x registers).
"""

import math
import os
import sys

import pytest

import branchsim
from branchsim import ExperimentSpec, analysis, dynamics, experiments, run_measurement_chain, state

PACKAGE = os.path.dirname(branchsim.__file__)
MAX_GROWTH = 2.2
MAX_CELLS_GROUPED = 32


def lines_executed(spec: ExperimentSpec) -> int:
    """Line events in the package's files during one full chain run."""
    count = 0

    def in_package(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(in_package)
    try:
        run_measurement_chain(spec)
    finally:
        sys.settrace(None)
    return count


def cells_grouped(spec: ExperimentSpec, monkeypatch) -> float:
    """Label cells passed to ``union_rows`` during one full chain run, per
    cell of its final state."""
    grouped = 0
    union_rows = state.union_rows

    def counting(labels):
        nonlocal grouped
        grouped += labels.size
        return union_rows(labels)

    with monkeypatch.context() as patch:
        for module in (state, analysis, experiments, dynamics):
            patch.setattr(module, "union_rows", counting)
        final = run_measurement_chain(spec).final_state
    return grouped / final.labels.size


def even(n_versions: int, **options) -> ExperimentSpec:
    return ExperimentSpec(n_versions, (1 / math.sqrt(n_versions),) * n_versions, **options)


FAMILIES = {
    "observers": [even(2, observers=observers) for observers in (31, 63, 127, 255)],
    "versions": [even(n) for n in (16, 32, 64, 128)],
    "versions-photons": [even(n, photon_model=True) for n in (16, 32, 64, 128)],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_lines_per_run_grow_at_most_linearly(family):
    counts = [lines_executed(spec) for spec in FAMILIES[family]]
    growth = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert max(growth) <= MAX_GROWTH, f"line counts {counts} grow by {growth}"


@pytest.mark.parametrize("family", FAMILIES)
def test_cells_grouped_per_run_grow_with_support_times_registers(family, monkeypatch):
    ratios = [cells_grouped(spec, monkeypatch) for spec in FAMILIES[family]]
    assert max(ratios) <= MAX_CELLS_GROUPED, f"cells grouped per final cell: {ratios}"
