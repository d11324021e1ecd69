"""Walk a two-path measurement chain one unitary step at a time.

A particle split across a horizontal and a vertical path hits a detector
bank; an observer then reads off the detectors.  Each step is a table of
controlled rewrites (path j flips detector j; record j writes message j).
Printing the composite state after each step shows the superposition never
collapsing -- it grows into two fully-recorded branches that share no basis
state.
"""

from branchsim import (
    ExperimentSpec,
    apply_unitary,
    build_detection_unitary,
    build_perception_unitary,
    chain_layout,
    decompose_branches,
    initial_state,
    message_name,
    run_measurement_chain,
    standard_classical_configs,
)

A1, A2 = 0.6, 0.8j


def show(title, state):
    """Print the state's support: one row of register labels per basis state
    it occupies, in flat-index order."""
    print(f"\n{title}")
    names = state.layout.names()
    for labels, amplitude in zip(state.labels.tolist(), state.values):
        if abs(amplitude) > 1e-12:
            ket = " ".join(f"{n}={v}" for n, v in zip(names, labels))
            print(f"  {amplitude:+.4f}  |{ket}>")


layout = chain_layout(n_versions=2, observers=1)
print("registers:", ", ".join(f"{r.name}({r.dimension})" for r in layout.registers))

detection = build_detection_unitary(layout)
perception = build_perception_unitary(layout, standard_classical_configs(2))

state = initial_state(layout, (A1, A2))
show("before anything happens (detectors idle, observer blank):", state)

state = apply_unitary(detection, state)
show("after detection (each path toggles only its own detector):", state)

state = apply_unitary(perception, state)
show("after the observer looks (one message per branch, nothing else):", state)

print("\nbranch table:")
for branch in decompose_branches(state, "Obs1"):
    label = message_name(branch.record_label, 4)
    print(f"  {label}: coefficient {branch.coefficient:+.4f}, weight {branch.weight:.4f}")

print("\nfull check battery on the same run:")
report = run_measurement_chain(ExperimentSpec(2, (A1, A2)))
for check in report.checks:
    status = "skip" if check.skipped else ("pass" if check.passed else "FAIL")
    print(f"  {check.name:<26} {status}  residual {check.residual:.2e}")
