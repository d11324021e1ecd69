"""Generalize the chain: N outcomes, photon messengers, several observers.

A screen initially blocks the apparatus, so the observers' registers stay
blank while detection and photon emission happen.  Removing the screen
(running the perception steps) lets each observer's version read only the
photons of its own branch; every observer ends up with the same message on
every branch.
"""

import numpy as np

from branchsim import ExperimentSpec, disagreement_weight, run_measurement_chain

N = 5
rng = np.random.default_rng(5)
amplitudes = rng.standard_normal(N) + 1j * rng.standard_normal(N)
amplitudes /= np.linalg.norm(amplitudes)

spec = ExperimentSpec(
    n_versions=N,
    coefficients=tuple(amplitudes),
    observers=3,
    photon_model=True,
)
# The replay-heavy probes (coefficient independence, no signaling) get
# their own walkthrough in demo 04; here we certify the final state.
report = run_measurement_chain(
    spec,
    checks=(
        "structure",
        "branch_orthogonality",
        "born_weights",
        "mixed_record",
        "observer_coherence",
        "observer_agreement",
    ),
)

print(f"{N} versions, 3 observers, photons carrying the records")
print(f"composite dimension: {report.final_state.layout.total_dimension}")

print("\nbranch table (weights are the squared draw amplitudes):")
for branch, amp in zip(report.branches, amplitudes):
    print(
        f"  M{branch.record_label}: weight {branch.weight:.6f}"
        f"   (|a|^2 = {abs(amp) ** 2:.6f})"
    )

print("\nchecks:")
for check in report.checks:
    status = "skip" if check.skipped else ("pass" if check.passed else "FAIL")
    print(f"  {check.name:<26} {status}  residual {check.residual:.2e}")

weight = disagreement_weight(report.final_state)
print(f"\nweight on any observer disagreement: {weight:.1e}")
print("every version of every observer reports the same outcome as its peers.")
