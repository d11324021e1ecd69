"""What an environment-and-redundancy analysis sees in the same states.

The branch structure needs nothing beyond linearity, but the finished
states also exhibit the signatures that environment-centric accounts of
classicality measure: the observer's reduced state is exactly diagonal
with Born weights, its entropy equals the record entropy, and any single
detector already carries all the classical information about the path
(the redundancy plateau).
"""

import numpy as np

from branchsim import (
    ExperimentSpec,
    fragment_mutual_information,
    observer_coherence,
    reduced_density_matrix,
    run_measurement_chain,
    von_neumann_entropy,
)

spec = ExperimentSpec(2, (0.6, 0.8))
report = run_measurement_chain(spec, checks=["structure"])
final = report.final_state

rho = reduced_density_matrix(final, ["Obs1"])
print("observer's reduced density matrix (levels blank, M1, M2, mixed):")
with np.printoptions(precision=4, suppress=True):
    print(rho.entries.real)
print(f"largest off-diagonal between messages: {observer_coherence(final, 'Obs1'):.1e}")

entropy = von_neumann_entropy(rho)
weights = [abs(c) ** 2 for c in spec.coefficients]
record_entropy = -sum(w * np.log2(w) for w in weights)
print(f"\nobserver entropy: {entropy:.10f} bits")
print(f"entropy of the weights {tuple(round(w, 2) for w in weights)}: "
      f"{record_entropy:.10f} bits")

print("\nmutual information with the path register (bits):")
for fragment in (["DH"], ["DV"], ["DH", "DV"], ["Obs1"]):
    info = fragment_mutual_information(final, fragment, ["path"])
    print(f"  I(path : {'+'.join(fragment)}) = {info:.10f}")
print("one detector is as informative as both: the record is redundant,")
print("yet the branch structure above never needed that redundancy.")
