"""Hunt for a mixed record by rotating the basis -- and never find one.

Describing the post-detection state in a basis that blends the two
versions is perfectly legal, and the blended amplitudes follow the usual
rotation formulas.  But evolving any such blended vector through the
perception step still only ever writes the two plain messages: what the
observer records is a property of the state, not of the basis used to
display it.  The reserved "saw a mixture" level stays at exactly zero
weight for every angle.
"""

import numpy as np

from branchsim import (
    ExperimentSpec,
    plain_rotation_run,
    primed_coefficients,
    run_appendix_rotation,
)

A1, A2 = 0.6, 0.8
spec = ExperimentSpec(2, (A1, A2))
# The unrotated run does not depend on the angle: certify it once, then
# every angle in one call.
plain = plain_rotation_run(spec)
thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False).tolist()

print(f"coefficients a = ({A1}, {A2});  64 rotation angles\n")
print(f"{'theta':>8}  {'blended c1':>11}  {'blended c2':>11}  "
      f"{'A-residuals':>11}  {'mixed weight':>12}")

worst_mixed = 0.0
for theta, report in zip(thetas, run_appendix_rotation(plain, thetas)):
    c1, c2 = primed_coefficients(A1, A2, theta)
    coeff = next(c for c in report.checks if c.name == "primed_coefficients")
    evolve = next(c for c in report.checks if c.name == "primed_evolution")
    mixed = next(c for c in report.checks if c.name == "mixed_record")
    worst_mixed = max(worst_mixed, mixed.residual)
    if not report.all_passed:
        raise SystemExit(f"check failed at theta={theta}")
    print(
        f"{theta:8.4f}  {c1.real:+11.6f}  {c2.real:+11.6f}  "
        f"{max(coeff.residual, evolve.residual):11.2e}  {mixed.residual:12.2e}"
    )

print(f"\nlargest mixed-record weight over the sweep: {worst_mixed:.2e}")
print("no rotation angle makes any observer write the reserved mixed level.")
