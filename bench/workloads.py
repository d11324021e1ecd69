"""The benchmark's workloads: one JSON config per workload, made from a seed.

Each workload isolates a different layer of branchsim (see README.md):

- ``chain_wide``: one large state (N=11, dim 292,864); time goes to digit
  tables, stage builds and dense superposition.  Never touches the basis
  rotation.
- ``chain_observers``: three observers with photons and three coefficient
  draws sharing one layout (dim 221,184); the only workload that runs photon
  emission, several perception stages and observer agreement.
- ``rotation_sweep``: 64 small appendix-rotation runs (dim 2,048); the only
  dense operator, and the workload where fixed per-run overhead shows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Written out rather than imported, so the verifier does not take the list
# of checks a report must pass from the package under test.
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
class Workload:
    experiment: str
    n_versions: int
    observers: int
    photon_model: bool
    draws: int = 1
    thetas: int = 0

    @property
    def checks(self) -> tuple[str, ...]:
        return APPENDIX_CHECKS if self.experiment == "appendix_rotation" else CHAIN_CHECKS

    @property
    def runs(self) -> int:
        """Runs one report must hold: one per draw, or one per angle."""
        return self.thetas if self.thetas else self.draws

    @property
    def dimension(self) -> int:
        """Closed form N * 2^N * (N+2)^observers, times 2^N with photons."""
        n = self.n_versions
        dim = n * 2**n * (n + 2) ** self.observers
        return dim * 2**n if self.photon_model else dim


WORKLOADS = {
    "chain_wide": Workload("generalized", 11, 1, False, draws=1),
    "chain_observers": Workload("generalized", 4, 3, True, draws=3),
    "rotation_sweep": Workload("appendix_rotation", 2, 3, True, thetas=64),
}


def make_config(name: str, seed: int) -> dict:
    """The config file contents for one workload; equal seeds give equal configs."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    config = {
        "experiment": workload.experiment,
        "n_versions": workload.n_versions,
        "observers": workload.observers,
        "photon_model": workload.photon_model,
    }
    if workload.thetas:
        # A uniform grid over one full turn, shifted by less than one step.
        start = rng.random() * 2 * math.pi / workload.thetas
        config["coefficients"] = [[0.6, 0.0], [0.8, 0.0]]
        config["thetas"] = {
            "count": workload.thetas,
            "start": start,
            "end": start + 2 * math.pi,
        }
    else:
        config["coefficients"] = {"random": workload.draws}
        config["seed"] = rng.randrange(2**32)
    return config
