"""branchsim: state-vector simulation of branching measurement chains.

A particle in superposition runs into a bank of detectors, photons carry
the outcome to one or more observers, and the whole composite system
evolves under explicitly constructed unitary steps.  The package certifies,
numerically and at fixed tolerances, that the resulting branches evolve
independently, stay orthogonal, never write a mixed-state record in any
basis, and always agree across observers.
"""

from .analysis import (
    fragment_mutual_information,
    observer_coherence,
    reduced_density_matrix,
    von_neumann_entropy,
)
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
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateStateError,
    InvalidPerturbationError,
)
from .experiments import (
    APPENDIX_CHECKS,
    CHAIN_CHECKS,
    MAX_REGISTERS,
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    Branch,
    CheckResult,
    CompiledChain,
    ExperimentSpec,
    RunReport,
    chain_layout,
    coefficient_independence_check,
    compile_chain,
    decompose_branches,
    disagreement_weight,
    expected_final_state,
    initial_state,
    mixed_record_weight,
    no_signaling_check,
    phase_flip_perturbation,
    primed_coefficients,
    record_cycle_perturbation,
    run_appendix_rotation,
    run_measurement_chain,
)
from .state import (
    DensityMatrix,
    Register,
    StateVector,
    SubsystemLayout,
    make_layout,
    message_level,
    message_name,
    mixed_record_level,
    norm,
    normalize,
    observer_dimension,
    product_state,
    superpose,
)

__version__ = "0.1.0"
