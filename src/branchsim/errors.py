"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """Requested object exceeds a size bound: a chain over
    ``MAX_REGISTERS`` registers, a reduced density matrix over
    ``DENSE_TRACE_CAP``, or ``SubsystemLayout.digit_values`` over
    ``DENSE_VIEW_CAP``."""


class DegenerateStateError(ValueError):
    """Operation on a (numerically) zero state vector."""


class InvalidPerturbationError(ValueError):
    """Perturbation operator touches the subspace it must leave alone."""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""
