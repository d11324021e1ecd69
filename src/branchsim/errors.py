"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """Requested object exceeds a size bound: a chain over
    ``MAX_REGISTERS`` registers, or a dense view or dense trace over its
    cap."""


class DegenerateStateError(ValueError):
    """Operation on a (numerically) zero state vector."""


class InvalidPerturbationError(ValueError):
    """Perturbation operator touches the subspace it must leave alone."""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""
