"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a config object or file violates its invariants."""


class ContractViolation(ValueError):
    """Raised when a caller passes data that breaks a documented precondition."""


class TrainingDivergence(RuntimeError):
    """Raised when a loss or gradient becomes non-finite during training."""
