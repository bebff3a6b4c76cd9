"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class TargetError(ValueError):
    """A class-index target is out of range."""


class ContractError(ValueError):
    """An operation was called outside its contract (e.g. backward on a non-scalar)."""


class ConfigurationError(ValueError):
    """A config value or combination of values is invalid."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str = "") -> None:
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class IntegrityError(RuntimeError):
    """A checkpoint file is missing, truncated, or fails its checksum."""
