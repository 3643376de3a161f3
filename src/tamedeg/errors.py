"""Shared exception types."""


class RankMismatchError(ValueError):
    """Group elements of different rank were combined or compared."""


class DomainError(ValueError):
    """Input violates a documented precondition."""


class ConstructionError(RuntimeError):
    """A witness construction failed its own verification step, or an
    internal invariant of an algorithm did not hold: a soundness failure of
    the program, never a fault of the input."""


class BudgetExceededError(RuntimeError):
    """An intermediate polynomial outgrew the configured resource budget."""


class DegreeCapError(BudgetExceededError):
    """A realization step would exceed the budget's total-degree cap."""


class HypothesisViolation(ValueError):
    """A named hypothesis of a corollary is not met by the inputs."""

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis violated: {hypothesis}")


class PolynomialSyntaxError(ValueError):
    """Syntax error in a polynomial expression, with source position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SchemaVersionError(ValueError):
    """A persisted record carries an unsupported schema version."""
