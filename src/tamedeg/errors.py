"""Shared exception types, the one way their messages show a value, and
the one way an argument that must have entries is read."""

from math import log10


def _show(value, limit: int = 40) -> str:
    """value for an error message, short whatever its size.  A str is cut
    to limit characters, and an int past 20 digits is named by its digit
    count, found without str() (which Python refuses past its digit limit).
    A tuple shows its items so; any other repr is cut to 5*limit characters."""
    if isinstance(value, str) and len(value) > limit:
        return f"{value[:limit]!r}... ({len(value)} characters)"
    if isinstance(value, int) and abs(value) >= 10**20:
        n = abs(value)
        digits = int((n.bit_length() - 1) * log10(2))  # at most the digit count
        while 10**digits <= n:
            digits += 1
        return f"<{'negative ' if value < 0 else ''}{digits}-digit integer>"
    if isinstance(value, tuple):
        items = ", ".join(_show(v, limit) for v in value)
        text = f"({items},)" if len(value) == 1 else f"({items})"
    else:
        text = repr(value)
    cut = 5 * limit
    return text if len(text) <= cut else f"{text[:cut]}... ({len(text)} characters)"


def _entries(value, name: str) -> tuple:
    """tuple(value), or DomainError "<name> must be a sequence" for a value
    with no entries, such as an int."""
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{name} must be a sequence, got {_show(value)}") from None


class DomainError(ValueError):
    """Input violates a documented precondition.  Every fault of the input
    raises one of this family; the CLI exits 3 on it."""


class RankMismatchError(DomainError):
    """Group elements of different rank were combined or compared."""


class ConstructionError(RuntimeError):
    """A witness construction failed its own verification step, or an
    internal invariant of an algorithm did not hold: a soundness failure of
    the program, never a fault of the input."""


class BudgetExceededError(RuntimeError):
    """An intermediate polynomial outgrew the configured resource budget."""


class DegreeCapError(BudgetExceededError):
    """A realization step would exceed the budget's total-degree cap."""


class HypothesisViolation(DomainError):
    """A named hypothesis of a corollary is not met by the inputs."""

    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis violated: {hypothesis}")


class PolynomialSyntaxError(DomainError):
    """Syntax error in a polynomial expression, with source position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SchemaVersionError(DomainError):
    """A persisted record carries an unsupported schema version."""
