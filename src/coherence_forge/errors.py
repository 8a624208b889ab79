"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class StateValidationError(DomainError):
    """A state, filter or spectrum failed its construction invariants."""


class DimensionMismatch(DomainError):
    """Operands have incompatible dimensions."""


class UnreachableSuccessProbability(DomainError):
    """Requested success probability is outside the reachable range."""


class AnnihilatedState(DomainError):
    """The filter maps the state to zero (success probability vanishes)."""
