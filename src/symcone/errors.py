"""Exception types shared across the package."""


class SymconeError(Exception):
    """Base class for all package errors."""


class DomainError(SymconeError):
    """Input outside the mathematical domain of an operation (zero vector,
    bad index range, infeasible geometry, ...)."""


class DimensionMismatchError(DomainError):
    pass


class IntegrationError(SymconeError):
    """ODE integration failed (step underflow, divergence, ...)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class AuditError(SymconeError):
    """A sampled contract check (metadata audit, containment audit,
    grid inequality) found a violation."""


class ParseError(SymconeError):
    """Bad expression text or config document."""
