"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class UnsupportedError(NotImplementedError):
    """A requested operation is outside the library's supported scope."""


class OutOfWindowError(DomainError):
    """Evaluation requested outside a path window's stored index range."""


class FitFailure(RuntimeError):
    """A fit procedure could not satisfy its contract; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class SolverNonTermination(ArithmeticError):
    """An exact iterative solver exceeded its iteration limit.

    Signals an internal failure (for the transport simplex: rounding
    defeating the anti-cycling rule), never a property of valid input.
    """
