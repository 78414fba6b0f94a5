"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class UnsupportedError(NotImplementedError):
    """A requested operation is outside the library's supported scope."""


class OutOfWindowError(DomainError):
    """Evaluation requested outside a path window's stored index range."""


class QuantizationSearchError(RuntimeError):
    """Raised when the quantization-level search hits its cap.

    Carries the best level found so far and the worst encoding error at
    that level, so callers can decide whether the partial answer is usable.
    """

    def __init__(self, best_q: int, best_error: float, cap: int):
        self.best_q = best_q
        self.best_error = best_error
        self.cap = cap
        super().__init__(
            f"quantization level search capped at q={cap}; "
            f"best q={best_q} with worst encoding error {best_error:.6g}"
        )


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
