"""Exception hierarchy shared across the package."""


class NonarchError(Exception):
    """Base class for all package errors."""


class DivisionByZero(NonarchError, ZeroDivisionError):
    pass


class PrecisionExhausted(NonarchError):
    """Result is indistinguishable from zero at the precision cap."""


class NoRootInField(NonarchError):
    """No residue root exists; the requested root lies outside the field."""


class PreconditionFailed(NonarchError):
    pass


class MaxStepsExceeded(NonarchError):
    """Iteration budget exhausted.  Carries the partial trace on `trace`."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class TowerObstruction(NonarchError):
    """No in-field root at tower level `depth`."""

    def __init__(self, message, depth):
        super().__init__(message)
        self.depth = depth


class SupportCapExceeded(NonarchError):
    pass


class IncompatibleContext(NonarchError):
    """Operands disagree on field spec, series kind or radius context."""


class MissingCertificate(NonarchError):
    """Operation requires a transcendence certificate covering the input."""
