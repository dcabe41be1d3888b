"""Exception hierarchy shared across the package."""


class QrabiError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(QrabiError, ValueError):
    """Raised when physical parameters violate their domain (omega <= 0, etc.)."""


class NonconvergenceError(QrabiError, RuntimeError):
    """Raised when an adaptive solve hits its hard limit.

    Carries the last convergence report (or best-so-far result) in ``payload``.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class DerivativeInvalidError(QrabiError, RuntimeError):
    """Raised when finite-difference derivatives are requested across a branch jump."""


class SchemaError(QrabiError, ValueError):
    """Raised on sweep-file schema version mismatch or corrupt content."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset
