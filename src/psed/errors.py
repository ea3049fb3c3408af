"""Exception types shared across the package, and the finiteness check that raises one."""

import numpy as np


class PsedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PsedError, ValueError):
    """Invalid configuration value (unknown kind, bad grid, missing key)."""


class DimensionError(PsedError, ValueError):
    """Array arguments with non-conforming shapes."""


class CapacityError(PsedError, ValueError):
    """A requested computation exceeds a hard combinatorial budget."""


class DomainError(PsedError, ValueError):
    """Input outside the domain of a computation: a closed-form argument or non-finite data."""


class SingularMatrixError(PsedError, ArithmeticError):
    """A linear solve hit a (numerically) rank-deficient matrix."""


def require_finite(**arrays) -> None:
    """Raise DomainError naming the first argument that holds a NaN or an infinity."""
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite")
