"""Exception types shared across the package, and the input checks that raise them."""

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


def require_observation(y: np.ndarray, H: np.ndarray, stacked: bool = False) -> None:
    """Raise DimensionError unless H is 2-D and y is one observation of it, shape (n_r,).

    With `stacked`, y may also be a stack of observations of the same H, shape (B, n_r).
    """
    ndims = (1, 2) if stacked else (1,)
    if H.ndim != 2 or y.ndim not in ndims or y.shape[-1] != H.shape[0]:
        wanted = "(n_r,) or (B, n_r)" if stacked else "(n_r,)"
        raise DimensionError(f"observation of shape {y.shape} does not fit H of shape {H.shape}: expected {wanted}")
