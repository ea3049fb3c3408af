"""Exception types and input checks; every entry point checks its H, y, s, P and noise_var by `require_system`."""

import math

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


# A matrix whose condition number exceeds this is treated as singular.
_COND_LIMIT = 1e12


def require_finite(**arrays) -> None:
    """Raise DomainError naming the first argument that holds a NaN or an infinity."""
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite")


def _require_scalar(name: str, value) -> float:
    if not isinstance(value, (int, float)) and np.ndim(value) != 0:
        raise DimensionError(f"{name} must be a scalar, got shape {np.shape(value)}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def require_system(H, y=None, *, s=None, power=None, noise_var=None, stacked: bool = False) -> tuple:
    """Check the arguments of y = sqrt(P) H s + v that are given; return H, y and s as complex128.

    H is 2-D, y one observation (n_r,) of it and s one symbol vector (n_t,);
    with `stacked`, y may be a stack (B, n_r) and noise_var a 1-D array of B
    variances. A shape raises DimensionError, a NaN or an infinity
    DomainError naming the argument, and P <= 0 or noise_var < 0
    ConfigurationError.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise DimensionError(f"H must be a 2-D matrix, got shape {H.shape}")
    if y is not None:
        y = np.asarray(y, dtype=np.complex128)
        if y.ndim not in ((1, 2) if stacked else (1,)) or y.shape[-1] != H.shape[0]:
            wanted = "(n_r,) or (B, n_r)" if stacked else "(n_r,)"
            raise DimensionError(f"y of shape {y.shape} does not fit H of shape {H.shape}: expected {wanted}")
    if s is not None:
        s = np.asarray(s, dtype=np.complex128)
        if s.shape != H.shape[1:]:
            raise DimensionError(f"s of shape {s.shape} does not fit H of shape {H.shape}: expected (n_t,)")
    for name, a in (("H", H), ("y", y), ("s", s)):
        if a is not None and not np.isfinite(a).all():
            raise DomainError(f"{name} must be finite")
    if power is not None and _require_scalar("power", power) <= 0:
        raise ConfigurationError(f"power must be positive, got {power}")
    if noise_var is None:
        return H, y, s
    if stacked:
        noise_var = np.asarray(noise_var, dtype=np.float64)
        if noise_var.ndim > 1:
            raise DimensionError(f"noise_var must be a scalar or 1-D, got shape {noise_var.shape}")
        require_finite(noise_var=noise_var)
    if (noise_var < 0).any() if stacked else _require_scalar("noise_var", noise_var) < 0:
        raise ConfigurationError(f"noise_var must be >= 0, got {noise_var}")
    return H, y, s
