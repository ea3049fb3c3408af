"""Exception types and input checks: `require_system` for H, y, s, P and noise_var, `require_count` for counts."""

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


def require_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """Return `value` as an int if it is an integer (not a bool) in [low, high]; else raise ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        wanted = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(f"{name} must be {wanted}, got {value}")
    return int(value)


def _require_real(name: str, value) -> np.ndarray:
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real, got {value!r}")
    return array


def _require_scalar(name: str, value) -> float:
    if not isinstance(value, (int, float)) and _require_real(name, value).ndim != 0:
        raise DimensionError(f"{name} must be a scalar, got shape {np.shape(value)}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def require_positive(name: str, value) -> float:
    """Return `value` if it is a finite real scalar > 0; raise as `require_system` does for P otherwise."""
    if _require_scalar(name, value) <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def require_system(H, y=None, *, s=None, power=None, noise_var=None, stacked: bool = False) -> tuple:
    """Check the arguments of y = sqrt(P) H s + v that are given; return H, y and s as complex128.

    H is 2-D, y one observation (n_r,) of it and s one symbol vector (n_t,);
    with `stacked`, y may be a stack (B, n_r) and noise_var a 1-D array of B
    variances. A shape raises DimensionError, a NaN, an infinity or a
    complex or non-numeric P or noise_var DomainError naming the argument,
    and P <= 0 or noise_var < 0 ConfigurationError.
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
    if power is not None:
        require_positive("power", power)
    if noise_var is None:
        return H, y, s
    if stacked:
        noise_var = _require_real("noise_var", noise_var).astype(np.float64, copy=False)
        if noise_var.ndim > 1:
            raise DimensionError(f"noise_var must be a scalar or 1-D, got shape {noise_var.shape}")
        require_finite(noise_var=noise_var)
    if (noise_var < 0).any() if stacked else _require_scalar("noise_var", noise_var) < 0:
        raise ConfigurationError(f"noise_var must be >= 0, got {noise_var}")
    return H, y, s
