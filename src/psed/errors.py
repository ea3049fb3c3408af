"""Exception types and input checks: `require_system` for H, y, s, P and noise_var, `require_gram` for H^H H,
`require_count` for counts and `require_real` for reals."""

import functools
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


class FloatOverflowError(PsedError, OverflowError):
    """A result beyond the float range, from arguments inside the computation's domain."""


# A matrix whose condition number exceeds this is treated as singular.
_COND_LIMIT = 1e12


def require_finite(**arrays) -> None:
    """Raise DomainError naming the first argument that holds a NaN or an infinity; skip those that are None."""
    for name, value in arrays.items():
        if value is not None and not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite")


def require_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """Return `value` as an int if it is an integer (not a bool) in [low, high]; else raise ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        wanted = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(f"{name} must be {wanted}, got {value}")
    return int(value)


@functools.cache  # keyed by the interval literals written at the call sites
def _interval(text: str) -> tuple[float, float, bool, bool]:
    low, high = (float(bound) for bound in text[1:-1].split(","))
    return low, high, text[0] == "[", text[-1] == "]"


def require_real(name: str, value, interval: str, error: type[PsedError] = DomainError) -> float:
    """Return `value` as a float if it is a real scalar (not a bool) in `interval`, such as "(0, inf]".

    A complex, text or bool value raises DomainError and an array of one or
    more dimensions DimensionError. NaN, and an infinity outside the
    interval, raise DomainError; a finite value outside it raises `error`.
    Every message starts with `name`.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        value = float(value)  # numpy holds no Python int past 2**64
    elif not isinstance(value, float):
        array = np.asarray(value)
        if array.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be a real number, got {value!r}")
        if array.ndim:
            raise DimensionError(f"{name} must be a scalar, got shape {array.shape}")
        value = float(array)
    low, high, closed_low, closed_high = _interval(interval)
    if low < value < high or (closed_low and value == low) or (closed_high and value == high):
        return float(value)
    raise (error if math.isfinite(value) else DomainError)(f"{name} must be in {interval}, got {value}")


def require_system(H, y=None, *, s=None, power=None, noise_var=None, stacked: bool = False) -> tuple:
    """Check the arguments of y = sqrt(P) H s + v that are given; return H, y and s as complex128.

    H is 2-D with at least one row and one column, y one observation (n_r,)
    of it, or with `stacked` a stack (B, n_r), and s one symbol vector
    (n_t,). A shape raises DimensionError, and a NaN or an infinity
    DomainError naming the argument. P and noise_var go through
    `require_real`: P in (0, inf) and noise_var in [0, inf), so P <= 0 or
    noise_var < 0 raises ConfigurationError.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2:
        raise DimensionError(f"H must be a 2-D matrix, got shape {H.shape}")
    if not H.size:
        raise DimensionError(f"H must have at least one row and one column, got shape {H.shape}")
    if y is not None:
        y = np.asarray(y, dtype=np.complex128)
        if y.ndim not in ((1, 2) if stacked else (1,)) or y.shape[-1] != H.shape[0]:
            wanted = "(n_r,) or (B, n_r)" if stacked else "(n_r,)"
            raise DimensionError(f"y of shape {y.shape} does not fit H of shape {H.shape}: expected {wanted}")
    if s is not None:
        s = np.asarray(s, dtype=np.complex128)
        if s.shape != H.shape[1:]:
            raise DimensionError(f"s of shape {s.shape} does not fit H of shape {H.shape}: expected (n_t,)")
    require_finite(H=H, y=y, s=s)
    if power is not None:
        require_real("power", power, "(0, inf)", ConfigurationError)
    if noise_var is not None:
        require_real("noise_var", noise_var, "[0, inf)", ConfigurationError)
    return H, y, s


def require_gram(H: np.ndarray) -> np.ndarray:
    """H^H H of a checked H; DomainError naming H unless 2 ||H||_F^2, from `np.vdot` (which warns of no
    overflow), is finite: the trace ||H||_F^2 bounds every entry, and the 2 covers the product's rounding."""
    if not math.isfinite(2.0 * float(np.vdot(H, H).real)):
        raise DomainError("H is too large: its Gram matrix H^H H overflows")
    return H.conj().T @ H
