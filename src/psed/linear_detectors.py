"""MF / ZF / LMMSE weight matrices and soft linear detection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, SingularMatrixError, require_finite

MF = "MF"
ZF = "ZF"
LMMSE = "LMMSE"

DETECTOR_KINDS = (MF, ZF, LMMSE)

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class WeightMatrix:
    """Linear detector weights W; the estimate is s_tilde = W^H y."""

    kind: str
    W: np.ndarray = field(repr=False)


def weight_matrix(H: np.ndarray, kind: str, power: float, noise_var: float) -> WeightMatrix:
    """Build the weight matrix for one of the conventional linear detectors.

    MF:    W = H / sqrt(P)
    ZF:    W = H (H^H H)^-1 / sqrt(P)
    LMMSE: W = H (H^H H + (noise_var / P) I)^-1

    A non-finite H or noise_var raises DomainError.
    """
    H = np.asarray(H, dtype=np.complex128)
    require_finite(H=H, noise_var=noise_var)
    sqrt_p = np.sqrt(power)
    if kind == MF:
        W = H / sqrt_p
    elif kind == ZF:
        gram = H.conj().T @ H
        if np.linalg.cond(gram) > _COND_LIMIT:
            raise SingularMatrixError(
                f"ZF weight matrix: H^H H is numerically singular "
                f"(condition number above {_COND_LIMIT:g})"
            )
        W = H @ np.linalg.inv(gram) / sqrt_p
    elif kind == LMMSE:
        n_t = H.shape[1]
        gram = H.conj().T @ H + (noise_var / power) * np.eye(n_t)
        # Regularized system; solve instead of forming the inverse.
        W = np.linalg.solve(gram.conj().T, H.conj().T).conj().T
    else:
        raise ConfigurationError(f"unknown linear detector kind {kind!r}; expected one of {DETECTOR_KINDS}")
    return WeightMatrix(kind=kind, W=W)


def detect(weights: WeightMatrix | np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply the weights: s_tilde = W^H y."""
    W = weights.W if isinstance(weights, WeightMatrix) else np.asarray(weights)
    y = np.asarray(y)
    if W.shape[0] != y.shape[0]:
        raise DimensionError(f"W has {W.shape[0]} rows but y has length {y.shape[0]}")
    return W.conj().T @ y


def residual_stream_variance(
    H: np.ndarray, weights: WeightMatrix | np.ndarray, power: float, noise_var: float, i: int
) -> float:
    """Variance of stream i's interference-plus-noise at the detector output.

    sigma_s^2 = w_i^H (P H H^H + noise_var I) w_i - P |w_i^H h_i|^2
    """
    W = weights.W if isinstance(weights, WeightMatrix) else np.asarray(weights)
    H = np.asarray(H)
    w_i = W[:, i]
    h_i = H[:, i]
    cov = power * (H @ H.conj().T) + noise_var * np.eye(H.shape[0])
    total = np.real(w_i.conj() @ cov @ w_i)
    signal = power * np.abs(w_i.conj() @ h_i) ** 2
    return float(total - signal)
