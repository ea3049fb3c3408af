"""MF and LMMSE weight matrices and linear detection: s_tilde = W^H y."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError, SingularMatrixError, require_finite

MF = "MF"
LMMSE = "LMMSE"

DETECTOR_KINDS = (MF, LMMSE)

_COND_LIMIT = 1e12


class WeightMatrix:
    """Linear detector weights W; the estimate is s_tilde = W^H y.

    `WeightMatrix(kind, W)` holds W itself, as MF weights do. LMMSE
    weights from `weight_matrix` hold H and the regularised Gram
    G = H^H H + (noise_var / P) I instead: `detect` solves G s_tilde = H^H y
    (one right-hand side), and W = H G^-1 is formed, with n_r right-hand
    sides, each time `.W` is read. It is not kept, so holding many weights
    costs no more memory than holding their channels.
    """

    __slots__ = ("kind", "_mat", "_gram")

    def __init__(self, kind: str, W: np.ndarray):
        self.kind = kind
        self._mat = W  # W itself, or H when _gram is set
        self._gram = None

    @classmethod
    def _from_gram(cls, kind: str, H: np.ndarray, gram: np.ndarray) -> "WeightMatrix":
        weights = cls(kind, H)
        weights._gram = gram
        return weights

    @property
    def W(self) -> np.ndarray:
        if self._gram is None:
            return self._mat
        return np.linalg.solve(self._gram.conj().T, self._mat.conj().T).conj().T

    def __repr__(self) -> str:
        return f"WeightMatrix(kind={self.kind!r})"


def weight_matrix(H: np.ndarray, kind: str, power: float, noise_var: float) -> WeightMatrix:
    """Build the weight matrix for one of the conventional linear detectors.

    MF:    W = H / sqrt(P)
    LMMSE: W = H (H^H H + (noise_var / P) I)^-1, held as H and that Gram

    A non-finite H or noise_var raises DomainError; an LMMSE Gram with
    condition number above 1e12 raises SingularMatrixError.
    """
    H = np.asarray(H, dtype=np.complex128)
    require_finite(H=H, noise_var=noise_var)
    sqrt_p = np.sqrt(power)
    if kind == MF:
        return WeightMatrix(kind, H / sqrt_p)
    if kind == LMMSE:
        gram = H.conj().T @ H
        h2 = gram.trace().real  # ||H||_F^2
        rho = noise_var / power
        gram[np.diag_indices(H.shape[1])] += rho
        # cond(G) <= (||H||_F^2 + rho) / rho, so at any usual noise level the
        # bound alone clears G; only near-zero noise needs the SVD.
        if h2 + rho >= _COND_LIMIT * rho and not np.linalg.cond(gram) <= _COND_LIMIT:
            raise SingularMatrixError(
                f"LMMSE weight matrix: H^H H + (noise_var/P) I is numerically singular "
                f"(condition number above {_COND_LIMIT:g})"
            )
        return WeightMatrix._from_gram(kind, H, gram)
    raise ConfigurationError(f"unknown linear detector kind {kind!r}; expected one of {DETECTOR_KINDS}")


def detect(weights: WeightMatrix | np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply the weights: s_tilde = W^H y, solved as G s_tilde = H^H y for LMMSE weights."""
    y = np.asarray(y)
    M = weights._mat if isinstance(weights, WeightMatrix) else np.asarray(weights)
    if M.shape[0] != y.shape[0]:
        raise DimensionError(f"W has {M.shape[0]} rows but y has length {y.shape[0]}")
    s_tilde = M.conj().T @ y
    if isinstance(weights, WeightMatrix) and weights._gram is not None:
        s_tilde = np.linalg.solve(weights._gram, s_tilde)
    return s_tilde


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
