"""MF and LMMSE weight matrices and linear detection: s_tilde = W^H y."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, SingularMatrixError, require_finite, require_observation

MF = "MF"
LMMSE = "LMMSE"

DETECTOR_KINDS = (MF, LMMSE)

_COND_LIMIT = 1e12


class WeightMatrix:
    """Linear detector weights W; the estimate is s_tilde = W^H y.

    `WeightMatrix(kind, W)` holds W itself, as MF weights do. LMMSE
    weights from `weight_matrix` hold H, its Gram H^H H and rho = noise_var / P
    instead: `detect` solves G s_tilde = H^H y with G = H^H H + rho I (one
    right-hand side), and W = H G^-1 is formed, with n_r right-hand sides,
    each time `.W` is read. Neither G nor W is kept, so the weights share
    H^H H with the MMP search of the same call, and holding many weights
    costs no more memory than holding their channels and Grams.
    """

    __slots__ = ("kind", "_mat", "_gram", "_rho")

    def __init__(self, kind: str, W: np.ndarray):
        self.kind = kind
        self._mat = W  # W itself, or H when _gram is set
        self._gram = None
        self._rho = 0.0

    @classmethod
    def _from_gram(cls, kind: str, H: np.ndarray, gram: np.ndarray, rho: float) -> "WeightMatrix":
        weights = cls(kind, H)
        weights._gram, weights._rho = gram, rho
        return weights

    def _regularised_gram(self) -> np.ndarray:
        gram = self._gram.copy()
        gram[np.diag_indices(gram.shape[0])] += self._rho
        return gram

    @property
    def W(self) -> np.ndarray:
        if self._gram is None:
            return self._mat
        return np.linalg.solve(self._regularised_gram().conj().T, self._mat.conj().T).conj().T

    def __repr__(self) -> str:
        return f"WeightMatrix(kind={self.kind!r})"


def weight_matrix(
    H: np.ndarray, kind: str, power: float, noise_var: float, *, gram: np.ndarray | None = None
) -> WeightMatrix:
    """Build the weight matrix for one of the conventional linear detectors.

    MF:    W = H / sqrt(P)
    LMMSE: W = H (H^H H + (noise_var / P) I)^-1, held as H, H^H H and noise_var / P

    `gram` is H^H H when the caller has already formed it; LMMSE weights
    keep that array itself, so the caller must not change it afterwards,
    and MF weights ignore it. A non-finite H or noise_var raises
    DomainError; an LMMSE Gram with condition number above 1e12 raises
    SingularMatrixError.
    """
    H = np.asarray(H, dtype=np.complex128)
    require_finite(H=H, noise_var=noise_var)
    sqrt_p = np.sqrt(power)
    if kind == MF:
        return WeightMatrix(kind, H / sqrt_p)
    if kind == LMMSE:
        gram = H.conj().T @ H if gram is None else gram
        h2 = gram.trace().real  # ||H||_F^2
        rho = noise_var / power
        weights = WeightMatrix._from_gram(kind, H, gram, rho)
        # cond(G) <= (||H||_F^2 + rho) / rho, so at any usual noise level the
        # bound alone clears G; only near-zero noise needs the SVD.
        if h2 + rho >= _COND_LIMIT * rho and not np.linalg.cond(weights._regularised_gram()) <= _COND_LIMIT:
            raise SingularMatrixError(
                f"LMMSE weight matrix: H^H H + (noise_var/P) I is numerically singular "
                f"(condition number above {_COND_LIMIT:g})"
            )
        return weights
    raise ConfigurationError(f"unknown linear detector kind {kind!r}; expected one of {DETECTOR_KINDS}")


def detect(weights: WeightMatrix | np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply the weights: s_tilde = W^H y, solved as G s_tilde = H^H y for LMMSE weights.

    A y that is not one observation (n_r,) raises DimensionError.
    """
    y = np.asarray(y)
    M = weights._mat if isinstance(weights, WeightMatrix) else np.asarray(weights)
    require_observation(y, M)
    s_tilde = M.conj().T @ y
    if isinstance(weights, WeightMatrix) and weights._gram is not None:
        s_tilde = np.linalg.solve(weights._regularised_gram(), s_tilde)
    return s_tilde


def residual_stream_variance(
    H: np.ndarray, weights: WeightMatrix | np.ndarray, power: float, noise_var: float, i: int
) -> float:
    """Variance of stream i's interference-plus-noise at the detector output.

    sigma_s^2 = w_i^H (P H H^H + noise_var I) w_i - P |w_i^H h_i|^2
              = P ||H^H w_i||^2 + noise_var ||w_i||^2 - P |w_i^H h_i|^2,

    from column i alone: Gram-held weights give w_i = H G^-1 e_i by one solve.
    """
    H = np.asarray(H)
    if isinstance(weights, WeightMatrix) and weights._gram is not None:
        e_i = np.zeros(weights._gram.shape[0], dtype=np.complex128)
        e_i[i] = 1.0
        w_i = weights._mat @ np.linalg.solve(weights._regularised_gram(), e_i)
    else:
        w_i = (weights.W if isinstance(weights, WeightMatrix) else np.asarray(weights))[:, i]
    hw = H.conj().T @ w_i
    total = power * np.vdot(hw, hw).real + noise_var * np.vdot(w_i, w_i).real
    signal = power * np.abs(np.vdot(w_i, H[:, i])) ** 2
    return float(total - signal)
