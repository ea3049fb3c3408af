"""MF and LMMSE weight matrices and linear detection: s_tilde = W^H y."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import _COND_LIMIT, ConfigurationError, DimensionError, SingularMatrixError, require_count
from .errors import require_finite, require_system

MF = "MF"
LMMSE = "LMMSE"

DETECTOR_KINDS = (MF, LMMSE)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Linear detector weights W; the estimate is s_tilde = W^H y.

    With `gram` None, `M` is W itself, as for MF weights or
    `WeightMatrix(W)`. LMMSE weights from `weight_matrix` hold
    M = H / sqrt(P), the Gram `gram` = H^H H of H itself and
    `rho` = noise_var / P instead: `detect` solves G s_tilde = M^H y with
    G = gram + rho I (one right-hand side), and W = M G^-1 is formed, with
    n_r right-hand sides, each time `.W` is read. Both kinds carry the
    1/sqrt(P), so s_tilde estimates s at unit scale for any P.
    Neither G nor W is kept, and `psed_detect` hands the same `gram` to the
    MMP search, so one H^H H serves a call.
    """

    M: np.ndarray = field(repr=False)
    gram: np.ndarray | None = field(default=None, repr=False)
    rho: float = 0.0

    @property
    def G(self) -> np.ndarray:
        """The regularised Gram gram + rho I, formed from a fresh copy of `gram`."""
        G = self.gram.copy()
        G[np.diag_indices(G.shape[0])] += self.rho
        return G

    @property
    def W(self) -> np.ndarray:
        return self.M if self.gram is None else np.linalg.solve(self.G.conj().T, self.M.conj().T).conj().T


def weight_matrix(H: np.ndarray, kind: str, power: float, noise_var: float) -> WeightMatrix:
    """Build the weight matrix for one of the conventional linear detectors.

    MF:    W = H / sqrt(P), held as M = W
    LMMSE: W = H (H^H H + (noise_var / P) I)^-1 / sqrt(P), held as M = H / sqrt(P),
           gram = H^H H and rho = noise_var / P

    The 1/sqrt(P) undoes the sqrt(P) of y = sqrt(P) H s + v, so `detect`
    returns an estimate of s itself.

    LMMSE weights form their own `gram`, which `psed_detect` shares with the
    MMP search. One whose G = gram + rho I has condition number above 1e12
    raises SingularMatrixError.
    """
    H, _, _ = require_system(H, power=power, noise_var=noise_var)
    if kind == MF:
        return WeightMatrix(H / np.sqrt(power))
    if kind == LMMSE:
        gram = H.conj().T @ H
        h2 = gram.trace().real  # ||H||_F^2
        rho = noise_var / power
        M = H if power == 1 else H / np.sqrt(power)  # at P = 1 the division would only copy H
        weights = WeightMatrix(M, gram, rho)
        # cond(G) <= (||H||_F^2 + rho) / rho, so at any usual noise level the
        # bound alone clears G; only near-zero noise needs the SVD.
        if h2 + rho >= _COND_LIMIT * rho and not np.linalg.cond(weights.G) <= _COND_LIMIT:
            raise SingularMatrixError(
                f"LMMSE weight matrix: H^H H + (noise_var/P) I is numerically singular "
                f"(condition number above {_COND_LIMIT:g})"
            )
        return weights
    raise ConfigurationError(f"unknown linear detector kind {kind!r}; expected one of {DETECTOR_KINDS}")


def detect(weights: WeightMatrix, y: np.ndarray) -> np.ndarray:
    """Apply the weights: s_tilde = W^H y, solved as G s_tilde = M^H y for LMMSE weights.

    Weights from `weight_matrix` carry 1/sqrt(P), so s_tilde estimates s at unit scale.
    M must be 2-D and non-empty, y must be (n_r,), a `gram` must be
    (n_t, n_t) for M's n_t columns, and all must be finite; each message
    names `weights`, `y` or `gram`.
    """
    M = np.asarray(weights.M, dtype=np.complex128)
    if M.ndim != 2 or not M.size:
        raise DimensionError(f"weights must be a non-empty 2-D matrix, got shape {M.shape}")
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != M.shape[:1]:
        raise DimensionError(f"y of shape {y.shape} does not fit weights of shape {M.shape}: expected (n_r,)")
    require_finite(weights=M, y=y)
    s_tilde = M.conj().T @ y
    if weights.gram is None:
        return s_tilde
    gram = np.asarray(weights.gram)
    if gram.shape != (M.shape[1],) * 2:
        raise DimensionError(f"gram of shape {gram.shape} does not fit weights of shape {M.shape}: expected (n_t, n_t)")
    require_finite(gram=gram)
    return np.linalg.solve(weights.G, s_tilde)


def residual_stream_variance(
    H: np.ndarray, weights: WeightMatrix, power: float, noise_var: float, i: int
) -> float:
    """Variance of stream i's interference-plus-noise at the detector output.

    sigma_s^2 = w_i^H (P H H^H + noise_var I) w_i - P |w_i^H h_i|^2
              = P ||H^H w_i||^2 + noise_var ||w_i||^2 - P |w_i^H h_i|^2.
    """
    H, _, _ = require_system(H, power=power, noise_var=noise_var)
    i = require_count("i", i, 0, H.shape[1] - 1)
    w_i = weights.W[:, i]
    hw = H.conj().T @ w_i
    total = power * np.vdot(hw, hw).real + noise_var * np.vdot(w_i, w_i).real
    signal = power * np.abs(np.vdot(w_i, H[:, i])) ** 2
    return float(total - signal)
