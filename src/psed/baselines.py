"""Reference detectors: exhaustive maximum likelihood and K-best tree search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ConfigurationError, require_finite
from .model import BPSK, Constellation

_ML_MAX_DIM = {BPSK: 12, "QPSK": 8}


def ml_max_dim(constellation_kind: str) -> int:
    """Largest n_t the exhaustive ML search accepts by default."""
    return _ML_MAX_DIM.get(constellation_kind, 8)


@dataclass(frozen=True)
class KBestConfig:
    """Number of partial candidates kept alive per search layer."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError(f"K-best survivor count must be >= 1, got {self.m}")


@lru_cache(maxsize=8)
def _candidate_grid(n_symbols: int, n_t: int) -> np.ndarray:
    """All length-n_t index tuples over an alphabet of n_symbols, as rows."""
    grids = np.meshgrid(*([np.arange(n_symbols)] * n_t), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ml_cost(y: np.ndarray, H: np.ndarray, power: float, s: np.ndarray) -> float:
    """The cost every detector here is trying to minimize."""
    return float(np.linalg.norm(y - np.sqrt(power) * (H @ s)) ** 2)


def ml_detect(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    constellation: Constellation,
    max_dim: int | None = None,
) -> np.ndarray:
    """Exhaustive maximum-likelihood detection.

    Enumerates every candidate symbol vector, so n_t is capped (default
    12 for BPSK, 8 for QPSK) to keep the search from blowing up. A
    non-finite y or H raises DomainError.
    """
    H = np.asarray(H, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    require_finite(y=y, H=H)
    n_t = H.shape[1]
    cap = max_dim if max_dim is not None else _ML_MAX_DIM.get(constellation.kind, 8)
    if n_t > cap:
        raise CapacityError(
            f"exhaustive ML with n_t={n_t} exceeds max_dim={cap} "
            f"({len(constellation)}^{n_t} candidates)"
        )
    grid = _candidate_grid(len(constellation), n_t)
    candidates = constellation.points[grid]  # (M^n_t, n_t)
    diffs = y[:, None] - np.sqrt(power) * (H @ candidates.T)
    costs = np.sum(np.abs(diffs) ** 2, axis=0)
    return candidates[int(np.argmin(costs))].copy()


def _kbest_search(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    constellation: Constellation,
    m: int,
) -> tuple[np.ndarray, float]:
    """Breadth-first K-best search; returns the winner and its search metric.

    The system is triangularized once (A = sqrt(P) H = Q R) and layers are
    decided from the last stream to the first in natural column order.
    The accumulated metric of a full candidate equals |Q^H y - R s|^2.
    Equal metrics keep the child enumerated first, survivor by survivor and
    point by point.
    """
    H = np.asarray(H, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    require_finite(y=y, H=H)
    n_r, n_t = H.shape
    if n_r < n_t:
        raise ConfigurationError(
            f"K-best needs n_r >= n_t for a triangular system, got ({n_r}, {n_t})"
        )
    if m < 1:
        raise ConfigurationError(f"K-best survivor count must be >= 1, got {m}")
    Q, R = np.linalg.qr(np.sqrt(power) * H)
    z = Q.conj().T @ y
    points = constellation.points
    scaled_points = R.diagonal()[:, None] * points  # row i: R_ii times every point

    # Partial candidates over streams [i, n_t); unfilled leading entries stay 0.
    symbols = np.zeros((1, n_t), dtype=np.complex128)
    metrics = np.zeros(1)
    for i in range(n_t - 1, -1, -1):
        tail = symbols[:, i + 1 :] @ R[i, i + 1 :]
        # Child f extends survivor f // M by point f % M.
        resid = z[i] - tail[:, None] - scaled_points[i]
        new_metrics = (metrics[:, None] + np.abs(resid) ** 2).ravel()
        keep = new_metrics.argsort(kind="stable")[:m]
        parent, point = np.divmod(keep, len(points))
        symbols = symbols[parent]
        symbols[:, i] = points[point]
        metrics = new_metrics[keep]
    best = int(np.argmin(metrics))
    return symbols[best].copy(), float(metrics[best])


def kbest_detect(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    constellation: Constellation,
    m: int,
) -> np.ndarray:
    """K-best detection: keep the m best partial candidates per layer.

    A non-finite y or H raises DomainError.
    """
    symbols, _ = _kbest_search(y, H, power, constellation, m)
    return symbols
