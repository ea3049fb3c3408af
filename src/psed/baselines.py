"""Reference detectors: exhaustive maximum likelihood and K-best tree search.

Both take one observation or a stack of observations of one channel.
K-best also takes a stack of channels, each with its own stack of
observations, and searches them all in one layer loop; the sweep harness
hands it every channel of a block of trials at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapacityError, ConfigurationError, DimensionError, require_count, require_system
from .model import BPSK, Constellation

_ML_MAX_DIM = {BPSK: 12, "QPSK": 8}


def ml_max_dim(constellation_kind: str) -> int:
    """Largest n_t the exhaustive ML search accepts."""
    return _ML_MAX_DIM.get(constellation_kind, 8)


def require_kbest_shape(n_r: int, n_t: int) -> None:
    """Raise ConfigurationError unless n_r >= n_t, as the triangular system of K-best needs."""
    if n_r < n_t:
        raise ConfigurationError(f"K-best needs n_r >= n_t for a triangular system, got ({n_r}, {n_t})")


@lru_cache(maxsize=8)
def _candidates(points: bytes, n_t: int) -> np.ndarray:
    """Every length-n_t vector over the points (complex128 bytes), as read-only rows."""
    points = np.frombuffer(points, dtype=np.complex128)
    grids = np.meshgrid(*([np.arange(len(points))] * n_t), indexing="ij")
    table = points[np.stack([g.ravel() for g in grids], axis=1)]
    table.flags.writeable = False
    return table


def ml_cost(y: np.ndarray, H: np.ndarray, power: float, s: np.ndarray) -> float:
    """The cost every detector here is trying to minimize."""
    H, y, s = require_system(H, y, s=s, power=power)
    return float(np.linalg.norm(y - np.sqrt(power) * (H @ s)) ** 2)


def ml_detect(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    constellation: Constellation,
) -> np.ndarray:
    """Exhaustive maximum-likelihood detection.

    y is one observation (n_r,) or a stack (B, n_r) of observations of the
    same H, and the result is (n_t,) or (B, n_t) accordingly; the received
    signal of every candidate is formed once per call. Enumerates every
    candidate symbol vector, so n_t is capped at `ml_max_dim` (12 for BPSK,
    8 for QPSK) to keep the search from blowing up.
    """
    H, y, _ = require_system(H, y, power=power, stacked=True)
    n_t = H.shape[1]
    cap = ml_max_dim(constellation.kind)
    if n_t > cap:
        raise CapacityError(
            f"exhaustive ML with n_t={n_t} exceeds its cap of {cap} "
            f"({len(constellation)}^{n_t} candidates)"
        )
    # Keyed by the points themselves, so an alphabet with other points gets its own table.
    candidates = _candidates(np.asarray(constellation.points, dtype=np.complex128).tobytes(), n_t)  # (M^n_t, n_t)
    received = np.sqrt(power) * (H @ candidates.T)  # (n_r, M^n_t), shared by every observation
    best = [np.argmin(np.sum(np.abs(obs[:, None] - received) ** 2, axis=0)) for obs in y.reshape(-1, H.shape[0])]
    return candidates[best].reshape(y.shape[:-1] + (n_t,))


def _kbest_search(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    constellation: Constellation,
    m: int,
) -> tuple[np.ndarray, np.ndarray | float]:
    """Breadth-first K-best search; returns the winners and their search metrics.

    y is one observation (n_r,) or a stack (B, n_r) of observations of the
    same H, or H is a stack (T, n_r, n_t) of channels and y a stack
    (T, B, n_r) whose row t observes H[t]. The winners have y's leading
    shape plus (n_t,) and the metrics y's leading shape (a float for one
    observation). Each channel is triangularized (A = sqrt(P) H = Q R) by
    one stacked QR per call, and layers are decided from the last stream to
    the first in natural column order, one set of array operations per
    layer over the survivors of every observation of every channel. The
    accumulated metric of a full candidate equals |Q^H y - R s|^2. Equal
    metrics keep the child enumerated first, survivor by survivor and point
    by point.
    """
    H = np.asarray(H, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if H.ndim == 3:  # a stack of channels; each goes through the checks of a call of its own
        if not len(H) or y.ndim != 3 or len(y) != len(H):
            raise DimensionError(
                f"y of shape {y.shape} does not fit a stack of channels of shape {H.shape}: "
                "expected (T, B, n_r), T >= 1"
            )
        for channel, obs in zip(H, y):
            require_system(channel, obs, power=power, stacked=True)
    else:
        H, y, _ = require_system(H, y, power=power, stacked=True)
        H = H[None]
    n_ch, n_r, n_t = H.shape
    require_kbest_shape(n_r, n_t)
    m = require_count("m", m)
    Q, R = np.linalg.qr(np.sqrt(power) * H)
    obs = y.reshape(n_ch, -1, n_r)
    n_obs = obs.shape[1]
    z = Q.conj().swapaxes(1, 2)[:, None] @ obs[..., None]  # one gemv per observation
    z = z.transpose(2, 0, 1, 3).reshape(n_t, n_ch, n_obs, 1, 1)  # layer i reads z[i], one entry per observation
    points = constellation.points
    n_points = len(points)
    # [c, i]: R_ii of channel c times every point, shaped to broadcast over observations and survivors.
    scaled_points = R.diagonal(axis1=1, axis2=2)[:, :, None, None, None] * points
    # Child f of a layer's survivors carries point f % M; a layer extends at
    # most min(m, M^(n_t - 1)) survivors.
    child_points = np.tile(points, min(m, n_points ** (n_t - 1)))
    rows = np.arange(n_ch * n_obs)
    rows_col = rows[:, None]

    # Partial candidates over streams [i, n_t), indexed (channel and
    # observation, survivor, stream); unfilled leading entries stay 0.
    symbols = np.zeros((n_ch * n_obs, 1, n_t), dtype=np.complex128)
    metrics = np.zeros((n_ch * n_obs, 1, 1))
    for i in range(n_t - 1, -1, -1):
        survivors = (n_ch, n_obs, symbols.shape[1])
        # One BLAS product per observation, over the rows a call of its own
        # would have; R's row is broadcast to the observations, not copied.
        tail = symbols.reshape(survivors + (n_t,))[..., i + 1 :] @ R[:, None, i, i + 1 :, None]
        # Child f of an observation extends its survivor f // M by point f % M.
        new_metrics = np.abs(z[i] - tail - scaled_points[:, i])
        new_metrics **= 2
        new_metrics += metrics.reshape(survivors + (1,))
        new_metrics = new_metrics.reshape(n_ch * n_obs, -1)
        keep = new_metrics.argsort(axis=1, kind="stable")[:, :m]
        symbols = symbols[rows_col, keep // n_points]
        symbols[:, :, i] = child_points[keep]
        metrics = new_metrics[rows_col, keep, None]
    metrics = metrics[:, :, 0]
    best = metrics.argmin(axis=1)
    return symbols[rows, best].reshape(y.shape[:-1] + (n_t,)), metrics[rows, best].reshape(y.shape[:-1])[()]


def kbest_detect(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    constellation: Constellation,
    m: int,
) -> np.ndarray:
    """K-best detection: keep the m best partial candidates per layer.

    y is one observation (n_r,) or a stack (B, n_r) of observations of the
    same H, and the result is (n_t,) or (B, n_t) accordingly. With H a
    stack (T, n_r, n_t) of channels and y a stack (T, B, n_r), row t
    observing H[t], the result is (T, B, n_t), each channel's rows bitwise
    equal to a call on that channel alone.
    """
    symbols, _ = _kbest_search(y, H, power, constellation, m)
    return symbols
