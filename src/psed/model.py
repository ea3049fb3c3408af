"""System model: constellations, random channels, and noisy observations.

Everything here is pure given an explicit RNG stream, so trials can be
generated independently and reproducibly under any execution order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_count, require_system

BPSK = "BPSK"
QPSK = "QPSK"

_SQRT2 = np.sqrt(2.0)

_CONSTELLATION_POINTS = {
    BPSK: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    QPSK: np.array(
        [
            (1.0 + 1.0j) / _SQRT2,
            (1.0 - 1.0j) / _SQRT2,
            (-1.0 + 1.0j) / _SQRT2,
            (-1.0 - 1.0j) / _SQRT2,
        ]
    ),
}


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy symbol alphabet with a fixed point ordering.

    The point ordering is part of the contract: hard slicing breaks ties
    toward the lowest index.
    """

    kind: str
    points: np.ndarray = field(repr=False)
    bits_per_symbol: int

    def __len__(self) -> int:
        return len(self.points)

    @property
    def min_distance(self) -> float:
        """Smallest distance between two distinct constellation points."""
        diffs = self.points[:, None] - self.points[None, :]
        mags = np.abs(diffs)[~np.eye(len(self.points), dtype=bool)]
        return float(mags.min())


def make_constellation(kind: str) -> Constellation:
    """Return the unit-energy alphabet for ``kind`` (``BPSK`` or ``QPSK``)."""
    try:
        points = _CONSTELLATION_POINTS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unsupported constellation kind {kind!r}; expected one of "
            f"{sorted(_CONSTELLATION_POINTS)}"
        ) from None
    return Constellation(kind=kind, points=points.copy(), bits_per_symbol=points.size.bit_length() - 1)


@dataclass(frozen=True)
class SystemInstance:
    """One realization of ``y = sqrt(P) H s + v``, or a stack of them.

    With B noise variances, ``noise_var`` is a (B,) array and ``v``, ``y``
    are (B, n_r): row b is the observation at ``noise_var[b]``.
    """

    H: np.ndarray
    s: np.ndarray
    v: np.ndarray
    y: np.ndarray
    power: float
    noise_var: float | np.ndarray

    @property
    def snr(self) -> float | np.ndarray:
        """P / noise_var, infinite at zero noise; one per row when stacked."""
        with np.errstate(divide="ignore"):
            return self.power / np.asarray(self.noise_var)

    def rebuild_error(self) -> float | np.ndarray:
        """Max-norm gap between the stored y and sqrt(P) H s + v; one per row when stacked."""
        return np.abs(self.y - (np.sqrt(self.power) * self.H @ self.s + self.v)).max(axis=-1)


def rng_stream(master_seed: int, tag: str, trial_index: int = 0) -> np.random.Generator:
    """Independent substream keyed by (master_seed, purpose tag, trial index).

    The tag is folded through CRC-32 so streams are stable across runs and
    interpreters (Python's hash() is salted and unusable here).
    """
    entropy = (require_count("master_seed", master_seed, low=0), zlib.crc32(tag.encode("utf-8")),
               require_count("trial_index", trial_index, low=0))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def generate_channel(n_r: int, n_t: int, rng: np.random.Generator | int) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian channel, entry variance 1/n_r."""
    n_r, n_t = require_count("n_r", n_r), require_count("n_t", n_t)
    rng = np.random.default_rng(rng)
    scale = np.sqrt(1.0 / (2.0 * n_r))
    return scale * (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t)))


def draw_symbols(constellation: Constellation, n_t: int, rng: np.random.Generator | int) -> np.ndarray:
    """Draw n_t symbols uniformly from the constellation."""
    n_t = require_count("n_t", n_t)
    rng = np.random.default_rng(rng)
    idx = rng.integers(0, len(constellation), size=n_t)
    return constellation.points[idx]


def transmit(
    H: np.ndarray,
    s: np.ndarray,
    power: float,
    noise_var: float | np.ndarray,
    rng: np.random.Generator | int,
) -> SystemInstance:
    """Form ``y = sqrt(P) H s + v`` with ``v ~ CN(0, noise_var I)``.

    noise_var is one variance or a 1-D array of B of them. The unit noise is
    drawn once and scaled to each variance, so ``v`` and ``y`` are (n_r,) or
    (B, n_r), and row b equals a call with ``noise_var[b]`` alone on the same
    stream.
    """
    H, _, s = require_system(H, s=s, power=power, noise_var=noise_var, stacked=True)
    noise_var = np.asarray(noise_var, dtype=np.float64)
    rng = np.random.default_rng(rng)
    n_r = H.shape[0]
    unit = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
    v = np.sqrt(noise_var / 2.0)[..., None] * unit
    y = np.sqrt(power) * (H @ s) + v
    noise_var = noise_var if noise_var.ndim else float(noise_var)
    return SystemInstance(H=H, s=s, v=v, y=y, power=float(power), noise_var=noise_var)


def db_to_linear(snr_db: float) -> float:
    return float(10.0 ** (snr_db / 10.0))
