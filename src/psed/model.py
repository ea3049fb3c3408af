"""System model: constellations, random channels, and noisy observations.

Everything here is pure given an explicit RNG stream, so trials can be
generated independently and reproducibly under any execution order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_count, require_real, require_system

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
    return Constellation(kind=kind, points=points.copy())


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

    noise_var is one variance or a sequence of B of them, each checked as a
    scalar noise_var is. The unit noise is drawn once and scaled to each
    variance, so ``v`` and ``y`` are (n_r,) or (B, n_r), and row b equals a
    call with ``noise_var[b]`` alone on the same stream.
    """
    H, _, s = require_system(H, s=s, power=power)
    if np.ndim(noise_var):
        noise_var = np.array([require_real("noise_var", nv, "[0, inf)", ConfigurationError) for nv in noise_var])
    else:
        noise_var = require_real("noise_var", noise_var, "[0, inf)", ConfigurationError)
    rng = np.random.default_rng(rng)
    n_r = H.shape[0]
    unit = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
    v = np.sqrt(np.asarray(noise_var) / 2.0)[..., None] * unit
    y = np.sqrt(power) * (H @ s) + v
    return SystemInstance(H=H, s=s, v=v, y=y, power=float(power), noise_var=noise_var)


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (require_real("snr_db", snr_db, "[-inf, inf]") / 10.0)
