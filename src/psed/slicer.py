"""Hard symbol slicing: every entry maps to its nearest constellation point."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, require_finite
from .model import Constellation


@dataclass(frozen=True)
class SlicedVector:
    """Slicer output: every entry is a constellation point."""

    values: np.ndarray = field(repr=False)


def hard_slice(values: np.ndarray | complex, constellation: Constellation) -> SlicedVector:
    """Map each entry to the nearest constellation point.

    Ties are broken toward the lowest constellation index, so the result is
    deterministic even on decision boundaries. A NaN or infinite entry
    raises DomainError, and input of more than one dimension DimensionError.
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if values.ndim > 1:
        raise DimensionError(f"values must be a scalar or 1-D, got shape {values.shape}")
    require_finite(values=values)
    dist = np.abs(values[:, None] - constellation.points[None, :])
    idx = np.argmin(dist, axis=1)  # argmin returns the first (lowest) index on ties
    return SlicedVector(values=constellation.points[idx])
