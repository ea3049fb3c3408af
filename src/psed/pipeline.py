"""The five-step refinement pipeline around a conventional linear detector.

Step 1 detects with MF or LMMSE weights, step 2 slices, step 3 subtracts
the re-encoded slice from the observation (the sparse transform), step 4
runs multipath matching pursuit on the residual system, and step 5
cancels the recovered error vector and slices again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linear_detectors, slicer, sparse_recovery
from .errors import ConfigurationError, SingularMatrixError, require_count, require_system
from .model import Constellation
from .slicer import SlicedVector
from .sparse_recovery import RecoveryResult, SupportSet

DEFAULT_SPARSITY_FRACTION = 0.15


# The PSED refinement of each base detector, and the name it is swept under.
PSED_NAMES = {linear_detectors.MF: "PSED-MF", linear_detectors.LMMSE: "PSED-LMMSE"}


@dataclass(frozen=True)
class PsedConfig:
    """Knobs for the refinement pipeline.

    ``base_detector`` is the step-1 front end, one of the keys of
    PSED_NAMES (MF or LMMSE); step 2 always slices hard, so the error
    vector of step 3 is sparse. ``sparsity`` of None selects
    floor(0.15 n_t) when the config is bound to a system; ``tol`` of None
    selects the relative noiseless stopping rule 1e-9 ||y'||, while Monte
    Carlo sweeps pass 0.0 to force exactly K recovery iterations. The
    LMMSE support estimator takes the squared minimum constellation
    distance as the error variance.
    """

    base_detector: str = linear_detectors.LMMSE
    sparsity: int | None = None
    branch: int = 2
    estimator: str = sparse_recovery.LS
    tol: float | None = None
    max_paths: int = sparse_recovery.DEFAULT_MAX_PATHS

    def __post_init__(self):
        if self.base_detector not in PSED_NAMES:
            raise ConfigurationError(
                f"base detector must be one of {tuple(PSED_NAMES)}, got {self.base_detector!r}"
            )
        if self.sparsity is not None:
            require_count("sparsity", self.sparsity)
        require_count("branch", self.branch)
        require_count("max_paths", self.max_paths)
        sparse_recovery._check_search(self.estimator, self.tol)

    def bound_sparsity(self, n_t: int) -> int:
        """Sparsity budget for a system with n_t streams."""
        k = self.sparsity if self.sparsity is not None else max(1, math.floor(DEFAULT_SPARSITY_FRACTION * n_t))
        return require_count("sparsity", k, 1, n_t)


@dataclass(frozen=True)
class DetectorOutput:
    """All intermediates of one pipeline run.

    ``recovery_failed`` marks trials where the sparse recovery hit a
    singular subproblem and the output fell back to the sliced step-2
    estimate.
    """

    s_tilde: np.ndarray = field(repr=False)
    s_hat: SlicedVector = field(repr=False)
    y_prime: np.ndarray = field(repr=False)
    recovery: RecoveryResult = field(repr=False)
    s_doublehat: np.ndarray = field(repr=False)
    s_final: SlicedVector = field(repr=False)
    recovery_failed: bool = False


def sparse_transform(y: np.ndarray, H: np.ndarray, s_hat: np.ndarray, power: float) -> np.ndarray:
    """Subtract the re-encoded sliced estimate: y' = y - sqrt(P) H s_hat.

    If s_hat misses the true symbols in a few entries, y' equals
    sqrt(P) H e + v with e the sparse slicing-error vector.
    """
    H, y, s_hat = require_system(H, y, s=s_hat, power=power)
    return y - np.sqrt(power) * (H @ s_hat)


def psed_detect(
    y: np.ndarray,
    H: np.ndarray,
    power: float,
    noise_var: float,
    constellation: Constellation,
    config: PsedConfig,
) -> DetectorOutput:
    """Run the full detect / slice / transform / recover / correct pipeline.

    A singular recovery subproblem is not fatal: the output falls back to
    the sliced step-2 estimate and the trial is flagged. Each step checks
    the inputs it takes, so the pipeline adds no check of its own.
    """
    weights = linear_detectors.weight_matrix(H, config.base_detector, power, noise_var)
    k = config.bound_sparsity(weights.M.shape[1])
    s_tilde = linear_detectors.detect(weights, y)
    s_hat = slicer.hard_slice(s_tilde, constellation)
    y_prime = sparse_transform(y, H, s_hat.values, power)

    recovery_failed = False
    try:
        recovery = sparse_recovery.mmp(
            H,
            y_prime,
            power,
            K=k,
            L=config.branch,
            tol=config.tol,
            max_paths=config.max_paths,
            estimator=config.estimator,
            error_var=constellation.min_distance**2 if config.estimator == sparse_recovery.LMMSE else None,
            noise_var=noise_var,
            gram=weights.gram,  # LMMSE weights' own H^H H; None for MF, and mmp forms it
        )
    except SingularMatrixError:
        recovery_failed = True
        recovery = RecoveryResult(
            support=SupportSet(),
            e_hat=np.zeros_like(s_tilde),
            residual_norm=float(np.linalg.norm(y_prime)),
            paths_explored=0,
        )

    s_doublehat = s_hat.values + recovery.e_hat
    s_final = slicer.hard_slice(s_doublehat, constellation)
    return DetectorOutput(
        s_tilde=s_tilde,
        s_hat=s_hat,
        y_prime=y_prime,
        recovery=recovery,
        s_doublehat=s_doublehat,
        s_final=s_final,
        recovery_failed=recovery_failed,
    )
