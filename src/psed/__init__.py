"""Sparse-error-refined detection for large linear systems.

A conventional linear detector is run first; slicing its output turns
the residual problem into a sparse one, a multipath matching pursuit
recovers the sparse slicing-error vector, and cancelling it yields the
refined symbol estimate. The package also ships the matching asymptotic
analysis (SINR/MSE limits, recovery guarantees, complexity counts) and a
reproducible Monte Carlo sweep harness with a CLI.
"""

from .analysis import (
    ComplexityReport,
    GuaranteeReport,
    RipEstimate,
    asymptotic_sinr,
    complexity_count,
    error_count_concentration,
    mmp_exact_condition,
    mmp_support_threshold,
    mse_conv_asymptotic,
    mse_psed_bound,
    mse_psed_closed_form,
    pe_bpsk,
    rip_constant,
    stream_correlation,
    support_recovery_prob,
    trace_inverse_limit,
)
from .baselines import KBestConfig, kbest_detect, ml_detect
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    DomainError,
    PsedError,
    SingularMatrixError,
)
from .harness import SweepConfig, SweepResult, SweepRow, emit_csv, read_csv, run_mse_curves, run_sweep
from .linear_detectors import WeightMatrix, detect, residual_stream_variance, weight_matrix
from .model import (
    Constellation,
    SnrSpec,
    SystemInstance,
    db_to_linear,
    draw_symbols,
    generate_channel,
    linear_to_db,
    make_constellation,
    rng_stream,
    transmit,
)
from .pipeline import DetectorOutput, PsedConfig, psed_detect, sparse_transform
from .slicer import SlicedVector, hard_slice
from .sparse_recovery import (
    RecoveryResult,
    SupportSet,
    lmmse_on_support,
    ls_on_support,
    mmp,
    omp,
)

__version__ = "0.1.0"
