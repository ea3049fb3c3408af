"""Closed-form and brute-force analysis tools.

Covers restricted-isometry constants, multipath-pursuit recovery
guarantees, the chi-square support-recovery probability, large-system
LMMSE asymptotics (SINR, conventional and post-recovery MSE), complex
multiplication counts for the detector variants, and the empirical
appendix properties (stream decorrelation, error-count concentration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError, require_count, require_system
from .linear_detectors import DETECTOR_KINDS, LMMSE
from .pipeline import PSED_NAMES

EXHAUSTIVE_SUBSET_BUDGET = 10**6
SAMPLED_SUPPORT_COUNT = 10**4
RIP_BATCH = 4096  # supports scored per batched eigen-solve

# Each linear detector, then its PSED refinement: the rows of the paper's complexity table.
COMPLEXITY_DETECTORS = tuple(name for base in DETECTOR_KINDS for name in (base, PSED_NAMES[base]))


# ---------------------------------------------------------------------------
# Restricted isometry


@dataclass(frozen=True)
class RipEstimate:
    """Worst-case energy distortion over K-column submatrices.

    In sampled mode `delta` is only a lower bound on the true constant
    and `exhaustive` is False.
    """

    K: int
    delta: float
    subsets_checked: int
    exhaustive: bool = True


def _subset_distortion(gram: np.ndarray, subsets: list[tuple[int, ...]]) -> float:
    """Largest energy distortion over the subsets, from the K x K principal submatrices of H^H H."""
    idx = np.array(subsets, dtype=np.intp)
    eig = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    return float(max(eig[:, -1].max() - 1.0, 1.0 - eig[:, 0].min()))


def rip_constant(
    H: np.ndarray,
    K: int,
    method: str = "exhaustive",
    sample_size: int = SAMPLED_SUPPORT_COUNT,
    rng: np.random.Generator | int | None = None,
) -> RipEstimate:
    """Restricted isometry constant of H at sparsity K.

    Exhaustive mode checks every size-K support (refused above a 10^6
    subset budget); sampled mode draws uniform supports and reports a
    lower bound flagged non-exhaustive.
    """
    H, _, _ = require_system(H)
    n_t = H.shape[1]
    K = require_count("K", K, 1, n_t)
    sample_size = require_count("sample_size", sample_size)
    gram = H.conj().T @ H
    if method == "exhaustive":
        total = math.comb(n_t, K)
        if total > EXHAUSTIVE_SUBSET_BUDGET:
            raise CapacityError(
                f"C({n_t}, {K}) = {total} exceeds the exhaustive budget "
                f"{EXHAUSTIVE_SUBSET_BUDGET}; use method='sampled' for a lower bound"
            )
        subsets = combinations(range(n_t), K)
    elif method == "sampled":
        gen = np.random.default_rng(rng)
        subsets = (tuple(gen.choice(n_t, size=K, replace=False)) for _ in range(sample_size))
    else:
        raise ConfigurationError(f"unknown rip method {method!r}; expected 'exhaustive' or 'sampled'")
    delta, checked = 0.0, 0
    while chunk := list(islice(subsets, RIP_BATCH)):
        delta = max(delta, _subset_distortion(gram, chunk))
        checked += len(chunk)
    return RipEstimate(K=K, delta=max(delta, 0.0), subsets_checked=checked, exhaustive=method == "exhaustive")


# ---------------------------------------------------------------------------
# Multipath pursuit guarantees


@dataclass(frozen=True)
class GuaranteeReport:
    """Noisy support-recovery constants for the multipath pursuit.

    `tau` scales the noise norm: support recovery is guaranteed when the
    smallest nonzero signal magnitude is at least tau * ||v||_2 and the
    noiseless exact-recovery condition holds.
    """

    delta_lk: float
    delta_k: float
    delta_2k: float
    gamma: float
    mu: float
    lam: float
    tau: float
    exact_recovery_condition: bool


def mmp_exact_condition(delta_lk: float, K: int, L: int) -> bool:
    """Noiseless exact-recovery test: delta_{K+L} < sqrt(L) / (sqrt(K) + 2 sqrt(L))."""
    if not delta_lk >= 0:
        raise DomainError(f"delta_lk must be >= 0, got {delta_lk}")
    K, L = require_count("K", K), require_count("L", L)
    return delta_lk < math.sqrt(L) / (math.sqrt(K) + 2.0 * math.sqrt(L))


def mmp_support_threshold(
    delta_lk: float, delta_k: float, delta_2k: float, K: int, L: int
) -> GuaranteeReport:
    """Constants of the noisy support-recovery guarantee.

    Computes the three threshold constants and tau = max of them; the
    caller multiplies tau by the noise norm to get the minimum signal
    magnitude that guarantees support identification.
    """
    exact = mmp_exact_condition(delta_lk, K, L)  # checks delta_lk, K and L first
    for name, d in (("delta_k", delta_k), ("delta_2k", delta_2k)):
        if not d >= 0:
            raise DomainError(f"{name} must be >= 0, got {d}")
    sqrt_l, sqrt_k, sqrt_lk = math.sqrt(L), math.sqrt(K), math.sqrt(L * K)

    den_gamma = sqrt_lk - (sqrt_lk + K) * delta_lk
    if den_gamma <= 0:
        raise DomainError(
            f"gamma denominator sqrt(LK) - (sqrt(LK)+K) delta_lk = {den_gamma:g} is not positive"
        )
    den_mu = sqrt_l - (2.0 * sqrt_l + sqrt_k) * delta_lk
    if den_mu <= 0:
        raise DomainError(
            f"mu denominator sqrt(L) - (2 sqrt(L)+sqrt(K)) delta_lk = {den_mu:g} is not positive"
        )
    den_lam = (1.0 - delta_k) ** 3 - (1.0 + delta_k) * delta_2k**2
    if den_lam <= 0:
        raise DomainError(
            f"lambda denominator (1-delta_k)^3 - (1+delta_k) delta_2k^2 = {den_lam:g} is not positive"
        )

    gamma = math.sqrt(1.0 + delta_lk) * (sqrt_l + sqrt_k) / den_gamma
    mu = math.sqrt(1.0 + delta_lk) * (1.0 - delta_lk) * (sqrt_l + sqrt_k) / den_mu
    lam = math.sqrt(2.0 * (1.0 - delta_k) ** 2 / den_lam)
    tau = max(gamma, mu, lam)
    return GuaranteeReport(
        delta_lk=delta_lk,
        delta_k=delta_k,
        delta_2k=delta_2k,
        gamma=gamma,
        mu=mu,
        lam=lam,
        tau=tau,
        exact_recovery_condition=exact,
    )


def support_recovery_prob(n_r: int, d: float, noise_var: float, tau: float) -> float:
    """Probability that the noise norm stays below the recovery margin.

    Evaluates Pr(||v||^2 <= d^2 / tau^2) for v ~ CN(0, noise_var I_{n_r}),
    i.e. 1 - Gamma(n_r, x)/Gamma(n_r) at x = d^2 / (noise_var tau^2),
    using the integer-order finite sum for the regularized upper gamma
    function, accumulated in log space.
    """
    n_r = require_count("n_r", n_r)
    if not 0 <= d < math.inf:
        raise DomainError(f"d must be finite and >= 0, got {d}")
    if not noise_var > 0:
        raise DomainError(f"noise_var must be positive, got {noise_var}")
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    x = d * d / (noise_var * tau * tau)
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
    log_terms = [-x + k * log_x - math.lgamma(k + 1) for k in range(n_r)]
    peak = max(log_terms)
    if peak == -math.inf:
        return 1.0
    upper_regularized = math.exp(peak) * math.fsum(math.exp(t - peak) for t in log_terms)
    return min(max(1.0 - upper_regularized, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Large-system LMMSE asymptotics


def _f_functional(x: float, z: float) -> float:
    """The fluctuation functional in the LMMSE large-system limit."""
    a = math.sqrt(x * (1.0 + math.sqrt(z)) ** 2 + 1.0)
    b = math.sqrt(x * (1.0 - math.sqrt(z)) ** 2 + 1.0)
    return (a - b) ** 2


def asymptotic_sinr(snr: float, beta: float) -> float:
    """Deterministic per-stream LMMSE output SINR in the large-system limit."""
    if not 0 <= snr < math.inf:
        raise DomainError(f"snr must be finite and >= 0, got {snr}")
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    return snr - _f_functional(snr, beta) / 4.0


def pe_bpsk(sinr: float) -> float:
    """Per-stream BPSK error probability Q(sqrt(2 sinr)) at a given output SINR."""
    if not sinr >= 0:
        raise DomainError(f"sinr must be >= 0, got {sinr}")
    return 0.5 * math.erfc(math.sqrt(sinr))


def mse_conv_asymptotic(snr: float, beta: float) -> float:
    """Large-system normalized MSE of the conventional LMMSE detector."""
    if not 0 < snr < math.inf:
        raise DomainError(f"snr must be finite and positive, got {snr}")
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    return 1.0 - _f_functional(snr, beta) / (4.0 * beta * snr)


def mse_psed_bound(snr: float, beta: float, p_e: float, simplified: bool = False) -> float:
    """Post-recovery MSE lower bound as a function of SNR and error rate.

    The full form is (1/snr) p_e / (1 - p_e beta); `simplified` selects
    the high-SNR reduction p_e / snr.
    """
    if not snr > 0:
        raise DomainError(f"snr must be positive, got {snr}")
    if not 0.0 <= p_e < 1.0:
        raise DomainError(f"p_e must be in [0, 1), got {p_e}")
    if not p_e * beta < 1.0:
        raise DomainError(f"p_e * beta = {p_e * beta:g} must be < 1")
    if simplified:
        return p_e / snr
    return (p_e / (1.0 - p_e * beta)) / snr


def mse_psed_closed_form(snr: float, beta: float) -> float:
    """Closed-form high-SNR post-recovery MSE floor for BPSK.

    Decays exponentially with SNR; defined for beta <= 1 only.
    """
    if not snr > 0:
        raise DomainError(f"snr must be positive, got {snr}")
    if beta > 1:
        raise DomainError(f"no closed form for beta > 1, got beta={beta}")
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta == 1.0:
        return snr ** (-5.0 / 4.0) * math.exp(-math.sqrt(snr)) / (2.0 * math.sqrt(math.pi))
    return snr ** (-3.0 / 2.0) * math.exp(-(1.0 - beta) * snr) / (2.0 * math.sqrt(math.pi * (1.0 - beta)))


def trace_inverse_limit(beta_prime: float) -> float:
    """Large-system limit of the normalized trace of an inverse Wishart submatrix."""
    if not 0.0 <= beta_prime < 1.0:
        raise DomainError(f"beta_prime must be in [0, 1), got {beta_prime}")
    return 1.0 / (1.0 - beta_prime)


# ---------------------------------------------------------------------------
# Complexity accounting


@dataclass(frozen=True)
class ComplexityReport:
    """Complex-multiplication counts, one row per pipeline stage."""

    detector: str
    n_r: int
    n_t: int
    K: int | None
    L: int | None
    rows: dict[str, int] = field(repr=False)
    total: int = 0


def inversion_multiplications(n: int) -> int:
    """Complex multiplications of an n x n matrix inversion by elimination."""
    return (2 * n**3 + 3 * n**2 - 5 * n) // 6


def complexity_count(
    detector: str, n_r: int, n_t: int, K: int | None = None, L: int | None = None
) -> ComplexityReport:
    """Evaluate the per-stage complex multiplication counts for a detector."""
    if detector not in COMPLEXITY_DETECTORS:
        raise ConfigurationError(
            f"unknown detector {detector!r}; expected one of {COMPLEXITY_DETECTORS}"
        )
    n_r, n_t = require_count("n_r", n_r), require_count("n_t", n_t)
    is_psed = detector in PSED_NAMES.values()
    if is_psed:
        if K is None or L is None:
            raise ConfigurationError(f"{detector} requires K and L")
        K, L = require_count("K", K, 1, n_t), require_count("L", L)

    lmmse_weights = detector in (LMMSE, PSED_NAMES[LMMSE])
    rows = {
        "filter_weight_generation": 2 * n_r * n_t**2 + inversion_multiplications(n_t) if lmmse_weights else 0,
        "filtering": n_r * n_t,
        "sparse_transform": n_r * n_t if is_psed else 0,
        "sparse_recovery_matching": (
            sum(n_r * (n_t - k + 1) for k in range(1, K + 1)) if is_psed else 0
        ),
        "sparse_recovery_projection": (
            sum((2 * n_r * k**2 + inversion_multiplications(k) + k * n_r) * L for k in range(1, K + 1))
            if is_psed
            else 0
        ),
        "sparse_recovery_residual": (
            sum(k * n_r * L for k in range(1, K + 1)) if is_psed else 0
        ),
    }
    return ComplexityReport(
        detector=detector,
        n_r=n_r,
        n_t=n_t,
        K=K if is_psed else None,
        L=L if is_psed else None,
        rows=rows,
        total=sum(rows.values()),
    )


# ---------------------------------------------------------------------------
# Empirical large-system side properties


def stream_correlation(H: np.ndarray, power: float, noise_var: float, i: int, j: int) -> complex:
    """Correlation between two LMMSE output streams for a fixed channel.

    Evaluates P h_i^H (H H^H + (1/snr) I)^-1 h_j directly; the streams
    decorrelate as the system grows.
    """
    H, _, _ = require_system(H, power=power, noise_var=noise_var)
    i, j = require_count("i", i, 0, H.shape[1] - 1), require_count("j", j, 0, H.shape[1] - 1)
    if i == j:
        raise ConfigurationError("stream indices must differ")
    alpha = noise_var / power
    resolvent = H @ H.conj().T + alpha * np.eye(H.shape[0])
    return complex(power * (H[:, i].conj() @ np.linalg.solve(resolvent, H[:, j])))


def error_count_concentration(n_t: int, p_e: float, epsilon: float) -> float:
    """Gaussian tail bound on the deviation of the empirical error fraction.

    Returns 2 Q(epsilon / sqrt(p_e (1 - p_e) / n_t)), the normal
    approximation to Pr(|errors/n_t - p_e| > epsilon) for Binomial error
    counts; the bound shrinks as n_t grows.
    """
    if not 0.0 < p_e < 1.0:
        raise DomainError(f"p_e must be in (0, 1), got {p_e}")
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    n_t = require_count("n_t", n_t)
    sigma = math.sqrt(p_e * (1.0 - p_e) / n_t)
    return math.erfc(epsilon / (sigma * math.sqrt(2.0)))
