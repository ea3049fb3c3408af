"""Closed-form and brute-force analysis tools.

Covers restricted-isometry constants (exact: every support is bounded
cheaply and only those that could set the constant are eigen-solved;
the supports of each block, with the flat Gram indices of their pairs,
depend on (n_t, K) alone and are kept read-only for later calls of the
same shape, 16 MiB at most, with nothing derived from the matrix),
multipath-pursuit recovery guarantees, the chi-square support-recovery
probability, large-system LMMSE asymptotics (SINR, conventional and
post-recovery MSE, in forms that stay finite at any magnitude), complex
multiplication counts for the detector variants, and the empirical
appendix properties (stream decorrelation, error-count concentration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    CapacityError,
    ConfigurationError,
    DomainError,
    FloatOverflowError,
    require_count,
    require_real,
    require_system,
)
from .linear_detectors import DETECTOR_KINDS, LMMSE
from .pipeline import PSED_NAMES

EXHAUSTIVE_SUBSET_BUDGET = 10**6
# Supports generated and bounded at a time, so working memory is O(RIP_BATCH K^2)
# whatever the number of supports; of each block only those whose bound can
# beat the running delta are eigen-solved.
RIP_BATCH = 4096
# rip_constant keeps the plans of its last RIP_PLAN_BLOCKS blocks, each
# of at most RIP_PLAN_BYTES, for later calls of the same (n_t, K): 16 MiB at most.
RIP_PLAN_BLOCKS = 16
RIP_PLAN_BYTES = 1 << 20

# Each linear detector, then its PSED refinement: the rows of the paper's complexity table.
COMPLEXITY_DETECTORS = tuple(name for base in DETECTOR_KINDS for name in (base, PSED_NAMES[base]))


# ---------------------------------------------------------------------------
# Restricted isometry


@dataclass(frozen=True)
class RipEstimate:
    """Worst-case energy distortion over K-column submatrices.

    `delta` is the exact constant, so `exhaustive` is always True and
    `subsets_checked` always C(n_t, K). Both fields stay because
    `perfbench/checks.py` and acceptance criterion 4 assert them.
    """

    K: int
    delta: float
    subsets_checked: int
    exhaustive: bool = True


def support_block(n_t: int, K: int, start: int, stop: int) -> np.ndarray:
    """The size-K supports of ranks start..stop-1, one per row, each in increasing index order.

    Unranks in the combinatorial number system: the support c_1 < ... < c_K
    has rank C(c_1, 1) + ... + C(c_K, K), so the ranks 0..C(n_t, K)-1 give
    every support once, in colexicographic order. Going down from i = K,
    c_i is the largest c with C(c, i) at most what is left of the rank.
    The rows are a view of a C-contiguous (K, stop - start) array, so
    `.T` gives index i of every support as one contiguous row.
    """
    total = math.comb(n_t, K)
    binom = np.ones(n_t, dtype=np.int64)  # C(c, 0) for c = 0..n_t-1
    tables = []
    for _ in range(K):  # C(c, i) = C(0, i-1) + ... + C(c-1, i-1), capped at total (no rank reaches it)
        binom = np.minimum(np.concatenate(([0], np.cumsum(binom[:-1]))), total)
        tables.append(binom)
    rank = np.arange(start, stop, dtype=np.int64)
    columns = np.empty((K, rank.size), dtype=np.intp)  # index i of every support, contiguous
    for i in range(K - 1, -1, -1):
        columns[i] = np.searchsorted(tables[i], rank, side="right") - 1
        rank -= tables[i][columns[i]]
    return columns.T


def _pair_indices(columns: np.ndarray, n_t: int) -> np.ndarray:
    """Flat indices into an n_t x n_t matrix of every pair i < j of each support, (K(K-1)/2, supports).

    Written row by row into one array: at K = 6 that takes a quarter of the
    time of forming the whole (15, 4096) array from whole-array temporaries.
    """
    K = columns.shape[0]
    pairs = np.empty((K * (K - 1) // 2, columns.shape[1]), dtype=np.intp)
    for row, (i, j) in zip(pairs, combinations(range(K), 2)):
        np.multiply(columns[i], n_t, out=row)
        row += columns[j]
    return pairs


@lru_cache(maxsize=RIP_PLAN_BLOCKS)
def _block_plan(n_t: int, K: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The supports of ranks start..stop-1 as read-only columns (K, supports) and pair indices."""
    columns = support_block(n_t, K, start, stop).T
    pairs = _pair_indices(columns, n_t)
    columns.flags.writeable = pairs.flags.writeable = False
    return columns, pairs


def _plan_bytes(K: int, supports: int) -> int:
    """Bytes of the index arrays of a plan of that many supports."""
    return supports * (K + K * (K - 1) // 2) * np.dtype(np.intp).itemsize


def rip_constant(H: np.ndarray, K: int) -> RipEstimate:
    """Restricted isometry constant of H at sparsity K, over every size-K support.

    Every support is checked, so delta is the true constant; more than
    EXHAUSTIVE_SUBSET_BUDGET = 10^6 supports are refused.

    delta is the largest energy distortion max(lambda_max - 1, 1 - lambda_min)
    over the K x K principal submatrices M of G = H^H H. Every support is
    bounded first: by the Laguerre-Samuelson inequality the eigenvalues of M
    lie within mu +- sqrt((K-1)/K) s, where mu = tr M / K and s = ||M - mu I||_F,
    so its distortion is at most |mu - 1| + sqrt((K-1)/K) s. As
    sum_i (M_ii - mu)^2 = sum_{i<j} (M_ii - M_jj)^2 / K, s^2 is the sum over
    the support's pairs i < j of w_ij = 2 |G_ij|^2 + (G_ii - G_jj)^2 / K,
    one gather of the n_t x n_t table w per block. Only the supports whose
    bound exceeds the running delta minus a margin are eigen-solved. The
    margin is far above the rounding of the bound and the backward error of
    the eigen-solve, so delta is the exhaustive maximum to the last bit.

    The supports are taken in blocks of RIP_BATCH ranks. A block's plan,
    its supports as columns and the flat indices of their pairs into w,
    depends on (n_t, K, block) alone and holds nothing derived from H, so
    the last RIP_PLAN_BLOCKS plans are kept, read-only, for later calls of
    the same shape. Only a plan of at most RIP_PLAN_BYTES is kept, so they
    retain at most RIP_PLAN_BLOCKS * RIP_PLAN_BYTES = 16 MiB; 512x20 at
    K = 4 keeps two, 0.39 MB.
    """
    H, _, _ = require_system(H)
    n_t = H.shape[1]
    K = require_count("K", K, 1, n_t)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes a bound inf, which never prunes
        gram = H.conj().T @ H
        if not np.isfinite(gram).all():
            raise DomainError("H is too large: its Gram matrix H^H H overflows")
        diagonal = gram.diagonal().real
        pair_weight = (2.0 * np.abs(gram) ** 2 + np.subtract.outer(diagonal, diagonal) ** 2 / K).ravel()  # w, read at i < j
    margin = 1e-9 * (1.0 + K * diagonal.max())
    spread = math.sqrt((K - 1) / K)
    total = math.comb(n_t, K)
    if total > EXHAUSTIVE_SUBSET_BUDGET:
        raise CapacityError(f"C({n_t}, {K}) = {total} supports exceed the budget of {EXHAUSTIVE_SUBSET_BUDGET}")
    delta = 0.0
    for start in range(0, total, RIP_BATCH):
        stop = min(start + RIP_BATCH, total)
        plan = _block_plan if _plan_bytes(K, stop - start) <= RIP_PLAN_BYTES else _block_plan.__wrapped__
        columns, pairs = plan(n_t, K, start, stop)  # index i of each support in columns[i]
        with np.errstate(over="ignore", invalid="ignore"):
            mu = diagonal[columns].sum(axis=0) / K
            bound = np.abs(mu - 1.0) + spread * np.sqrt(pair_weight[pairs].sum(axis=0))
        bound[np.isnan(bound)] = np.inf  # a NaN bound never prunes
        order = np.argsort(-bound)  # decreasing bound, so a chunk with nothing left to solve ends the block
        solved, size = 0, 16  # eigen-solve 16 supports, then 32, 64, ...
        while solved < order.size:
            chunk = order[solved : solved + size]
            chunk = chunk[bound[chunk] > delta - margin]
            if not chunk.size:
                break
            S = columns.T[chunk]
            eig = np.linalg.eigvalsh(gram[S[:, :, None], S[:, None, :]])
            delta = max(delta, float(max(eig[:, -1].max() - 1.0, 1.0 - eig[:, 0].min())))
            solved, size = solved + size, 2 * size
    return RipEstimate(K=K, delta=delta, subsets_checked=total, exhaustive=True)


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
    delta_lk = require_real("delta_lk", delta_lk, "[0, inf]")
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
    delta_k = require_real("delta_k", delta_k, "[0, inf]")
    delta_2k = require_real("delta_2k", delta_2k, "[0, inf]")
    sqrt_l, sqrt_k, sqrt_lk = math.sqrt(L), math.sqrt(K), math.sqrt(L * K)

    den_gamma = sqrt_lk - (sqrt_lk + K) * delta_lk
    if not den_gamma > 0:
        raise DomainError(
            f"gamma denominator sqrt(LK) - (sqrt(LK)+K) delta_lk = {den_gamma:g} is not positive"
        )
    den_mu = sqrt_l - (2.0 * sqrt_l + sqrt_k) * delta_lk
    if not den_mu > 0:
        raise DomainError(
            f"mu denominator sqrt(L) - (2 sqrt(L)+sqrt(K)) delta_lk = {den_mu:g} is not positive"
        )
    try:
        den_lam = (1.0 - delta_k) ** 3 - (1.0 + delta_k) * delta_2k**2
    except OverflowError:  # only a delta_k or delta_2k far above 1 overflows, and either makes it negative
        den_lam = -math.inf
    if not den_lam > 0:
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
    i.e. 1 - Gamma(n_r, x)/Gamma(n_r) at x = d^2 / (noise_var tau^2).
    For x >= n_r this is 1 minus the integer-order finite sum for the
    regularized upper gamma function, accumulated in log space. For
    x < n_r, where that subtraction would cancel, it is the lower series
    e^-x sum_{k >= n_r} x^k / k!, whose terms fall by x / (k + 1) < 1.
    """
    n_r = require_count("n_r", n_r)
    d = require_real("d", d, "[0, inf)")
    noise_var = require_real("noise_var", noise_var, "(0, inf]")
    tau = require_real("tau", tau, "(0, inf]")
    if d == 0.0:
        return 0.0
    log_x = 2.0 * (math.log(d) - math.log(tau)) - math.log(noise_var)  # d^2 and noise_var tau^2 may overflow
    try:
        x = math.exp(log_x)
    except OverflowError:  # then every term below is 0 and the probability is 1
        x = math.inf
    if x == 0.0:
        return 0.0
    if x < n_r:
        total, term, k = 0.0, 1.0, n_r
        while total + term != total:
            total += term
            k += 1
            term *= x / k
        return min(math.exp(-x + n_r * log_x - math.lgamma(n_r + 1)) * total, 1.0)
    log_terms = [-x + k * log_x - math.lgamma(k + 1) for k in range(n_r)]
    peak = max(log_terms)
    if peak == -math.inf:
        return 1.0
    upper_regularized = math.exp(peak) * math.fsum(math.exp(t - peak) for t in log_terms)
    return min(max(1.0 - upper_regularized, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Large-system LMMSE asymptotics


def _lmmse_sinr(snr: float, beta: float) -> float:
    """snr - F(snr, beta) / 4, where F(x, z) = (sqrt(x (1 + sqrt z)^2 + 1) - sqrt(x (1 - sqrt z)^2 + 1))^2.

    The difference is rationalised: with a and b the two square roots,
    ab = sqrt(p^2 + 4x) for p = 1 + (z - 1) x, so snr - F/4 = (sqrt(p^2 + 4x) - p) / 2,
    the positive root of eta^2 + p eta = x. Dividing through by x (q = p / x)
    keeps every term finite, and the root is taken in whichever of its two
    forms adds terms of one sign, so no digits cancel at any magnitude.
    """
    if snr == 0.0:
        return 0.0
    q = 1.0 / snr + (beta - 1.0)
    r = math.hypot(q, 2.0 / math.sqrt(snr))
    return 1.0 / (0.5 * q + 0.5 * r) if q >= 0.0 else snr * (0.5 * r - 0.5 * q)


def asymptotic_sinr(snr: float, beta: float) -> float:
    """Deterministic per-stream LMMSE output SINR in the large-system limit."""
    snr = require_real("snr", snr, "[0, inf)")
    beta = require_real("beta", beta, "(0, inf)")
    return _lmmse_sinr(snr, beta)


def pe_bpsk(sinr: float) -> float:
    """Per-stream BPSK error probability Q(sqrt(2 sinr)) at a given output SINR."""
    sinr = require_real("sinr", sinr, "[0, inf]")
    return 0.5 * math.erfc(math.sqrt(sinr))


def mse_conv_asymptotic(snr: float, beta: float) -> float:
    """Large-system normalized MSE of the conventional LMMSE detector.

    1 - F(snr, beta) / (4 beta snr), which equals 1 / (1 + SINR) for the
    asymptotic SINR above.
    """
    snr = require_real("snr", snr, "(0, inf)")
    beta = require_real("beta", beta, "(0, inf)")
    return 1.0 / (1.0 + _lmmse_sinr(snr, beta))


def mse_psed_bound(snr: float, beta: float, p_e: float) -> float:
    """Post-recovery MSE lower bound (1/snr) p_e / (1 - p_e beta).

    At vanishing load (beta -> 0) it reduces to p_e / snr.
    """
    snr = require_real("snr", snr, "(0, inf]")
    beta = require_real("beta", beta, "[0, inf)")
    p_e = require_real("p_e", p_e, "[0, 1)")
    if not p_e * beta < 1.0:
        raise DomainError(f"p_e * beta = {p_e * beta:g} must be < 1")
    return (p_e / (1.0 - p_e * beta)) / snr


def mse_psed_closed_form(snr: float, beta: float) -> float:
    """Closed-form high-SNR post-recovery MSE floor for BPSK.

    Decays exponentially with SNR; defined for beta <= 1 only. Where the
    floor exceeds the float range (snr below about 1e-204, or 1e-246 at
    beta = 1) it raises FloatOverflowError.
    """
    snr = require_real("snr", snr, "(0, inf]")
    beta = require_real("beta", beta, "(0, 1]")
    try:
        if beta == 1.0:
            value = snr ** (-5.0 / 4.0) * math.exp(-math.sqrt(snr)) / (2.0 * math.sqrt(math.pi))
        else:
            value = snr ** (-3.0 / 2.0) * math.exp(-(1.0 - beta) * snr) / (2.0 * math.sqrt(math.pi * (1.0 - beta)))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise FloatOverflowError(f"snr = {snr:g} is too small: the floor exceeds the float range")
    return value


def trace_inverse_limit(beta_prime: float) -> float:
    """Large-system limit of the normalized trace of an inverse Wishart submatrix."""
    beta_prime = require_real("beta_prime", beta_prime, "[0, 1)")
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
    p_e = require_real("p_e", p_e, "(0, 1)")
    epsilon = require_real("epsilon", epsilon, "(0, inf]")
    n_t = require_count("n_t", n_t)
    sigma = math.sqrt(p_e * (1.0 - p_e) / n_t)
    return math.erfc(epsilon / (sigma * math.sqrt(2.0)))
