"""Output checks for the benchmark, computed apart from the package.

Every function returns a list of failure messages (empty when the output
is right). The references here are written out independently: the LMMSE
weights in push-through form, slicing by a plain loop over points, the
large-system SINR from its closed form, and the isometry constant from the
principal submatrices of the Gram matrix. Only `check_rerun` calls the
package, because its point is that the public steps compose to
`psed_detect`.
"""

from __future__ import annotations

import math
import os
from itertools import combinations

import numpy as np

from psed import harness, linear_detectors, pipeline, slicer, sparse_recovery

# Relative tolerance for quantities the package solves in float64.
REL_TOL = 1e-9
# Binomial band, in standard deviations, around the large-system LMMSE SER.
# Over 60 seeds of 100 trials at 128x128 the z-scores had sd 1.17 and
# |z| <= 3.2, so 6 leaves more than 5 measured deviations of room.
SER_BAND_Z = 6.0
# Slack, in standard deviations of a difference of two error counts, for the
# PSED-X <= X ordering (see README: at 6 dB on 32x32 the mean gain is small).
ORDER_Z = 3.0
# Oracle recovery tolerance of acceptance criterion 4.
ORACLE_TOL = 1e-8


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def check_lmmse_weights(H, power, noise_var, W) -> list[str]:
    """W must equal the push-through form (H H^H + noise_var/P I)^-1 H."""
    H = np.asarray(H)
    n_r = H.shape[0]
    ref = np.linalg.solve(H @ H.conj().T + (noise_var / power) * np.eye(n_r), H)
    gap = _rel_gap(np.asarray(W), ref)
    return [] if gap <= REL_TOL else [f"LMMSE weights differ from the push-through form by {gap:.3g}"]


def nearest_points(values, points) -> np.ndarray:
    """Brute-force nearest constellation point, ties to the lowest index."""
    out = []
    for v in np.atleast_1d(values):
        best, best_d = points[0], abs(v - points[0])
        for p in points[1:]:
            d = abs(v - p)
            if d < best_d:
                best, best_d = p, d
        out.append(best)
    return np.array(out, dtype=np.complex128)


def check_hard_slice(values, points, sliced) -> list[str]:
    ref = nearest_points(values, points)
    bad = int(np.sum(ref != np.asarray(sliced)))
    return [] if bad == 0 else [f"hard_slice differs from the nearest point in {bad} entries"]


def check_mmp(H, y_prime, power, K, estimator, error_var, noise_var, result) -> list[str]:
    """Properties of an MMP result run with tol=0 (exactly K layers)."""
    H = np.asarray(H)
    y_prime = np.asarray(y_prime)
    idx = sorted(result.support.indices)
    errs = []
    if len(idx) != K:
        errs.append(f"MMP support has {len(idx)} indices, expected K={K}")
    off = np.ones(H.shape[1], dtype=bool)
    off[idx] = False
    if np.any(result.e_hat[off] != 0):
        errs.append("MMP e_hat is nonzero off its support")
    A_s = np.sqrt(power) * H[:, idx]
    e_s = result.e_hat[idx]
    r = y_prime - A_s @ e_s
    if abs(float(np.linalg.norm(r)) - result.residual_norm) > REL_TOL * max(float(np.linalg.norm(y_prime)), 1.0):
        errs.append("MMP residual_norm does not match its e_hat")
    scale = float(np.linalg.norm(A_s)) * float(np.linalg.norm(y_prime)) + 1e-300
    if estimator == sparse_recovery.LS:
        # least squares: the residual is orthogonal to the support columns
        gap = float(np.linalg.norm(A_s.conj().T @ r)) / scale
        if gap > REL_TOL:
            errs.append(f"LS residual is not orthogonal to the support columns ({gap:.3g})")
    else:
        # (H_S^H H_S + noise_var/(P error_var) I) sqrt(P) e_S = H_S^H y'
        H_s = H[:, idx]
        rho = noise_var / (power * error_var)
        lhs = (H_s.conj().T @ H_s + rho * np.eye(len(idx))) @ (np.sqrt(power) * e_s)
        gap = float(np.linalg.norm(lhs - H_s.conj().T @ y_prime)) / (scale / np.sqrt(power))
        if gap > REL_TOL:
            errs.append(f"LMMSE normal equations do not hold on the support ({gap:.3g})")
    return errs


def min_distance_sq(points) -> float:
    return min(abs(a - b) ** 2 for a, b in combinations(points, 2))


def check_rerun(y, H, power, noise_var, constellation, config, out) -> list[str]:
    """The five public steps, run one by one, must reproduce s_final."""
    W = linear_detectors.weight_matrix(H, config.base_detector, power, noise_var)
    s_hat = slicer.hard_slice(linear_detectors.detect(W, y), constellation).values
    y_prime = pipeline.sparse_transform(y, H, s_hat, power)
    rec = sparse_recovery.mmp(
        H,
        y_prime,
        power,
        K=config.bound_sparsity(H.shape[1]),
        L=config.branch,
        tol=config.tol,
        max_paths=config.max_paths,
        estimator=config.estimator,
        error_var=min_distance_sq(constellation.points),
        noise_var=noise_var,
    )
    s_final = slicer.hard_slice(s_hat + rec.e_hat, constellation).values
    if np.array_equal(s_final, out.s_final.values):
        return []
    return ["re-running the five steps does not reproduce psed_detect's s_final"]


def check_ser_order(rows) -> list[str]:
    """At every SNR point PSED-X must not decide worse than X, X in {MF, LMMSE}.

    Both detectors see the same instances; the slack is ORDER_Z times
    sqrt(errors_X + errors_PSED), the Poisson spread of a difference of two
    error counts.
    """
    errors = {(r.detector, r.snr_db): r.symbol_errors for r in rows}
    errs = []
    for (det, snr), e_base in sorted(errors.items()):
        e_psed = errors.get((f"PSED-{det}", snr))
        if e_psed is None:
            continue
        slack = ORDER_Z * math.sqrt(e_base + e_psed)
        if e_psed > e_base + slack:
            errs.append(f"PSED-{det} made {e_psed} errors against {det}'s {e_base} at {snr} dB")
    return errs


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def lmmse_sinr_large_system(snr: float, beta: float) -> float:
    """Per-stream LMMSE output SINR as n_r, n_t grow with n_t/n_r = beta."""
    f = (math.sqrt(snr * (1 + math.sqrt(beta)) ** 2 + 1) - math.sqrt(snr * (1 - math.sqrt(beta)) ** 2 + 1)) ** 2
    return snr - f / 4.0


def qpsk_ser_prediction(snr_db: float, beta: float) -> float:
    """1 - (1 - Q(sqrt(SINR)))^2: QPSK is two BPSK rails, each at SINR/2 per unit energy."""
    p = q_function(math.sqrt(lmmse_sinr_large_system(10 ** (snr_db / 10), beta)))
    return 1 - (1 - p) ** 2


def check_asymptotic_ser(rows) -> list[str]:
    """LMMSE SER within SER_BAND_Z binomial deviations of the large-system value."""
    errs = []
    for r in rows:
        if r.detector != harness.LMMSE:
            continue
        p = qpsk_ser_prediction(r.snr_db, r.n_t / r.n_r)
        n = r.n_t * r.trials
        band = SER_BAND_Z * math.sqrt(p * (1 - p) / n)
        if abs(r.ser - p) > band:
            errs.append(f"LMMSE SER {r.ser:.4f} at {r.snr_db} dB is outside {p:.4f} +- {band:.4f}")
    return errs


def check_csv_roundtrip(result, path) -> list[str]:
    """read_csv(emit_csv(result)) must give the rows back (floats to 10 digits)."""
    try:
        harness.emit_csv(result, path)
        back = harness.read_csv(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if len(back.rows) != len(result.rows):
        return [f"CSV round trip gave {len(back.rows)} rows, expected {len(result.rows)}"]
    errs = []
    for a, b in zip(result.rows, back.rows):
        exact = (a.detector, a.n_r, a.n_t, a.trials, a.symbol_errors, a.seed) == (
            b.detector, b.n_r, b.n_t, b.trials, b.symbol_errors, b.seed
        )
        close = all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-300) for x, y in
                    ((a.snr_db, b.snr_db), (a.ser, b.ser), (a.mse, b.mse)))
        if not (exact and close):
            errs.append(f"CSV round trip changed the row {a.detector} at {a.snr_db} dB")
    return errs


def isometry_constant(H, K: int) -> float:
    """Exhaustive RIP constant from the K x K principal submatrices of H^H H."""
    G = np.asarray(H).conj().T @ np.asarray(H)
    idx = np.array(list(combinations(range(G.shape[0]), K)))
    sub = G[idx[:, :, None], idx[:, None, :]]
    eig = np.linalg.eigvalsh(sub)
    return float(max(eig[:, -1].max() - 1.0, 1.0 - eig[:, 0].min(), 0.0))


def check_rip(H, K: int, estimate) -> list[str]:
    errs = []
    ref = isometry_constant(H, K)
    if abs(estimate.delta - ref) > 1e-9:
        errs.append(f"rip_constant delta {estimate.delta!r} differs from {ref!r}")
    if estimate.subsets_checked != math.comb(np.asarray(H).shape[1], K):
        errs.append(f"rip_constant checked {estimate.subsets_checked} subsets")
    if estimate.exhaustive is not True:
        errs.append("rip_constant did not report an exhaustive search")
    return errs


def exact_recovery_threshold(K: int, L: int) -> float:
    """MMP recovers every K-sparse e from y = H e when delta_{K+L} is below this."""
    return math.sqrt(L) / (math.sqrt(K) + 2 * math.sqrt(L))


def check_oracle(e, result) -> list[str]:
    """MMP must return the true support and e itself (premise already verified)."""
    errs = []
    if set(result.support.indices) != set(np.flatnonzero(e).tolist()):
        errs.append(f"MMP support {sorted(result.support.indices)} is not the true support")
    gap = float(np.abs(result.e_hat - e).max())
    if not gap < ORACLE_TOL:
        errs.append(f"MMP estimate is {gap:.3g} from the oracle")
    return errs
