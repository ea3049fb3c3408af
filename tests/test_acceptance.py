"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`); the
two Monte Carlo sweeps (criteria 2 and 3) dominate the runtime and are
placed last. Criterion 4 draws its channels from a 512x20 Gaussian
ensemble: that is the row count at which the exhaustive sparsity-4
isometry constant clears the exact-recovery threshold 1/3 (seeds 0-119:
median 0.226, max 0.297), whereas at 16 rows no seed qualifies (min 1.013,
median 1.484, max 2.259); see the docstring of
`test_criterion_4_oracle_equivalence`.
"""

import math

import numpy as np
import pytest

from psed import (
    complexity_count,
    draw_symbols,
    error_count_concentration,
    generate_channel,
    kbest_detect,
    make_constellation,
    ml_detect,
    mmp,
    mmp_exact_condition,
    omp,
    rip_constant,
    rng_stream,
    run_mse_curves,
    run_sweep,
    stream_correlation,
    trace_inverse_limit,
    transmit,
)
from psed.baselines import ml_cost
from psed.harness import SweepConfig, snr_at_ser
from psed.pipeline import PsedConfig
from tests.conftest import complex_noise, random_sparse
from tests.test_analysis import lemma_form_correlation


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_complexity_exactness():
    lmmse = complexity_count("LMMSE", 32, 32).total
    mf = complexity_count("MF", 32, 32).total
    psed = complexity_count("PSED-LMMSE", 32, 32, K=4, L=2).total
    exact = (lmmse, mf, psed) == (77_968, 1_024, 88_096)
    rounded = (round(lmmse / 1000), round(mf / 1000), round(psed / 1000)) == (78, 1, 88)
    report(
        1,
        "complexity exactness",
        exact and rounded,
        f"LMMSE={lmmse}, MF={mf}, PSED-LMMSE={psed}",
    )


def test_criterion_4_oracle_equivalence():
    """Exact recovery on instances whose isometry constant verifies the guarantee.

    Draw seeded 512x20 Gaussian channels (entry variance 1/n_r), compute the
    exhaustive sparsity-4 distortion constant over all C(20, 4) = 4845
    supports, and keep instances where the noiseless exact-recovery
    condition delta_{K+L} < sqrt(L) / (sqrt(K) + 2 sqrt(L)) = 1/3 (K = L = 2)
    holds. On every kept instance MMP must return the true support and the
    oracle estimate, |e_hat - e|_inf < 1e-8, from y = H e.

    The row count is what makes the premise verifiable. With 16 rows the
    norms of 20 random columns already spread by about +-0.5, so even
    delta_1 exceeds 1/3; over seeds 0-119 the exhaustive delta_4 of 16x20
    channels has min 1.013, median 1.484 and max 2.259, and no instance
    qualifies. At 512 rows the same seeds give min 0.181, median 0.226 and
    max 0.297, so the first 100 seeds all qualify. If the scan ever finds
    fewer than 100 qualifying instances the test fails with the measured
    statistics rather than weakening the premise.
    """
    n_r, n_t, K, L, needed, max_scan = 512, 20, 2, 2, 100, 120
    qualifying = []
    deltas = []
    for seed in range(max_scan):
        H = generate_channel(n_r, n_t, rng_stream(seed, "channel"))
        estimate = rip_constant(H, K + L)
        # the premise must be the exact constant, never a sampled lower bound
        assert estimate.exhaustive is True
        assert estimate.subsets_checked == math.comb(n_t, K + L)
        deltas.append(estimate.delta)
        if mmp_exact_condition(estimate.delta, K, L):
            qualifying.append((seed, H))
        if len(qualifying) == needed:
            break

    if len(qualifying) < needed:
        threshold = math.sqrt(L) / (math.sqrt(K) + 2 * math.sqrt(L))
        report(
            4,
            "oracle equivalence",
            False,
            f"only {len(qualifying)}/{needed} qualifying {n_r}x{n_t} instances in "
            f"{len(deltas)} seeds; exhaustive delta_4 over scanned channels: "
            f"min={min(deltas):.3f}, median={sorted(deltas)[len(deltas) // 2]:.3f}, "
            f"max={max(deltas):.3f}, exact-recovery threshold {threshold:.4f}",
        )

    hits = 0
    for seed, H in qualifying:
        e = random_sparse(n_t, K, seed=seed)
        result = mmp(H, H @ e, 1.0, K=K, L=L)
        hits += result.support == set(np.flatnonzero(e).tolist()) and bool(
            np.abs(result.e_hat - e).max() < 1e-8
        )
    report(4, "oracle equivalence", hits == needed, f"{hits}/{needed} exact recoveries")


def test_criterion_5_omp_mmp_reduction():
    mismatches = 0
    for trial in range(1000):
        H = generate_channel(32, 32, rng_stream(500 + trial, "channel"))
        e = random_sparse(32, 4, seed=500 + trial)
        y = H @ e + complex_noise(32, seed=500 + trial, scale=0.15)
        a = omp(H, y, 1.0, K=4, tol=0.0)
        b = mmp(H, y, 1.0, K=4, L=1, tol=0.0)
        identical = (
            a.support.indices == b.support.indices
            and np.array_equal(a.e_hat, b.e_hat)
            and a.residual_norm == b.residual_norm
        )
        mismatches += not identical
    report(5, "OMP/MMP reduction", mismatches == 0, f"{1000 - mismatches}/1000 bit-identical")


def test_criterion_6_stream_decorrelation():
    noise_var = 0.1  # SNR 10 dB at unit power
    means = []
    for n in (16, 64, 128):
        H = generate_channel(n, n, rng_stream(60, "channel", n))
        rng = rng_stream(60, "pairs", n)
        vals = []
        for _ in range(100):
            i, j = rng.choice(n, size=2, replace=False)
            vals.append(abs(stream_correlation(H, 1.0, noise_var, int(i), int(j))))
        means.append(float(np.mean(vals)))
    decreasing = means[0] > means[1] > means[2]

    H8 = generate_channel(8, 8, rng_stream(61, "channel"))
    direct = stream_correlation(H8, 1.0, noise_var, 1, 6)
    lemma = lemma_form_correlation(H8, 1.0, noise_var, 1, 6)
    forms_agree = abs(direct - lemma) < 1e-9
    report(
        6,
        "stream decorrelation",
        decreasing and forms_agree,
        f"mean |corr| at n=16/64/128: {means[0]:.4f}/{means[1]:.4f}/{means[2]:.4f}; "
        f"|direct-lemma|={abs(direct - lemma):.2e}",
    )


def test_criterion_7_error_count_concentration():
    n_t, p_e, eps = 128, 0.1, 0.05
    bound = error_count_concentration(n_t, p_e, eps)
    rng = rng_stream(70, "mc")
    counts = rng.binomial(n_t, p_e, size=100_000)
    empirical = float(np.mean(np.abs(counts / n_t - p_e) > eps))
    report(
        7,
        "error count concentration",
        empirical <= bound + 0.01,
        f"empirical {empirical:.4f} vs bound {bound:.4f} + 0.01",
    )


def test_criterion_8_random_matrix_limit():
    limit = trace_inverse_limit(0.125)
    assert abs(limit - 8.0 / 7.0) < 1e-12
    vals = []
    for seed in range(20):
        H = generate_channel(512, 512, rng_stream(80, "channel", seed))
        cols = rng_stream(80, "columns", seed).choice(512, size=64, replace=False)
        Hs = H[:, cols]
        vals.append(np.trace(np.linalg.inv(Hs.conj().T @ Hs)).real / 64)
    mean = float(np.mean(vals))
    report(
        8,
        "random matrix limit",
        abs(mean - limit) <= 0.02 * limit,
        f"empirical {mean:.5f} vs limit {limit:.5f} (2% band)",
    )


def test_criterion_9_ml_dominance():
    config = SweepConfig(
        n_r=8,
        n_t=8,
        constellation="QPSK",
        detectors=("ML", "PSED-LMMSE", "LMMSE"),
        snr_db_grid=(12.0,),
        trials=500,
        master_seed=11,
        psed=PsedConfig(tol=0.0),
    )
    sers = {row.detector: row.ser for row in run_sweep(config).rows}
    ordering = sers["ML"] <= sers["PSED-LMMSE"] <= sers["LMMSE"]

    qpsk = make_constellation("QPSK")
    kbest_matches = 0
    for seed in range(10):
        H = generate_channel(5, 3, rng_stream(90 + seed, "channel"))
        s = draw_symbols(qpsk, 3, rng_stream(90 + seed, "symbols"))
        inst = transmit(H, s, 1.0, 0.3, rng_stream(90 + seed, "noise"))
        ml = ml_detect(inst.y, H, 1.0, qpsk)
        kb = kbest_detect(inst.y, H, 1.0, qpsk, m=len(qpsk.points) ** 3)
        kbest_matches += ml_cost(inst.y, H, 1.0, kb) == ml_cost(inst.y, H, 1.0, ml)
    report(
        9,
        "ML dominance",
        ordering and kbest_matches == 10,
        f"SER ML={sers['ML']:.4f} <= PSED={sers['PSED-LMMSE']:.4f} <= "
        f"LMMSE={sers['LMMSE']:.4f}; exhaustive K-best matched ML cost {kbest_matches}/10",
    )


def test_criterion_2_ser_gain():
    config = SweepConfig(
        n_r=32,
        n_t=32,
        constellation="QPSK",
        detectors=("LMMSE", "PSED-LMMSE"),
        snr_db_grid=(6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0),
        trials=10_000,
        master_seed=1,
        psed=PsedConfig(tol=0.0, sparsity=4, branch=2),
        workers=2,  # results are identical for any worker count (tests/test_harness.py)
    )
    result = run_sweep(config)
    lmmse = [r for r in result.rows if r.detector == "LMMSE"]
    psed = [r for r in result.rows if r.detector == "PSED-LMMSE"]
    # at these trial counts the endpoints of every curve must be ordered
    for curve in (lmmse, psed):
        assert curve[-1].ser <= curve[0].ser
    x_lmmse = snr_at_ser([r.snr_db for r in lmmse], [r.ser for r in lmmse], 1e-2)
    x_psed = snr_at_ser([r.snr_db for r in psed], [r.ser for r in psed], 1e-2)
    ok = x_lmmse is not None and x_psed is not None and (x_lmmse - x_psed) >= 5.0
    gap = None if None in (x_lmmse, x_psed) else x_lmmse - x_psed
    report(
        2,
        "SER gain",
        ok,
        f"SNR at SER=1e-2: LMMSE={x_lmmse and round(x_lmmse, 2)} dB, "
        f"PSED-LMMSE={x_psed and round(x_psed, 2)} dB, gap={gap and round(gap, 2)} dB (need >= 5)",
    )


def test_criterion_3_mse_bound_shape():
    config = SweepConfig(
        n_r=128,
        n_t=128,
        constellation="BPSK",
        detectors=("LMMSE", "PSED-LMMSE"),
        snr_db_grid=(8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0),
        trials=1000,
        master_seed=1,
        psed=PsedConfig(tol=0.0, branch=2),
        workers=2,  # results are identical for any worker count (tests/test_harness.py)
    )
    result = run_mse_curves(config)
    lmmse = {r.snr_db: r for r in result.rows if r.detector == "LMMSE"}
    psed = {r.snr_db: r for r in result.rows if r.detector == "PSED-LMMSE"}

    conv_ok = all(
        abs(row.mse - row.mse_conv_asymptotic) <= 0.20 * row.mse_conv_asymptotic
        for row in lmmse.values()
    )
    floor_ok = all(row.mse >= row.mse_psed_closed_form for row in psed.values())
    below_ok = all(
        psed[snr_db].mse < lmmse[snr_db].mse for snr_db in config.snr_db_grid if snr_db >= 12.0
    )
    worst_rel = max(
        abs(row.mse - row.mse_conv_asymptotic) / row.mse_conv_asymptotic for row in lmmse.values()
    )
    report(
        3,
        "MSE bound shape",
        conv_ok and floor_ok and below_ok,
        f"LMMSE worst deviation {worst_rel:.1%} (<=20%); floor respected: {floor_ok}; "
        f"PSED below LMMSE from 12 dB: {below_ok}",
    )
