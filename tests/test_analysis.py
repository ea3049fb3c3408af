"""Tests for the analysis toolbox: RIP, guarantees, asymptotics, complexity."""

import gc
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from psed import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    DomainError,
    asymptotic_sinr,
    complexity_count,
    error_count_concentration,
    generate_channel,
    mmp_exact_condition,
    mmp_support_threshold,
    mse_conv_asymptotic,
    mse_psed_bound,
    mse_psed_closed_form,
    pe_bpsk,
    rip_constant,
    rng_stream,
    stream_correlation,
    support_recovery_prob,
    trace_inverse_limit,
)
from psed.analysis import (
    EXHAUSTIVE_SUBSET_BUDGET,
    RIP_BATCH,
    RIP_PLAN_BLOCKS,
    RIP_PLAN_BYTES,
    _block_plan,
    inversion_multiplications,
    support_block,
)
from tests.conftest import orthonormal_columns, seeded_channel

# frozen oracle values (high-precision evaluation of the defining formulas)
GAMMA_K2L2_D01 = 1.8540496217739157
MU_K2L2_D01 = 2.6969370381518183
LAM_K2L2_D01 = 1.5020876836825312
MSE_PSED_CF_100_B1 = 4.0499554780445585e-08
MSE_PSED_CF_4_B05 = 0.006748870814148506
PE_BPSK_4P5 = 0.0013498980316300946


def brute_force_delta(H, supports) -> float:
    """Largest energy distortion over the supports, each eigen-solved on its own."""
    gram = H.conj().T @ H
    worst = 0.0
    for S in supports:
        eig = np.linalg.eigvalsh(gram[np.ix_(S, S)])
        worst = max(worst, eig[-1] - 1.0, 1.0 - eig[0])
    return float(worst)


def _duplicated_column(H):
    H = H.copy()
    H[:, 7] = H[:, 3]
    return H


# (label, matrix, K): the shapes and scalings the pruned search must match bit
# for bit. The 16x20, 64x32 and 128x24 cases cross one or more RIP_BATCH blocks.
RIP_CASES = [
    ("512x20-K4", lambda: seeded_channel(512, 20, seed=11), 4),
    ("16x20-K4", lambda: seeded_channel(16, 20, seed=12), 4),
    ("64x32-K4", lambda: seeded_channel(64, 32, seed=13), 4),
    ("128x24-K5", lambda: seeded_channel(128, 24, seed=14), 5),
    ("512x20-times-1e6", lambda: 1e6 * seeded_channel(512, 20, seed=15), 4),
    ("512x20-times-1e-6", lambda: 1e-6 * seeded_channel(512, 20, seed=15), 4),
    ("512x20-times-1e100", lambda: 1e100 * seeded_channel(512, 20, seed=15), 3),  # |G_ij|^2 overflows
    ("512x20-K1", lambda: seeded_channel(512, 20, seed=16), 1),
    ("512x20-K20", lambda: seeded_channel(512, 20, seed=16), 20),
    ("duplicated-column", lambda: _duplicated_column(seeded_channel(512, 20, seed=17)), 4),
    ("orthonormal-columns", lambda: orthonormal_columns(24, 12, seed=18), 3),
]


class TestRipConstant:
    @pytest.mark.parametrize("make, K", [pytest.param(m, k, id=label) for label, m, k in RIP_CASES])
    def test_exhaustive_equals_brute_force_bit_for_bit(self, make, K):
        H = make()
        n_t = H.shape[1]
        want = brute_force_delta(H, itertools.combinations(range(n_t), K))
        _block_plan.cache_clear()
        for _ in range(2):  # cold, building the block plans, then warm, reading them
            est = rip_constant(H, K)
            assert est.delta == want
            assert est.subsets_checked == math.comb(n_t, K) and est.exhaustive

    @pytest.mark.parametrize("make, K", [pytest.param(m, k, id=label) for label, m, k in RIP_CASES])
    def test_column_order_leaves_delta_unchanged(self, make, K):
        # the constant is a maximum over every support, so it cannot depend on
        # which block, or which place in the pruning order, a support falls in
        H = make()
        perm = np.random.default_rng(3).permutation(H.shape[1])
        want = rip_constant(H, K).delta
        assert rip_constant(H[:, perm], K).delta == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "H, K, want",
        [
            pytest.param(np.zeros((8, 6)), 3, 1.0, id="zero"),  # every eigenvalue 0
            pytest.param(np.ones((4, 6)), 2, 7.0, id="all-ones"),  # eigenvalues 0 and 2 * 4
            pytest.param(2.0 * np.eye(6), 3, 3.0, id="twice-identity"),  # every eigenvalue 4
            pytest.param(0.5 * np.eye(6), 2, 0.75, id="half-identity"),  # every eigenvalue 1/4
        ],
    )
    def test_closed_form_constants(self, H, K, want):
        est = rip_constant(H, K)
        assert est.delta == pytest.approx(want, rel=1e-12, abs=0)
        assert est.subsets_checked == math.comb(6, K) and est.exhaustive

    @pytest.mark.parametrize("keyword, value", [("method", "sampled"), ("sample_size", 100), ("rng", 0)])
    def test_removed_keyword_refused(self, keyword, value):
        # a caller still asking for a sampled lower bound fails loudly
        with pytest.raises(TypeError, match=keyword):
            rip_constant(seeded_channel(8, 6, seed=8), 2, **{keyword: value})

    @pytest.mark.parametrize("n_t, K", [(20, 1), (20, 2), (20, 4), (20, 10), (20, 19), (20, 20), (1, 1), (9, 9)])
    def test_support_block_yields_each_subset_once(self, n_t, K):
        total = math.comb(n_t, K)
        step = 1000  # several blocks, the last one short
        blocks = [support_block(n_t, K, start, min(start + step, total)) for start in range(0, total, step)]
        rows = np.concatenate(blocks)
        assert rows.shape == (total, K)
        assert sorted(map(tuple, rows.tolist())) == list(itertools.combinations(range(n_t), K))

    def test_overflowing_gram_rejected(self):
        # H is finite but H^H H is not: a silent delta = 0 would follow
        with pytest.raises(DomainError, match="^H "):
            rip_constant(1e200 * generate_channel(16, 6, 0), 2)

    def test_orthonormal_columns_have_zero_distortion(self):
        H = orthonormal_columns(16, 8, seed=1)
        for k in (1, 2, 3):
            est = rip_constant(H, k)
            assert est.delta < 1e-12
            assert est.subsets_checked == math.comb(8, k)
            assert est.exhaustive

    def test_duplicated_column_forces_delta_at_least_one(self):
        H = seeded_channel(16, 6, seed=2)
        H[:, 4] = H[:, 3]
        assert rip_constant(H, 2).delta >= 1.0 - 1e-12

    def test_matches_per_subset_svd_oracle(self):
        H = seeded_channel(16, 20, seed=3)
        est = rip_constant(H, 2)
        worst = 0.0
        for t in itertools.combinations(range(20), 2):
            sv = np.linalg.svd(H[:, list(t)], compute_uv=False)
            worst = max(worst, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert abs(est.delta - worst) < 1e-10

    def test_monotone_in_sparsity(self):
        H = seeded_channel(12, 8, seed=4)
        deltas = [rip_constant(H, k).delta for k in (1, 2, 3, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:])), deltas

    def test_budget_exceeded_raises(self):
        H = seeded_channel(8, 50, seed=5)
        with pytest.raises(CapacityError) as info:
            rip_constant(H, 5)  # C(50,5) > 1e6
        message = str(info.value)
        assert str(math.comb(50, 5)) in message and str(10**6) in message
        assert "sampled" not in message

    def test_budget_admits_every_count_up_to_it(self):
        # C(32, 6) = 906,192 supports is the largest count of K = 6 under 10^6
        assert math.comb(32, 6) <= EXHAUSTIVE_SUBSET_BUDGET < math.comb(33, 6)
        est = rip_constant(seeded_channel(8, 32, seed=5), 6)
        assert est.subsets_checked == math.comb(32, 6) and est.exhaustive
        with pytest.raises(CapacityError):
            rip_constant(seeded_channel(8, 33, seed=5), 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # NaN distortions would otherwise be dropped by max() and report delta=0
        H = seeded_channel(8, 6, seed=8)
        H[3, 4] = bad
        with pytest.raises(DomainError, match="^H "):
            rip_constant(H, 2)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionError):
            rip_constant(np.ones(6), 2)

    def test_bad_args(self):
        H = seeded_channel(8, 6, seed=8)
        with pytest.raises(ConfigurationError):
            rip_constant(H, 0)
        with pytest.raises(ConfigurationError):
            rip_constant(H, 7)


def _retained_by_rip(H, K) -> int:
    """Bytes still allocated after one exhaustive call that starts from an empty plan cache."""
    _block_plan.cache_clear()
    tracemalloc.start()
    try:
        rip_constant(H, K)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestRipPlan:
    """The per-block support plans rip_constant keeps between calls."""

    def test_interleaved_shapes_each_equal_brute_force(self):
        cases = [
            (seeded_channel(512, 20, seed=21), 4),
            (seeded_channel(16, 20, seed=22), 4),  # shares the plans of 512x20 at K = 4
            (seeded_channel(64, 32, seed=23), 4),
            (seeded_channel(512, 20, seed=24), 3),
        ]
        want = [brute_force_delta(H, itertools.combinations(range(H.shape[1]), K)) for H, K in cases]
        _block_plan.cache_clear()
        for _ in range(2):
            assert [rip_constant(H, K).delta for H, K in cases] == want

    def test_plan_arrays_are_read_only(self):
        columns, pairs = _block_plan(20, 4, 0, RIP_BATCH)
        assert pairs.shape == (6, RIP_BATCH)
        for array in (columns, columns.T, pairs):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_retained_memory_within_the_stated_bound(self):
        # 24 columns at K = 6: 33 blocks of 0.66 MiB plans, more than the cache keeps
        retained = _retained_by_rip(seeded_channel(64, 24, seed=25), 6)
        assert 8 * 2**20 < retained <= RIP_PLAN_BLOCKS * RIP_PLAN_BYTES

    def test_plan_above_the_byte_cap_is_not_kept(self):
        # 22 columns at K = 18: both blocks' plans are 4-6 MiB, so neither is kept
        assert _retained_by_rip(seeded_channel(64, 22, seed=26), 18) < RIP_PLAN_BYTES

    def test_calls_from_two_threads_equal_serial_calls(self):
        cases = [(seeded_channel(512, 20, seed=30 + i), 4 - i % 2) for i in range(8)]
        cases += [(seeded_channel(64, 32, seed=40 + i), 4) for i in range(2)]

        def solve(case):
            H, K = case
            return rip_constant(H, K).delta

        serial = [solve(case) for case in cases]
        _block_plan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(solve, cases + cases, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial + serial


class TestRecoveryConditions:
    def test_equal_branch_and_sparsity_threshold_is_one_third(self):
        for k in (1, 2, 4):
            threshold = math.sqrt(k) / (math.sqrt(k) + 2 * math.sqrt(k))
            assert abs(threshold - 1.0 / 3.0) < 1e-15
            assert mmp_exact_condition(1.0 / 3.0 - 1e-9, k, k)
            assert not mmp_exact_condition(1.0 / 3.0, k, k)

    def test_zero_distortion_always_passes(self):
        for k, ell in [(1, 1), (3, 2), (5, 4)]:
            assert mmp_exact_condition(0.0, k, ell)

    def test_threshold_boundary_is_strict(self):
        k, ell = 3, 2
        edge = math.sqrt(ell) / (math.sqrt(k) + 2 * math.sqrt(ell))
        assert not mmp_exact_condition(edge, k, ell)
        assert mmp_exact_condition(edge - 1e-12, k, ell)

    def test_support_threshold_zero_distortion_forms(self):
        for k, ell in [(2, 2), (4, 2), (3, 5)]:
            rep = mmp_support_threshold(0.0, 0.0, 0.0, K=k, L=ell)
            sl, sk = math.sqrt(ell), math.sqrt(k)
            assert abs(rep.gamma - (sl + sk) / math.sqrt(ell * k)) < 1e-12
            assert abs(rep.mu - (sl + sk) / sl) < 1e-12
            assert abs(rep.lam - math.sqrt(2.0)) < 1e-12
            assert rep.tau == max(rep.gamma, rep.mu, rep.lam)
            assert rep.exact_recovery_condition

    def test_frozen_oracle_point(self):
        rep = mmp_support_threshold(0.1, 0.1, 0.1, K=2, L=2)
        assert abs(rep.gamma - GAMMA_K2L2_D01) < 1e-12
        assert abs(rep.mu - MU_K2L2_D01) < 1e-12
        assert abs(rep.lam - LAM_K2L2_D01) < 1e-12
        assert rep.tau == rep.mu

    def test_domain_error_names_failing_denominator(self):
        # at delta = 0.5, K = L = 4 the first denominator already hits zero
        with pytest.raises(DomainError, match="denominator"):
            mmp_support_threshold(0.5, 0.1, 0.1, K=4, L=4)
        with pytest.raises(DomainError, match="mu"):
            mmp_support_threshold(0.45, 0.1, 0.1, K=1, L=4)
        with pytest.raises(DomainError, match="lambda"):
            mmp_support_threshold(0.05, 0.9, 0.9, K=2, L=2)

    def test_undefined_lambda_denominator_refused(self):
        # (1 - inf)^3 - (1 + inf) * 0 is NaN, which no `<= 0` test catches
        with pytest.raises(DomainError, match="lambda"):
            mmp_support_threshold(0.05, math.inf, 0.0, K=2, L=2)


class TestSupportRecoveryProb:
    def test_huge_margin_gives_certainty(self):
        assert abs(support_recovery_prob(16, d=1000.0, noise_var=1.0, tau=1.0) - 1.0) < 1e-12

    def test_zero_margin_gives_zero(self):
        assert support_recovery_prob(8, d=0.0, noise_var=1.0, tau=1.0) == 0.0

    def test_matches_chi_square_sampling_oracle(self):
        # x = d^2/(noise_var tau^2) = 8 with n_r = 8
        n_r, d, noise_var, tau = 8, math.sqrt(8.0), 1.0, 1.0
        got = support_recovery_prob(n_r, d, noise_var, tau)
        rng = rng_stream(1, "mc")
        draws = 1_000_000
        v_sq = noise_var / 2.0 * rng.chisquare(2 * n_r, size=draws)
        empirical = np.mean(v_sq <= d * d / tau**2)
        assert abs(got - empirical) < 0.003

    def test_matches_regularized_gamma_oracle(self):
        for n_r, x in [(4, 2.0), (8, 8.0), (32, 20.0), (16, 1e6)]:
            got = support_recovery_prob(n_r, d=math.sqrt(x), noise_var=1.0, tau=1.0)
            want = 1.0 - scipy.special.gammaincc(n_r, x)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize(
        "n_r, d, noise_var, tau",
        [
            (1, 1e-200, 1e-300, 1.0),  # x = 1e-100, P = 1e-100: 1 - Q rounds to 0
            (64, 7.943, 10.0, 1.0),  # x = 6.31, P = 2.5e-41: 1 - Q rounds to 1e-16
            (2, 0.5, 1.0, 1.0),
            (4, math.sqrt(2.0), 1.0, 1.0),
            (8, math.sqrt(3.0), 1.0, 1.0),
            (8, math.sqrt(8.0), 1.0, 1.0),
            (32, math.sqrt(20.0), 1.0, 1.0),
            (32, math.sqrt(40.0), 1.0, 1.0),
            (200, math.sqrt(199.9), 1.0, 1.0),
        ],
    )
    def test_relative_accuracy_against_regularized_gamma(self, n_r, d, noise_var, tau):
        x = math.exp(2.0 * (math.log(d) - math.log(tau)) - math.log(noise_var))
        want = scipy.special.gammainc(n_r, x)
        assert support_recovery_prob(n_r, d, noise_var, tau) == pytest.approx(want, rel=1e-12, abs=0)

    def test_monotone_in_margin_and_noise(self):
        lo = support_recovery_prob(8, d=1.0, noise_var=0.5, tau=2.0)
        hi = support_recovery_prob(8, d=2.0, noise_var=0.5, tau=2.0)
        assert hi >= lo
        noisier = support_recovery_prob(8, d=1.0, noise_var=1.0, tau=2.0)
        assert noisier <= lo

    def test_bad_args(self):
        with pytest.raises(DomainError):
            support_recovery_prob(8, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            support_recovery_prob(8, 1.0, 1.0, 0.0)

    def test_extreme_magnitudes(self):
        # x = d^2 / (noise_var tau^2) is 1e1000 and 1e-100: d^2 and noise_var tau^2 over- or underflow
        assert support_recovery_prob(8, 1e200, 1e-200, 1e-100) == 1.0
        assert support_recovery_prob(8, d=1e200, noise_var=0.1, tau=2.0) == 1.0
        assert support_recovery_prob(8, 1e-200, 1e-300, 1.0) == 0.0  # (1e-100)^8 / 8! underflows


class TestAsymptoticSinr:
    def test_zero_snr(self):
        assert asymptotic_sinr(0.0, 1.0) == 0.0

    def test_square_system_high_snr_form(self):
        assert abs(asymptotic_sinr(1e4, 1.0) - math.sqrt(1e4)) < 0.05 * math.sqrt(1e4)

    def test_underloaded_high_snr_form(self):
        beta, snr = 0.5, 1e4
        target = (1 - beta) * snr + beta / (1 - beta)
        assert abs(asymptotic_sinr(snr, beta) - target) < 0.05 * target

    @settings(max_examples=50, deadline=None)
    @given(snr=st.floats(0.0, 1e6), beta=st.floats(0.01, 4.0))
    def test_never_exceeds_snr(self, snr, beta):
        assert asymptotic_sinr(snr, beta) <= snr + 1e-9

    def test_square_system_exact_identity(self):
        # for beta = 1 the defining expression collapses to (sqrt(4x+1)-1)/2
        for snr in (0.5, 2.0, 10.0, 123.0):
            assert abs(asymptotic_sinr(snr, 1.0) - (math.sqrt(4 * snr + 1) - 1) / 2) < 1e-9

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 1.5, 4.0])
    def test_matches_defining_expression(self, beta):
        # snr - F/4 and 1 - F/(4 beta snr), F = (a - b)^2, as written in the large-system analysis
        for snr in (0.01, 1.0, 10.0, 100.0):
            a = math.sqrt(snr * (1 + math.sqrt(beta)) ** 2 + 1)
            b = math.sqrt(snr * (1 - math.sqrt(beta)) ** 2 + 1)
            F = (a - b) ** 2
            assert asymptotic_sinr(snr, beta) == pytest.approx(snr - F / 4, rel=1e-12, abs=0)
            assert mse_conv_asymptotic(snr, beta) == pytest.approx(1 - F / (4 * beta * snr), rel=1e-12, abs=0)

    def test_extreme_magnitudes_keep_their_limits(self):
        # sqrt(x) for a square system, 1/(beta - 1) overloaded, x/(1 + beta x) at a huge load
        assert asymptotic_sinr(1.7e308, 1.0) == pytest.approx(math.sqrt(1.7e308), rel=1e-12, abs=0)
        assert asymptotic_sinr(1e300, 2.0) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert asymptotic_sinr(10.0, 1e300) == pytest.approx(1e-300, rel=1e-12, abs=0)
        assert mse_conv_asymptotic(1.7e308, 1.0) == pytest.approx(1 / math.sqrt(1.7e308), rel=1e-12, abs=0)
        assert mse_conv_asymptotic(1e300, 0.5) == pytest.approx(2e-300, rel=1e-12, abs=0)


class TestPeBpsk:
    def test_zero_sinr_is_coin_flip(self):
        assert abs(pe_bpsk(0.0) - 0.5) < 1e-15

    def test_monotone_decreasing(self):
        assert pe_bpsk(2.0) < pe_bpsk(1.0)

    def test_matches_quadrature_oracle(self):
        tail, _ = scipy.integrate.quad(
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi),
            math.sqrt(2 * 4.5),
            np.inf,
        )
        assert abs(pe_bpsk(4.5) - tail) < 1e-7
        assert abs(pe_bpsk(4.5) - PE_BPSK_4P5) < 1e-12


class TestMseConv:
    def test_square_high_snr_form(self):
        assert abs(mse_conv_asymptotic(1e4, 1.0) - 1e-2) < 0.1 * 1e-2

    def test_underloaded_high_snr_form(self):
        target = 1.0 / (0.5 * 1e4)
        assert abs(mse_conv_asymptotic(1e4, 0.5) - target) < 0.1 * target

    def test_matches_trace_oracle(self):
        # empirical (1/n_t) tr(I + snr H^H H)^-1 over 20 channels
        n, snr = 128, 100.0
        vals = []
        for t in range(20):
            H = generate_channel(n, n, rng_stream(9, "channel", t))
            M = np.eye(n) + snr * (H.conj().T @ H)
            vals.append(np.trace(np.linalg.inv(M)).real / n)
        empirical = float(np.mean(vals))
        closed = mse_conv_asymptotic(snr, 1.0)
        assert abs(empirical - closed) < 0.05 * closed

    @settings(max_examples=50, deadline=None)
    @given(snr=st.floats(1e-3, 1e6), beta=st.floats(0.05, 4.0))
    def test_bounded_in_unit_interval(self, snr, beta):
        val = mse_conv_asymptotic(snr, beta)
        assert 0.0 < val <= 1.0 + 1e-12


class TestMsePsedBound:
    def test_no_errors_no_floor(self):
        assert mse_psed_bound(10.0, 1.0, 0.0) == 0.0

    def test_vanishing_load_matches_simplified_form(self):
        p_e, snr = 0.01, 50.0
        assert mse_psed_bound(snr, 0.0, p_e) == p_e / snr

    def test_grows_with_load(self):
        # each detection error drags others in: the floor p_e / (1 - p_e beta) rises with beta
        bounds = [mse_psed_bound(20.0, beta, 0.1) for beta in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_inverse_in_snr(self):
        p_e, beta = 0.05, 1.5
        assert abs(mse_psed_bound(1000.0, beta, p_e) * 1000.0 - mse_psed_bound(1.0, beta, p_e)) < 1e-15

    def test_composition_with_sinr_and_pe(self):
        snr = 100.0
        p_e = pe_bpsk(asymptotic_sinr(snr, 1.0))
        got = mse_psed_bound(snr, 1.0, p_e)
        assert abs(got - (p_e / (1 - p_e)) / snr) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mse_psed_bound(10.0, 2.0, 0.5)  # p_e * beta >= 1
        with pytest.raises(DomainError):
            mse_psed_bound(10.0, 1.0, 1.0)

    def test_negative_load_refused(self):
        # p_e * beta < 1 holds for any beta < 0, so only the load's own interval refuses it
        with pytest.raises(DomainError, match="^beta "):
            mse_psed_bound(10.0, -1.0, 0.01)


class TestMsePsedClosedForm:
    def test_frozen_square_value(self):
        assert abs(mse_psed_closed_form(100.0, 1.0) - MSE_PSED_CF_100_B1) < 1e-20

    def test_frozen_underloaded_value(self):
        got = mse_psed_closed_form(4.0, 0.5)
        assert got > 0
        assert abs(got - MSE_PSED_CF_4_B05) < 1e-15

    def test_decays_faster_than_conventional(self):
        ratios = [
            mse_psed_closed_form(snr, 1.0) / mse_conv_asymptotic(snr, 1.0)
            for snr in (10.0, 100.0, 1000.0)
        ]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_overloaded_rejected(self):
        with pytest.raises(DomainError):
            mse_psed_closed_form(10.0, 1.5)


class TestTraceInverseLimit:
    def test_exact_points(self):
        assert trace_inverse_limit(0.0) == 1.0
        assert trace_inverse_limit(0.5) == 2.0
        assert abs(trace_inverse_limit(0.125) - 8.0 / 7.0) < 1e-12

    def test_matches_random_submatrix_oracle(self):
        # desk-scale version: 256 rows, 32-column random submatrices
        n_r, k = 256, 32
        vals = []
        for t in range(5):
            H = generate_channel(n_r, n_r, rng_stream(10, "channel", t))
            cols = rng_stream(10, "columns", t).choice(n_r, size=k, replace=False)
            Hs = H[:, cols]
            vals.append(np.trace(np.linalg.inv(Hs.conj().T @ Hs)).real / k)
        assert abs(np.mean(vals) - trace_inverse_limit(k / n_r)) < 0.05 * trace_inverse_limit(k / n_r)

    def test_domain(self):
        with pytest.raises(DomainError):
            trace_inverse_limit(1.0)
        with pytest.raises(DomainError):
            trace_inverse_limit(-0.1)


class TestComplexityCount:
    def test_inversion_count_values(self):
        assert [inversion_multiplications(n) for n in (1, 2, 3, 4)] == [0, 3, 11, 26]
        assert inversion_multiplications(32) == 11408

    def test_reference_totals(self):
        assert complexity_count("LMMSE", 32, 32).total == 77_968
        assert complexity_count("MF", 32, 32).total == 1_024
        assert complexity_count("PSED-LMMSE", 32, 32, K=4, L=2).total == 88_096

    def test_hand_expanded_spot_set(self):
        # five parameter sets expanded by hand from the per-stage formulas
        assert complexity_count("MF", 64, 64).total == 4_096
        assert complexity_count("LMMSE", 64, 64).total == 617_760
        assert complexity_count("LMMSE", 128, 128).total == 4_917_824
        assert complexity_count("PSED-MF", 32, 32, K=4, L=2).total == 11_152
        assert complexity_count("LMMSE", 256, 256).total == 39_244_928

    def test_rows_sum_to_total(self):
        for det, kw in [("MF", {}), ("LMMSE", {}), ("PSED-MF", dict(K=4, L=2)), ("PSED-LMMSE", dict(K=9, L=3))]:
            rep = complexity_count(det, 48, 32, **kw)
            assert rep.total == sum(rep.rows.values())
            assert all(v >= 0 for v in rep.rows.values())

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            complexity_count("SD", 32, 32)
        with pytest.raises(ConfigurationError):
            complexity_count("PSED-LMMSE", 32, 32)  # K, L missing
        with pytest.raises(ConfigurationError):
            complexity_count("PSED-LMMSE", 32, 32, K=33, L=2)


def lemma_form_correlation(H, power, noise_var, i, j):
    """Exact two-step low-rank-update expansion used as an independent oracle."""
    n_r = H.shape[0]
    alpha = noise_var / power
    others = [c for c in range(H.shape[1]) if c not in (i, j)]
    A_ij = H[:, others] @ H[:, others].conj().T + alpha * np.eye(n_r)
    A_j = A_ij + np.outer(H[:, i], H[:, i].conj())
    num = H[:, i].conj() @ np.linalg.solve(A_ij, H[:, j])
    den_i = 1.0 + (H[:, i].conj() @ np.linalg.solve(A_ij, H[:, i])).real
    den_j = 1.0 + (H[:, j].conj() @ np.linalg.solve(A_j, H[:, j])).real
    return power * num / (den_i * den_j)


class TestStreamCorrelation:
    def test_identity_channel_is_uncorrelated(self):
        val = stream_correlation(np.eye(2, dtype=np.complex128), 1.0, 0.1, 0, 1)
        assert abs(val) < 1e-15

    def test_matches_lemma_form_oracle(self):
        H = seeded_channel(8, 8, seed=11)
        direct = stream_correlation(H, 1.0, 0.1, 2, 5)
        lemma = lemma_form_correlation(H, 1.0, 0.1, 2, 5)
        assert abs(direct - lemma) < 1e-9

    def test_decorrelates_with_dimension(self):
        means = []
        for n in (16, 48, 96):
            H = generate_channel(n, n, rng_stream(12, "channel", n))
            rng = rng_stream(12, "pairs", n)
            total = 0.0
            for _ in range(60):
                i, j = rng.choice(n, size=2, replace=False)
                total += abs(stream_correlation(H, 1.0, 0.1, int(i), int(j)))
            means.append(total / 60)
        assert means[0] > means[1] > means[2], means

    def test_same_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            stream_correlation(np.eye(4, dtype=np.complex128), 1.0, 0.1, 2, 2)


class TestErrorCountConcentration:
    def test_large_deviation_vanishes(self):
        assert error_count_concentration(64, 0.1, 100.0) < 1e-300

    def test_decreasing_in_dimension(self):
        assert error_count_concentration(256, 0.1, 0.05) < error_count_concentration(64, 0.1, 0.05)

    def test_binomial_sampling_oracle(self):
        n_t, p_e, eps = 128, 0.1, 0.05
        bound = error_count_concentration(n_t, p_e, eps)
        rng = rng_stream(13, "mc")
        counts = rng.binomial(n_t, p_e, size=100_000)
        empirical = np.mean(np.abs(counts / n_t - p_e) > eps)
        assert empirical <= bound + 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            error_count_concentration(64, 0.0, 0.05)
        with pytest.raises(DomainError):
            error_count_concentration(64, 0.1, 0.0)
