"""Tests for support-restricted estimation and the matching pursuits."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from psed import (
    ConfigurationError,
    DimensionError,
    SingularMatrixError,
    SupportSet,
    lmmse_on_support,
    ls_on_support,
    mmp,
    mmp_exact_condition,
    omp,
    rip_constant,
    rng_stream,
)
from tests.conftest import (
    check_recovery_result,
    complex_noise,
    orthonormal_columns,
    random_sparse,
    seeded_channel,
)


class TestSupportSet:
    def test_order_insensitive_equality(self):
        assert SupportSet([3, 1, 7]) == SupportSet([7, 3, 1])
        assert SupportSet([3, 1]) != SupportSet([3, 2])
        assert SupportSet([3, 1]) == {1, 3}

    def test_preserves_selection_order(self):
        assert SupportSet([3, 1, 7]).indices == (3, 1, 7)

    def test_hash_consistent_with_equality(self):
        assert hash(SupportSet([2, 5])) == hash(SupportSet([5, 2]))

    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(ConfigurationError):
            SupportSet([1, 1])
        with pytest.raises(ConfigurationError):
            SupportSet([-1])

    def test_membership(self):
        s = SupportSet([4, 9])
        assert 4 in s and 9 in s and 2 not in s

    def test_immutable(self):
        s = SupportSet([4, 9])
        with pytest.raises(AttributeError):
            s.indices = (1,)
        assert s.indices == (4, 9)


class TestLsOnSupport:
    def test_full_square_support_inverts(self):
        H = seeded_channel(8, 8, seed=1)
        y = complex_noise(8, seed=1)
        got = ls_on_support(H, y, 1.0, range(8))
        np.testing.assert_allclose(got, np.linalg.solve(H, y), atol=1e-9)

    def test_noiseless_consistent_system_recovers_exactly(self):
        H = seeded_channel(16, 20, seed=2)
        e = random_sparse(20, 3, seed=2)
        support = np.flatnonzero(e)
        y = np.sqrt(2.0) * (H @ e)
        got = ls_on_support(H, y, 2.0, support)
        np.testing.assert_allclose(got, e, atol=1e-9)

    def test_matches_normal_equations_oracle(self):
        H = seeded_channel(64, 8, seed=3)
        y = complex_noise(64, seed=3)
        support = [0, 2, 5, 7]
        got = ls_on_support(H, y, 1.7, support)
        A = np.sqrt(1.7) * H[:, support]
        oracle = np.linalg.inv(A.conj().T @ A) @ (A.conj().T @ y)
        np.testing.assert_allclose(got[support], oracle, atol=1e-9)

    def test_rank_deficient_support_names_indices(self):
        H = seeded_channel(8, 6, seed=4)
        H[:, 3] = H[:, 2]
        with pytest.raises(SingularMatrixError, match=r"\[2, 3\]"):
            ls_on_support(H, complex_noise(8, seed=4), 1.0, [2, 3])

    def test_lone_zero_column_is_singular(self):
        # every singular value is zero, so the condition-number test alone reads 0 > 0
        H = np.eye(4, dtype=np.complex128)
        H[:, 2] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^rank-deficient submatrix on support \[2\]$"):
            ls_on_support(H, np.ones(4, dtype=np.complex128), 1.0, [2])

    def test_empty_support_returns_zeros(self):
        H = seeded_channel(8, 6, seed=5)
        got = ls_on_support(H, complex_noise(8, seed=5), 1.0, ())
        np.testing.assert_array_equal(got, np.zeros(6))

    def test_oversized_support_rejected(self):
        H = seeded_channel(4, 8, seed=6)
        with pytest.raises(ConfigurationError):
            ls_on_support(H, complex_noise(4, seed=6), 1.0, range(5))


class TestLmmseOnSupport:
    def test_zero_noise_equals_ls(self):
        H = seeded_channel(16, 8, seed=7)
        y = complex_noise(16, seed=7)
        support = [1, 4, 6]
        reg = lmmse_on_support(H, y, 1.3, support, error_var=2.0, noise_var=0.0)
        ls = ls_on_support(H, y, 1.3, support)
        np.testing.assert_allclose(reg, ls, atol=1e-10)

    def test_scalar_shrinkage(self):
        H = np.array([[1.0 + 0j]])
        got = lmmse_on_support(H, np.array([1.0 + 0j]), 1.0, [0], error_var=1.0, noise_var=1.0)
        assert abs(got[0] - 0.5) < 1e-12

    def test_matches_regularized_oracle(self):
        H = seeded_channel(32, 4, seed=8)
        y = complex_noise(32, seed=8)
        support = [0, 1, 3]
        power, error_var, noise_var = 2.0, 1.5, 0.4
        got = lmmse_on_support(H, y, power, support, error_var, noise_var)
        Hs = H[:, support]
        gram = Hs.conj().T @ Hs + (noise_var / (power * error_var)) * np.eye(3)
        oracle = np.linalg.inv(gram) @ (Hs.conj().T @ y) / np.sqrt(power)
        np.testing.assert_allclose(got[support], oracle, atol=1e-9)


class TestOmp:
    def test_zero_measurement_early_stop(self):
        H = seeded_channel(8, 10, seed=9)
        result = omp(H, np.zeros(8, dtype=np.complex128), 1.0, K=3)
        assert len(result.support) == 0
        assert result.residual_norm == 0.0
        assert len(result.support) == 0
        np.testing.assert_array_equal(result.e_hat, np.zeros(10))

    def test_one_sparse_noiseless(self):
        H = seeded_channel(8, 10, seed=10)
        e = np.zeros(10, dtype=np.complex128)
        e[3] = 1.5 - 0.5j
        y = np.sqrt(2.0) * (H @ e)
        result = omp(H, y, 2.0, K=1)
        assert result.support == {3}
        np.testing.assert_allclose(result.e_hat, e, atol=1e-9)

    def test_exact_recovery_rate_regression(self):
        # frozen regression baseline measured on this implementation
        hits = 0
        for seed in range(100):
            H = seeded_channel(128, 128, seed=1000 + seed)
            e = random_sparse(128, 4, seed=1000 + seed)
            y = H @ e
            result = omp(H, y, 1.0, K=4)
            hits += result.support == set(np.flatnonzero(e).tolist())
        assert hits >= 95
        assert hits == 100  # regression baseline

    def test_residual_orthogonal_to_selected_columns(self):
        H = seeded_channel(16, 24, seed=11)
        y = H @ random_sparse(24, 3, seed=11) + complex_noise(16, seed=11, scale=0.05)
        result = omp(H, y, 1.0, K=3, tol=0.0)
        residual = y - H @ result.e_hat
        corr = np.abs(H[:, list(result.support.indices)].conj().T @ residual)
        assert corr.max() < 1e-8

    def test_monotone_residual_in_iteration_count(self):
        H = seeded_channel(16, 24, seed=12)
        y = H @ random_sparse(24, 4, seed=12) + complex_noise(16, seed=12, scale=0.1)
        norms = [omp(H, y, 1.0, K=k, tol=0.0).residual_norm for k in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:])), norms

    def test_self_consistency_on_noisy_instances(self):
        for seed in range(5):
            H = seeded_channel(16, 24, seed=20 + seed)
            y = H @ random_sparse(24, 3, seed=20 + seed) + complex_noise(16, seed=20 + seed, scale=0.2)
            result = omp(H, y, 1.0, K=3, tol=0.0)
            check_recovery_result(result, H, y, 1.0, k_max=3)

    def test_bad_args_rejected(self):
        H = seeded_channel(4, 6, seed=13)
        y = complex_noise(4, seed=13)
        with pytest.raises(ConfigurationError):
            omp(H, y, 1.0, K=0)
        with pytest.raises(ConfigurationError):
            omp(H, y, 1.0, K=7)
        with pytest.raises(ConfigurationError):
            omp(H, y, 1.0, K=2, tol=-1.0)


class TestMmp:
    def test_l1_reduces_to_omp_bitwise(self):
        for seed in range(20):
            H = seeded_channel(24, 24, seed=30 + seed)
            y = H @ random_sparse(24, 4, seed=30 + seed) + complex_noise(24, seed=30 + seed, scale=0.2)
            a = omp(H, y, 1.0, K=4, tol=0.0)
            b = mmp(H, y, 1.0, K=4, L=1, tol=0.0)
            assert a.support.indices == b.support.indices
            assert np.array_equal(a.e_hat, b.e_hat)
            assert a.residual_norm == b.residual_norm
            assert a.paths_explored == b.paths_explored

    def test_layer_path_count_bound(self):
        H = seeded_channel(16, 12, seed=40)
        y = H @ random_sparse(12, 3, seed=40) + complex_noise(16, seed=40, scale=0.1)
        K, L = 3, 3
        result = mmp(H, y, 1.0, K=K, L=L, tol=0.0, max_paths=10_000)
        bound = sum(min(L**k, math.comb(12, k)) for k in range(1, K + 1))
        assert result.paths_explored <= bound

    def test_exact_recovery_with_verified_guarantee(self):
        # orthonormal columns have zero distortion, so the exact-recovery
        # condition verifies and the noiseless search must find the support
        H = orthonormal_columns(20, 16, seed=41)
        K, L = 2, 2
        delta = rip_constant(H, K + L).delta
        assert mmp_exact_condition(delta, K, L)
        e = random_sparse(16, K, seed=41)
        y = np.sqrt(2.0) * (H @ e)
        result = mmp(H, y, 2.0, K=K, L=L)
        assert result.support == set(np.flatnonzero(e).tolist())
        assert result.residual_norm < 1e-9
        np.testing.assert_allclose(result.e_hat, e, atol=1e-9)

    def test_gaussian_noiseless_recovery_regression(self):
        # frozen baseline: no isometry premise, just measured behavior
        hits = 0
        for seed in range(100):
            H = seeded_channel(16, 20, seed=2000 + seed)
            e = random_sparse(20, 2, seed=2000 + seed)
            result = mmp(H, H @ e, 1.0, K=2, L=2)
            hits += result.support == set(np.flatnonzero(e).tolist()) and bool(
                np.abs(result.e_hat - e).max() < 1e-8
            )
        assert hits == 100  # regression baseline

    def test_noiseless_early_stop_keeps_support_minimal(self):
        H = seeded_channel(16, 20, seed=42)
        e = random_sparse(20, 2, seed=42)
        result = mmp(H, H @ e, 1.0, K=5, L=2)
        assert len(result.support) == 2
        assert result.support == set(np.flatnonzero(e).tolist())

    def test_pruning_keeps_result_consistent(self):
        H = seeded_channel(16, 24, seed=43)
        y = H @ random_sparse(24, 4, seed=43) + complex_noise(16, seed=43, scale=0.3)
        capped = mmp(H, y, 1.0, K=4, L=3, tol=0.0, max_paths=2)
        check_recovery_result(capped, H, y, 1.0, k_max=4)
        # with a cap of 2, each layer spawns at most 2*L children
        assert capped.paths_explored <= 3 + 3 * 2 * 3

    def test_duplicate_column_raises(self):
        rng = rng_stream(44, "channel")
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        H = np.column_stack([h, h])
        y = h + complex_noise(6, seed=44, scale=0.01)
        with pytest.raises(SingularMatrixError):
            mmp(H, y, 1.0, K=2, L=1, tol=0.0)

    def test_self_consistency_under_load(self):
        for seed in range(5):
            H = seeded_channel(24, 32, seed=50 + seed)
            y = H @ random_sparse(32, 5, seed=50 + seed) + complex_noise(24, seed=50 + seed, scale=0.2)
            result = mmp(H, y, 1.0, K=5, L=2, tol=0.0)
            check_recovery_result(result, H, y, 1.0, k_max=5)

    def test_lmmse_estimator_mode(self):
        H = seeded_channel(16, 20, seed=60)
        e = random_sparse(20, 2, seed=60)
        y = H @ e + complex_noise(16, seed=60, scale=0.05)
        reg = mmp(H, y, 1.0, K=2, L=2, tol=0.0, estimator="LMMSE", error_var=2.0, noise_var=0.05**2 * 2)
        assert len(reg.support) == 2
        # with zero noise variance the regularizer vanishes
        ls = mmp(H, y, 1.0, K=2, L=2, tol=0.0)
        reg0 = mmp(H, y, 1.0, K=2, L=2, tol=0.0, estimator="LMMSE", error_var=2.0, noise_var=0.0)
        assert reg0.support == ls.support
        np.testing.assert_allclose(reg0.e_hat, ls.e_hat, atol=1e-9)

    def test_memory_follows_the_paths_kept(self):
        # A noise-level stop ends this search after 12 layers, whose widest
        # keeps 77 paths. With the cut far above that, the search's memory
        # must follow the paths its layers keep, not the cut.
        scale = 0.2
        H = seeded_channel(128, 128, seed=9100)
        y = H @ random_sparse(128, 4, seed=9100) + complex_noise(128, seed=9100, scale=scale)
        tracemalloc.start()
        try:
            mmp(H, y, 1.0, K=19, L=2, tol=0.85 * np.sqrt(128 * 2 * scale**2), max_paths=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_no_state_outlives_a_call(self):
        def search(seed):
            H = seeded_channel(32, 32, seed=9200 + seed)
            y = H @ random_sparse(32, 4, seed=9200 + seed) + complex_noise(32, seed=9200 + seed, scale=0.2)
            got = mmp(H, y, 1.0, K=6, L=2 + seed % 2, tol=0.0, max_paths=4 + 60 * (seed % 3 == 0))
            return got.support.indices, got.e_hat.tobytes(), got.paths_explored

        serial = [search(seed) for seed in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(search, range(20), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_bad_args_rejected(self):
        H = seeded_channel(8, 10, seed=61)
        y = complex_noise(8, seed=61)
        with pytest.raises(ConfigurationError):
            mmp(H, y, 1.0, K=2, L=0)
        with pytest.raises(ConfigurationError):
            mmp(H, y, 1.0, K=2, L=2, max_paths=0)
        with pytest.raises(ConfigurationError):
            mmp(H, y, 1.0, K=2, L=2, estimator="MAP")
        with pytest.raises(ConfigurationError):
            mmp(H, y, 1.0, K=2, L=2, estimator="LMMSE")


@pytest.mark.parametrize("shape", [(8, 1), ()], ids=["column", "scalar"])
@pytest.mark.parametrize("solver", ["mmp", "ls_on_support", "lmmse_on_support"])
def test_observation_that_is_not_one_vector_rejected(solver, shape):
    H = seeded_channel(8, 10, seed=62)
    y = np.ones(shape, dtype=np.complex128)
    with pytest.raises(DimensionError):
        if solver == "mmp":
            mmp(H, y, 1.0, K=2, L=2)
        elif solver == "ls_on_support":
            ls_on_support(H, y, 1.0, (1, 4))
        else:
            lmmse_on_support(H, y, 1.0, (1, 4), error_var=1.0, noise_var=0.1)
