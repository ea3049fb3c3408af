"""Tests for the five-step detection pipeline."""

import numpy as np
import pytest

from psed import (
    ConfigurationError,
    DimensionError,
    DomainError,
    PsedConfig,
    SingularMatrixError,
    draw_symbols,
    hard_slice,
    mmp,
    psed_detect,
    rng_stream,
    sparse_transform,
    transmit,
)
from psed import pipeline as pipeline_module
from tests.conftest import complex_noise, seeded_channel


def symbol_errors(got, want) -> int:
    return int(np.sum(np.asarray(got) != np.asarray(want)))


class TestSparseTransform:
    def test_perfect_slice_no_noise_gives_zero(self, qpsk):
        H = seeded_channel(16, 16, seed=1)
        s = draw_symbols(qpsk, 16, rng_stream(1, "symbols"))
        y = np.sqrt(2.0) * (H @ s)
        np.testing.assert_allclose(sparse_transform(y, H, s, 2.0), np.zeros(16), atol=1e-12)

    def test_residual_encodes_error_vector(self, qpsk):
        H = seeded_channel(16, 16, seed=2)
        s = draw_symbols(qpsk, 16, rng_stream(2, "symbols"))
        v = complex_noise(16, seed=2, scale=0.1)
        y = np.sqrt(1.5) * (H @ s) + v
        s_hat = s.copy()
        s_hat[[3, 9]] = -s_hat[[3, 9]]
        e = s - s_hat
        y_prime = sparse_transform(y, H, s_hat, 1.5)
        np.testing.assert_allclose(y_prime - v, np.sqrt(1.5) * (H @ e), atol=1e-10)

    def test_single_error_pulls_one_column(self, qpsk):
        H = seeded_channel(16, 16, seed=3)
        s = draw_symbols(qpsk, 16, rng_stream(3, "symbols"))
        v = complex_noise(16, seed=3, scale=0.1)
        y = H @ s + v
        s_hat = s.copy()
        s_hat[7] = -s_hat[7]
        e7 = s[7] - s_hat[7]
        y_prime = sparse_transform(y, H, s_hat, 1.0)
        np.testing.assert_allclose(y_prime - v, e7 * H[:, 7], atol=1e-10)

    def test_dimension_mismatch_rejected(self, qpsk):
        from psed import DimensionError

        with pytest.raises(DimensionError):
            sparse_transform(np.zeros(4), np.zeros((4, 3)), np.zeros(2), 1.0)


class TestPsedDetect:
    def test_noiseless_clean_first_stage(self, qpsk):
        # step 1 slices perfectly, so the residual system is all zero
        H = seeded_channel(32, 32, seed=4)
        s = draw_symbols(qpsk, 32, rng_stream(4, "symbols"))
        inst = transmit(H, s, 1.0, 0.0, rng_stream(4, "noise"))
        out = psed_detect(inst.y, H, 1.0, 0.0, qpsk, PsedConfig(sparsity=4))
        np.testing.assert_array_equal(out.s_final.values, s)
        assert len(out.recovery.support) == 0

    def test_planted_two_errors_corrected(self, qpsk):
        # steps 2..5 composed from the public operations, no noise
        H = seeded_channel(32, 32, seed=5)
        s = draw_symbols(qpsk, 32, rng_stream(5, "symbols"))
        y = H @ s
        s_hat = s.copy()
        s_hat[[4, 17]] = -s_hat[[4, 17]]

        y_prime = sparse_transform(y, H, s_hat, 1.0)
        recovery = mmp(H, y_prime, 1.0, K=4, L=2)
        s_dh = s_hat + recovery.e_hat
        s_final = hard_slice(s_dh, qpsk).values

        assert recovery.support == {4, 17}
        np.testing.assert_array_equal(s_final, s)

        # idempotent tail: running steps 2..5 again cannot reintroduce errors
        y_prime2 = sparse_transform(y, H, s_final, 1.0)
        recovery2 = mmp(H, y_prime2, 1.0, K=4, L=2)
        s_final2 = hard_slice(s_final + recovery2.e_hat, qpsk).values
        assert symbol_errors(s_final2, s) <= symbol_errors(s_final, s)

    def test_seeded_noisy_fixture_improves_on_slicing(self, qpsk):
        # frozen fixture: at 14 dB this seed commits two first-stage errors
        noise_var = 10 ** (-1.4)
        H = seeded_channel(32, 32, seed=3)
        s = draw_symbols(qpsk, 32, rng_stream(3, "symbols"))
        inst = transmit(H, s, 1.0, noise_var, rng_stream(3, "noise"))
        out = psed_detect(inst.y, H, 1.0, noise_var, qpsk, PsedConfig(tol=0.0, sparsity=4))
        step2_errors = symbol_errors(hard_slice(out.s_tilde, qpsk).values, s)
        final_errors = symbol_errors(out.s_final.values, s)
        assert step2_errors >= 1
        assert final_errors <= step2_errors
        assert final_errors == 0  # regression baseline for this fixture

    def test_output_invariants(self, qpsk):
        noise_var = 0.05
        H = seeded_channel(24, 24, seed=6)
        s = draw_symbols(qpsk, 24, rng_stream(6, "symbols"))
        inst = transmit(H, s, 1.0, noise_var, rng_stream(6, "noise"))
        out = psed_detect(inst.y, H, 1.0, noise_var, qpsk, PsedConfig(tol=0.0))
        np.testing.assert_allclose(
            out.y_prime, inst.y - H @ out.s_hat.values, atol=1e-10
        )
        np.testing.assert_array_equal(out.s_doublehat, out.s_hat.values + out.recovery.e_hat)
        assert np.all(np.isin(out.s_final.values, qpsk.points))

    def test_recovery_failure_falls_back_to_sliced_estimate(self, qpsk, monkeypatch):
        def boom(*args, **kwargs):
            raise SingularMatrixError("forced failure")

        monkeypatch.setattr(pipeline_module.sparse_recovery, "mmp", boom)
        H = seeded_channel(16, 16, seed=7)
        s = draw_symbols(qpsk, 16, rng_stream(7, "symbols"))
        inst = transmit(H, s, 1.0, 0.05, rng_stream(7, "noise"))
        out = psed_detect(inst.y, H, 1.0, 0.05, qpsk, PsedConfig(tol=0.0))
        assert out.recovery_failed
        np.testing.assert_array_equal(out.s_final.values, out.s_hat.values)
        assert len(out.recovery.support) == 0
        assert abs(out.recovery.residual_norm - np.linalg.norm(out.y_prime)) < 1e-12

    def test_all_nan_observation_raises(self, qpsk):
        # NaN distances would otherwise slice every stream to point 0, unflagged
        H = seeded_channel(32, 32, seed=10)
        y = np.full(32, np.nan + 0j)
        with pytest.raises(DomainError, match="^y "):
            psed_detect(y, H, 1.0, 0.1, qpsk, PsedConfig(tol=0.0))

    def test_channel_without_rows_raises(self, qpsk):
        # an empty H would otherwise slice every stream to point 0, unflagged
        with pytest.raises(DimensionError, match=r"^H .*\(0, 8\)"):
            psed_detect(np.zeros(0), np.zeros((0, 8)), 1.0, 0.1, qpsk, PsedConfig())

    @pytest.mark.parametrize("estimator", ["LS", "LMMSE"])
    @pytest.mark.parametrize("base", ["MF", "LMMSE"])
    def test_power_scales_out(self, qpsk, base, estimator):
        # (sqrt(P) y, P, P noise_var) is the P = 1 system written at power P
        H = seeded_channel(32, 32, seed=14)
        s = draw_symbols(qpsk, 32, rng_stream(14, "symbols"))
        y = transmit(H, s, 1.0, 0.1, rng_stream(14, "noise")).y
        config = PsedConfig(base_detector=base, estimator=estimator, tol=0.0)
        unit = psed_detect(y, H, 1.0, 0.1, qpsk, config)
        scaled = psed_detect(2.0 * y, H, 4.0, 0.4, qpsk, config)
        assert symbol_errors(unit.s_hat.values, s) > 0  # the search has errors to fix
        np.testing.assert_allclose(scaled.s_tilde, unit.s_tilde, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(scaled.s_hat.values, unit.s_hat.values)
        np.testing.assert_array_equal(scaled.s_final.values, unit.s_final.values)
        np.testing.assert_allclose(scaled.recovery.e_hat, unit.recovery.e_hat, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 1), ()], ids=["column", "scalar"])
    def test_observation_that_is_not_one_vector_raises(self, qpsk, shape):
        H = seeded_channel(8, 8, seed=12)
        with pytest.raises(DimensionError):
            psed_detect(np.ones(shape, dtype=np.complex128), H, 1.0, 0.1, qpsk, PsedConfig(sparsity=2))

    @pytest.mark.parametrize("field", ["H", "noise_var"])
    def test_non_finite_channel_or_noise_raises(self, qpsk, field):
        args = {"H": seeded_channel(8, 8, seed=11), "noise_var": 0.1}
        args[field] = args[field] * np.inf
        with pytest.raises(DomainError, match=f"^{field} "):
            psed_detect(complex_noise(8, seed=11), args["H"], 1.0, args["noise_var"], qpsk, PsedConfig())

    @pytest.mark.parametrize("seed", range(13))
    def test_singular_lmmse_front_end_raises(self, qpsk, seed):
        # Noiseless y = H s with a duplicated column: the LMMSE Gram is singular.
        H = seeded_channel(8, 8, seed=seed)
        H[:, 5] = H[:, 2]
        s = draw_symbols(qpsk, 8, rng_stream(seed, "symbols"))
        with pytest.raises(SingularMatrixError):
            psed_detect(H @ s, H, 1.0, 0.0, qpsk, PsedConfig(sparsity=2))

    def test_lmmse_estimator_selectable(self, qpsk):
        H = seeded_channel(16, 16, seed=9)
        s = draw_symbols(qpsk, 16, rng_stream(9, "symbols"))
        inst = transmit(H, s, 1.0, 0.05, rng_stream(9, "noise"))
        out = psed_detect(
            inst.y, H, 1.0, 0.05, qpsk, PsedConfig(estimator="LMMSE", tol=0.0, sparsity=2)
        )
        assert len(out.recovery.support) <= 2


class TestPsedConfig:
    def test_default_sparsity_is_fifteen_percent(self):
        assert PsedConfig().bound_sparsity(32) == 4
        assert PsedConfig().bound_sparsity(128) == 19
        assert PsedConfig().bound_sparsity(2) == 1  # floor would be 0; clamped to 1

    def test_explicit_sparsity_bound_checked(self):
        with pytest.raises(ConfigurationError):
            PsedConfig(sparsity=5).bound_sparsity(4)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            PsedConfig(base_detector="ZF")
        with pytest.raises(ConfigurationError):
            PsedConfig(sparsity=0)
        with pytest.raises(ConfigurationError):
            PsedConfig(branch=0)
        with pytest.raises(ConfigurationError):
            PsedConfig(estimator="MAP")
        with pytest.raises(ConfigurationError, match="max_paths"):
            PsedConfig(max_paths=0)
        with pytest.raises(ConfigurationError, match="tol"):
            PsedConfig(tol=-1.0)
