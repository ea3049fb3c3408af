"""Tests for the conventional linear detector weights and detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psed import (
    DimensionError,
    SingularMatrixError,
    WeightMatrix,
    detect,
    draw_symbols,
    generate_channel,
    mmp,
    residual_stream_variance,
    rng_stream,
    transmit,
    weight_matrix,
)
from tests.conftest import complex_noise, seeded_channel


def zf_weights(H, power):
    """Zero-forcing weights H (H^H H)^-1 / sqrt(P), the noiseless limit of LMMSE."""
    return WeightMatrix(H @ np.linalg.inv(H.conj().T @ H) / np.sqrt(power))


class TestWeightMatrix:
    def test_lmmse_converges_to_zf(self):
        H = seeded_channel(8, 8, seed=2)
        lmmse = weight_matrix(H, "LMMSE", 1.0, 1e-12)
        assert np.abs(lmmse.W - zf_weights(H, 1.0).W).max() < 1e-6

    def test_scalar_lmmse(self):
        w = weight_matrix(np.array([[1.0 + 0j]]), "LMMSE", 1.0, 1.0)
        assert abs(w.W[0, 0] - 0.5) < 1e-12

    @pytest.mark.parametrize("kind", ["MF", "LMMSE"])
    def test_non_finite_input_rejected(self, kind):
        from psed import DomainError

        H = seeded_channel(8, 4, seed=5)
        with pytest.raises(DomainError, match="^noise_var "):
            weight_matrix(H, kind, 1.0, np.inf)
        H[0, 0] = np.nan
        with pytest.raises(DomainError, match="^H "):
            weight_matrix(H, kind, 1.0, 0.1)

    @pytest.mark.parametrize("seed", range(13))
    def test_lmmse_singular_gram_raises(self, seed):
        # A duplicated column with no noise leaves H^H H + (noise_var/P) I singular.
        H = seeded_channel(8, 8, seed=seed)
        H[:, 5] = H[:, 2]
        with pytest.raises(SingularMatrixError, match="LMMSE"):
            weight_matrix(H, "LMMSE", 1.0, 0.0)
        weight_matrix(H, "LMMSE", 1.0, 0.1)  # regularised: invertible

    def test_unknown_kind_rejected(self):
        from psed import ConfigurationError

        with pytest.raises(ConfigurationError):
            weight_matrix(np.eye(4), "MRC", 1.0, 0.1)


class TestDetect:
    def test_identity_weights(self):
        y = np.arange(6) + 1j * np.arange(6)
        W = np.eye(6, dtype=np.complex128)
        weights = WeightMatrix(W)
        assert weights.W is W  # held as given
        np.testing.assert_array_equal(detect(weights, y), y)

    def test_noiseless_zf_recovers_symbols(self, qpsk):
        H = seeded_channel(12, 8, seed=5)
        s = draw_symbols(qpsk, 8, rng_stream(5, "symbols"))
        inst = transmit(H, s, 1.5, 0.0, rng_stream(5, "noise"))
        np.testing.assert_allclose(detect(zf_weights(H, 1.5), inst.y), s, atol=1e-8)

    def test_lmmse_matches_normal_equations(self, qpsk):
        # independent oracle: explicit inverse of the regularized Gram
        H = seeded_channel(32, 32, seed=6)
        s = draw_symbols(qpsk, 32, rng_stream(6, "symbols"))
        inst = transmit(H, s, 1.0, 0.05, rng_stream(6, "noise"))
        got = detect(weight_matrix(H, "LMMSE", 1.0, 0.05), inst.y)
        gram = H.conj().T @ H + 0.05 * np.eye(32)
        expected = np.linalg.inv(gram) @ (H.conj().T @ inst.y)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("power", [4.0, 100.0])
    def test_noiseless_lmmse_estimates_symbols_at_any_power(self, qpsk, power):
        # y = sqrt(P) H s: the weights' 1/sqrt(P) gives back s, not sqrt(P) s
        H = seeded_channel(16, 8, seed=11)
        s = draw_symbols(qpsk, 8, rng_stream(11, "symbols"))
        y = np.sqrt(power) * (H @ s)
        weights = weight_matrix(H, "LMMSE", power, 0.0)
        np.testing.assert_allclose(detect(weights, y), s, atol=1e-10)
        np.testing.assert_allclose(weights.W.conj().T @ y, s, atol=1e-10)
        np.testing.assert_array_equal(weights.gram, H.conj().T @ H)

    @pytest.mark.parametrize("shape", [(8, 1), ()], ids=["column", "scalar"])
    @pytest.mark.parametrize("kind", ["MF", "LMMSE"])
    def test_observation_that_is_not_one_vector_rejected(self, kind, shape):
        weights = weight_matrix(seeded_channel(8, 6, seed=7), kind, 1.0, 0.1)
        with pytest.raises(DimensionError):
            detect(weights, np.ones(shape, dtype=np.complex128))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), a_re=st.floats(-3, 3), a_im=st.floats(-3, 3))
    def test_linearity(self, seed, a_re, a_im):
        rng = np.random.default_rng(seed)
        W = WeightMatrix(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
        y1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = a_re + 1j * a_im
        lhs = detect(W, a * y1 + y2)
        rhs = a * detect(W, y1) + detect(W, y2)
        assert np.abs(lhs - rhs).max() < 1e-12


def push_through(H, kind, power, noise_var):
    """The weights written out independently: H / sqrt(P), or (H H^H + noise_var/P I)^-1 H / sqrt(P)."""
    if kind == "MF":
        return H / np.sqrt(power)
    return np.linalg.solve(H @ H.conj().T + (noise_var / power) * np.eye(H.shape[0]), H) / np.sqrt(power)


class TestGramHeldWeights:
    @pytest.mark.parametrize("kind", ["MF", "LMMSE"])
    @pytest.mark.parametrize("n_r, n_t", [(32, 32), (64, 32), (32, 64)])
    def test_detect_and_W_match_push_through(self, kind, n_r, n_t):
        H = seeded_channel(n_r, n_t, seed=n_r + n_t)
        y = complex_noise(n_r, seed=n_r + n_t)
        W_ref = push_through(H, kind, 1.5, 0.2)
        expected = W_ref.conj().T @ y
        weights = weight_matrix(H, kind, 1.5, 0.2)
        before = detect(weights, y)
        assert np.linalg.norm(before - expected) <= 1e-10 * np.linalg.norm(expected)
        assert np.linalg.norm(weights.W - W_ref) <= 1e-10 * np.linalg.norm(W_ref)
        np.testing.assert_array_equal(detect(weights, y), before)

    def test_own_gram_is_shared_with_mmp_unchanged(self):
        # psed_detect hands weights.gram to mmp; the search must neither change it nor answer differently.
        H = seeded_channel(32, 32, seed=9)
        y = complex_noise(32, seed=9)
        weights = weight_matrix(H, "LMMSE", 1.0, 0.1)
        assert weights.M is H  # at P = 1 the weights hold the channel itself, not a scaled copy
        np.testing.assert_array_equal(weights.gram, H.conj().T @ H)
        before = detect(weights, y)
        shared = mmp(H, y, 1.0, K=4, L=2, gram=weights.gram)
        np.testing.assert_array_equal(shared.e_hat, mmp(H, y, 1.0, K=4, L=2).e_hat)
        np.testing.assert_array_equal(weights.gram, H.conj().T @ H)
        np.testing.assert_array_equal(detect(weights, y), before)

    @pytest.mark.parametrize("field", ["kind", "M", "gram", "rho", "G"])
    def test_weights_are_immutable(self, field):
        weights = weight_matrix(seeded_channel(8, 6, seed=7), "LMMSE", 1.0, 0.1)
        with pytest.raises(AttributeError):
            setattr(weights, field, None)


class TestResidualStreamVariance:
    def test_scalar_case(self):
        H = np.array([[1.0 + 0j]])
        w = weight_matrix(H, "LMMSE", 1.0, 1.0)
        assert abs(residual_stream_variance(H, w, 1.0, 1.0, 0) - 0.25) < 1e-12

    def test_noiseless_zf_leaves_nothing(self):
        H = seeded_channel(8, 8, seed=7)
        zf = zf_weights(H, 1.0)
        for i in range(8):
            assert abs(residual_stream_variance(H, zf, 1.0, 0.0, i)) < 1e-10

    def test_monte_carlo_oracle(self, qpsk):
        # empirical variance of the interference-plus-noise term over 1e5 draws
        n, power, noise_var, i = 16, 1.0, 0.2, 5
        H = seeded_channel(n, n, seed=8)
        w = weight_matrix(H, "LMMSE", power, noise_var)
        predicted = residual_stream_variance(H, w, power, noise_var, i)

        rng = rng_stream(8, "mc")
        draws = 100_000
        sym_idx = rng.integers(0, len(qpsk.points), size=(n, draws))
        S = qpsk.points[sym_idx]
        V = np.sqrt(noise_var / 2) * (rng.standard_normal((n, draws)) + 1j * rng.standard_normal((n, draws)))
        s_tilde_i = w.W[:, i].conj() @ (np.sqrt(power) * (H @ S) + V)
        residual = s_tilde_i - np.sqrt(power) * (w.W[:, i].conj() @ H[:, i]) * S[i]
        empirical = np.mean(np.abs(residual) ** 2)
        assert abs(empirical - predicted) < 0.03 * predicted


class TestSinrConcentration:
    def test_stream_sinr_std_shrinks_with_dimension(self):
        stds = []
        for n in (16, 32, 64, 128):
            H = generate_channel(n, n, rng_stream(42, "channel", n))
            w = weight_matrix(H, "LMMSE", 1.0, 0.1)
            sinr = []
            for i in range(n):
                gain = np.abs(np.vdot(w.W[:, i], H[:, i])) ** 2
                sinr.append(gain / residual_stream_variance(H, w, 1.0, 0.1, i))
            stds.append(np.std(sinr))
        assert all(a > b for a, b in zip(stds, stds[1:])), stds
