"""Tests for constellations, channel generation, and the observation model."""

import numpy as np
import pytest

from psed import (
    ConfigurationError,
    DimensionError,
    DomainError,
    draw_symbols,
    generate_channel,
    make_constellation,
    rng_stream,
    transmit,
)

# 0.1% chi-square critical values for the goodness-of-fit checks
CHI2_CRIT_DF1 = 10.828
CHI2_CRIT_DF3 = 16.266


class TestConstellation:
    def test_bpsk_points(self):
        c = make_constellation("BPSK")
        np.testing.assert_array_equal(c.points, np.array([1.0 + 0.0j, -1.0 + 0.0j]))

    def test_qpsk_points(self):
        c = make_constellation("QPSK")
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        np.testing.assert_allclose(c.points, expected, atol=1e-15)

    @pytest.mark.parametrize("kind", ["BPSK", "QPSK"])
    def test_unit_average_energy(self, kind):
        c = make_constellation(kind)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["BPSK", "QPSK"])
    def test_points_distinct(self, kind):
        c = make_constellation(kind)
        assert len(np.unique(c.points)) == len(c.points)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_constellation("16QAM")

    def test_min_distance(self):
        assert abs(make_constellation("BPSK").min_distance - 2.0) < 1e-12
        assert abs(make_constellation("QPSK").min_distance - np.sqrt(2.0)) < 1e-12


class TestChannel:
    def test_deterministic_given_stream(self):
        H1 = generate_channel(16, 8, rng_stream(5, "channel", 3))
        H2 = generate_channel(16, 8, rng_stream(5, "channel", 3))
        np.testing.assert_array_equal(H1, H2)

    def test_distinct_streams_differ(self):
        H1 = generate_channel(16, 8, rng_stream(5, "channel", 3))
        H2 = generate_channel(16, 8, rng_stream(5, "channel", 4))
        assert not np.array_equal(H1, H2)

    def test_entry_second_moment(self):
        # 1e6 entries; the per-entry variance is 1/n_r
        n_r = 128
        H = generate_channel(n_r, 8192, rng_stream(7, "channel"))
        mean_sq = np.mean(np.abs(H) ** 2)
        assert abs(mean_sq - 1.0 / n_r) < 0.01 / n_r

    def test_column_norm_second_moment(self):
        H = generate_channel(128, 8192, rng_stream(8, "channel"))
        col_sq = np.sum(np.abs(H) ** 2, axis=0)
        assert abs(np.mean(col_sq) - 1.0) < 0.01

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_channel(0, 4, rng_stream(0, "channel"))


class TestTransmit:
    def test_zero_noise_is_exact(self, qpsk):
        H = generate_channel(8, 8, rng_stream(1, "channel"))
        s = draw_symbols(qpsk, 8, rng_stream(1, "symbols"))
        inst = transmit(H, s, 2.0, 0.0, rng_stream(1, "noise"))
        np.testing.assert_array_equal(inst.y, np.sqrt(2.0) * (H @ s))
        np.testing.assert_array_equal(inst.v, np.zeros(8))

    def test_noise_variance(self, qpsk):
        # 1e6 noise draws across 100 transmissions
        H = np.zeros((10_000, 1), dtype=np.complex128)
        s = qpsk.points[:1]
        draws = [
            transmit(H, s, 1.0, 0.25, rng_stream(2, "noise", t)).v for t in range(100)
        ]
        mean_sq = np.mean(np.abs(np.concatenate(draws)) ** 2)
        assert abs(mean_sq - 0.25) < 0.01 * 0.25

    def test_instance_keeps_power_and_noise_var(self, qpsk):
        H = generate_channel(4, 4, rng_stream(3, "channel"))
        s = draw_symbols(qpsk, 4, rng_stream(3, "symbols"))
        inst = transmit(H, s, 1.0, 0.1, rng_stream(3, "noise"))
        assert inst.power == 1.0 and inst.noise_var == 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_r,n_t", [(8, 8), (16, 4)])
    def test_rebuild_invariant(self, qpsk, seed, n_r, n_t):
        H = generate_channel(n_r, n_t, rng_stream(seed, "channel"))
        s = draw_symbols(qpsk, n_t, rng_stream(seed, "symbols"))
        inst = transmit(H, s, 1.0, 0.3, rng_stream(seed, "noise"))
        assert np.abs(inst.y - (np.sqrt(inst.power) * inst.H @ inst.s + inst.v)).max() < 1e-12

    def test_symbols_are_constellation_points(self, qpsk):
        s = draw_symbols(qpsk, 64, rng_stream(4, "symbols"))
        assert np.all(np.isin(s, qpsk.points))

    def test_dimension_mismatch_rejected(self, qpsk):
        H = generate_channel(8, 4, rng_stream(5, "channel"))
        s = draw_symbols(qpsk, 5, rng_stream(5, "symbols"))
        with pytest.raises(DimensionError):
            transmit(H, s, 1.0, 0.1, rng_stream(5, "noise"))

    def test_non_finite_input_rejected(self, qpsk):
        H = generate_channel(8, 4, rng_stream(5, "channel"))
        s = draw_symbols(qpsk, 4, rng_stream(5, "symbols"))
        bad_H = H.copy()
        bad_H[2, 1] = np.nan
        cases = ((bad_H, s, 0.1, "H"), (H, s * np.inf, 0.1, "s"), (H, s, np.nan, "noise_var"))
        for H_in, s_in, noise_var, name in cases:
            with pytest.raises(DomainError, match=f"^{name} "):
                transmit(H_in, s_in, 1.0, noise_var, rng_stream(5, "noise"))

    def test_stacked_variances_match_single_calls(self, qpsk):
        H = generate_channel(8, 6, rng_stream(7, "channel"))
        s = draw_symbols(qpsk, 6, rng_stream(7, "symbols"))
        noise_vars = [0.5, 0.1, 0.0, 1e-3]
        inst = transmit(H, s, 1.3, np.array(noise_vars), rng_stream(7, "noise", 4))
        assert inst.y.shape == inst.v.shape == (4, 8)
        for b, noise_var in enumerate(noise_vars):
            alone = transmit(H, s, 1.3, noise_var, rng_stream(7, "noise", 4))
            np.testing.assert_array_equal(inst.y[b], alone.y)
            np.testing.assert_array_equal(inst.v[b], alone.v)
        np.testing.assert_array_equal(inst.noise_var, noise_vars)
        assert inst.power == 1.3
        assert np.abs(inst.y - (np.sqrt(inst.power) * inst.H @ inst.s + inst.v)).max() < 1e-12

    @pytest.mark.parametrize(
        "noise_var, error, match",
        [
            (np.full((2, 2), 0.1), DimensionError, "noise_var"),
            (np.array([0.1, -0.2]), ConfigurationError, "noise_var"),
            (-0.2, ConfigurationError, "noise_var"),
            (np.array([0.1, np.inf]), DomainError, "^noise_var "),
            (np.array([np.nan, 0.1]), DomainError, "^noise_var "),
        ],
    )
    def test_bad_noise_var_rejected(self, qpsk, noise_var, error, match):
        H = generate_channel(8, 4, rng_stream(8, "channel"))
        s = draw_symbols(qpsk, 4, rng_stream(8, "symbols"))
        with pytest.raises(error, match=match):
            transmit(H, s, 1.0, noise_var, rng_stream(8, "noise"))

    def test_deterministic(self, qpsk):
        H = generate_channel(8, 8, rng_stream(6, "channel"))
        s = draw_symbols(qpsk, 8, rng_stream(6, "symbols"))
        a = transmit(H, s, 1.0, 0.1, rng_stream(6, "noise", 9))
        b = transmit(H, s, 1.0, 0.1, rng_stream(6, "noise", 9))
        np.testing.assert_array_equal(a.y, b.y)


class TestSymbolUniformity:
    @pytest.mark.parametrize("kind,df,crit", [("BPSK", 1, CHI2_CRIT_DF1), ("QPSK", 3, CHI2_CRIT_DF3)])
    def test_chi_square_gof_per_position(self, kind, df, crit):
        c = make_constellation(kind)
        n_positions, n_draws = 4, 100_000
        flat = draw_symbols(c, n_positions * n_draws, rng_stream(10, "symbols"))
        table = flat.reshape(n_draws, n_positions)
        m = len(c.points)
        expected = n_draws / m
        for pos in range(n_positions):
            counts = np.array([np.sum(table[:, pos] == p) for p in c.points])
            stat = np.sum((counts - expected) ** 2 / expected)
            assert stat < crit, f"position {pos}: chi2={stat:.2f} exceeds {crit}"
