"""The K-best layer loop against a plainly written reference search."""

import numpy as np
import pytest

from psed import db_to_linear, draw_symbols, make_constellation, rng_stream, transmit
from psed.baselines import _kbest_search
from tests.conftest import seeded_channel


def reference_kbest(y, H, power, constellation, m):
    """K-best with explicit parent and point index arrays per layer.

    Children are enumerated parent by parent, point by point; the m best
    survive, ties toward the earlier child.
    """
    Q, R = np.linalg.qr(np.sqrt(power) * H)
    z = Q.conj().T @ y
    points = constellation.points
    n_points = len(points)
    n_t = H.shape[1]
    symbols = np.zeros((1, n_t), dtype=np.complex128)
    metrics = np.zeros(1)
    for i in range(n_t - 1, -1, -1):
        tail = symbols[:, i + 1 :] @ R[i, i + 1 :]
        resid = z[i] - tail[:, None] - R[i, i] * points[None, :]
        new_metrics = (metrics[:, None] + np.abs(resid) ** 2).ravel()
        parent = np.repeat(np.arange(symbols.shape[0]), n_points)
        point_idx = np.tile(np.arange(n_points), symbols.shape[0])
        keep = np.lexsort((np.arange(new_metrics.shape[0]), new_metrics))[:m]
        symbols = symbols[parent[keep]]
        symbols[:, i] = points[point_idx[keep]]
        metrics = new_metrics[keep]
    best = int(np.lexsort((np.arange(metrics.shape[0]), metrics))[0])
    return symbols[best].copy(), float(metrics[best])


def assert_same_search(constellation, n_r, n_t, m, seed, snr_db, power=1.0):
    H = seeded_channel(n_r, n_t, seed=seed)
    s = draw_symbols(constellation, n_t, rng_stream(seed, "symbols"))
    y = transmit(H, s, power, power / db_to_linear(snr_db), rng_stream(seed, "noise")).y
    got_symbols, got_metric = _kbest_search(y, H, power, constellation, m)
    want_symbols, want_metric = reference_kbest(y, H, power, constellation, m)
    np.testing.assert_array_equal(got_symbols, want_symbols)
    assert got_metric == want_metric


@pytest.mark.parametrize("seed", range(0, 240, 40))
def test_qpsk_32x32_m15_is_bitwise_equal(qpsk, seed):
    # 240 instances, 6-20 dB in 2 dB steps.
    for k in range(seed, seed + 40):
        assert_same_search(qpsk, 32, 32, 15, seed=7000 + k, snr_db=6.0 + 2 * (k % 8))


@pytest.mark.parametrize(
    "kind, n_r, n_t, m, power",
    [
        pytest.param("BPSK", 32, 32, 1, 1.0, id="bpsk-32-m1"),
        pytest.param("QPSK", 8, 4, 4**4, 1.0, id="qpsk-8x4-exhaustive"),
        pytest.param("BPSK", 10, 8, 2**8, 1.0, id="bpsk-10x8-exhaustive"),
        pytest.param("QPSK", 40, 32, 15, 1.0, id="qpsk-40x32-m15"),
        pytest.param("QPSK", 32, 32, 15, 2.0, id="qpsk-32-m15-P2"),
    ],
)
def test_other_shapes_are_bitwise_equal(kind, n_r, n_t, m, power):
    constellation = make_constellation(kind)
    for seed in range(20):
        assert_same_search(constellation, n_r, n_t, m, seed=7500 + seed, snr_db=6.0 + 2 * (seed % 8), power=power)


@pytest.mark.parametrize("m", [1, 3, 15, 256])
@pytest.mark.parametrize("target", ["zero", "midpoint"])
def test_exact_ties_keep_the_lowest_flat_indices(qpsk, m, target):
    # H = I. With y = 0 every child of every layer has the same metric; with
    # y halfway between points 0 and 1 those two tie in every stream and the
    # other points lose. Either way the survivors must be the tied children
    # enumerated first, so the winner is point 0 in every stream. At m = 256
    # (1,024 children per layer) an unstable sort reorders the midpoint ties.
    n = 6
    H = np.eye(n, dtype=np.complex128)
    y = np.full(n, 0.0 if target == "zero" else (qpsk.points[0] + qpsk.points[1]) / 2, dtype=np.complex128)
    symbols, metric = _kbest_search(y, H, 1.0, qpsk, m)
    np.testing.assert_array_equal(symbols, np.full(n, qpsk.points[0]))
    want_symbols, want_metric = reference_kbest(y, H, 1.0, qpsk, m)
    np.testing.assert_array_equal(symbols, want_symbols)
    assert metric == want_metric


def assert_stack_rows_equal_single_calls(ys, H, power, constellation, m):
    """Row b of one call on the stacked observations equals a call on ys[b] alone, bitwise."""
    symbols, metrics = _kbest_search(np.stack(ys), H, power, constellation, m)
    assert symbols.shape == (len(ys), H.shape[1])
    assert metrics.shape == (len(ys),)
    for b, y in enumerate(ys):
        want_symbols, want_metric = _kbest_search(y, H, power, constellation, m)
        np.testing.assert_array_equal(symbols[b], want_symbols)
        assert metrics[b] == want_metric


def observations(constellation, n_r, n_t, seed, snrs_db, power=1.0):
    """One channel and symbol vector, observed at each SNR on the same unit noise."""
    H = seeded_channel(n_r, n_t, seed=seed)
    s = draw_symbols(constellation, n_t, rng_stream(seed, "symbols"))
    ys = [transmit(H, s, power, power / db_to_linear(snr), rng_stream(seed, "noise")).y for snr in snrs_db]
    return ys, H


@pytest.mark.parametrize("stack", [1, 2, 4])
@pytest.mark.parametrize("seed", range(0, 240, 40))
def test_stacked_qpsk_32x32_m15_rows_equal_single_calls(qpsk, seed, stack):
    # The instances of test_qpsk_32x32_m15_is_bitwise_equal, each observed at
    # `stack` SNRs from the same 6-20 dB grid.
    for k in range(seed, seed + 40):
        snrs = [6.0 + 2 * ((k + b) % 8) for b in range(stack)]
        ys, H = observations(qpsk, 32, 32, 7000 + k, snrs)
        assert_stack_rows_equal_single_calls(ys, H, 1.0, qpsk, 15)


@pytest.mark.parametrize("stack", [1, 2, 4])
@pytest.mark.parametrize(
    "kind, n_r, n_t, m, power",
    [
        pytest.param("BPSK", 32, 32, 1, 1.0, id="bpsk-32-m1"),
        pytest.param("QPSK", 8, 4, 4**4, 1.0, id="qpsk-8x4-exhaustive"),
        pytest.param("BPSK", 10, 8, 2**8, 1.0, id="bpsk-10x8-exhaustive"),
        pytest.param("QPSK", 40, 32, 15, 1.0, id="qpsk-40x32-m15"),
        pytest.param("QPSK", 32, 32, 15, 2.0, id="qpsk-32-m15-P2"),
    ],
)
def test_stacked_other_shapes_rows_equal_single_calls(kind, n_r, n_t, m, power, stack):
    constellation = make_constellation(kind)
    for seed in range(20):
        snrs = [6.0 + 2 * ((seed + b) % 8) for b in range(stack)]
        ys, H = observations(constellation, n_r, n_t, 7500 + seed, snrs, power=power)
        assert_stack_rows_equal_single_calls(ys, H, power, constellation, m)


@pytest.mark.parametrize("stack", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 3, 15, 256])
def test_stacked_exact_ties_keep_the_lowest_flat_indices(qpsk, m, stack):
    # The tie cases of test_exact_ties_keep_the_lowest_flat_indices, zero and
    # midpoint observations alternating in one stack: each row's ties must
    # resolve as in a call of its own, to point 0 in every stream.
    n = 6
    H = np.eye(n, dtype=np.complex128)
    midpoint = (qpsk.points[0] + qpsk.points[1]) / 2
    ys = [np.full(n, midpoint if b % 2 else 0.0, dtype=np.complex128) for b in range(stack)]
    assert_stack_rows_equal_single_calls(ys, H, 1.0, qpsk, m)
    symbols, _ = _kbest_search(np.stack(ys), H, 1.0, qpsk, m)
    np.testing.assert_array_equal(symbols, np.full((stack, n), qpsk.points[0]))
