"""Tests for the exhaustive ML and K-best reference detectors."""

import dataclasses
import itertools

import numpy as np
import pytest

from psed import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    DomainError,
    PsedConfig,
    draw_symbols,
    kbest_detect,
    ml_detect,
    make_constellation,
    psed_detect,
    rng_stream,
    transmit,
)
from psed.baselines import _kbest_search, ml_cost, ml_max_dim
from tests.conftest import seeded_channel


class TestMlDetect:
    def test_alphabet_with_other_points_gets_its_own_candidates(self, qpsk):
        H = seeded_channel(6, 3, seed=21)
        s = qpsk.points[[0, 3, 1]]
        ml_detect(H @ s, H, 1.0, qpsk)  # fills the cache for four points and n_t = 3
        rotated = dataclasses.replace(qpsk, points=qpsk.points * np.exp(0.25j * np.pi))
        s_rot = rotated.points[[2, 0, 1]]
        np.testing.assert_array_equal(ml_detect(H @ s_rot, H, 1.0, rotated), s_rot)
        np.testing.assert_array_equal(ml_detect(H @ s, H, 1.0, qpsk), s)

    def test_noiseless_recovers_transmitted(self, qpsk):
        H = seeded_channel(8, 6, seed=1)
        s = draw_symbols(qpsk, 6, rng_stream(1, "symbols"))
        y = np.sqrt(1.3) * (H @ s)
        np.testing.assert_array_equal(ml_detect(y, H, 1.3, qpsk), s)

    def test_matches_explicit_enumeration(self, bpsk):
        H = seeded_channel(3, 2, seed=2)
        s = draw_symbols(bpsk, 2, rng_stream(2, "symbols"))
        inst = transmit(H, s, 1.0, 0.5, rng_stream(2, "noise"))
        got = ml_detect(inst.y, H, 1.0, bpsk)
        candidates = [np.array(c) for c in itertools.product(bpsk.points, repeat=2)]
        best = min(candidates, key=lambda c: ml_cost(inst.y, H, 1.0, c))
        np.testing.assert_array_equal(got, best)

    def test_global_cost_dominance_over_pipeline(self, qpsk):
        H = seeded_channel(8, 8, seed=3)
        s = draw_symbols(qpsk, 8, rng_stream(3, "symbols"))
        inst = transmit(H, s, 1.0, 0.2, rng_stream(3, "noise"))
        ml = ml_detect(inst.y, H, 1.0, qpsk)
        out = psed_detect(inst.y, H, 1.0, 0.2, qpsk, PsedConfig(tol=0.0, sparsity=2))
        assert ml_cost(inst.y, H, 1.0, ml) <= ml_cost(inst.y, H, 1.0, out.s_final.values) + 1e-12

    @pytest.mark.parametrize("kind", ["BPSK", "QPSK"])
    def test_dimension_cap(self, kind):
        # the cap is ml_max_dim(kind): searched at the cap, refused one stream above it
        constellation = make_constellation(kind)
        cap = ml_max_dim(kind)
        H = seeded_channel(cap + 2, cap + 1, seed=5)
        s = draw_symbols(constellation, cap, rng_stream(5, "symbols"))
        np.testing.assert_array_equal(ml_detect(H[:, :cap] @ s, H[:, :cap], 1.0, constellation), s)
        with pytest.raises(CapacityError, match=rf"n_t={cap + 1} exceeds its cap of {cap} "):
            ml_detect(np.zeros(cap + 2, dtype=np.complex128), H, 1.0, constellation)


def non_finite_inputs():
    """(y, H, name of the bad argument): an all-NaN y, and an H holding an inf."""
    H = seeded_channel(6, 4, seed=15)
    y = np.full(6, np.nan, dtype=np.complex128)
    yield pytest.param(y, H, "y", id="nan-y")
    H_inf = H.copy()
    H_inf[2, 1] = np.inf
    yield pytest.param(np.ones(6, dtype=np.complex128), H_inf, "H", id="inf-H")


@pytest.mark.parametrize("y, H, name", non_finite_inputs())
@pytest.mark.parametrize("detector", ["ML", "KBEST"])
def test_non_finite_input_rejected(qpsk, detector, y, H, name):
    with pytest.raises(DomainError, match=f"^{name} "):
        if detector == "ML":
            ml_detect(y, H, 1.0, qpsk)
        else:
            kbest_detect(y, H, 1.0, qpsk, m=4)


def misfit_observations():
    """y arrays that are neither one observation (6,) of a 6x4 H nor a stack (B, 6) of them."""
    yield pytest.param(np.ones(1, dtype=np.complex128), id="length-1")
    yield pytest.param(np.ones(5, dtype=np.complex128), id="short")
    yield pytest.param(np.ones(7, dtype=np.complex128), id="long")
    yield pytest.param(np.ones((6, 1), dtype=np.complex128), id="column")
    yield pytest.param(np.ones((2, 7), dtype=np.complex128), id="stack-of-long")
    yield pytest.param(np.ones((1, 1, 6), dtype=np.complex128), id="three-d")
    yield pytest.param(np.complex128(1.0), id="scalar")


@pytest.mark.parametrize("y", misfit_observations())
@pytest.mark.parametrize("detector", ["ML", "KBEST"])
def test_observation_that_does_not_fit_H_rejected(qpsk, detector, y):
    H = seeded_channel(6, 4, seed=16)
    with pytest.raises(DimensionError):
        if detector == "ML":
            ml_detect(y, H, 1.0, qpsk)
        else:
            kbest_detect(y, H, 1.0, qpsk, m=4)


def bad_channel_stacks():
    """(y, H, error, start of its message) for a stack of three 6x4 channels, two observations each."""
    H = np.stack([seeded_channel(6, 4, seed=30 + t) for t in range(3)])
    y = np.ones((3, 2, 6), dtype=np.complex128)
    H_nan = H.copy()
    H_nan[1, 2, 1] = np.nan
    yield pytest.param(y, H_nan, DomainError, "H must be finite", id="nan-channel")
    y_inf = y.copy()
    y_inf[2, 1, 3] = np.inf
    yield pytest.param(y_inf, H, DomainError, "y must be finite", id="inf-observation")
    yield pytest.param(y[:, :, :5], H, DimensionError, r"y of shape \(2, 5\) does not fit H", id="short-observations")
    yield pytest.param(y[:2], H, DimensionError, r"y of shape \(2, 2, 6\) does not fit a stack", id="fewer-stacks")
    yield pytest.param(y[:, 0], H, DimensionError, r"y of shape \(3, 6\) does not fit a stack", id="two-d-y")
    yield pytest.param(y[:0], H[:0], DimensionError, "y of shape", id="no-channels")
    H_wide = np.stack([seeded_channel(4, 6, seed=33)] * 3)
    yield pytest.param(y[:, :, :4], H_wide, ConfigurationError, "K-best needs n_r >= n_t", id="wide")


@pytest.mark.parametrize("y, H, error, message", bad_channel_stacks())
def test_kbest_refuses_a_bad_channel_stack(qpsk, y, H, error, message):
    # Each channel of a stack goes through the checks of a call of its own.
    with pytest.raises(error, match=f"^{message}"):
        kbest_detect(y, H, 1.0, qpsk, m=4)


@pytest.mark.parametrize("stack", [1, 2, 4])
@pytest.mark.parametrize(
    "kind, n_r, n_t",
    [pytest.param("BPSK", 12, 12, id="bpsk-12x12"), pytest.param("QPSK", 10, 6, id="qpsk-10x6")],
)
def test_ml_stack_rows_equal_single_calls(kind, n_r, n_t, stack):
    # Row b of one call on a stack of observations of the same H equals a call on row b alone.
    constellation = make_constellation(kind)
    for seed in range(6):
        H = seeded_channel(n_r, n_t, seed=900 + seed)
        s = draw_symbols(constellation, n_t, rng_stream(900 + seed, "symbols"))
        ys = np.stack([
            transmit(H, s, 1.0, 10 ** (-(2.0 + 3 * b) / 10), rng_stream(900 + seed, "noise")).y
            for b in range(stack)
        ])
        got = ml_detect(ys, H, 1.0, constellation)
        assert got.shape == (stack, n_t)
        for b in range(stack):
            np.testing.assert_array_equal(got[b], ml_detect(ys[b], H, 1.0, constellation))


class TestKBest:
    def test_exhaustive_survivors_match_ml(self, qpsk):
        for seed in (5, 6, 7):
            H = seeded_channel(5, 3, seed=seed)
            s = draw_symbols(qpsk, 3, rng_stream(seed, "symbols"))
            inst = transmit(H, s, 1.0, 0.3, rng_stream(seed, "noise"))
            ml = ml_detect(inst.y, H, 1.0, qpsk)
            kb = kbest_detect(inst.y, H, 1.0, qpsk, m=len(qpsk.points) ** 3)
            np.testing.assert_array_equal(kb, ml)
            assert ml_cost(inst.y, H, 1.0, kb) == ml_cost(inst.y, H, 1.0, ml)

    def test_metric_bookkeeping_identity(self, qpsk):
        H = seeded_channel(10, 6, seed=8)
        s = draw_symbols(qpsk, 6, rng_stream(8, "symbols"))
        inst = transmit(H, s, 2.0, 0.2, rng_stream(8, "noise"))
        symbols, metric = _kbest_search(inst.y, H, 2.0, qpsk, m=9)
        Q, R = np.linalg.qr(np.sqrt(2.0) * H)
        recomputed = np.linalg.norm(Q.conj().T @ inst.y - R @ symbols) ** 2
        assert abs(metric - recomputed) < 1e-9

    def test_m1_equals_successive_decision(self, qpsk):
        # oracle: layer-by-layer hard decision on the triangularized system
        for seed in (9, 10, 11):
            H = seeded_channel(8, 5, seed=seed)
            s = draw_symbols(qpsk, 5, rng_stream(seed, "symbols"))
            inst = transmit(H, s, 1.0, 0.3, rng_stream(seed, "noise"))
            got = kbest_detect(inst.y, H, 1.0, qpsk, m=1)

            Q, R = np.linalg.qr(H)
            z = Q.conj().T @ inst.y
            decided = np.zeros(5, dtype=np.complex128)
            for i in range(4, -1, -1):
                budget = z[i] - R[i, i + 1 :] @ decided[i + 1 :]
                costs = np.abs(budget - R[i, i] * qpsk.points) ** 2
                decided[i] = qpsk.points[int(np.argmin(costs))]
            np.testing.assert_array_equal(got, decided)

    def test_cost_non_increasing_in_m(self, qpsk):
        H = seeded_channel(10, 6, seed=12)
        s = draw_symbols(qpsk, 6, rng_stream(12, "symbols"))
        inst = transmit(H, s, 1.0, 0.4, rng_stream(12, "noise"))
        costs = [
            ml_cost(inst.y, H, 1.0, kbest_detect(inst.y, H, 1.0, qpsk, m=m))
            for m in (1, 2, 4, 8, 16, 32, 64)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:])), costs

    def test_wide_system_rejected(self, qpsk):
        H = seeded_channel(4, 6, seed=13)
        with pytest.raises(ConfigurationError):
            kbest_detect(np.zeros(4, dtype=np.complex128), H, 1.0, qpsk, m=4)

    def test_bad_survivor_count_rejected(self, qpsk):
        H = seeded_channel(4, 3, seed=14)
        with pytest.raises(ConfigurationError):
            kbest_detect(np.zeros(4, dtype=np.complex128), H, 1.0, qpsk, m=0)
