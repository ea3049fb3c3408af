"""The Gram-domain MMP kernel against a plainly written reference search."""

import numpy as np
import pytest

from psed import SingularMatrixError, lmmse_on_support, ls_on_support, mmp
from tests.conftest import complex_noise, random_sparse, seeded_channel

ERROR_VAR = 2.0
NOISE_VAR = 0.05


def reference_mmp(H, y, power, K, L, tol=None, max_paths=64, estimator="LS", error_var=None, noise_var=None):
    """Breadth-first MMP that re-solves every path from scratch.

    Returns (support in selection order, e_hat, paths explored, layers run).
    """
    A = np.sqrt(power) * H
    if tol is None:
        tol = 1e-9 * np.linalg.norm(y)

    def solve(indices):
        if estimator == "LS":
            e_hat = ls_on_support(H, y, power, indices)
        else:
            e_hat = lmmse_on_support(H, y, power, indices, error_var, noise_var)
        return e_hat, np.linalg.norm(y - A @ e_hat)

    paths = [((), np.linalg.norm(y))]
    explored = 0
    layers = 0
    for _ in range(K):
        if min(norm for _, norm in paths) <= tol:
            break
        seen = set()
        children = []
        for indices, _ in paths:
            e_hat, _ = solve(indices)
            corr = np.abs(A.conj().T @ (y - A @ e_hat)) ** 2
            free = [j for j in range(H.shape[1]) if j not in indices]
            for j in sorted(free, key=lambda j: (-corr[j], j))[:L]:
                key = frozenset(indices) | {j}
                if key in seen:
                    continue
                seen.add(key)
                children.append((indices + (j,), solve(indices + (j,))[1]))
                explored += 1
        if len(children) > max_paths:
            # sorted() is stable: equal residuals keep creation order
            children = sorted(children, key=lambda child: child[1])[:max_paths]
        paths = children
        layers += 1
    best = min(paths, key=lambda path: path[1])[0]
    return best, solve(best)[0], explored, layers


def assert_same_search(H, y, K, **kwargs):
    got = mmp(H, y, 1.0, K=K, **kwargs)
    support, e_hat, explored, layers = reference_mmp(H, y, 1.0, K, **kwargs)
    assert got.support.indices == support
    assert got.paths_explored == explored
    assert len(got.support) == layers
    np.testing.assert_allclose(got.e_hat, e_hat, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "n_r, n_t, K, seeds",
    [
        pytest.param(16, 16, 3, 200, id="16-3"),
        pytest.param(32, 32, 4, 200, id="32-4"),
        pytest.param(64, 64, 9, 60, id="64-9"),
        pytest.param(64, 32, 4, 60, id="64x32-4"),
        pytest.param(32, 48, 7, 60, id="32x48-7"),
        pytest.param(128, 128, 19, 6, id="128-19"),
    ],
)
def test_matches_reference_on_noisy_instances(n_r, n_t, K, seeds):
    # Seeds cycle through L in {2, 3}, both estimators and a max_paths = 4 cut.
    for seed in range(seeds):
        H = seeded_channel(n_r, n_t, seed=5000 + seed)
        y = H @ random_sparse(n_t, K, seed=5000 + seed) + complex_noise(n_r, seed=5000 + seed, scale=0.2)
        assert_same_search(
            H,
            y,
            K,
            L=2 + seed % 2,
            tol=0.0,
            max_paths=4 if seed % 5 == 0 else 64,
            estimator="LS" if seed // 2 % 2 == 0 else "LMMSE",
            error_var=ERROR_VAR,
            noise_var=NOISE_VAR,
        )


@pytest.mark.parametrize("n, K", [(16, 3), (32, 4)])
def test_matches_reference_on_noiseless_early_stop(n, K):
    for seed in range(10):
        H = seeded_channel(n, n, seed=6000 + seed)
        y = H @ random_sparse(n, 2, seed=6000 + seed)
        assert_same_search(H, y, K, L=2)
        assert len(mmp(H, y, 1.0, K=K, L=2).support) == 2


@pytest.mark.parametrize("f", [0.8, 1.0])
@pytest.mark.parametrize(
    "n, K, seeds",
    [
        pytest.param(32, 4, 40, id="32-4"),
        pytest.param(64, 9, 24, id="64-9"),
        pytest.param(128, 19, 8, id="128-19"),
    ],
)
def test_matches_reference_on_noise_level_early_stop(n, K, seeds, f):
    # tol = f sqrt(n_r sigma^2), the residual norm expected once the true
    # support is found, stops many searches before K layers; the near-tol
    # scores then come from each path's own residual.
    scale = 0.2
    tol = f * np.sqrt(n * 2 * scale**2)
    stopped = 0
    for seed in range(seeds):
        H = seeded_channel(n, n, seed=7000 + seed)
        e = random_sparse(n, K // 2 + seed % 3, seed=7000 + seed)
        y = H @ e + complex_noise(n, seed=7000 + seed, scale=scale)
        estimator = "LS" if seed % 2 == 0 else "LMMSE"
        kwargs = dict(L=2, tol=tol, estimator=estimator, error_var=ERROR_VAR, noise_var=NOISE_VAR)
        assert_same_search(H, y, K, **kwargs)
        stopped += len(mmp(H, y, 1.0, K=K, **kwargs).support) < K
    assert stopped > 0


@pytest.mark.parametrize("estimator", ["LS", "LMMSE"])
class TestLayerEdges:
    """The first layer, on the empty support, the last one, after which R^-1 is not
    grown, and layers that fill or outgrow the per-call factor workspaces."""

    @staticmethod
    def search(estimator, **kwargs):
        return dict(estimator=estimator, error_var=ERROR_VAR, noise_var=NOISE_VAR, **kwargs)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_single_layer_is_first_and_last(self, estimator, L):
        for seed in range(10):
            H = seeded_channel(16, 16, seed=8000 + seed)
            y = H @ random_sparse(16, 2, seed=8000 + seed) + complex_noise(16, seed=8000 + seed, scale=0.2)
            assert_same_search(H, y, 1, **self.search(estimator, L=L, tol=0.0))
            assert len(mmp(H, y, 1.0, K=1, **self.search(estimator, L=L)).support) == 1

    def test_zero_observation_stops_before_first_layer(self, estimator):
        H = seeded_channel(16, 16, seed=8100)
        y = np.zeros(16, dtype=np.complex128)
        assert_same_search(H, y, 3, **self.search(estimator, L=2))
        got = mmp(H, y, 1.0, K=3, **self.search(estimator, L=2))
        assert (got.support.indices, len(got.support), got.paths_explored) == ((), 0, 0)
        assert not got.e_hat.any() and got.residual_norm == 0.0

    def test_tol_fires_after_first_layer(self, estimator):
        for seed in range(10):
            H = seeded_channel(16, 16, seed=8200 + seed)
            y = 3.0 * H[:, seed] + complex_noise(16, seed=8200 + seed, scale=0.01)
            kwargs = self.search(estimator, L=2, tol=0.5 * np.linalg.norm(y))
            assert_same_search(H, y, 4, **kwargs)
            assert len(mmp(H, y, 1.0, K=4, **kwargs).support) == 1

    def test_full_support_clamps_candidate_width(self, estimator):
        # K = n_t: the last layers have fewer free columns than L.
        for seed in range(10):
            H = seeded_channel(6, 5, seed=8300 + seed)
            y = H @ random_sparse(5, 3, seed=8300 + seed) + complex_noise(6, seed=8300 + seed, scale=0.2)
            assert_same_search(H, y, 5, **self.search(estimator, L=3, tol=0.0))
            got = mmp(H, y, 1.0, K=5, **self.search(estimator, L=3, tol=0.0))
            assert len(got.support) == 5 and sorted(got.support.indices) == list(range(5))

    def test_zero_column_is_singular_on_first_layer(self, estimator):
        # L = n_t makes every column a first-layer candidate; with rho below the
        # rank floor the regularised Gram of a zero column is singular too. The
        # LS reference raises on the same support; the LMMSE one, regularised,
        # solves it and so is no oracle here.
        H = seeded_channel(8, 8, seed=8400)
        H[:, 5] = 0.0
        y = H @ random_sparse(8, 2, seed=8400) + complex_noise(8, seed=8400, scale=0.2)
        search = dict(estimator=estimator, error_var=ERROR_VAR, noise_var=1e-12)
        message = r"^rank-deficient submatrix on support \[5\]$"
        with pytest.raises(SingularMatrixError, match=message):
            mmp(H, y, 1.0, K=3, L=8, **search)
        if estimator == "LS":
            with pytest.raises(SingularMatrixError, match=message):
                reference_mmp(H, y, 1.0, 3, 8, **search)

    def test_one_path_per_layer(self, estimator):
        # max_paths = 1: each workspace has one slot, and every layer reuses it.
        for seed in range(10):
            H = seeded_channel(16, 16, seed=8500 + seed)
            y = H @ random_sparse(16, 3, seed=8500 + seed) + complex_noise(16, seed=8500 + seed, scale=0.2)
            assert_same_search(H, y, 5, **self.search(estimator, L=3, tol=0.0, max_paths=1))

    def test_cut_at_the_full_tree_width(self, estimator):
        # max_paths = L^(K-1) is a width no layer before the K-th can exceed,
        # so the cut can fire only there; a search whose second layer keeps
        # all L^2 children fills every slot the third layer gathers into.
        K, L = 3, 3
        filled = 0
        for seed in range(30):
            H = seeded_channel(16, 16, seed=8600 + seed)
            y = H @ random_sparse(16, 3, seed=8600 + seed) + complex_noise(16, seed=8600 + seed, scale=0.2)
            search = self.search(estimator, L=L, tol=0.0, max_paths=L ** (K - 1))
            assert_same_search(H, y, K, **search)
            filled += mmp(H, y, 1.0, K=2, **search).paths_explored == L + L**2
        assert filled > 0

    def test_layers_outgrow_the_workspaces(self, estimator):
        # Layers keep up to 380-670 paths, so the workspaces, which start with 64
        # rows, are regrown several times mid-search.
        for seed in range(3):
            H = seeded_channel(24, 24, seed=8700 + seed)
            y = H @ random_sparse(24, 3, seed=8700 + seed) + complex_noise(24, seed=8700 + seed, scale=0.2)
            assert_same_search(H, y, 9, **self.search(estimator, L=3, tol=0.0, max_paths=2000))
