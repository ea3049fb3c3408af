"""Greedy sparse recovery of the detection-error vector.

Implements the multipath matching pursuit tree search (Kwon, Wang &
Shim, IEEE TIT 2014) that keeps L child support candidates per surviving
path, deduplicates candidates that coincide as sets, prunes each layer to
`max_paths` survivors, and returns the least-squares (or regularized)
solution on the minimum-residual path. Orthogonal matching pursuit is
the L = 1 case.

Recovery operates on the scaled matrix A = sqrt(P) H so the pursuit
pseudocode applies verbatim; an estimate x with A_S x = y' is also the
estimate of e in y' = sqrt(P) H e. The search runs on the Gram matrix
A^H A, as in Batch-OMP (Rubinstein, Zibulevsky & Elad, 2008): a path
carries its support, its estimate on that support and the inverse
Cholesky factor of its Gram block, never an n_r- or n_t-long vector.
The factors are held conjugated, as conj(R^-1), in two workspaces that
one call allocates and swaps layer by layer, so a layer copies its
survivors' factors instead of allocating new ones; the workspaces grow,
by doubling, only with the number of paths a layer keeps.
Each layer does only the work its result needs: the first, on the empty
support, runs no products, and a survivor's factor grows by its bordered
column only once the stop test lets another layer run.
The winning path's own estimate is the result: e_hat scatters it onto
the support, and residual_norm is ||y' - A_S x|| formed from H once.
`ls_on_support` and `lmmse_on_support` solve one support from H directly;
they are references for the search, which never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _COND_LIMIT, ConfigurationError, DimensionError, DomainError, SingularMatrixError
from .errors import require_count, require_finite, require_gram, require_real, require_system

LS = "LS"
LMMSE = "LMMSE"

# A column is dependent on a path's support when ||P_perp a_j||^2 is at most
# _RANK_TOL * max(||a_j||^2, 1), with a_j augmented as in `mmp`. The Gram-domain
# projection energy resolves ||P_perp a_j|| only to about sqrt(eps), so a
# tighter bound would test rounding noise.
_RANK_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
DEFAULT_MAX_PATHS = 64


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Ordered index set with order-insensitive equality.

    Indices are 0-based column indices into H, given as any iterable and
    held as a tuple. Selection order is preserved for inspection, but two
    supports compare equal whenever they contain the same indices.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        indices = tuple(require_count("indices", i, low=0) for i in self.indices)
        if len(set(indices)) != len(indices):
            raise ConfigurationError(f"support contains duplicate indices: {indices}")
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other) -> bool:
        if isinstance(other, SupportSet):
            return set(self.indices) == set(other.indices)
        if isinstance(other, (set, frozenset, tuple, list)):
            return set(self.indices) == set(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.indices))


@dataclass(frozen=True)
class RecoveryResult:
    """Sparse recovery output with its defining bookkeeping.

    e_hat is a full-length vector, zero off the support; residual_norm is
    the l2 norm of y' - sqrt(P) H_S e_hat_S; paths_explored counts every
    candidate path that received an estimate during the search. Each
    search layer adds one index, so len(support) is the number of layers run.
    """

    support: SupportSet
    e_hat: np.ndarray = field(repr=False)
    residual_norm: float
    paths_explored: int


def _columns(support, n_t: int) -> list[int]:
    """The indices of `support`, each an integer in [0, n_t - 1], with no repeats."""
    return list(SupportSet(require_count("support", i, 0, n_t - 1) for i in support).indices)


def ls_on_support(H: np.ndarray, y_prime: np.ndarray, power: float, support) -> np.ndarray:
    """Least-squares estimate restricted to the given support.

    Returns (1/sqrt(P)) (H_S^H H_S)^-1 H_S^H y', scattered back onto a
    full-length vector. Solved by a rank-revealing factorization; the
    matching-pursuit callers keep their own incremental factorizations.
    """
    H, y_prime, _ = require_system(H, y_prime, power=power)
    idx = _columns(support, H.shape[1])
    e_hat = np.zeros(H.shape[1], dtype=np.complex128)
    if not idx:
        return e_hat
    if len(idx) > H.shape[0]:
        raise ConfigurationError(f"support size {len(idx)} exceeds {H.shape[0]} measurements")
    A_s = np.sqrt(power) * H[:, idx]
    coef, _, _, sv = np.linalg.lstsq(A_s, y_prime, rcond=None)
    # cond(A_s) from the singular values lstsq computed; an all-zero A_s has sv[0] = sv[-1] = 0
    if sv[-1] == 0.0 or sv[0] > _COND_LIMIT * sv[-1]:
        raise SingularMatrixError(f"rank-deficient submatrix on support {idx}")
    e_hat[idx] = coef
    return e_hat


def lmmse_on_support(
    H: np.ndarray,
    y_prime: np.ndarray,
    power: float,
    support,
    error_var: float,
    noise_var: float,
) -> np.ndarray:
    """Regularized (LMMSE) estimate restricted to the given support.

    Returns (1/sqrt(P)) (H_S^H H_S + (noise_var / (P error_var)) I)^-1 H_S^H y'.
    """
    require_real("error_var", error_var, "(0, inf)", ConfigurationError)
    H, y_prime, _ = require_system(H, y_prime, power=power, noise_var=noise_var)
    idx = _columns(support, H.shape[1])
    e_hat = np.zeros(H.shape[1], dtype=np.complex128)
    if not idx:
        return e_hat
    H_s = H[:, idx]
    gram = H_s.conj().T @ H_s + (noise_var / (power * error_var)) * np.eye(len(idx))
    coef = np.linalg.solve(gram, H_s.conj().T @ y_prime) / np.sqrt(power)
    e_hat[idx] = coef
    return e_hat


def _check_search(estimator: str, tol: float | None) -> None:
    """Raise ConfigurationError on an estimator or tolerance `mmp` cannot run with."""
    if estimator not in (LS, LMMSE):
        raise ConfigurationError(f"unknown estimator {estimator!r}; expected LS or LMMSE")
    if tol is not None:
        require_real("tol", tol, "[0, inf]", ConfigurationError)


def _residuals(H: np.ndarray, y_prime: np.ndarray, power: float, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||y' - sqrt(P) H_S x|| of each path, one row of (idx, x) per path."""
    fit = np.matmul(x[:, None, :], H.T[idx])[:, 0]
    return np.linalg.norm(y_prime - np.sqrt(power) * fit, axis=1)


def _room(workspace: np.ndarray, rows: int) -> np.ndarray:
    """`workspace` if it has `rows` rows, else an empty one with max(rows, twice its rows)."""
    if len(workspace) >= rows:
        return workspace
    return np.empty((max(rows, 2 * len(workspace)), *workspace.shape[1:]), dtype=workspace.dtype)


def omp(H: np.ndarray, y_prime: np.ndarray, power: float, K: int, tol: float | None = None) -> RecoveryResult:
    """Orthogonal matching pursuit for at most K iterations.

    Each iteration appends the not-yet-selected column most correlated
    with the residual, updates the least-squares estimate on the
    accumulated support, and stops early once the residual norm drops to
    `tol` (default 1e-9 times the norm of y'). This is `mmp` with L = 1,
    so e_hat and residual_norm come from the search's own estimate.
    """
    return mmp(H, y_prime, power, K, L=1, tol=tol)


def mmp(
    H: np.ndarray,
    y_prime: np.ndarray,
    power: float,
    K: int,
    L: int,
    tol: float | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
    estimator: str = LS,
    error_var: float | None = None,
    noise_var: float | None = None,
    *,
    gram: np.ndarray | None = None,
) -> RecoveryResult:
    """Multipath matching pursuit: breadth-first search over support candidates.

    Every surviving path spawns up to L children from the columns most
    correlated with its residual (ties toward the lower index); children
    that coincide (as sets) with a path already created in the layer are
    dropped. When a layer exceeds `max_paths` candidates only the
    smallest-residual paths survive, ties toward the earlier child. After
    K layers, or once a residual norm drops to `tol`, the minimum-residual
    path wins. Its own estimate, kept along the search, is e_hat, and
    residual_norm is ||y' - sqrt(P) H_S e_hat_S|| formed directly from H.
    With L = 1 the search is `omp`.

    The default estimator solves least squares per path; `estimator="LMMSE"`
    (requires `error_var` and `noise_var`) applies the regularized solve
    instead.

    The search runs on G = A^H A with A = sqrt(P) H, formed as P (H^H H)
    whether or not the caller passes H^H H as `gram`, which must be that of
    the same H. A misshaped or non-finite `gram` raises DimensionError or
    DomainError naming it, and an overflowing H^H H or P H^H H DomainError
    naming H. The regularized solve
    with rho = noise_var / error_var is least squares on the augmented
    system A~ = [A; sqrt(rho) I] against y' padded with zeros, so one
    kernel serves both estimators (rho = 0 for LS) and G~ = A~^H A~ = G + rho I.
    A path keeps only its support S, its estimate x on S, R^-1 (the inverse
    Cholesky factor of G~_SS) and its residual energy ||r~||^2; the
    correlations c = A~^H r~ = A^H y' - G~[:, S] x of a whole layer are one
    product with G~. A child (p, j) is scored in O(k^2) before it is built:
    with w = R^-H G~[S, j], d_j = G~_jj - ||w||^2 = ||P_perp a~_j||^2 and
    u = R^-1 w, its estimate is x' = [x - u c_j / d_j, c_j / d_j] and its
    residual energy ||r~||^2 - |c_j|^2 / d_j, minus rho ||x'||^2 to rank by
    ||y' - A x'||^2 as a direct regularized solve would. Survivors of the
    `max_paths` cut keep (d_j, u) and extend R^-1 by that bordered column at
    the start of the next layer, after its stop test passes, so no R^-1 is
    built after the K-th layer or before a `tol` stop. The first layer, on
    the empty support, runs no products: there c = c0, d_j = G~_jj and u is
    empty.

    Each R^-1 is stored as conj(R^-1) in a (K-1) x (K-1) slot of one of two
    workspaces allocated per call: a layer gathers its parents' slots into
    the other workspace, writes the bordered column there and runs its w
    and u products on views of it, so no layer allocates a factor; u is
    kept as conj(u), the form its bordered column takes. The layer's c goes
    to a third per-call workspace. All three start with min(max_paths, 64)
    rows and double when a layer keeps more paths, so a large `max_paths`
    costs memory only for the paths the layers keep.
    """
    H, y_prime, _ = require_system(H, y_prime, power=power, noise_var=noise_var)
    K = require_count("K", K, 1, H.shape[1])
    L = require_count("L", L)
    max_paths = require_count("max_paths", max_paths)
    _check_search(estimator, tol)
    rho = 0.0
    if estimator == LMMSE:
        if error_var is None or noise_var is None:
            raise ConfigurationError("estimator='LMMSE' requires error_var and noise_var")
        rho = noise_var / require_real("error_var", error_var, "(0, inf)", ConfigurationError)

    n_t = H.shape[1]
    if gram is None:
        gram = require_gram(H)
    elif np.shape(gram) != (n_t, n_t):
        raise DimensionError(f"gram of shape {np.shape(gram)} does not fit H of shape {H.shape}: expected (n_t, n_t)")
    else:
        require_finite(gram=gram)
    # The trace bounds every entry, as in require_gram; at P = 1 the checked Gram is the search Gram.
    if power != 1 and not math.isfinite(float(power) * float(np.asarray(gram).diagonal().real.sum())):
        raise DomainError("H is too large: the search Gram matrix P H^H H overflows")
    gram = power * np.asarray(gram)
    gram[np.diag_indices(n_t)] += rho
    gram_t = gram.T.copy()
    col_energy = gram.diagonal().real.copy()
    rank_floor = _RANK_TOL * np.maximum(col_energy, 1.0)
    c0 = np.sqrt(power) * (H.conj().T @ y_prime)
    y2 = float(np.vdot(y_prime, y_prime).real)
    tol2 = (1e-9 * float(np.linalg.norm(y_prime)) if tol is None else float(tol)) ** 2
    # The Gram-domain residual energy carries an absolute error of about
    # eps ||y'||^2; below this level the stop test and the final choice use
    # the residual ||y' - A_S x||^2 of the path's own x instead.
    exact_below = tol2 + 64 * _EPS * y2

    # One row per path of the current layer: support, estimate and ||r~||^2.
    # conj(R^-1) belongs to the paths' parents until the next layer borders it
    # with (d, conj(u)); it is the leading k x k block of the parent's slot in R_conj.
    # The workspaces start with rows for the default cut's paths because memory
    # first taken mid-search lands on fresh pages on every call.
    idx = np.zeros((1, 0), dtype=np.intp)
    x = np.zeros((1, 0), dtype=np.complex128)
    rows0 = min(max_paths, DEFAULT_MAX_PATHS)
    R_conj, spare = np.empty((2, rows0, K - 1, K - 1), dtype=np.complex128)
    corr = np.empty((rows0, n_t), dtype=np.complex128)
    r2 = np.array([y2])
    score = r2

    paths_explored = 0
    while True:
        low = score.min()
        if low <= exact_below:
            score = score.copy()  # it may share memory with r2
            near = np.flatnonzero(score <= exact_below)
            score[near] = _residuals(H, y_prime, power, idx[near], x[near]) ** 2
            low = score.min()
        S, k = idx.shape
        if k == K or low <= tol2:
            break
        rows = np.arange(S)
        on = (rows[:, None], idx)
        corr, spare = _room(corr, S), _room(spare, S)

        # Candidates: the top L off-support |c|, c = c0 - G~ x with x over the support columns.
        if k:
            used = np.zeros(n_t, dtype=bool)
            used[idx] = True
            cols = used.nonzero()[0]
            X = np.zeros((S, len(cols)), dtype=np.complex128)
            X[on[0], cols.searchsorted(idx)] = x
            c = np.matmul(X, gram_t[cols], out=corr[:S])
            np.subtract(c0, c, out=c)
        else:
            c = c0[None, :]  # the empty support: x is empty, so c = c0
        mag = np.abs(c)
        mag[on] = -np.inf
        width = min(L, n_t - k)
        cand = np.empty((S, width), dtype=np.intp)
        for col in range(width):
            cand[:, col] = top = mag.argmax(axis=1)
            mag[rows, top] = -np.inf
        if k:
            # Another layer runs, so grow each survivor's conj(R^-1) by its bordered
            # column. The new row is zero left of the diagonal, as the products
            # below read the whole k x k block.
            grown = np.take(R_conj, parent, axis=0, out=spare[:S], mode="clip")
            grown[:, k - 1, : k - 1] = 0.0
            grown[:, k - 1, k - 1] = inv_s = 1.0 / np.sqrt(d)
            grown[:, : k - 1, k - 1] = u_conj * -inv_s[:, None]
            R_conj, spare = spare, R_conj
            R_conj_k = grown[:, :k, :k]
            # One row per candidate: w = R^-H G~[S, j], d_j = G~_jj - ||w||^2 and
            # u = R^-1 w, kept as conj(u) = conj(w) conj(R^-1)^T, the form its
            # bordered column takes in conj(R^-1).
            w = np.matmul(gram[idx[:, None, :], cand[:, :, None]], R_conj_k)
            d = (col_energy[cand] - (np.abs(w) ** 2).sum(axis=2)).ravel()
            u_conj = np.matmul(w.conj(), R_conj_k.transpose(0, 2, 1)).reshape(S * width, k)
        else:
            d = col_energy[cand].ravel()  # the empty support: w and u are empty
            u_conj = np.zeros((width, 0), dtype=np.complex128)
        parent = rows.repeat(width)
        j = cand.ravel()
        if S > 1:
            # One bytes value per sorted child support; a stable sort puts the
            # first child of each set at the head of its run of equals.
            keys = np.sort(np.concatenate([idx[parent], j[:, None]], axis=1), axis=1)
            keys = keys.view(np.dtype((np.void, keys.itemsize * (k + 1)))).ravel()
            order = keys.argsort(kind="stable")
            run = keys[order]
            first = np.sort(order[np.concatenate([[True], run[1:] != run[:-1]])])
            parent, j, d, u_conj = parent[first], j[first], d[first], u_conj[first]
        paths_explored += len(j)

        # Score every child from its parent's state before building any.
        singular = d <= rank_floor[j]
        if singular.any():
            p = int(np.argmax(singular))
            support = sorted(int(i) for i in (*idx[parent[p]], j[p]))
            raise SingularMatrixError(f"rank-deficient submatrix on support {support}")
        cj = c[parent, j]
        r2_child = r2[parent] - np.abs(cj) ** 2 / d
        step = (cj / d)[:, None]
        x_child = np.concatenate([x[parent] - u_conj.conj() * step, step], axis=1)
        score = r2_child - rho * (np.abs(x_child) ** 2).sum(axis=1) if rho > 0 else r2_child
        if len(j) > max_paths:
            keep = score.argsort(kind="stable")[:max_paths]
            parent, j, d, u_conj, r2_child, x_child, score = (
                a[keep] for a in (parent, j, d, u_conj, r2_child, x_child, score)
            )

        # The survivors keep (parent, d, conj(u)): R^-1 grows only if another layer runs.
        idx = np.concatenate([idx[parent], j[:, None]], axis=1)
        x, r2 = x_child, r2_child

    best = int(np.argmin(score))
    e_hat = np.zeros(n_t, dtype=np.complex128)
    e_hat[idx[best]] = x[best]
    return RecoveryResult(
        support=SupportSet(idx[best].tolist()),
        e_hat=e_hat,
        residual_norm=float(_residuals(H, y_prime, power, idx[best : best + 1], x[best : best + 1])[0]),
        paths_explored=paths_explored,
    )
