"""Missing-value imputation for stacked daily observation vectors.

The main method is bounded low-rank matrix completion: alternate a rank-r
truncation of the current matrix (one P x P Gram matrix, one `eigh` and one
projection into reused buffers per iteration) with a box-constrained refill
of the missing cells through their flat index, where each variable's box is
the observed min/max of its column. Test-time rows are filled, all in one
batch, by the exact bounded projection onto the fitted daily basis: each
row's missing cells minimise its distance to the basis span within the
same boxes, by one minimum-norm solve per row (rows whose solution leaves
its box go on to a few rounds of a batched active-set method).
Column-mean and KNN imputers are provided as benchmarks. Imputers take
N x P day rows in which NaN, and only NaN, marks a missing cell:
`fit_transform(X)` fits on the training rows and returns their
completion, `transform(X)` fills new rows. An infinite entry is a
NumericalError. `fill_windows` passes the
day rows a `Windows` set reads through one fill, each row once, and
returns the set over the filled rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cohort import Windows
from .errors import EmptyColumnError, NumericalError
from .solver import EIG_CUT

BMC_TOL = 1e-6
BMC_MAX_ITER = 500
FILL_ROUNDS = 100


@dataclass
class BmcModel:
    """Fitted completion model: orthonormal daily basis plus per-variable
    bounds and training column means (used to seed test-time imputation)."""

    basis: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rank: int
    col_means: np.ndarray


def compute_bounds(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column min and max of the non-NaN entries; raises EmptyColumn for all-NaN columns."""
    X = np.asarray(X, dtype=float)
    _check_columns(X)
    return np.nanmin(X, axis=0), np.nanmax(X, axis=0)


def _check_columns(X):
    empty = np.flatnonzero(np.isnan(X).all(axis=0))
    if empty.size:
        raise EmptyColumnError(f"columns with no observed entries: {empty.tolist()}")


def _column_means(X):
    _check_columns(X)
    return np.nanmean(X, axis=0)


def _top_basis(A, r):
    """Top r right singular vectors of A, from the eigenvectors of its P x P Gram matrix A'A.

    This is far cheaper than an SVD of A when A has many more rows than columns.
    """
    return np.linalg.eigh(A.T @ A)[1][:, ::-1][:, :r]


def bmc_fit(
    X: np.ndarray,
    r: int,
    tol: float = BMC_TOL,
    max_iter: int = BMC_MAX_ITER,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
    trace_out: list | None = None,
) -> tuple[np.ndarray, BmcModel]:
    """Bounded rank-r completion of the NaN entries of X.

    Observed entries are never modified, and an infinite one is a
    NumericalError. The missing cells are found once, as a flat index with
    a [lower, upper] box per cell, and start at the clamped column means.
    Each iteration takes the top r eigenvectors V_r of the Gram matrix X'X,
    projects M = (X V_r) V_r' into a reused buffer, and refills the missing
    cells of X with their entries of M, clamped to their boxes. The fit
    objective ||X - M||_F^2 is non-increasing; iteration stops when its
    relative decrease drops below tol, or when it falls to tol^2 times the
    sum of squares of the observed entries (a residual norm of tol times
    theirs: the completion fits to the data's scale); stopping at max_iter
    instead emits a RuntimeWarning. The returned basis is the top r right
    singular vectors of the last M. `bounds` overrides the observed min/max
    boxes (used to study the unconstrained behaviour); `trace_out`, if
    given, collects the per-iteration objective values.
    """
    X = np.array(X, dtype=float)
    if r < 1 or r > min(X.shape):
        raise ValueError(f"rank {r} must lie in [1, min{X.shape}]")
    if np.isinf(X).any():
        raise NumericalError("observed entries contain non-finite values")
    if bounds is None:
        lower, upper = compute_bounds(X)
    else:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
    col_means = _column_means(X)

    N, P = X.shape
    floor = tol * tol * float(np.nansum(np.square(X)))
    missing = np.flatnonzero(np.isnan(X))  # flat index of the missing cells
    col = missing % P
    lo, hi = lower[col], upper[col]
    np.put(X, missing, np.clip(col_means[col], lo, hi))

    prev_obj = None
    M, XV, D = X.copy(), np.empty((N, r)), np.empty_like(X)  # M stays X if max_iter is 0
    for _ in range(max_iter):
        V_r = _top_basis(X, r)
        np.matmul(np.matmul(X, V_r, out=XV), V_r.T, out=M)
        np.put(X, missing, np.clip(np.take(M, missing), lo, hi))
        obj = float(np.square(np.subtract(X, M, out=D), out=D).sum())
        if trace_out is not None:
            trace_out.append(obj)
        if obj <= floor:
            break
        if prev_obj is not None:
            if prev_obj <= 0.0 or (prev_obj - obj) / prev_obj < tol:
                break
        prev_obj = obj
    else:
        warnings.warn(f"bmc_fit stopped at max_iter={max_iter} before reaching tol={tol:g}",
                      RuntimeWarning, stacklevel=2)

    basis = _top_basis(M, r)
    model = BmcModel(basis=basis, lower=lower, upper=upper, rank=r, col_means=col_means)
    return X, model


def impute_rows(Z: np.ndarray, model: BmcModel, trace_out: list | None = None) -> np.ndarray:
    """Fill the NaN entries of every row of Z with the bounded projection onto the basis.

    Each row's missing cells z_m minimise the row objective ||z - U U'z||^2,
    the squared distance to span(U), within their [lower, upper] boxes, the
    limit of alternating between span(U) and the box. Missing cells start at
    the clamped training column means z0, and a primal active-set method
    runs on all rows at once. Each round takes, for every row not yet
    settled, the minimum-norm step to the minimum over its free cells
    (`_free_steps`); the first cell the step would push out of its box
    stops it there and is fixed on its bound. A row whose step was not
    stopped frees the fixed cell whose multiplier has the wrong sign, or
    settles. So a row whose unbounded step stays inside its box settles
    after one round, at z0_m - A_mm^+ (A z0)_m with A = I - U U'. Rows that
    have not settled after FILL_ROUNDS rounds emit a RuntimeWarning.
    Observed entries are never modified, an infinite one is a
    NumericalError, and every imputed entry lies in its bounds.
    `trace_out`, if given, collects the summed objective of the rows with a
    missing cell at the start and after each round that moved a row; it is
    non-increasing.
    """
    Z = np.array(Z, dtype=float)
    if np.isinf(Z).any():
        raise NumericalError("observed entries contain non-finite values")
    U, lower, upper = model.basis, model.lower, model.upper
    missing = np.isnan(Z)
    Z[missing] = np.broadcast_to(np.clip(model.col_means, lower, upper), Z.shape)[missing]
    live = np.flatnonzero(missing.any(axis=1))
    if not live.size:
        return Z
    z, missing = Z[live], missing[live]
    A = np.eye(U.shape[0]) - U @ U.T
    lo, hi = np.broadcast_to(lower, z.shape), np.broadcast_to(upper, z.shape)

    def record():
        if trace_out is not None:
            trace_out.append(float(np.sum((z - (z @ U) @ U.T) ** 2)))

    record()
    free = missing.copy()  # missing cells not fixed on a bound
    rows = np.arange(live.size)  # rows not settled: each steps in the next round
    for _ in range(FILL_ROUNDS):
        zs, fs, ls, hs = z[rows], free[rows], lo[rows], hi[rows]
        p = _free_steps(A, zs, fs)
        # the longest step t <= 1 that keeps the free cells in their boxes; the cell that stops a
        # shorter one is fixed on its bound
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(fs & (p != 0.0), np.where(p > 0.0, hs - zs, ls - zs) / p, np.inf)
        n, j = np.arange(rows.size), np.argmin(ratio, axis=1)
        t = np.minimum(1.0, ratio[n, j])
        zs = np.where(fs, np.clip(zs + t[:, None] * p, ls, hs), zs)
        blocked = np.flatnonzero(t < 1.0)
        jb = j[blocked]
        zs[blocked, jb] = np.where(p[blocked, jb] > 0.0, hs[blocked, jb], ls[blocked, jb])
        fs[blocked, jb] = False
        # a row whose step was not stopped minimises over its free cells; a fixed cell that wants to
        # leave its bound inward (gradient < 0 on the lower, > 0 on the upper bound) by more than a
        # rounding margin is freed, the worst one first, and a row with none settles
        g = zs @ A
        movable = missing[rows] & ~fs & (ls < hs)
        worst = np.where(movable & (zs == ls), -g, 0.0) + np.where(movable & (zs == hs), g, 0.0)
        k = np.argmax(worst, axis=1)
        release = (t == 1.0) & (worst[n, k] > 1e-12 * np.linalg.norm(zs, axis=1))
        fs[release, k[release]] = True
        z[rows], free[rows] = zs, fs
        record()
        rows = rows[(t < 1.0) | release]
        if not rows.size:
            break
    else:
        warnings.warn(f"impute_rows: {rows.size} rows did not settle within {FILL_ROUNDS} rounds",
                      RuntimeWarning, stacklevel=2)
    Z[live] = z
    return Z


def _free_steps(A, z, free):
    """Per row, the minimum-norm step over its free cells to the minimum of z'A z (A = I - U U').

    That is -A_ff^+ (A z)_f, zero outside the free cells f, by `solver._solve`'s
    rule: one eigh of A restricted to each distinct free pattern, no
    component along eigenvalues at most EIG_CUT times the largest, and one
    refinement step.
    """
    packed = np.packbits(free, axis=1)  # one byte string per row names its pattern
    _, first, which = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True)
    patterns = free[first]
    mu, V = np.linalg.eigh(A * (patterns[:, :, None] & patterns[:, None, :]))
    inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > EIG_CUT * mu[:, -1:])
    pinv = ((V * inv[:, None, :]) @ V.transpose(0, 2, 1))[which]
    rhs = np.where(free, -(z @ A), 0.0)
    p = np.einsum("nij,nj->ni", pinv, rhs)
    p += np.einsum("nij,nj->ni", pinv, np.where(free, rhs - p @ A, 0.0))
    return np.where(free, p, 0.0)


def fill_windows(windows: Windows, fill) -> Windows:
    """The windows, reading `fill(X)`, where X holds the day rows they read, each once and in row order.

    `fill` returns the rows of X with their NaN cells filled: an imputer's
    `transform`, or its `fit_transform` on training rows. The returned
    windows read a compact array of the filled rows only. An empty set is
    returned as it is, and `fill` is not called.
    """
    if not len(windows):
        return windows
    distinct = np.unique(windows.rows)
    return replace(windows, days=fill(windows.days[distinct]), start=np.searchsorted(distinct, windows.start))


class BmcImputer:
    """Bounded matrix completion over training rows; basis projection for new rows."""

    def __init__(self, rank: int = 3):
        self.rank = rank
        self.model: BmcModel | None = None

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        completed, self.model = bmc_fit(X, self.rank)
        return completed

    def transform(self, X: np.ndarray) -> np.ndarray:
        return impute_rows(X, self.model)


class MeanImputer:
    """Column means of the training rows; `fit_transform` fills the training rows with `transform`."""

    def __init__(self):
        self.col_means: np.ndarray | None = None

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        self.col_means = _column_means(X)
        return self.transform(X)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return np.where(np.isnan(X), self.col_means, X)


class KnnImputer:
    """Each missing entry is the mean of its k nearest training rows that observe it.

    Distance is the root mean squared difference over mutually observed
    columns; rows sharing no observed column are skipped, and the column
    mean is used when no eligible row observes the entry's column.
    `fit_transform` fills the training rows with `transform`: a row never
    observes the column it is missing, so it is never its own neighbour.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.train_X: np.ndarray | None = None
        self.col_means: np.ndarray | None = None

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        self.train_X = np.array(X, dtype=float)
        self.col_means = _column_means(self.train_X)
        return self.transform(X)

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = np.array(X, dtype=float)
        train = self.train_X
        seen = ~np.isnan(train)
        for i in np.flatnonzero(np.isnan(out).any(axis=1)):
            z = out[i]
            gaps = np.isnan(z)
            shared = seen & ~gaps
            counts = shared.sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                dist = np.sqrt((np.where(shared, train - z, 0.0) ** 2).sum(axis=1) / counts)
            dist[counts == 0] = np.inf  # rows sharing no observed column are ineligible
            for j in np.flatnonzero(gaps):
                candidates = np.flatnonzero(seen[:, j] & np.isfinite(dist))
                if candidates.size == 0:
                    z[j] = self.col_means[j]
                    continue
                nearest = candidates[np.argsort(dist[candidates], kind="stable")][: self.k]
                z[j] = train[nearest, j].mean()
        return out
