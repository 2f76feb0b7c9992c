"""Missing-value imputation for stacked daily observation vectors.

The main method is bounded low-rank matrix completion: alternate a rank-r
SVD truncation of the current matrix with a box-constrained refill of the
missing cells, where each variable's box is the observed min/max of its
column. Test-time rows are filled, all in one batch, by projecting onto
the fitted daily basis under the same bounds. Column-mean and KNN imputers
are provided as benchmarks. Imputers take N x P day rows in which NaN,
and only NaN, marks a missing cell: `fit(X)` keeps the training completion
in `completed`, `transform(X)` fills new rows. An infinite entry is a
NumericalError. `distinct_rows` indexes a window set's distinct (subject,
day) rows once; `fill_windows` gathers completed rows back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cohort import WindowSample
from .errors import EmptyColumnError, NumericalError

BMC_TOL = 1e-6
BMC_MAX_ITER = 500
IMPUTE_TOL = 1e-8
IMPUTE_MAX_ITER = 200


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


def _truncated_svd(X, r):
    """Rank-r truncation (X V_r) V_r' of X and V_r, its top r right singular vectors.

    V_r comes from the eigenvectors of the P x P Gram matrix X'X, which is
    far cheaper than an SVD of X when X has many more rows than columns.
    """
    _, V = np.linalg.eigh(X.T @ X)
    V_r = V[:, ::-1][:, :r]
    return (X @ V_r) @ V_r.T, V_r


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
    NumericalError. Missing entries start at the column means and are
    refreshed each iteration with the rank-r SVD truncation of the current
    matrix, clamped to [lower, upper]. The fit objective ||X - M||_F^2 is
    non-increasing; iteration stops when its relative decrease drops below
    tol; stopping at max_iter instead emits a RuntimeWarning. `bounds`
    overrides the observed min/max boxes (used to study the unconstrained
    behaviour); `trace_out`, if given, collects the per-iteration objective
    values.
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

    missing = np.isnan(X)
    init = np.clip(col_means, lower, upper)
    X[missing] = np.broadcast_to(init, X.shape)[missing]

    prev_obj = None
    M = X
    for _ in range(max_iter):
        M, _ = _truncated_svd(X, r)
        update = np.clip(M, lower, upper)
        X[missing] = update[missing]
        obj = float(np.sum((X - M) ** 2))
        if trace_out is not None:
            trace_out.append(obj)
        if prev_obj is not None:
            if prev_obj <= 0.0 or (prev_obj - obj) / prev_obj < tol:
                break
        prev_obj = obj
    else:
        warnings.warn(f"bmc_fit stopped at max_iter={max_iter} before reaching tol={tol:g}",
                      RuntimeWarning, stacklevel=2)

    _, basis = _truncated_svd(M, r)
    model = BmcModel(basis=basis, lower=lower, upper=upper, rank=r, col_means=col_means)
    return X, model


def impute_rows(Z: np.ndarray, model: BmcModel, trace_out: list | None = None) -> np.ndarray:
    """Fill the NaN entries of every row of Z by basis projection.

    Missing entries are seeded with the clamped training column means, then
    alpha = basis' z and z_j = clamp((basis alpha)_j) alternate on all rows
    at once. A row stops, and stays frozen, once the relative decrease of
    its ||z - basis alpha||^2 falls below IMPUTE_TOL or its previous value
    is not positive, and after IMPUTE_MAX_ITER iterations at the latest.
    Observed entries are never modified, an infinite one is a
    NumericalError, and every imputed entry lies in its bounds.
    `trace_out`, if given, collects the summed objective.
    """
    Z = np.array(Z, dtype=float)
    if np.isinf(Z).any():
        raise NumericalError("observed entries contain non-finite values")
    U, lower, upper = model.basis, model.lower, model.upper
    missing = np.isnan(Z)
    Z[missing] = np.broadcast_to(np.clip(model.col_means, lower, upper), Z.shape)[missing]
    live = np.flatnonzero(missing.any(axis=1))  # rows still iterating
    obj = np.zeros(Z.shape[0])
    z, missing, prev = Z[live], missing[live], np.full(live.size, np.inf)
    fitted = (z @ U) @ U.T
    for _ in range(IMPUTE_MAX_ITER):
        if not live.size:
            break
        z = np.where(missing, np.clip(fitted, lower, upper), z)
        fitted = (z @ U) @ U.T
        obj[live] = cur = np.sum((z - fitted) ** 2, axis=1)
        if trace_out is not None:
            trace_out.append(float(obj.sum()))
        with np.errstate(divide="ignore", invalid="ignore"):  # prev is inf on the first iteration
            go = (prev > 0.0) & ~((prev - cur) / prev < IMPUTE_TOL)
        prev = cur
        if not go.all():
            Z[live[~go]] = z[~go]
            live, z, missing, fitted, prev = live[go], z[go], missing[go], fitted[go], prev[go]
    Z[live] = z
    return Z


def distinct_rows(windows: list[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (subject, day) rows of equal-length windows and where each window finds them.

    Returns (X, where): X holds one row per distinct (subject, day), in
    order of first appearance across the windows, and where[i, t] is the
    row of day t of window i.
    """
    if not windows:
        raise EmptyColumnError("no rows to impute")
    T = windows[0].x.shape[0]
    codes: dict[str, int] = {}
    subject = np.array([codes.setdefault(w.subject_id, len(codes)) for w in windows])
    days = np.array([w.window_end_day for w in windows])[:, None] + np.arange(1 - T, 1)
    days -= days.min()
    keys = (subject[:, None] * (days.max() + 1) + days).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # of each distinct key in first-appearance order
    X = np.stack([w.x for w in windows]).reshape(keys.size, -1)[np.sort(first)]
    return X, rank[inverse].reshape(len(windows), T)


def fill_windows(windows: list[WindowSample], completed: np.ndarray, where: np.ndarray) -> list[WindowSample]:
    """Rebuild windows with their rows gathered from a completed row matrix by `where`."""
    filled = completed[where]
    return [replace(w, x=x) for w, x in zip(windows, filled)]


def impute_windows(windows: list[WindowSample], imputer) -> list[WindowSample]:
    """Fill windows with a fitted imputer from their own distinct (subject, day) rows, in one batch."""
    if not windows:
        return []
    X, where = distinct_rows(windows)
    return fill_windows(windows, imputer.transform(X), where)


class BmcImputer:
    """Bounded matrix completion over training rows; basis projection for new rows."""

    def __init__(self, rank: int = 3):
        self.rank = rank
        self.model: BmcModel | None = None
        self.completed: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "BmcImputer":
        self.completed, self.model = bmc_fit(X, self.rank)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return impute_rows(X, self.model)


class MeanImputer:
    """Column means of the training rows; `fit` fills the training rows with `transform`."""

    def __init__(self):
        self.col_means: np.ndarray | None = None
        self.completed: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MeanImputer":
        self.col_means = _column_means(X)
        self.completed = self.transform(X)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return np.where(np.isnan(X), self.col_means, X)


class KnnImputer:
    """Each missing entry is the mean of its k nearest training rows that observe it.

    Distance is the root mean squared difference over mutually observed
    columns; rows sharing no observed column are skipped, and the column
    mean is used when no eligible row observes the entry's column. `fit`
    fills the training rows with `transform`: a row never observes the
    column it is missing, so it is never its own neighbour.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.train_X: np.ndarray | None = None
        self.col_means: np.ndarray | None = None
        self.completed: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "KnnImputer":
        self.train_X = np.array(X, dtype=float)
        self.col_means = _column_means(self.train_X)
        self.completed = self.transform(X)
        return self

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
