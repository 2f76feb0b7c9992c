"""Missing-value imputation for stacked daily observation vectors.

The main method is bounded low-rank matrix completion: alternate a rank-r
SVD truncation of the current matrix with a box-constrained refill of the
missing cells, where each variable's box is the observed min/max of its
column. Test-time rows are filled, all in one batch, by projecting onto
the fitted daily basis under the same bounds. Column-mean and KNN imputers
are provided as benchmarks.
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
class ImputationMatrix:
    """Person-day observation vectors stacked row-wise (N x P)."""

    X: np.ndarray
    mask: np.ndarray
    row_index: list[tuple[str, int]]


@dataclass
class BmcModel:
    """Fitted completion model: orthonormal daily basis plus per-variable
    bounds and training column means (used to seed test-time imputation)."""

    basis: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rank: int
    col_means: np.ndarray


def compute_bounds(X: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed per-column min and max; raises EmptyColumn for all-missing columns."""
    X = np.asarray(X, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_columns(mask)
    Xm = np.where(mask, X, np.nan)
    with np.errstate(invalid="ignore"):
        lower = np.nanmin(Xm, axis=0)
        upper = np.nanmax(Xm, axis=0)
    return lower, upper


def _check_columns(mask):
    empty = np.flatnonzero(~mask.any(axis=0))
    if empty.size:
        raise EmptyColumnError(f"columns with no observed entries: {empty.tolist()}")


def _column_means(X, mask):
    _check_columns(mask)
    with np.errstate(invalid="ignore"):
        return np.nansum(np.where(mask, X, 0.0), axis=0) / mask.sum(axis=0)


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
    mask: np.ndarray,
    r: int,
    tol: float = BMC_TOL,
    max_iter: int = BMC_MAX_ITER,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
    trace_out: list | None = None,
) -> tuple[np.ndarray, BmcModel]:
    """Bounded rank-r completion of the missing entries of X.

    Observed entries are never modified. Missing entries start at the
    column means and are refreshed each iteration with the rank-r SVD
    truncation of the current matrix, clamped to [lower, upper]. The fit
    objective ||X - M||_F^2 is non-increasing; iteration stops when its
    relative decrease drops below tol; stopping at max_iter instead emits
    a RuntimeWarning. `bounds` overrides the observed
    min/max boxes (used to study the unconstrained behaviour); `trace_out`,
    if given, collects the per-iteration objective values.
    """
    X = np.array(X, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if r < 1 or r > min(X.shape):
        raise ValueError(f"rank {r} must lie in [1, min{X.shape}]")
    if X.shape != mask.shape:
        raise ValueError("X and mask shapes differ")
    if not np.all(np.isfinite(X[mask])):
        raise NumericalError("observed entries contain non-finite values")
    if bounds is None:
        lower, upper = compute_bounds(X, mask)
    else:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
    col_means = _column_means(X, mask)

    missing = ~mask
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


def impute_rows(
    Z: np.ndarray,
    mask: np.ndarray,
    model: BmcModel,
    tol: float = IMPUTE_TOL,
    max_iter: int = IMPUTE_MAX_ITER,
    trace_out: list | None = None,
) -> np.ndarray:
    """Fill the missing entries of every row of Z by basis projection.

    Missing entries are seeded with the clamped training column means, then
    alpha = basis' z and z_j = clamp((basis alpha)_j) alternate on all rows
    at once. A row stops, and stays frozen, once the relative decrease of
    its ||z - basis alpha||^2 falls below tol or its previous value is not
    positive. Observed entries are never modified and every imputed entry
    lies in its bounds. `trace_out`, if given, collects the summed objective.
    """
    Z = np.array(Z, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not np.all(np.isfinite(Z[mask])):
        raise NumericalError("observed entries contain non-finite values")
    U, lower, upper = model.basis, model.lower, model.upper
    Z[~mask] = np.broadcast_to(np.clip(model.col_means, lower, upper), Z.shape)[~mask]
    live = np.flatnonzero(~mask.all(axis=1))  # rows still iterating
    obj = np.zeros(Z.shape[0])
    z, missing, prev = Z[live], ~mask[live], np.full(live.size, np.inf)
    fitted = (z @ U) @ U.T
    for _ in range(max_iter):
        if not live.size:
            break
        z = np.where(missing, np.clip(fitted, lower, upper), z)
        fitted = (z @ U) @ U.T
        obj[live] = cur = np.sum((z - fitted) ** 2, axis=1)
        if trace_out is not None:
            trace_out.append(float(obj.sum()))
        with np.errstate(divide="ignore", invalid="ignore"):  # prev is inf on the first iteration
            go = (prev > 0.0) & ~((prev - cur) / prev < tol)
        prev = cur
        if not go.all():
            Z[live[~go]] = z[~go]
            live, z, missing, fitted, prev = live[go], z[go], missing[go], fitted[go], prev[go]
    Z[live] = z
    return Z


def impute_new(
    z: np.ndarray,
    observed_set,
    model: BmcModel,
    tol: float = IMPUTE_TOL,
    max_iter: int = IMPUTE_MAX_ITER,
    trace_out: list | None = None,
) -> np.ndarray:
    """Fill the missing entries of one daily vector: `impute_rows` on one row."""
    z = np.array(z, dtype=float)
    observed = np.zeros(z.size, dtype=bool)
    observed[np.asarray(list(observed_set), dtype=int)] = True
    return impute_rows(z[None], observed[None], model, tol, max_iter, trace_out)[0]


def _row_distances(z, z_mask, X, mask):
    """RMS difference to each row of X over mutually observed columns.

    Rows sharing no observed column get distance +inf (ineligible).
    """
    shared = mask & z_mask
    counts = shared.sum(axis=1)
    diff = np.where(shared, X - z, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.sqrt((diff**2).sum(axis=1) / counts)
    d[counts == 0] = np.inf
    return d


def _knn_fill_row(z, z_mask, X, mask, k, col_means):
    dist = _row_distances(z, z_mask, X, mask)
    out = z.copy()
    for j in np.flatnonzero(~z_mask):
        candidates = np.flatnonzero(mask[:, j] & np.isfinite(dist))
        if candidates.size == 0:
            out[j] = col_means[j]
            continue
        order = candidates[np.argsort(dist[candidates], kind="stable")]
        nearest = order[:k]
        out[j] = X[nearest, j].mean()
    return out


def cohort_matrix(cohort) -> ImputationMatrix:
    """Stack every subject-day row of a cohort into one imputation matrix."""
    rows, masks, index = [], [], []
    for s in cohort.subjects:
        for t in range(s.values.shape[0]):
            rows.append(s.values[t])
            masks.append(s.mask[t])
            index.append((s.subject_id, s.first_day + t))
    if not rows:
        raise EmptyColumnError("cohort has no observation rows")
    return ImputationMatrix(X=np.array(rows, dtype=float), mask=np.array(masks, dtype=bool), row_index=index)


def build_imputation_matrix(windows: list[WindowSample]) -> ImputationMatrix:
    """Stack the unique (subject, day) rows of a window set, in input order."""
    rows, masks, index = [], [], []
    seen = set()
    for w in windows:
        T = w.x.shape[0]
        first = w.window_end_day - T + 1
        for t in range(T):
            key = (w.subject_id, first + t)
            if key in seen:
                continue
            seen.add(key)
            rows.append(w.x[t])
            masks.append(w.x_mask[t])
            index.append(key)
    if not rows:
        raise EmptyColumnError("no rows to impute")
    return ImputationMatrix(X=np.array(rows, dtype=float), mask=np.array(masks, dtype=bool), row_index=index)


def impute_windows(windows: list[WindowSample], imputer) -> list[WindowSample]:
    """Fill windows with a fitted imputer from their own distinct (subject, day) rows, in one batch."""
    if not windows:
        return []
    matrix = build_imputation_matrix(windows)
    return fill_windows(windows, imputer.transform(matrix), matrix.row_index)


def fill_windows(windows: list[WindowSample], completed: np.ndarray, row_index) -> list[WindowSample]:
    """Rebuild windows with rows taken from a completed imputation matrix."""
    lookup = {key: i for i, key in enumerate(row_index)}
    out = []
    for w in windows:
        T = w.x.shape[0]
        first = w.window_end_day - T + 1
        x = np.vstack([completed[lookup[(w.subject_id, first + t)]] for t in range(T)])
        out.append(replace(w, x=x, x_mask=np.ones_like(w.x_mask, dtype=bool)))
    return out


class BmcImputer:
    """Bounded matrix completion over training rows; basis projection for new rows."""

    def __init__(self, rank: int = 3):
        self.rank = rank
        self.model: BmcModel | None = None
        self.completed: np.ndarray | None = None

    def clone(self) -> "BmcImputer":
        return BmcImputer(self.rank)

    def fit(self, matrix: ImputationMatrix) -> "BmcImputer":
        self.completed, self.model = bmc_fit(matrix.X, matrix.mask, self.rank)
        return self

    def transform(self, matrix: ImputationMatrix) -> np.ndarray:
        return impute_rows(matrix.X, matrix.mask, self.model)


class MeanImputer:
    """Column means of the training rows; `fit` fills the training rows with `transform`."""

    def __init__(self):
        self.col_means: np.ndarray | None = None
        self.completed: np.ndarray | None = None

    def clone(self) -> "MeanImputer":
        return MeanImputer()

    def fit(self, matrix: ImputationMatrix) -> "MeanImputer":
        self.col_means = _column_means(matrix.X, matrix.mask)
        self.completed = self.transform(matrix)
        return self

    def transform(self, matrix: ImputationMatrix) -> np.ndarray:
        return np.where(matrix.mask, matrix.X, self.col_means)


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
        self.train_mask: np.ndarray | None = None
        self.col_means: np.ndarray | None = None
        self.completed: np.ndarray | None = None

    def clone(self) -> "KnnImputer":
        return KnnImputer(self.k)

    def fit(self, matrix: ImputationMatrix) -> "KnnImputer":
        self.train_X = matrix.X.copy()
        self.train_mask = matrix.mask.copy()
        self.col_means = _column_means(matrix.X, matrix.mask)
        self.completed = self.transform(matrix)
        return self

    def transform(self, matrix: ImputationMatrix) -> np.ndarray:
        out = np.array(matrix.X, dtype=float)
        for i in np.flatnonzero(~matrix.mask.all(axis=1)):
            out[i] = _knn_fill_row(out[i], matrix.mask[i], self.train_X, self.train_mask, self.k, self.col_means)
        return out

