"""Mean-absolute-error evaluation, cross-validated grid search and reports.

The grid search iterates duration x rank x lambda x method. For each
duration the windows and folds are drawn once so every grid point sees the
identical partition (paired comparison), and within a fold the imputer is
fitted on training windows only; test windows are filled by the fitted
imputer from their own day rows, each row once, never from the training
completion. Windows come as one `cohort.Windows` set; the MAE, prediction
and the onset histogram read its arrays.
"""

from __future__ import annotations

import copy
import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import baselines, solver
from .cohort import Cohort, DesignSet, Windows, assemble_design, extract_windows, split_folds
from .errors import DataError, UndefinedMetricError
from .imputation import fill_windows

METHODS = ("censored_lowrank", "ols", "svr")

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


@dataclass
class CvEntry:
    """One grid cell; `iterations` and `converged` hold the solver's per-fold report (empty for baselines)."""

    duration: int
    rank: int
    lambda_: float
    method: str
    fold_maes: np.ndarray
    mean_mae: float
    iterations: list[int] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)


@dataclass
class CvReport:
    entries: list[CvEntry]
    seed: int
    k: int
    split_unit: str

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "k": self.k,
            "split_unit": self.split_unit,
            "entries": [
                {
                    "duration": e.duration,
                    "rank": e.rank,
                    "lambda": e.lambda_,
                    "method": e.method,
                    "fold_maes": [float(v) for v in e.fold_maes],
                    "mean_mae": e.mean_mae,
                    "iterations": [int(v) for v in e.iterations],
                    "converged": [bool(v) for v in e.converged],
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CvReport":
        """Rebuild a report from to_dict's output.

        Every entry needs all of to_dict's keys, `iterations` and `converged`
        included (a missing one is a KeyError), and an entry whose fold count
        is not k is a ValueError.
        """
        k = int(d["k"])
        entries = [
            CvEntry(
                duration=int(e["duration"]),
                rank=int(e["rank"]),
                lambda_=float(e["lambda"]),
                method=str(e["method"]),
                fold_maes=np.asarray(e["fold_maes"], dtype=float),
                mean_mae=float(e["mean_mae"]),
                iterations=[int(v) for v in e["iterations"]],
                converged=[bool(v) for v in e["converged"]],
            )
            for e in d["entries"]
        ]
        for i, e in enumerate(entries):
            if e.fold_maes.size != k:
                raise ValueError(f"entry {i} holds {e.fold_maes.size} fold MAEs, but k is {k}")
        return cls(entries=entries, seed=int(d["seed"]), k=k, split_unit=str(d["split_unit"]))


def mae(predictions: np.ndarray, windows: Windows) -> float:
    """Mean absolute error over the complete windows; censored ones are excluded."""
    predictions = np.asarray(predictions, dtype=float)
    if predictions.size != len(windows):
        raise DataError(f"{predictions.size} predictions for {len(windows)} samples")
    complete = ~windows.censored
    if not complete.any():
        raise UndefinedMetricError("MAE is undefined without complete samples")
    return float(np.mean(np.abs(predictions[complete] - windows.y[complete])))


def impute_split(windows, train_idx, test_idx, imputer):
    """Fit a fresh imputer on the training windows and fill both sides.

    Returns (train_windows, test_windows, fitted_imputer): the training
    windows read the imputer's `fit_transform` of their rows, and the test
    windows its `transform` of their own rows, in one batch.
    """
    imp = copy.copy(imputer)
    train = fill_windows(windows[train_idx], imp.fit_transform)
    return train, fill_windows(windows[test_idx], imp.transform), imp


def fit_method(design: DesignSet, method: str, rank: int, lambda_: float,
               solver_options: solver.SolverOptions | None = None):
    """Fit one configuration; rank, which must be >= 1 for every method, only applies to censored_lowrank.

    Returns (model, report): the SolveReport of fit_pgd for censored_lowrank,
    None for the baselines.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if method == "censored_lowrank":
        return solver.fit_pgd(design, lambda_, rank, solver_options)
    if method == "ols":
        return baselines.ols_fit(design, lambda_, censored_mode="weighted"), None
    if method == "svr":
        return baselines.svr_fit(design, lambda_=lambda_, censored_mode="weighted"), None
    raise ValueError(f"unknown method {method!r}")


def predict_windows(model: solver.ModelParams, windows: Windows) -> np.ndarray:
    """<x, w> + b for each window; the windows must be fully imputed and shaped like w."""
    if (windows.T, windows.days.shape[1]) != model.w.shape:
        raise DataError(f"windows have shape {(windows.T, windows.days.shape[1])}, expected {model.w.shape}")
    return windows.columns().T @ model.w_vec + model.b


def cross_validate(cohort: Cohort, durations, ranks, lambdas, methods, imputer, k: int = 5,
                   split_unit: str = "sample", seed: int = 0, stride: int = 1,
                   horizon: float = 21, solver_options=None) -> CvReport:
    """k-fold grid search over `durations` x `ranks` x `lambdas` for each method.

    Every fold serves as the test set once. Fold partitions, imputations
    and designs are computed once per duration and shared across all grid
    points and methods, so the comparison is paired. Every duration, rank
    and lambda is checked before the first window is drawn, so an invalid
    grid value is a ValueError before any fit. Deterministic given the
    seed. censored_lowrank entries keep each fold's solver iterations
    and converged flag. The baselines read no rank, so each is fitted once
    per (duration, lambda, fold), and its fold MAEs serve every rank. A
    fit that raises has its message prefixed with the grid point and method.
    """
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if not (durations and ranks and lambdas and methods):
        raise ValueError("grid and methods must be nonempty")
    for name, values in (("duration", durations), ("rank", ranks)):
        for v in values:
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
    for lam in lambdas:
        solver.check_lambda(lam)

    entries = []
    for T in durations:
        windows = extract_windows(cohort, T, stride=stride, horizon=horizon)
        if len(windows) < k:
            raise DataError(f"duration {T} yields {len(windows)} windows, fewer than k={k}")
        folds = split_folds(windows, k, unit=split_unit, seed=seed)
        all_idx = np.arange(len(windows))
        prepared = []
        for fold in folds:
            train_idx = np.setdiff1d(all_idx, fold)
            train_filled, test_filled, _ = impute_split(windows, train_idx, fold, imputer)
            prepared.append((assemble_design(train_filled), test_filled))

        baseline_maes = {}  # (lambda, method) -> fold MAEs of a baseline
        for rank, lam, method in itertools.product(ranks, lambdas, methods):
            if (lam, method) in baseline_maes:
                fold_maes = baseline_maes[lam, method]
                entries.append(CvEntry(T, rank, lam, method, fold_maes, float(np.mean(fold_maes))))
                continue
            fold_maes, iterations, converged = [], [], []
            for design, test_filled in prepared:
                try:
                    model, report = fit_method(design, method, rank, lam, solver_options)
                except Exception as exc:
                    exc.args = (f"grid point (duration={T}, rank={rank}, lambda={lam}, method={method}): {exc}",)
                    raise
                fold_maes.append(mae(predict_windows(model, test_filled), test_filled))
                if report is not None:
                    iterations.append(report.iterations)
                    converged.append(report.converged)
            fold_maes = np.asarray(fold_maes)
            if method != "censored_lowrank":
                baseline_maes[lam, method] = fold_maes
            entries.append(CvEntry(T, rank, lam, method, fold_maes, float(np.mean(fold_maes)), iterations, converged))

    return CvReport(entries=entries, seed=seed, k=k, split_unit=split_unit)


def coefficient_report(params, variable_names):
    """Every entry of w, ranked by decreasing coefficient value.

    Returns one (variable, day_offset, coefficient) tuple per entry;
    day_offset counts from the start of the window. Ties keep row-major
    order.
    """
    w = np.asarray(params.w)
    T, P = w.shape
    if len(variable_names) != P:
        raise DataError(f"{len(variable_names)} variable names for {P} columns")
    flat = [(variable_names[p], t, float(w[t, p])) for t in range(T) for p in range(P)]
    return sorted(flat, key=lambda item: -item[2])


def onset_distribution(predictions: np.ndarray, windows: Windows):
    """Histogram the predicted values of the complete and censored groups.

    `predictions` holds one value per window, in order. 20 shared bins of
    equal width span all predictions; returns (edges, complete_counts,
    censored_counts). Group counts always sum to the group sizes.
    """
    preds = np.asarray(predictions, dtype=float)
    censored = windows.censored
    edges = np.histogram_bin_edges(preds, bins=20)
    complete_counts, _ = np.histogram(preds[~censored], bins=edges)
    censored_counts, _ = np.histogram(preds[censored], bins=edges)
    return edges, complete_counts, censored_counts


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_report_csvs(report: CvReport, out_dir) -> CvEntry:
    """Write grid.csv, lambda_curve.csv and duration_curve.csv under out_dir, and return the best entry.

    The minimum mean MAE wins; ties break toward the lexicographically
    smallest (duration, rank, lambda, method), and grid.csv flags it in
    `is_best`. The lambda and duration curves average mean MAE over the
    remaining grid axes per method.
    """
    if not report.entries:
        raise DataError("empty CV report")
    best = min(report.entries, key=lambda e: (e.mean_mae, e.duration, e.rank, e.lambda_, e.method))
    header = ["duration", "rank", "lambda", "method"] + [f"fold_{i + 1}" for i in range(report.k)]
    write_csv(f"{out_dir}/grid.csv", header + ["mean_mae", "is_best"], [
        [e.duration, e.rank, _fmt(e.lambda_), e.method] + [_fmt(v) for v in e.fold_maes]
        + [_fmt(e.mean_mae), int(e is best)]
        for e in report.entries
    ])

    def curve(axis):
        keys = sorted({(e.method, getattr(e, axis)) for e in report.entries})
        return [(method, value, np.mean([e.mean_mae for e in report.entries
                                         if e.method == method and getattr(e, axis) == value]))
                for method, value in keys]

    write_csv(f"{out_dir}/lambda_curve.csv", ["method", "lambda", "mean_mae"],
              [[method, _fmt(lam), _fmt(m)] for method, lam, m in curve("lambda_")])
    write_csv(f"{out_dir}/duration_curve.csv", ["method", "duration", "mean_mae"],
              [[method, duration, _fmt(m)] for method, duration, m in curve("duration")])
    return best


def write_coefficients_csv(path, ranked):
    write_csv(path, ["variable", "day_offset", "coefficient"],
              [[name, off, _fmt(coef)] for name, off, coef in ranked])


def write_onset_hist_csv(path, edges, complete_counts, censored_counts):
    rows = [
        [_fmt(edges[i]), _fmt(edges[i + 1]), int(complete_counts[i]), int(censored_counts[i])]
        for i in range(len(complete_counts))
    ]
    write_csv(path, ["bin_left", "bin_right", "complete_count", "censored_count"], rows)

