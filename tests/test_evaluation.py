import csv
import dataclasses

import numpy as np
import pytest

from cenrank.cohort import extract_windows, split_folds
from cenrank.errors import DataError, UndefinedMetricError
from cenrank.evaluation import (
    CvReport,
    coefficient_report,
    cross_validate,
    fit_method,
    impute_split,
    mae,
    onset_distribution,
    predict_windows,
    write_report_csvs,
)
from cenrank.imputation import BmcImputer, MeanImputer, bmc_fit, impute_rows
from cenrank.modelio import load_cv_report, save_cv_report
from cenrank.solver import ModelParams, SolverOptions
from cenrank.synthetic import SyntheticSpec, generate_cohort
from helpers import make_windows, random_design


class TestMae:
    def test_zero_when_exact(self):
        assert mae(np.array([1.0, 2.0]), make_windows(np.zeros((2, 1, 1)), y=[1.0, 2.0])) == 0.0

    def test_arithmetic(self):
        assert mae(np.array([2.0, 4.0]), make_windows(np.zeros((2, 1, 1)), y=[1.0, 6.0])) == 1.5

    def test_censored_excluded(self):
        windows = make_windows(np.zeros((2, 1, 1)), y=[1.0, 100.0], censored=[False, True])
        assert mae(np.array([2.0, 0.0]), windows) == 1.0

    def test_undefined_without_complete(self):
        with pytest.raises(UndefinedMetricError):
            mae(np.array([1.0]), make_windows(np.zeros((1, 1, 1)), y=[1.0], censored=True))


def small_cohort(seed=0, n=60):
    spec = SyntheticSpec(n_subjects=n, days_per_subject=7, P=5, T_star=4, true_rank=2,
                         noise_sigma=1.0, missing_rate=0.15, latent_rank=3, seed=seed)
    return generate_cohort(spec)[0]


FAST = SolverOptions(max_iter=150)


class TestFitMethod:
    @pytest.mark.parametrize("method", ["censored_lowrank", "ols", "svr"])
    @pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_lambda(self, method, lam):
        design = random_design(np.random.default_rng(3), 3, 4, 20, 8)
        with pytest.raises(ValueError, match="lambda"):
            fit_method(design, method, 2, lam, FAST)

    @pytest.mark.parametrize("method", ["censored_lowrank", "ols", "svr"])
    def test_one_model_type_for_every_method(self, method):
        design = random_design(np.random.default_rng(4), 3, 4, 20, 8)
        model, report = fit_method(design, method, 2, 0.1, FAST)
        assert isinstance(model, ModelParams) and model.kind == method
        assert (report is not None) == (method == "censored_lowrank")
        assert model.w.shape == (3, 4) and model.lambda_ == 0.1
        assert np.array_equal(model.w_vec, model.w.ravel())


class TestCrossValidate:
    def test_grid_entries_and_fold_counts(self):
        cohort = small_cohort()
        report = cross_validate(cohort, [3, 4], [2], [0.05, 0.1], ["censored_lowrank", "ols"], MeanImputer(),
                                k=3, seed=0, solver_options=FAST)
        assert len(report.entries) == 2 * 1 * 2 * 2
        keys = {(e.duration, e.rank, e.lambda_, e.method) for e in report.entries}
        assert len(keys) == len(report.entries)
        for e in report.entries:
            assert e.fold_maes.shape == (3,)
            assert e.mean_mae == pytest.approx(float(np.mean(e.fold_maes)), abs=1e-12)

    def test_deterministic_given_seed(self, tmp_path):
        cohort = small_cohort()
        a = cross_validate(cohort, [3], [2], [0.05], ["censored_lowrank"], MeanImputer(), k=3, seed=5,
                           solver_options=FAST)
        b = cross_validate(cohort, [3], [2], [0.05], ["censored_lowrank"], MeanImputer(), k=3, seed=5,
                           solver_options=FAST)
        save_cv_report(a, tmp_path / "a.json")
        save_cv_report(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_report_json_roundtrip(self, tmp_path):
        cohort = small_cohort()
        report = cross_validate(cohort, [3], [2], [0.05], ["ols"], MeanImputer(), k=3, seed=2)
        save_cv_report(report, tmp_path / "r.json")
        loaded = load_cv_report(tmp_path / "r.json")
        assert loaded.to_dict() == report.to_dict()

    def test_report_without_solver_fields_is_rejected(self):
        cohort = small_cohort()
        report = cross_validate(cohort, [3], [2], [0.05], ["censored_lowrank", "ols"], MeanImputer(), k=3, seed=2,
                                solver_options=FAST)
        lowrank, ols = report.entries
        assert len(lowrank.iterations) == len(lowrank.converged) == 3
        assert ols.iterations == [] and ols.converged == []
        for key in ("iterations", "converged"):
            doc = report.to_dict()
            del doc["entries"][1][key]
            with pytest.raises(KeyError, match=key):
                CvReport.from_dict(doc)

    def test_true_rank_beats_full_rank_on_majority_of_seeds(self):
        opts = SolverOptions(tol=1e-8, max_iter=2500)
        rank_wins = 0
        for seed in range(10):
            spec = SyntheticSpec(n_subjects=130, days_per_subject=4, P=8, T_star=4, true_rank=2,
                                 noise_sigma=1.0, missing_rate=0.1, latent_rank=6, seed=seed)
            cohort, _ = generate_cohort(spec)
            report = cross_validate(cohort, [4], [2, 4], [0.05], ["censored_lowrank"], BmcImputer(rank=6),
                                    k=3, seed=seed, solver_options=opts)
            by_rank = {e.rank: e.mean_mae for e in report.entries}
            rank_wins += by_rank[2] <= by_rank[4]
        assert rank_wins >= 6

    @pytest.mark.parametrize("durations, ranks, lambdas, message", [
        ([3, 0], [2], [0.05], "duration must be >= 1, got 0"),
        ([3], [2, 0], [0.05], "rank must be >= 1, got 0"),
        ([3], [2], [0.05, -1.0], "lambda must be finite and nonnegative, got -1.0"),
        ([3], [2], [0.05, float("nan")], "lambda must be finite and nonnegative, got nan"),
    ])
    def test_invalid_grid_value_fails_before_any_fit(self, durations, ranks, lambdas, message):
        class RecordingImputer:
            def __init__(self):
                self.calls = []  # shared with the copies cross_validate fits

            def fit_transform(self, X):
                self.calls.append("fit_transform")
                return np.nan_to_num(X)

            def transform(self, X):
                self.calls.append("transform")
                return np.nan_to_num(X)

        imputer = RecordingImputer()
        with pytest.raises(ValueError, match=message):
            cross_validate(small_cohort(), durations, ranks, lambdas, ["ols"], imputer, k=3)
        assert imputer.calls == []
        assert cross_validate(small_cohort(), [3], [2], [0.05], ["ols"], imputer, k=3).entries
        assert imputer.calls  # the same imputer records the fits of a valid grid

    def test_failing_fit_names_its_grid_point(self):
        cohort = small_cohort()
        event_free = dataclasses.replace(cohort, event=np.zeros_like(cohort.event),
                                         outcome_day=np.full(len(cohort), 21.0))
        with pytest.raises(DataError, match=r"^grid point \(duration=3, rank=2, lambda=0.05, method=ols\): "
                                            r"baseline fits require at least one complete sample$"):
            cross_validate(event_free, [3], [2], [0.05], ["ols"], MeanImputer(), k=3)

    def test_imputer_fitted_on_training_windows_only(self):
        cohort = small_cohort(seed=4)
        windows = extract_windows(cohort, 4)
        folds = split_folds(windows, 3, unit="subject", seed=0)
        train_idx = np.setdiff1d(np.arange(len(windows)), folds[0])
        unfitted = BmcImputer(rank=3)
        _, _, imputer = impute_split(windows, train_idx, folds[0], unfitted)
        assert imputer is not unfitted and unfitted.model is None and imputer.rank == 3
        train_subjects = {windows[i].subject_id for i in train_idx}
        test_subjects = {windows[i].subject_id for i in folds[0]}
        assert not (train_subjects & test_subjects)

    def test_row_shared_by_train_and_test_is_filled_from_test_side(self):
        cohort = small_cohort(seed=4)
        windows = extract_windows(cohort, 4)
        test_idx = split_folds(windows, 3, unit="sample", seed=0)[0]
        train_idx = np.setdiff1d(np.arange(len(windows)), test_idx)
        train_filled, test_filled, imputer = impute_split(windows, train_idx, test_idx, BmcImputer(rank=3))
        train = windows[train_idx]
        distinct = np.unique(train.rows)
        completion = bmc_fit(train.days[distinct], 3)[0]
        assert np.array_equal(train_filled.days[train_filled.rows], completion[np.searchsorted(distinct, train.rows)])
        train_rows = {(sid, end_day - 3 + t): start + t
                      for sid, end_day, start in zip(train_filled.subject_id, train_filled.end_day, train_filled.start)
                      for t in range(4)}
        checked = differs = 0
        test = windows[test_idx]
        for raw, filled, sid, end_day in zip(test, test_filled, test.subject_id, test.end_day):
            for t in range(4):
                key = (sid, end_day - 3 + t)
                if key not in train_rows or raw.x_mask[t].all():
                    continue
                fresh = impute_rows(raw.x[t][None], imputer.model)[0]
                assert np.max(np.abs(filled.x[t] - fresh)) <= 1e-12
                differs += np.max(np.abs(filled.x[t] - train_filled.days[train_rows[key]])) > 1e-9
                checked += 1
        assert checked > 0 and differs > 0  # the training completion would have been told apart


class TestGridReport:
    def _report(self, rows):
        from cenrank.evaluation import CvEntry

        entries = [
            CvEntry(d, r, l, m, np.array([v, v]), v) for (d, r, l, m, v) in rows
        ]
        return CvReport(entries=entries, seed=0, k=2, split_unit="sample")

    @staticmethod
    def _csv(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_single_entry_flagged(self, tmp_path):
        report = self._report([(3, 2, 0.05, "ols", 1.0)])
        assert write_report_csvs(report, tmp_path) is report.entries[0]
        assert self._csv(tmp_path / "grid.csv")[0]["is_best"] == "1"

    def test_tie_breaks_lexicographically(self, tmp_path):
        report = self._report([
            (5, 2, 0.05, "ols", 1.0),
            (3, 3, 0.1, "ols", 1.0),
            (3, 2, 0.1, "ols", 1.0),
        ])
        best = write_report_csvs(report, tmp_path)
        assert (best.duration, best.rank, best.lambda_) == (3, 2, 0.1)
        assert [r["is_best"] for r in self._csv(tmp_path / "grid.csv")] == ["0", "0", "1"]

    def test_series_and_csv_output(self, tmp_path):
        write_report_csvs(self._report([
            (3, 2, 0.05, "ols", 2.0),
            (3, 2, 0.1, "ols", 1.0),
            (4, 2, 0.05, "ols", 4.0),
            (4, 2, 0.1, "ols", 3.0),
        ]), tmp_path)
        lam = {(r["method"], float(r["lambda"])): float(r["mean_mae"]) for r in self._csv(tmp_path / "lambda_curve.csv")}
        assert lam == {("ols", 0.05): 3.0, ("ols", 0.1): 2.0}
        dur = {(r["method"], r["duration"]): float(r["mean_mae"]) for r in self._csv(tmp_path / "duration_curve.csv")}
        assert dur == {("ols", "3"): 1.5, ("ols", "4"): 3.5}
        grid_lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(grid_lines) == 5
        assert grid_lines[0].startswith("duration,rank,lambda,method,fold_1,fold_2,mean_mae,is_best")


class TestCoefficientReport:
    def test_zero_matrix_keeps_order(self):
        params = ModelParams(np.zeros((2, 2)), 0.0, 1, 0.0)
        ranked = coefficient_report(params, ["a", "b"])
        assert [(v, t) for v, t, _ in ranked] == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_single_nonzero_first(self):
        w = np.zeros((2, 3))
        w[1, 2] = 5.0
        params = ModelParams(w, 0.0, 1, 0.0)
        ranked = coefficient_report(params, ["a", "b", "c"])
        assert ranked[0] == ("c", 1, 5.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 4))
        params = ModelParams(w, 0.0, 3, 0.0)
        names = ["a", "b", "c", "d"]
        ranked = coefficient_report(params, names)
        values = [v for _, _, v in ranked]
        assert values == sorted(values, reverse=True)
        assert sorted(values) == sorted(w.ravel().tolist())


class TestOnsetDistribution:
    def test_identical_predictions_occupy_single_bin(self):
        params = ModelParams(np.zeros((1, 1)), 2.0, 1, 0.0)
        windows = make_windows(np.zeros((3, 1, 1)), y=[1.0, 2.0, 3.0], censored=[False, True, True])
        edges, comp, cen = onset_distribution(predict_windows(params, windows), windows)
        assert comp.sum() == 1 and cen.sum() == 2
        assert (comp > 0).sum() == 1 and (cen > 0).sum() == 1

    def test_counts_conserved(self):
        rng = np.random.default_rng(6)
        params = ModelParams(rng.standard_normal((2, 2)), 0.5, 2, 0.0)
        windows = make_windows(rng.standard_normal((40, 2, 2)), y=np.arange(40.0), censored=np.arange(40) % 3 == 0)
        edges, comp, cen = onset_distribution(predict_windows(params, windows), windows)
        n_cen = int(windows.censored.sum())
        assert cen.sum() == n_cen and comp.sum() == 40 - n_cen
        assert len(edges) == 21
