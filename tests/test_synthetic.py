import numpy as np
import pytest

from cenrank.baselines import ols_fit
from cenrank.cohort import assemble_design, extract_windows
from cenrank.errors import DataError
from cenrank.evaluation import mae, predict_windows
from cenrank.solver import ModelParams, SolverOptions, fit_pgd, objective
from cenrank.synthetic import SyntheticSpec, generate_cohort, generate_lowrank_matrix, oracle_ols
from helpers import random_design


class TestGenerateCohort:
    def test_no_missingness_means_full_masks(self):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=15, days_per_subject=6, P=4, T_star=3, true_rank=2,
                          missing_rate=0.0, seed=1)
        )
        assert all(s.mask.all() for s in cohort.subjects)

    def test_deterministic(self):
        spec = SyntheticSpec(n_subjects=10, days_per_subject=6, P=4, T_star=3, true_rank=2,
                             noise_sigma=1.0, missing_rate=0.3, seed=42)
        a, ta = generate_cohort(spec)
        b, tb = generate_cohort(spec)
        assert ta.b_star == tb.b_star
        assert np.array_equal(ta.w_star, tb.w_star)
        for field in ("subject_id", "first_day", "start", "event", "outcome_day"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(a.days, b.days, equal_nan=True)

    def test_missing_fraction_close_to_rate(self):
        spec = SyntheticSpec(n_subjects=300, days_per_subject=10, P=8, T_star=3, true_rank=2,
                             censor_horizon=50, missing_rate=0.25, seed=3)
        cohort, _ = generate_cohort(spec)
        cells = ~np.isnan(cohort.days)
        assert cells.size >= 10_000
        assert abs((~cells).mean() - 0.25) < 0.02

    def test_series_invariants(self):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=50, days_per_subject=9, P=5, T_star=4, true_rank=2,
                          noise_sigma=2.0, missing_rate=0.2, seed=4)
        )
        for s in cohort.subjects:
            assert s.values.shape == s.mask.shape
            assert s.first_day >= 1
            assert np.isnan(s.values[~s.mask]).all()
            assert np.isfinite(s.values[s.mask]).all()
            if s.event:
                assert s.outcome_day > s.first_day
                assert s.last_day < s.outcome_day
            else:
                assert s.last_day <= s.outcome_day

    def test_planted_model_has_zero_objective_without_noise(self):
        # one window per subject: labels are exactly the planted predictions
        spec = SyntheticSpec(n_subjects=120, days_per_subject=5, P=6, T_star=5, true_rank=2,
                             noise_sigma=0.0, missing_rate=0.0, seed=5)
        cohort, truth = generate_cohort(spec)
        design = assemble_design(extract_windows(cohort, T=5, horizon=spec.censor_horizon))
        params = ModelParams(truth.w_star, truth.b_star, 2, 1.0)
        assert objective(params, design) <= 1e-8

    def test_refit_recovers_planted_model(self):
        spec = SyntheticSpec(n_subjects=600, days_per_subject=5, P=6, T_star=5, true_rank=2,
                             noise_sigma=0.0, censor_horizon=1e9, missing_rate=0.0, seed=6)
        cohort, _ = generate_cohort(spec)
        windows = extract_windows(cohort, T=5, horizon=1e9)
        assert len(windows) == 600
        design = assemble_design(windows)
        params, _ = fit_pgd(design, 0.0, 2, SolverOptions(tol=1e-12, max_iter=8000))
        assert mae(predict_windows(params, windows), windows) < 0.1

    def test_infeasible_spec_rejected(self):
        with pytest.raises(DataError):
            generate_cohort(SyntheticSpec(n_subjects=5, days_per_subject=3, P=4, T_star=5, true_rank=2))
        with pytest.raises(DataError):
            generate_cohort(SyntheticSpec(n_subjects=5, days_per_subject=9, P=4, T_star=5, true_rank=5))

    @pytest.mark.parametrize("setting, value", [("censor_horizon", 0.5), ("censor_horizon", -3.0),
                                                ("censor_horizon", float("nan")), ("noise_sigma", float("nan")),
                                                ("noise_sigma", float("inf"))])
    def test_setting_that_yields_no_usable_cohort_rejected(self, setting, value):
        spec = SyntheticSpec(n_subjects=5, days_per_subject=6, P=4, T_star=3, true_rank=1, noise_sigma=1.0)
        setattr(spec, setting, value)
        with pytest.raises(DataError, match=f"^{setting} "):
            generate_cohort(spec)

    def test_horizon_of_one_day_gives_one_row_per_subject(self):
        cohort, _ = generate_cohort(SyntheticSpec(n_subjects=5, days_per_subject=6, P=4, T_star=3, true_rank=1,
                                                  censor_horizon=1.0))
        assert len(cohort.days) == 5 and not cohort.event.any()

    def test_rounded_onsets_are_integral(self):
        cohort, _ = generate_cohort(
            SyntheticSpec(n_subjects=25, days_per_subject=6, P=4, T_star=3, true_rank=1,
                          noise_sigma=2.0, seed=7, round_onsets=True)
        )
        onsets = cohort.outcome_day[cohort.event]
        assert onsets.size and np.array_equal(onsets, np.round(onsets))


class TestGenerateLowrankMatrix:
    def test_rank_one_minors_vanish(self):
        M = generate_lowrank_matrix(6, 5, 1, seed=0)
        for i in range(5):
            for j in range(4):
                minor = M[i, j] * M[i + 1, j + 1] - M[i, j + 1] * M[i + 1, j]
                assert abs(minor) < 1e-10 * max(1.0, abs(M).max() ** 2)

    def test_spectrum_truncates_at_rank(self):
        M = generate_lowrank_matrix(20, 12, 3, seed=1)
        s = np.linalg.svd(M, compute_uv=False)
        assert np.all(s[3:] <= 1e-10 * s[0])

    def test_deterministic(self):
        assert np.array_equal(generate_lowrank_matrix(7, 4, 2, seed=9), generate_lowrank_matrix(7, 4, 2, seed=9))

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            generate_lowrank_matrix(4, 4, 5, seed=0)


class TestOracleOls:
    def test_single_point_interpolation(self):
        from cenrank.cohort import DesignSet

        design = DesignSet(np.array([[2.0]]), np.array([6.0]), np.array([False]), 1, 1)
        params = oracle_ols(design, ridge=1e-14)
        assert abs(2.0 * params.w_vec[0] + params.b - 6.0) < 1e-10

    def test_matches_ols_fit(self):
        rng = np.random.default_rng(10)
        design = random_design(rng, 2, 4, 30, 0)
        a = oracle_ols(design, ridge=1e-12)
        b = ols_fit(design, 0.0, censored_mode="ignore")
        assert np.max(np.abs(a.w_vec - b.w_vec)) < 1e-8
        assert abs(a.b - b.b) < 1e-8

    def test_large_ridge_shrinks_weights(self):
        rng = np.random.default_rng(11)
        design = random_design(rng, 2, 3, 25, 0)
        params = oracle_ols(design, ridge=1e9)
        assert np.linalg.norm(params.w_vec) < 1e-6
