import warnings

import numpy as np
import pytest

from cenrank.cohort import DesignSet, WindowSample
from cenrank.errors import DataError, UnimputedSampleError
from cenrank.evaluation import predict_windows
from cenrank.solver import (
    ModelParams,
    SolverOptions,
    build_preconditioner,
    factorize,
    fit_pgd,
    gradient,
    numerical_rank,
    objective,
    project_rank,
)
from cenrank.synthetic import generate_lowrank_matrix, oracle_ols
from helpers import random_design


def design_from(Xc, yc, Xz=None, yz=None, T=None, P=None):
    d = Xc.shape[0]
    if Xz is None:
        Xz, yz = np.zeros((d, 0)), np.zeros(0)
    return DesignSet(Xc, np.asarray(yc, float), Xz, np.asarray(yz, float), T, P)


def finite_difference(params, design, h=1e-5):
    T, P = design.T, design.P
    w, b = params.w.ravel(), params.b
    fd = np.zeros(T * P + 1)
    for i in range(T * P):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (
            objective(ModelParams(wp.reshape(T, P), b, params.rank, params.lambda_), design)
            - objective(ModelParams(wm.reshape(T, P), b, params.rank, params.lambda_), design)
        ) / (2 * h)
    fd[-1] = (
        objective(ModelParams(params.w, b + h, params.rank, params.lambda_), design)
        - objective(ModelParams(params.w, b - h, params.rank, params.lambda_), design)
    ) / (2 * h)
    return fd


class TestObjective:
    def test_zero_residual(self):
        x = np.array([[1.0, 2.0]])
        design = design_from(x.reshape(-1, 1), [5.0], T=1, P=2)
        params = ModelParams(w=np.array([[1.0, 1.0]]), b=2.0, rank=1, lambda_=1.0)
        assert objective(params, design) == 0.0

    def test_satisfied_censored_margin_is_free(self):
        x = np.array([[1.0, 0.0]])
        design = design_from(np.zeros((2, 0)), [], x.reshape(-1, 1), [2.0], T=1, P=2)
        params = ModelParams(w=np.array([[3.0, 0.0]]), b=0.0, rank=1, lambda_=7.0)
        assert objective(params, design) == 0.0

    def test_violated_censored_margin(self):
        x = np.array([[1.0, 0.0]])
        design = design_from(np.zeros((2, 0)), [], x.reshape(-1, 1), [2.0], T=1, P=2)
        params = ModelParams(w=np.array([[1.0, 0.0]]), b=0.0, rank=1, lambda_=2.0)
        assert objective(params, design) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        design = random_design(np.random.default_rng(0), 2, 3, 4, 0)
        params = ModelParams(w=np.zeros((3, 3)), b=0.0, rank=1, lambda_=0.0)
        with pytest.raises(DataError):
            objective(params, design)


class TestGradient:
    def test_zero_at_interpolating_point(self):
        rng = np.random.default_rng(1)
        T, P = 2, 3
        w = rng.standard_normal((T, P))
        b = 0.7
        Xc = rng.standard_normal((T * P, 4))
        yc = Xc.T @ w.ravel() + b
        Xz = rng.standard_normal((T * P, 3))
        yz = Xz.T @ w.ravel() + b - 1.0  # margins satisfied by one unit
        design = design_from(Xc, yc, Xz, yz, T, P)
        g_w, g_b = gradient(ModelParams(w, b, 2, 0.5), design)
        assert np.allclose(g_w, 0) and g_b == 0.0

    def test_censored_only_inactive(self):
        rng = np.random.default_rng(2)
        Xz = rng.standard_normal((6, 5))
        design = design_from(np.zeros((6, 0)), [], Xz, np.full(5, -10.0), 2, 3)
        g_w, g_b = gradient(ModelParams(np.zeros((2, 3)), 0.0, 2, 3.0), design)
        assert np.allclose(g_w, 0) and g_b == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            design = random_design(rng, 4, 6, 20, 10)
            params = ModelParams(rng.standard_normal((4, 6)), rng.standard_normal(), 4, 0.3)
            margins = design.X_censored.T @ params.w.ravel() + params.b - design.y_censored
            if np.any(np.abs(margins) < 1e-4):
                continue
            g_w, g_b = gradient(params, design)
            analytic = np.concatenate([g_w, [g_b]])
            fd = finite_difference(params, design)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-6


class TestPreconditioner:
    def test_orthonormal_rows_give_identity(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 6)))
        X = Q.T  # 6 x 10 with orthonormal rows
        pre = build_preconditioner(X, ridge_policy=0.0)
        assert np.allclose(pre.A, np.eye(6), atol=1e-10)

    def test_scalar_gram(self):
        X = 2.0 * np.eye(3)  # Gram = 4 I
        pre = build_preconditioner(X, ridge_policy=0.0)
        assert np.allclose(pre.A, 0.5 * np.eye(3), atol=1e-12)

    def test_inverse_identity(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 30))
        pre = build_preconditioner(X)
        G = X @ X.T + pre.ridge * np.eye(8)
        err = np.linalg.norm(pre.A @ G @ pre.A - np.eye(8)) / np.linalg.norm(np.eye(8))
        assert err < 1e-6

    def test_rank_deficient_gets_larger_ridge(self):
        X = np.ones((5, 2))  # Gram rank 1
        pre = build_preconditioner(X)
        assert pre.ridge >= 1e-6 * 10  # 1e-6 times the top eigenvalue


class TestProjectRank:
    def test_feasible_input_unchanged(self):
        w = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        assert np.allclose(project_rank(w, 1), w, atol=1e-12)

    def test_diagonal(self):
        out = project_rank(np.diag([3.0, 1.0]), 1)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = rng.standard_normal((5, 4))
            got = project_rank(w, 2)
            # independent truncation through the eigendecomposition of w' w
            lam, V = np.linalg.eigh(w.T @ w)
            idx = np.argsort(lam)[::-1][:2]
            Vr = V[:, idx]
            want = (w @ Vr) @ Vr.T
            assert np.linalg.norm(got - want) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((6, 5))
        once = project_rank(w, 3)
        assert np.allclose(project_rank(once, 3), once, atol=1e-10)


class TestFitPgd:
    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            design = random_design(rng, 3, 4, 40, 0)
            oracle = oracle_ols(design, ridge=1e-12)
            obj_oracle = 0.5 * np.sum((design.X_complete.T @ oracle.w_vec + oracle.b - design.y_complete) ** 2)
            params, report = fit_pgd(design, 0.0, 3, SolverOptions(tol=1e-16, max_iter=30000))
            assert report.converged
            assert abs(objective(params, design) - obj_oracle) / obj_oracle < 1e-8
            pred_pgd = design.X_complete.T @ params.w.ravel() + params.b
            pred_orc = design.X_complete.T @ oracle.w_vec + oracle.b
            assert np.max(np.abs(pred_pgd - pred_orc)) < 1e-6

    def test_single_sample_interpolates(self):
        rng = np.random.default_rng(9)
        design = random_design(rng, 2, 3, 1, 0)
        params, report = fit_pgd(design, 0.0, 1, SolverOptions(tol=1e-16, max_iter=5000))
        assert report.final_objective < 1e-10

    def test_trace_monotone_and_rank_feasible(self):
        rng = np.random.default_rng(10)
        design = random_design(rng, 4, 5, 25, 12)
        _, report = fit_pgd(design, 0.5, 2, SolverOptions(max_iter=300))
        trace = report.objective_trace
        assert np.all(np.diff(trace) <= 0)
        assert report.max_excess_sv_ratio <= 1e-10

    def test_precondition_without_complete_samples_rejected(self):
        rng = np.random.default_rng(12)
        Xz = rng.standard_normal((6, 4))
        design = DesignSet(np.zeros((6, 0)), np.zeros(0), Xz, np.ones(4), 2, 3)
        with pytest.raises(DataError):
            fit_pgd(design, 1.0, 1, SolverOptions(precondition=True))
        params, _ = fit_pgd(design, 1.0, 1, SolverOptions(precondition=False, max_iter=50))
        assert params.w.shape == (2, 3)

    def test_full_rank_argmin_matches_without_preconditioning(self):
        rng = np.random.default_rng(13)
        design = random_design(rng, 3, 3, 30, 8)
        opts = dict(tol=1e-16, max_iter=60000)
        _, rep_pre = fit_pgd(design, 0.2, 3, SolverOptions(precondition=True, **opts))
        _, rep_raw = fit_pgd(design, 0.2, 3, SolverOptions(precondition=False, **opts))
        rel = abs(rep_pre.final_objective - rep_raw.final_objective) / abs(rep_raw.final_objective)
        assert rel < 1e-6

    def test_capped_fit_warns(self):
        design = random_design(np.random.default_rng(15), 3, 4, 30, 10)
        with pytest.warns(RuntimeWarning, match="max_iter=3"):
            _, report = fit_pgd(design, 0.1, 2, SolverOptions(precondition=False, max_iter=3))
        assert not report.converged and report.iterations == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = fit_pgd(design, 0.1, 2, SolverOptions(precondition=False, max_iter=5000))
        assert report.converged

    def test_unpreconditioned_rank_budget_holds_on_w(self):
        rng = np.random.default_rng(14)
        design = random_design(rng, 4, 6, 30, 10)
        params, _ = fit_pgd(design, 0.3, 2, SolverOptions(precondition=False, max_iter=500))
        assert numerical_rank(params.w) <= 2


class TestPredict:
    def _sample(self, x):
        x = np.asarray(x, dtype=float)
        return WindowSample(x, np.ones_like(x, dtype=bool), 1.0, False, "S", x.shape[0])

    def test_constant_model(self):
        params = ModelParams(np.zeros((2, 2)), 3.5, 1, 0.0)
        assert predict_windows(params, [self._sample([[9, 9], [9, 9]])])[0] == 3.5

    def test_inner_product(self):
        params = ModelParams(np.eye(2), 0.0, 2, 0.0)
        assert predict_windows(params, [self._sample([[1, 2], [3, 4]])])[0] == 5.0

    def test_unimputed_rejected(self):
        params = ModelParams(np.eye(2), 0.0, 2, 0.0)
        s = self._sample([[1, 2], [3, 4]])
        s.x_mask[0, 0] = False
        with pytest.raises(UnimputedSampleError):
            predict_windows(params, [self._sample([[5, 6], [7, 8]]), s])

    def test_shape_mismatch_rejected(self):
        params = ModelParams(np.eye(2), 0.0, 2, 0.0)
        with pytest.raises(DataError, match="shape"):
            predict_windows(params, [self._sample([[1, 2, 3], [4, 5, 6]])])

    def test_factor_form_agrees(self):
        rng = np.random.default_rng(15)
        w = generate_lowrank_matrix(4, 6, 2, seed=15)
        params = ModelParams(w, 0.3, 2, 0.0)
        u, v = factorize(params)
        for _ in range(20):
            x = rng.standard_normal((4, 6))
            bilinear = sum(u[:, r] @ x @ v[:, r] for r in range(2)) + params.b
            assert abs(predict_windows(params, [self._sample(x)])[0] - bilinear) < 1e-9


class TestFactorize:
    def test_rank_one_outer_product(self):
        w = np.outer([1.0, -2.0, 0.5], [2.0, 0.0, 1.0, 3.0])
        u, v = factorize(ModelParams(w, 0.0, 1, 0.0))
        assert np.linalg.norm(u @ v.T - w) < 1e-10

    def test_zero_matrix(self):
        u, v = factorize(ModelParams(np.zeros((3, 4)), 0.0, 2, 0.0))
        assert np.allclose(u @ v.T, 0.0)

    def test_rank_two_reconstruction(self):
        w = generate_lowrank_matrix(5, 7, 2, seed=16)
        u, v = factorize(ModelParams(w, 0.0, 2, 0.0))
        rel = np.linalg.norm(u @ v.T - w) / np.linalg.norm(w)
        assert rel < 1e-8
