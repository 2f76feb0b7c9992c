import warnings

import numpy as np
import pytest

from cenrank.cohort import DesignSet, assemble_design, extract_windows
from cenrank.errors import DataError, NumericalError, UnimputedSampleError
from cenrank.evaluation import impute_split, predict_windows
from cenrank import solver
from cenrank.imputation import MeanImputer
from cenrank.solver import (
    ModelParams,
    SolverOptions,
    factorize,
    fit_pgd,
    gradient,
    numerical_rank,
    objective,
    project_rank,
)
from cenrank.synthetic import SyntheticSpec, generate_cohort, generate_lowrank_matrix, oracle_ols
from helpers import excess_sv_ratio, halves, make_windows, null_space_problem, random_design, stacked_design


def design_from(Xc, yc, Xz=None, yz=None, T=None, P=None):
    d = Xc.shape[0]
    if Xz is None:
        Xz, yz = np.zeros((d, 0)), np.zeros(0)
    return stacked_design(Xc, yc, Xz, yz, T, P)


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
            _, _, Xz, yz = halves(design)
            margins = Xz.T @ params.w.ravel() + params.b - yz
            if np.any(np.abs(margins) < 1e-4):
                continue
            g_w, g_b = gradient(params, design)
            analytic = np.concatenate([g_w, [g_b]])
            fd = finite_difference(params, design)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-6


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
            Xc, yc, _, _ = halves(design)
            obj_oracle = 0.5 * np.sum((Xc.T @ oracle.w_vec + oracle.b - yc) ** 2)
            params, report = fit_pgd(design, 0.0, 3, SolverOptions(tol=1e-16, max_iter=30000))
            assert report.converged
            assert abs(objective(params, design) - obj_oracle) / obj_oracle < 1e-8
            pred_pgd = Xc.T @ params.w.ravel() + params.b
            pred_orc = Xc.T @ oracle.w_vec + oracle.b
            assert np.max(np.abs(pred_pgd - pred_orc)) < 1e-6

    def test_single_sample_interpolates(self):
        rng = np.random.default_rng(9)
        design = random_design(rng, 2, 3, 1, 0)
        params, report = fit_pgd(design, 0.0, 1, SolverOptions(tol=1e-16, max_iter=5000))
        assert report.final_objective < 1e-10

    def test_trace_monotone_and_rank_feasible(self):
        rng = np.random.default_rng(10)
        design = random_design(rng, 4, 5, 25, 12)
        params, report = fit_pgd(design, 0.5, 2, SolverOptions(max_iter=300))
        trace = report.objective_trace
        assert np.all(np.diff(trace) <= 0)
        assert excess_sv_ratio(params.w, 2) <= 1e-10

    def test_design_without_complete_samples_fits(self):
        rng = np.random.default_rng(12)
        Xz = rng.standard_normal((6, 4))
        design = DesignSet(Xz, np.ones(4), np.ones(4, dtype=bool), 2, 3)
        params, report = fit_pgd(design, 1.0, 1, SolverOptions(max_iter=50))
        assert params.w.shape == (2, 3)
        assert numerical_rank(params.w) <= 1 and np.all(np.diff(report.objective_trace) <= 0)

    def test_full_rank_fit_is_stationary(self):
        rng = np.random.default_rng(13)
        design = random_design(rng, 3, 3, 30, 8)
        params, report = fit_pgd(design, 0.2, 3, SolverOptions(tol=1e-16))
        g_w, g_b = gradient(params, design)
        assert report.converged and report.iterations == 0
        assert np.linalg.norm(np.append(g_w, g_b)) < 1e-9 * data_scale(design, 0.2)

    def test_capped_fit_warns(self):
        design = random_design(np.random.default_rng(15), 3, 4, 30, 10)
        with pytest.warns(RuntimeWarning, match="max_iter=3"):
            _, report = fit_pgd(design, 0.1, 2, SolverOptions(max_iter=3))
        assert not report.converged and report.iterations == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = fit_pgd(design, 0.1, 2, SolverOptions(max_iter=5000))
        assert report.converged

    @pytest.mark.parametrize("setting", [{"tol": -1e-4}, {"tol": float("nan")}, {"max_iter": -1}])
    def test_options_reject_a_negative_setting(self, setting):
        with pytest.raises(ValueError, match="tol and max_iter must be nonnegative"):
            SolverOptions(**setting)
        with pytest.raises(AttributeError):
            SolverOptions().tol = -1.0

    def test_pass_that_does_not_lower_the_objective_ends_the_fit(self):
        design = random_design(np.random.default_rng(17), 4, 5, 40, 15)
        with pytest.warns(RuntimeWarning, match="stalled"):
            _, report = fit_pgd(design, 0.3, 2, SolverOptions(tol=1e-15, max_iter=5000))
        assert not report.converged and 0 < report.iterations < 5000
        assert np.all(np.diff(report.objective_trace) < 0)

    def test_level_pass_at_a_stationary_point_ends_the_fit_converged(self):
        # the first of a run of random designs whose fit ends by a pass that leaves the objective where it was
        rng = np.random.default_rng(12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the stalled fits before it
            for _ in range(200):
                T, P = int(rng.integers(3, 6)), int(rng.integers(3, 8))
                r, lam = int(rng.integers(1, min(T, P))), (0.05, 0.3)[int(rng.integers(2))]
                design = random_design(rng, T, P, int(rng.integers(20, 80)), int(rng.integers(5, 30)))
                params, report = fit_pgd(design, lam, r, SolverOptions(tol=1e-9, max_iter=5000))
                trace = report.objective_trace
                if report.iterations and trace[-1] == trace[-2]:
                    break
            else:
                pytest.fail("no fit ended by a level pass")
        assert report.converged and np.all(np.diff(trace[:-1]) < 0)
        assert abs(report.final_objective - objective(params, design)) <= 1e-12 * report.final_objective
        U, s, Vt = np.linalg.svd(params.w)
        u, v = U[:, :r] * np.sqrt(s[:r]), Vt[:r].T * np.sqrt(s[:r])
        g_w, g_b = gradient(params, design)
        G = g_w.reshape(T, P)
        assert np.sqrt(np.sum((G @ v) ** 2) + np.sum((G.T @ u) ** 2) + g_b ** 2) <= 1e-9 * data_scale(design, lam)

    def test_unpreconditioned_rank_budget_holds_on_w(self):
        rng = np.random.default_rng(14)
        design = random_design(rng, 4, 6, 30, 10)
        params, _ = fit_pgd(design, 0.3, 2, SolverOptions(max_iter=500))
        assert numerical_rank(params.w) <= 2

    @pytest.mark.parametrize("T", [3, 4, 5, 6])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_rank_budget_holds_on_default_options(self, T, r):
        design = random_design(np.random.default_rng(10 * T + r), T, 5, 60, 20)
        params, report = fit_pgd(design, 0.05, r)
        assert numerical_rank(params.w) <= r and report.rank_w <= r
        assert excess_sv_ratio(params.w, r) <= 1e-10

    def test_non_finite_objective_is_numerical_error(self):
        design = random_design(np.random.default_rng(16), 3, 4, 20, 5)
        design.y[0] = 1e200  # a complete sample's label
        with pytest.raises(NumericalError):
            fit_pgd(design, 0.05, 2)


def data_scale(design, lambda_):
    """The scale of fit_pgd's stopping bound: ||X_c y_c|| + lambda ||X_z y_z||."""
    Xc, yc, Xz, yz = halves(design)
    return np.linalg.norm(Xc @ yc) + lambda_ * np.linalg.norm(Xz @ yz)


def planted_design(rng, T, P, r, n_c, n_z):
    """A random design with labels from a planted rank-r model plus unit noise."""
    w = generate_lowrank_matrix(T, P, r, seed=int(rng.integers(1 << 31)))
    w *= 3.0 / np.linalg.norm(w)
    b = rng.standard_normal()
    Xc = rng.standard_normal((T * P, n_c))
    Xz = rng.standard_normal((T * P, n_z))
    yc = Xc.T @ w.ravel() + b + rng.standard_normal(n_c)
    yz = Xz.T @ w.ravel() + b + rng.standard_normal(n_z)
    return stacked_design(Xc, yc, Xz, yz, T, P)


def reference_pgd(design, lambda_, r, tol=1e-12, max_iter=100_000):
    """Unpreconditioned projected gradient descent, written out independently of the solver.

    Starts at w = 0, b = the mean complete label; each step starts at 1/L (L the
    squared spectral norms of the designs with their intercept rows) and is
    halved until the objective decreases; stops when the relative decrease
    falls below tol. Returns the final objective.
    """
    T, P = design.T, design.P
    Xc, yc, Xz, yz = halves(design)

    def evaluate(w, b):
        res = Xc.T @ w + b - yc
        hinge = np.minimum(0.0, Xz.T @ w + b - yz)
        return 0.5 * res @ res + 0.5 * lambda_ * hinge @ hinge, res, hinge

    def lipschitz(X):
        return np.linalg.norm(np.vstack([X, np.ones((1, X.shape[1]))]), 2) ** 2

    eta0 = 1.0 / (lipschitz(Xc) + lambda_ * lipschitz(Xz))
    w, b = np.zeros(T * P), float(yc.mean())
    f, res, hinge = evaluate(w, b)
    for _ in range(max_iter):
        g_w = Xc @ res + lambda_ * (Xz @ hinge)
        g_b = res.sum() + lambda_ * hinge.sum()
        eta = eta0
        for _ in range(51):
            w_new = project_rank((w - eta * g_w).reshape(T, P), r).ravel()
            f_new, res_new, hinge_new = evaluate(w_new, b - eta * g_b)
            if f_new < f:
                break
            eta *= 0.5
        else:
            break
        decrease, f_prev = f - f_new, f
        w, b, f, res, hinge = w_new, b - eta * g_b, f_new, res_new, hinge_new
        if decrease / max(f_prev, 1.0) < tol:
            break
    return f


class TestAlternatingSolver:
    def test_objective_at_or_below_projected_gradient_reference(self):
        rng = np.random.default_rng(20)
        for i in range(12):
            T, P = int(rng.integers(3, 7)), int(rng.integers(4, 9))
            r = int(rng.integers(1, min(T, P)))
            lam = (0.05, 0.3)[i % 2]
            design = planted_design(rng, T, P, r, int(rng.integers(60, 150)), int(rng.integers(20, 60)))
            _, report = fit_pgd(design, lam, r, SolverOptions(tol=1e-8))
            assert report.converged
            assert report.final_objective <= (1 + 1e-8) * reference_pgd(design, lam, r)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_converged_means_stationary_in_the_factors(self, tol):
        rng = np.random.default_rng(21)
        for i in range(8):
            T, P = int(rng.integers(3, 7)), int(rng.integers(4, 9))
            r, lam = int(rng.integers(1, min(T, P))), (0.05, 0.3)[i % 2]
            design = planted_design(rng, T, P, r, 80, 30)
            params, report = fit_pgd(design, lam, r, SolverOptions(tol=tol))
            assert report.converged
            # the balanced factors: the SVD of w with its singular values split evenly
            U, s, Vt = np.linalg.svd(params.w)
            u, v = U[:, :r] * np.sqrt(s[:r]), Vt[:r].T * np.sqrt(s[:r])
            g_w, g_b = gradient(params, design)
            G = g_w.reshape(T, P)
            norm = np.sqrt(np.sum((G @ v) ** 2) + np.sum((G.T @ u) ** 2) + g_b ** 2)
            assert norm <= tol * data_scale(design, lam) * (1 + 1e-6)


def two_half_terms(design, lambda_, theta):
    """Objective, gradient and Newton Hessian at theta = [vec(w); b], from the complete and censored halves.

    The formulas of the solver that held the halves apart: residuals r of
    the complete columns, margins m = min(0, residual) of the censored ones,
    f = 1/2 r'r + lambda/2 m'm, g = Z_c r + lambda Z_z m and
    H = Z_c Z_c' + lambda Z_A Z_A', Z = [X; 1] and A the censored samples with m < 0.
    """
    Xc, yc, Xz, yz = halves(design)
    Zc, Zz = np.vstack([Xc, np.ones((1, yc.size))]), np.vstack([Xz, np.ones((1, yz.size))])
    r, m = Zc.T @ theta - yc, np.minimum(0.0, Zz.T @ theta - yz)
    Za = Zz[:, m < 0]
    return (0.5 * float(r @ r) + 0.5 * lambda_ * float(m @ m), Zc @ r + lambda_ * (Zz @ m),
            Zc @ Zc.T + lambda_ * (Za @ Za.T))


@pytest.mark.parametrize("seed", range(12))
def test_one_matrix_terms_match_the_two_half_formulas(seed, monkeypatch):
    # every fourth design has no censored samples, and every fourth from the second none complete;
    # the columns are shuffled, so complete and censored samples interleave
    rng = np.random.default_rng(seed)
    T, P = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    n_c = 0 if seed % 4 == 1 else int(rng.integers(1, 40))
    n_z = 0 if seed % 4 == 0 else int(rng.integers(1, 30))
    stacked = random_design(rng, T, P, n_c, n_z)
    perm = rng.permutation(n_c + n_z)
    design = DesignSet(stacked.X[:, perm], stacked.y[perm], stacked.censored[perm], T, P)
    lam = (0.05, 0.3, 1.0)[seed % 3]
    theta = rng.standard_normal(T * P + 1)
    f, g, H = two_half_terms(design, lam, theta)
    params = ModelParams(theta[:-1].reshape(T, P), float(theta[-1]), min(T, P), lam)
    g_w, g_b = gradient(params, design)
    hessians = []

    def recorded(H, rhs):
        hessians.append(H)
        return np.zeros_like(rhs)  # no descent direction: _newton returns after its first system
    monkeypatch.setattr(solver, "_certified", lambda *args: False)
    monkeypatch.setattr(solver, "_solve", recorded)
    solver._newton(solver._block(design.X, design), lam, theta)

    def close(got, want):
        return np.linalg.norm(np.asarray(got) - want) <= 1e-12 * np.linalg.norm(want)
    assert close(objective(params, design), f)
    assert close(np.append(g_w, g_b), g)
    assert len(hessians) == 1 and close(hessians[0], H)


class TestNullSpace:
    """Windows whose day rows span 3 of P = 10 dimensions leave w a null space N the data never sees."""

    @pytest.mark.parametrize("r", [2, 4])
    def test_fit_has_no_component_in_the_null_space(self, r):
        design, test, moved, N = null_space_problem(np.random.default_rng(31), T=4)
        params, report = fit_pgd(design, 0.05, r)
        assert report.converged
        assert np.linalg.norm(N.T @ params.w_vec) <= 1e-8 * np.linalg.norm(params.w)
        pred = predict_windows(params, test)
        assert np.all(np.abs(predict_windows(params, moved) - pred) <= 1e-9 * np.abs(pred))

    @pytest.mark.parametrize("r", [1, 3])
    def test_start_with_zero_curvature_returns(self, r):
        # no complete samples, and every censored margin is already met at w = 0, b = 0
        Xz = np.random.default_rng(32).standard_normal((12, 5))
        design = DesignSet(Xz, np.full(5, -1.0), np.ones(5, dtype=bool), 3, 4)
        with np.errstate(all="raise"):
            params, report = fit_pgd(design, 0.5, r)
        assert report.converged and not params.w.any() and params.b == 0.0


class TestCertifiedNewton:
    """A block whose complete-sample Hessian is certified far from singular is solved by LU, not eigh."""

    @staticmethod
    def recorded(monkeypatch, name, log):
        """Patch solver.<name> to append each call's result to log."""
        fn = getattr(solver, name)

        def wrapper(*args):
            log.append(fn(*args))
            return log[-1]
        monkeypatch.setattr(solver, name, wrapper)

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_fit_matches_the_eigh_fit(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        T, P = int(rng.integers(2, 6)), int(rng.integers(3, 8))
        design = random_design(rng, T, P, int(rng.integers(T * P + 10, 100)), int(rng.integers(5, 30)))
        lam, r = (0.05, 0.3)[seed % 2], int(rng.integers(1, min(T, P)))
        certified = []
        with monkeypatch.context() as patched:
            self.recorded(patched, "_certified", certified)
            params, report = fit_pgd(design, lam, r)
        with monkeypatch.context() as patched:
            patched.setattr(solver, "_certified", lambda *args: False)
            want, want_report = fit_pgd(design, lam, r)
        assert certified[0] and report.iterations == want_report.iterations > 0
        assert np.linalg.norm(params.w - want.w) <= 1e-12 * np.linalg.norm(want.w)

    @pytest.mark.parametrize("r", [2, 4])
    def test_null_space_design_takes_the_eigh_path(self, r, monkeypatch):
        design = null_space_problem(np.random.default_rng(31), T=4)[0]
        certified, solved = [], []
        self.recorded(monkeypatch, "_certified", certified)
        self.recorded(monkeypatch, "_solve", solved)
        fit_pgd(design, 0.05, r)
        assert certified[0] is False and solved and solved[0].shape == (design.T * design.P + 1,)


class TestNewtonBlock:
    """`_newton` on the unconstrained block [X; 1] of a random design."""

    @pytest.mark.parametrize("seed", range(12))
    def test_start_at_the_minimum_returns_after_one_step(self, seed, monkeypatch):
        # before the rounding exit, seeds 2, 4 and 10 spent 5 to 198 objective evaluations here
        rng = np.random.default_rng(seed)
        T, P = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        design = random_design(rng, T, P, int(rng.integers(20, 60)), int(rng.integers(5, 30)))
        block = solver._block(design.X, design)
        theta, exact = solver._newton(block, 0.3, np.zeros(T * P + 1))
        assert exact
        calls = []
        for name in ("_objective_vec", "_lu_solve", "_solve"):
            fn = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
        again, exact = solver._newton(block, 0.3, theta)
        assert exact and calls.count("_objective_vec") <= 2 and calls.count("_lu_solve") + calls.count("_solve") <= 1
        assert np.linalg.norm(again - theta) <= 1e-9 * np.linalg.norm(theta)


@pytest.mark.parametrize("seed", range(4))
def test_planted_split_mean_imputed_rank2_fit_converges(seed):
    # the mean-imputed rank-2 fit of criterion C9's planted split
    spec = SyntheticSpec(n_subjects=800, days_per_subject=5, P=10, T_star=5, true_rank=2, noise_sigma=1.0,
                         censor_horizon=21.0, missing_rate=0.10, latent_rank=8, seed=seed)
    windows = extract_windows(generate_cohort(spec)[0], 5, horizon=21.0)
    perm = np.random.default_rng(seed + 77).permutation(len(windows))
    train, _, _ = impute_split(windows, np.sort(perm[:600]), np.sort(perm[600:800]), MeanImputer())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, report = fit_pgd(assemble_design(train), 0.05, 2, SolverOptions(tol=1e-9, max_iter=12000))
    assert report.converged


class TestPredict:
    def test_constant_model(self):
        params = ModelParams(np.zeros((2, 2)), 3.5, 1, 0.0)
        assert predict_windows(params, make_windows([[[9, 9], [9, 9]]]))[0] == 3.5

    def test_inner_product(self):
        params = ModelParams(np.eye(2), 0.0, 2, 0.0)
        assert predict_windows(params, make_windows([[[1, 2], [3, 4]]]))[0] == 5.0

    def test_unimputed_rejected(self):
        params = ModelParams(np.eye(2), 0.0, 2, 0.0)
        windows = make_windows([[[5, 6], [7, 8]], [[1, 2], [3, 4]]])
        windows[1].x[0, 0] = np.nan
        with pytest.raises(UnimputedSampleError, match="subject 'S1'"):
            predict_windows(params, windows)

    def test_shape_mismatch_rejected(self):
        params = ModelParams(np.eye(2), 0.0, 2, 0.0)
        with pytest.raises(DataError, match="shape"):
            predict_windows(params, make_windows([[[1, 2, 3], [4, 5, 6]]]))

    def test_factor_form_agrees(self):
        rng = np.random.default_rng(15)
        w = generate_lowrank_matrix(4, 6, 2, seed=15)
        params = ModelParams(w, 0.3, 2, 0.0)
        u, v = factorize(params)
        for _ in range(20):
            x = rng.standard_normal((4, 6))
            bilinear = sum(u[:, r] @ x @ v[:, r] for r in range(2)) + params.b
            assert abs(predict_windows(params, make_windows([x]))[0] - bilinear) < 1e-9


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
