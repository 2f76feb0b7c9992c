import inspect
import itertools
import warnings

import numpy as np
import pytest

from cenrank import baselines
from cenrank.baselines import ols_fit, svr_fit
from cenrank.cli import dispatch
from cenrank.cohort import DesignSet
from cenrank.errors import DataError, NumericalError
from cenrank.synthetic import oracle_ols
from helpers import random_design


def svr_objective(design, w_vec, b, C, eps, lam, mode):
    obj = 0.5 * float(w_vec @ w_vec)
    res = design.X_complete.T @ w_vec + b - design.y_complete
    obj += C * float(np.maximum(0.0, np.abs(res) - eps).sum())
    if mode == "weighted" and design.n_censored:
        res_c = design.X_censored.T @ w_vec + b - design.y_censored
        obj += C * lam * float(np.maximum(0.0, np.abs(res_c) - eps).sum())
    return obj


def reference_svr_fit(design, C, eps, lam, mode, trace_out, tol=1e-8, max_iter=5000, patience=50):
    """The normalized subgradient loop svr_fit ran before its interior-point method, kept as a reference.

    Steps of constant length along the normalized subgradient, halved
    (restarting from the best iterate) whenever `patience` steps pass
    without a relative improvement of tol; `trace_out` gets the best
    objective per step. Complete and censored samples are held apart.
    """
    Z = np.vstack([design.X_complete, np.ones((1, design.n_complete))])
    y = design.y_complete
    if mode == "weighted" and design.n_censored:
        Zc = np.vstack([design.X_censored, np.ones((1, design.n_censored))])
        yc = design.y_censored
    else:
        Zc, yc = np.zeros((Z.shape[0], 0)), np.zeros(0)

    def objective(theta):
        w = theta[:-1]
        obj = 0.5 * float(w @ w)
        res = Z.T @ theta - y
        obj += C * float(np.maximum(0.0, np.abs(res) - eps).sum())
        if yc.size:
            res_c = Zc.T @ theta - yc
            obj += C * lam * float(np.maximum(0.0, np.abs(res_c) - eps).sum())
        return obj

    def subgradient(theta):
        res = Z.T @ theta - y
        outside = np.abs(res) > eps
        g = np.concatenate([theta[:-1], [0.0]]) + C * (Z[:, outside] @ np.sign(res[outside]))
        if yc.size:
            res_c = Zc.T @ theta - yc
            outside_c = np.abs(res_c) > eps
            g = g + C * lam * (Zc[:, outside_c] @ np.sign(res_c[outside_c]))
        return g

    theta = np.zeros(Z.shape[0])
    theta[-1] = float(y.mean())
    eta0 = max(1.0, float(np.std(y)))
    eta = eta0
    best, best_obj, stall = theta.copy(), objective(theta), 0
    for _ in range(max_iter):
        g = subgradient(theta)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            break
        theta = theta - eta * (g / norm)
        obj = objective(theta)
        if obj < best_obj - tol * max(abs(best_obj), 1.0):
            best_obj, best, stall = obj, theta.copy(), 0
        else:
            stall += 1
            if stall >= patience:
                eta *= 0.5
                theta, stall = best.copy(), 0
                if eta < 1e-12 * eta0:
                    break
        trace_out.append(best_obj)
    return best[:-1], float(best[-1])


class TestOls:
    def test_interpolates_small_consistent_system(self):
        rng = np.random.default_rng(0)
        design = random_design(rng, 2, 2, 4, 0, noise=0.0)
        params = ols_fit(design, 0.0, censored_mode="ignore")
        res = design.X_complete.T @ params.w_vec + params.b - design.y_complete
        assert np.max(np.abs(res)) < 1e-8

    def test_ignore_equals_weighted_at_lambda_zero(self):
        rng = np.random.default_rng(1)
        design = random_design(rng, 3, 3, 20, 8)
        a = ols_fit(design, 0.0, censored_mode="ignore")
        b = ols_fit(design, 0.0, censored_mode="weighted")
        assert np.array_equal(a.w_vec, b.w_vec) and a.b == b.b

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            design = random_design(rng, 3, 4, 40, 0)
            got = ols_fit(design, 0.0, censored_mode="ignore")
            want = oracle_ols(design, ridge=1e-12)
            assert np.max(np.abs(got.w_vec - want.w_vec)) < 1e-8
            assert abs(got.b - want.b) < 1e-8

    def test_weighted_mode_is_global_minimum(self):
        rng = np.random.default_rng(3)
        design = random_design(rng, 2, 3, 15, 10)
        lam = 0.7
        params = ols_fit(design, lam, censored_mode="weighted")

        def obj(w_vec, b):
            rc = design.X_complete.T @ w_vec + b - design.y_complete
            rz = design.X_censored.T @ w_vec + b - design.y_censored
            return 0.5 * rc @ rc + 0.5 * lam * rz @ rz

        base = obj(params.w_vec, params.b)
        for _ in range(100):
            dw = rng.standard_normal(params.w_vec.size) * 1e-3
            db = rng.standard_normal() * 1e-3
            assert obj(params.w_vec + dw, params.b + db) >= base - 1e-10

    def test_requires_complete_samples(self):
        design = DesignSet(np.zeros((4, 0)), np.zeros(0), np.ones((4, 2)), np.ones(2), 2, 2)
        with pytest.raises(DataError):
            ols_fit(design, 0.0)


class TestSvr:
    def test_constant_targets(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 12))
        design = DesignSet(X, np.full(12, 3.0), np.zeros((6, 0)), np.zeros(0), 2, 3)
        params = svr_fit(design, C=100.0, epsilon_tube=0.1)
        assert abs(params.b - 3.0) < 1e-3
        assert np.linalg.norm(params.w_vec) < 1e-3

    def test_inactive_tube_keeps_zero_solution(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 8))
        y = 2.0 + rng.uniform(-0.05, 0.05, 8)  # all inside the default tube at b = mean(y)
        design = DesignSet(X, y, np.zeros((4, 0)), np.zeros(0), 2, 2)
        params = svr_fit(design, C=1.0, epsilon_tube=0.2)
        assert np.allclose(params.w_vec, 0.0)
        assert params.b == pytest.approx(float(y.mean()))

    def test_matches_dense_grid_oracle(self):
        # one-dimensional five-point instance; the (w, b) plane is scanned
        # on a fine grid as an independent reference
        x = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        y = np.array([0.2, 1.1, 1.9, 3.2, 3.8])
        design = DesignSet(x, y, np.zeros((1, 0)), np.zeros(0), 1, 1)
        C, eps = 1.0, 0.1
        params = svr_fit(design, C=C, epsilon_tube=eps, max_iter=20000, tol=1e-10)

        ws = np.linspace(0.5, 1.5, 401)
        bs = np.linspace(-0.5, 0.8, 521)
        best = np.inf
        for w in ws:
            res = np.abs(w * x[0] + bs[:, None] - y) - eps
            loss = 0.5 * w * w + C * np.maximum(0.0, res).sum(axis=1)
            best = min(best, loss.min())
        got = svr_objective(design, params.w_vec, params.b, C, eps, 0.0, "ignore")
        assert got <= best + 1e-4

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        design = random_design(rng, 2, 3, 20, 6)
        trace = []
        svr_fit(design, C=2.0, epsilon_tube=0.1, lambda_=0.3, max_iter=3000, trace_out=trace)
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_lambda_zero_matches_ignore(self):
        rng = np.random.default_rng(7)
        design = random_design(rng, 2, 2, 12, 6)
        a = svr_fit(design, lambda_=0.0, censored_mode="weighted", max_iter=2000)
        b = svr_fit(design, lambda_=0.0, censored_mode="ignore", max_iter=2000)
        assert np.array_equal(a.w_vec, b.w_vec) and a.b == b.b

    def test_rejects_bad_hyperparams(self):
        rng = np.random.default_rng(8)
        design = random_design(rng, 2, 2, 6, 0)
        with pytest.raises(ValueError):
            svr_fit(design, C=0.0)
        with pytest.raises(ValueError):
            svr_fit(design, epsilon_tube=-0.1)

    def test_warns_when_stopped_at_max_iter(self):
        rng = np.random.default_rng(9)
        design = random_design(rng, 2, 3, 20, 6)
        with pytest.warns(RuntimeWarning, match="max_iter=5"):
            svr_fit(design, lambda_=0.3, max_iter=5)

    def test_no_warning_when_the_step_converges(self):
        rng = np.random.default_rng(10)
        design = random_design(rng, 2, 3, 20, 6)
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svr_fit(design, lambda_=0.3, trace_out=trace)
        assert len(trace) < inspect.signature(svr_fit).parameters["max_iter"].default


@pytest.mark.parametrize("seed", range(20, 30))
def test_svr_matches_unfused_reference(seed):
    # the interior-point fit ends at or below the subgradient loop's best iterate
    rng = np.random.default_rng(seed)
    T, P = rng.integers(1, 4, size=2)
    design = random_design(rng, T, P, int(rng.integers(15, 60)), int(rng.integers(4, 25)))
    for lam, mode in ((0.05, "weighted"), (0.3, "weighted"), (0.3, "ignore")):
        got = svr_fit(design, C=2.0, epsilon_tube=0.1, lambda_=lam, censored_mode=mode)
        want_trace = []
        reference_svr_fit(design, 2.0, 0.1, lam, mode, want_trace)
        got_obj = svr_objective(design, got.w_vec, got.b, 2.0, 0.1, lam, mode)
        assert got_obj <= want_trace[-1] * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(30, 35))
def test_svr_no_small_step_lowers_the_objective(seed):
    rng = np.random.default_rng(seed)
    design = random_design(rng, 2, 3, 30, 12)
    C, eps, lam = 2.0, 0.1, 0.3
    params = svr_fit(design, C=C, epsilon_tube=eps, lambda_=lam, censored_mode="weighted")
    base = svr_objective(design, params.w_vec, params.b, C, eps, lam, "weighted")
    for _ in range(200):
        dw = rng.standard_normal(params.w_vec.size) * 1e-4
        db = rng.standard_normal() * 1e-4
        assert svr_objective(design, params.w_vec + dw, params.b + db, C, eps, lam, "weighted") >= base * (1 - 1e-9)


def test_svr_cv_fold_designs_converge_at_or_below_the_reference(tmp_path, monkeypatch):
    # the 10 SVR fits of one `cenrank cv` run shaped like the cv_grid benchmark
    # (40 subjects x 10 days, latent rank 8, BMC, T in {4, 5}, 5 folds,
    # defaults C = 1, eps = 0.1, lambda = 0.05 weighted)
    fits = []

    def recorded(design, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = svr_fit(design, **kwargs)
        fits.append((design, kwargs, params))
        return params

    monkeypatch.setattr(baselines, "svr_fit", recorded)
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "0", "--n-subjects", "40", "--days-per-subject", "10",
                     "--latent-rank", "8"]) == 0
    assert dispatch(["cv", "--observations", str(data / "observations.csv"), "--outcomes",
                     str(data / "outcomes.csv"), "--dictionary", str(data / "variables.txt"), "--out",
                     str(tmp_path / "cv"), "--methods", "svr", "--imputer", "bmc", "--durations", "4,5",
                     "--ranks", "2", "--lambdas", "0.05", "--k", "5", "--seed", "0"]) == 0
    assert len(fits) == 10
    for design, kwargs, params in fits:
        assert kwargs == {"lambda_": 0.05, "censored_mode": "weighted"}
        got = svr_objective(design, params.w_vec, params.b, 1.0, 0.1, 0.05, "weighted")
        want_trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference_svr_fit(design, 1.0, 0.1, 0.05, "weighted", want_trace)
        assert got <= want_trace[-1] * (1 + 1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_svr_non_finite_iterate_is_numerical_error():
    rng = np.random.default_rng(11)
    design = random_design(rng, 2, 3, 20, 6)
    design.y_complete[0] = 1e200
    with pytest.raises(NumericalError, match="non-finite"):
        svr_fit(design, lambda_=0.3)


def stacked_augmented(design, lambda_, censored_mode):
    """`_augmented` as it was when it stacked its own [X; 1] blocks, as the (block, weight) pair.

    Ignored or absent censored samples give an empty censored block; the
    weight is always lambda, so svr_fit stacks whenever lambda is nonzero.
    """
    Z = np.vstack([design.X_complete, np.ones((1, design.n_complete))])
    y = design.y_complete
    if censored_mode == "weighted" and design.n_censored:
        Zc = np.vstack([design.X_censored, np.ones((1, design.n_censored))])
        yc = design.y_censored
    else:
        Zc = np.zeros((Z.shape[0], 0))
        yc = np.zeros(0)
    return DesignSet(Z, y, Zc, yc, 1, Z.shape[0]), lambda_


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(40, 52))
def test_fits_match_the_stacked_blocks_bit_for_bit(seed, monkeypatch):
    # every third design has no censored samples; "ignore" is reached by no CLI command
    rng = np.random.default_rng(seed)
    T, P = rng.integers(1, 4, size=2)
    n_censored = 0 if seed % 3 == 0 else int(rng.integers(1, 20))
    design = random_design(rng, T, P, int(rng.integers(5, 40)), n_censored)
    for lam, mode in itertools.product((0.0, 0.05, 0.3), ("weighted", "ignore")):
        got = [ols_fit(design, lam, mode), svr_fit(design, lambda_=lam, censored_mode=mode)]
        with monkeypatch.context() as patched:
            patched.setattr(baselines, "_augmented", stacked_augmented)
            want = [ols_fit(design, lam, mode), svr_fit(design, lambda_=lam, censored_mode=mode)]
        for g, w in zip(got, want):
            assert np.array_equal(g.w, w.w) and g.b == w.b, (g.method, lam, mode)
