import itertools
import warnings

import numpy as np
import pytest

from cenrank import baselines
from cenrank.baselines import ols_fit, svr_fit
from cenrank.cli import dispatch
from cenrank.cohort import DesignSet
from cenrank.errors import DataError, NumericalError
from cenrank.evaluation import predict_windows
from cenrank.synthetic import oracle_ols
from helpers import halves, null_space_problem, random_design


def svr_objective(design, w_vec, b, C, eps, lam, mode):
    Xc, yc, Xz, yz = halves(design)
    obj = 0.5 * float(w_vec @ w_vec)
    res = Xc.T @ w_vec + b - yc
    obj += C * float(np.maximum(0.0, np.abs(res) - eps).sum())
    if mode == "weighted" and yz.size:
        res_c = Xz.T @ w_vec + b - yz
        obj += C * lam * float(np.maximum(0.0, np.abs(res_c) - eps).sum())
    return obj


def reference_svr_fit(design, C, eps, lam, mode, trace_out, tol=1e-8, max_iter=5000, patience=50):
    """The normalized subgradient loop svr_fit ran before its interior-point method, kept as a reference.

    Steps of constant length along the normalized subgradient, halved
    (restarting from the best iterate) whenever `patience` steps pass
    without a relative improvement of tol; `trace_out` gets the best
    objective per step. Complete and censored samples are held apart.
    """
    Xc, y, Xz, yz = halves(design)
    Z = np.vstack([Xc, np.ones((1, y.size))])
    if mode == "weighted" and yz.size:
        Zc = np.vstack([Xz, np.ones((1, yz.size))])
        yc = yz
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
        Xc, yc, _, _ = halves(design)
        res = Xc.T @ params.w_vec + params.b - yc
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
        Xc, yc, Xz, yz = halves(design)

        def obj(w_vec, b):
            rc = Xc.T @ w_vec + b - yc
            rz = Xz.T @ w_vec + b - yz
            return 0.5 * rc @ rc + 0.5 * lam * rz @ rz

        base = obj(params.w_vec, params.b)
        for _ in range(100):
            dw = rng.standard_normal(params.w_vec.size) * 1e-3
            db = rng.standard_normal() * 1e-3
            assert obj(params.w_vec + dw, params.b + db) >= base - 1e-10

    @pytest.mark.parametrize("mode", ["weighted", "ignore"])
    def test_no_component_in_the_null_space(self, mode):
        design, test, moved, N = null_space_problem(np.random.default_rng(33), T=4)
        params = ols_fit(design, 0.05, mode)
        assert params.hyperparams == {"censored_mode": mode}
        assert np.linalg.norm(N.T @ params.w_vec) <= 1e-8 * np.linalg.norm(params.w)
        pred = predict_windows(params, test)
        assert np.all(np.abs(predict_windows(params, moved) - pred) <= 1e-9 * np.abs(pred))

    @pytest.mark.parametrize("mode", ["weighted", "ignore"])
    def test_normal_matrix_is_exactly_symmetric(self, mode, monkeypatch):
        # a general product (Z c) Z' leaves hundreds of entries of this block unequal to their transpose
        design = random_design(np.random.default_rng(34), 5, 10, 200, 80)
        seen = []
        solve = baselines._solve
        monkeypatch.setattr(baselines, "_solve", lambda H, rhs: seen.append(H) or solve(H, rhs))
        ols_fit(design, 0.05, mode)
        assert len(seen) == 1 and np.array_equal(seen[0], seen[0].T)

    def test_matches_the_general_normal_matrix(self):
        """The symmetric product gives the coefficients of the normal equations (Z c) Z' theta = (Z c) y."""
        rng = np.random.default_rng(35)
        for _ in range(20):
            T, P = rng.integers(1, 6, size=2)
            design = random_design(rng, T, P, int(rng.integers(5, 120)), int(rng.integers(0, 60)))
            lam = float(rng.choice([0.0, 0.05, 0.3, 1.0]))
            Z, weight = baselines._augmented(design, lam, "weighted")
            Zw = Z * weight
            want = baselines._solve(Zw @ Z.T, Zw @ design.y)
            got = ols_fit(design, lam)
            theta = np.append(got.w_vec, got.b)
            assert np.max(np.abs(theta - want)) <= 1e-12 * np.max(np.abs(want))

    def test_requires_complete_samples(self):
        design = DesignSet(np.ones((4, 2)), np.ones(2), np.ones(2, dtype=bool), 2, 2)
        with pytest.raises(DataError):
            ols_fit(design, 0.0)


def svr_settings(patched, C=1.0, eps=0.1, tol=1e-8, max_iter=100):
    """Set svr_fit's module constants through the monkeypatch `patched`; the defaults are the module's values."""
    for name, value in (("SVR_C", C), ("SVR_EPSILON", eps), ("SVR_TOL", tol), ("SVR_MAX_ITER", max_iter)):
        patched.setattr(baselines, name, value)


class TestSvr:
    def test_settings_are_the_documented_constants(self):
        assert (baselines.SVR_C, baselines.SVR_EPSILON, baselines.SVR_TOL, baselines.SVR_MAX_ITER) == (
            1.0, 0.1, 1e-8, 100)
        design = random_design(np.random.default_rng(4), 2, 2, 10, 4)
        assert svr_fit(design, lambda_=0.05).hyperparams == {"C": 1.0, "epsilon_tube": 0.1,
                                                              "censored_mode": "weighted"}

    def test_constant_targets(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 12))
        design = DesignSet(X, np.full(12, 3.0), np.zeros(12, dtype=bool), 2, 3)
        svr_settings(monkeypatch, C=100.0, eps=0.1)
        params = svr_fit(design)
        assert abs(params.b - 3.0) < 1e-3
        assert np.linalg.norm(params.w_vec) < 1e-3

    def test_inactive_tube_keeps_zero_solution(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 8))
        y = 2.0 + rng.uniform(-0.05, 0.05, 8)  # all inside the default tube at b = mean(y)
        design = DesignSet(X, y, np.zeros(8, dtype=bool), 2, 2)
        svr_settings(monkeypatch, C=1.0, eps=0.2)
        params = svr_fit(design)
        assert np.allclose(params.w_vec, 0.0)
        assert params.b == pytest.approx(float(y.mean()))

    def test_matches_dense_grid_oracle(self, monkeypatch):
        # one-dimensional five-point instance; the (w, b) plane is scanned
        # on a fine grid as an independent reference
        x = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        y = np.array([0.2, 1.1, 1.9, 3.2, 3.8])
        design = DesignSet(x, y, np.zeros(5, dtype=bool), 1, 1)
        C, eps = 1.0, 0.1
        svr_settings(monkeypatch, C=C, eps=eps, max_iter=20000, tol=1e-10)
        params = svr_fit(design)

        ws = np.linspace(0.5, 1.5, 401)
        bs = np.linspace(-0.5, 0.8, 521)
        best = np.inf
        for w in ws:
            res = np.abs(w * x[0] + bs[:, None] - y) - eps
            loss = 0.5 * w * w + C * np.maximum(0.0, res).sum(axis=1)
            best = min(best, loss.min())
        got = svr_objective(design, params.w_vec, params.b, C, eps, 0.0, "ignore")
        assert got <= best + 1e-4

    def test_trace_non_increasing(self, monkeypatch):
        rng = np.random.default_rng(6)
        design = random_design(rng, 2, 3, 20, 6)
        trace = []
        svr_settings(monkeypatch, C=2.0, eps=0.1, max_iter=3000)
        svr_fit(design, lambda_=0.3, trace_out=trace)
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_warns_when_stopped_at_max_iter(self, monkeypatch):
        rng = np.random.default_rng(9)
        design = random_design(rng, 2, 3, 20, 6)
        svr_settings(monkeypatch, max_iter=5)
        with pytest.warns(RuntimeWarning, match="max_iter=5"):
            svr_fit(design, lambda_=0.3)

    def test_no_warning_when_the_step_converges(self):
        rng = np.random.default_rng(10)
        design = random_design(rng, 2, 3, 20, 6)
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svr_fit(design, lambda_=0.3, trace_out=trace)
        assert len(trace) < baselines.SVR_MAX_ITER


@pytest.mark.parametrize("seed", range(20, 30))
def test_svr_matches_unfused_reference(seed, monkeypatch):
    # the interior-point fit ends at or below the subgradient loop's best iterate; the reference's
    # "ignore" mode is svr_fit's lambda = 0
    rng = np.random.default_rng(seed)
    T, P = rng.integers(1, 4, size=2)
    design = random_design(rng, T, P, int(rng.integers(15, 60)), int(rng.integers(4, 25)))
    svr_settings(monkeypatch, C=2.0, eps=0.1)
    for lam, mode in ((0.05, "weighted"), (0.3, "weighted"), (0.3, "ignore")):
        got = svr_fit(design, lambda_=lam if mode == "weighted" else 0.0)
        want_trace = []
        reference_svr_fit(design, 2.0, 0.1, lam, mode, want_trace)
        got_obj = svr_objective(design, got.w_vec, got.b, 2.0, 0.1, lam, mode)
        assert got_obj <= want_trace[-1] * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(30, 35))
def test_svr_no_small_step_lowers_the_objective(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    design = random_design(rng, 2, 3, 30, 12)
    C, eps, lam = 2.0, 0.1, 0.3
    svr_settings(monkeypatch, C=C, eps=eps)
    params = svr_fit(design, lambda_=lam)
    base = svr_objective(design, params.w_vec, params.b, C, eps, lam, "weighted")
    for _ in range(200):
        dw = rng.standard_normal(params.w_vec.size) * 1e-4
        db = rng.standard_normal() * 1e-4
        assert svr_objective(design, params.w_vec + dw, params.b + db, C, eps, lam, "weighted") >= base * (1 - 1e-9)


@pytest.fixture(scope="module")
def cv_fold_fits(tmp_path_factory):
    """The 10 SVR fits of one `cenrank cv` run shaped like the cv_grid benchmark, as (design, kwargs, params).

    40 subjects x 10 days, latent rank 8, BMC, T in {4, 5}, 5 folds,
    defaults C = 1, eps = 0.1, lambda = 0.05 weighted; a warning in a fit is an error.
    """
    fits = []

    def recorded(design, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = svr_fit(design, **kwargs)
        fits.append((design, kwargs, params))
        return params

    tmp_path = tmp_path_factory.mktemp("cv_fold_fits")
    data = tmp_path / "data"
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(baselines, "svr_fit", recorded)
        codes = [dispatch(["synth", "--out", str(data), "--seed", "0", "--n-subjects", "40", "--days-per-subject",
                           "10", "--latent-rank", "8"]),
                 dispatch(["cv", "--observations", str(data / "observations.csv"), "--outcomes",
                           str(data / "outcomes.csv"), "--dictionary", str(data / "variables.txt"), "--out",
                           str(tmp_path / "cv"), "--methods", "svr", "--imputer", "bmc", "--durations", "4,5",
                           "--ranks", "2", "--lambdas", "0.05", "--k", "5", "--seed", "0"])]
    return codes, fits


def test_svr_cv_fold_designs_converge_at_or_below_the_reference(cv_fold_fits):
    codes, fits = cv_fold_fits
    assert codes == [0, 0] and len(fits) == 10
    for design, kwargs, params in fits:
        assert kwargs == {"lambda_": 0.05}
        got = svr_objective(design, params.w_vec, params.b, 1.0, 0.1, 0.05, "weighted")
        want_trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference_svr_fit(design, 1.0, 0.1, 0.05, "weighted", want_trace)
        assert got <= want_trace[-1] * (1 + 1e-6)


def unstacked_svr_fit(design, C=1.0, epsilon_tube=0.1, lambda_=0.0, censored_mode="weighted", tol=1e-8,
                      max_iter=100, trace_out=None):
    """svr_fit's interior-point loop as it was with separate dual and slack arrays, kept as a reference.

    Each iteration forms K = diag(reg) + (Z s) Z' and masked copies for the
    step ratio; svr_fit now keeps one stacked state and K = (Z sqrt(s))(Z sqrt(s))' + diag(reg).
    """
    Z, weight = baselines._augmented(design, lambda_, censored_mode)
    keep = weight > 0
    Z, y, c = Z[:, keep], design.y[keep], C * weight[keep]
    b_start = float(design.y[~design.censored].mean())
    eps = epsilon_tube
    Zt = np.ascontiguousarray(Z.T)
    reg = np.ones(Z.shape[0])
    reg[-1] = 0.0
    signs = np.array([[1.0], [-1.0]])

    def residuals(theta, dual, slack):
        r = Zt @ theta - y
        primal = slack[:2] - eps - slack[2:] + signs * r
        return r, primal, reg * theta + Z @ (dual[0] - dual[1]), c - dual[:2] - dual[2:]

    theta = np.zeros(Z.shape[0])
    theta[-1] = b_start
    r = Zt @ theta - y
    xi = np.maximum(signs * r - eps, 0.0) + max(1.0, float(np.std(y)))
    slack = np.vstack([eps + xi - signs * r, xi])
    dual = np.tile(c / 2, (4, 1))
    r, primal, stationarity, dual_box = residuals(theta, dual, slack)
    primal_scale = 1.0 + float(np.abs(y).max()) + eps
    dual_scale = 1.0 + float(c.max())

    def max_step(d_dual, d_slack):
        steps = [1.0]
        for v, dv in ((dual, d_dual), (slack, d_slack)):
            shrinking = dv < 0
            steps.append(float(np.min(-v[shrinking] / dv[shrinking], initial=np.inf)))
        return min(steps)

    best = 0.5 * float(theta[:-1] @ theta[:-1]) + float(c @ np.maximum(np.abs(r) - eps, 0.0))
    for _ in range(max_iter):
        g = slack[:2] / dual[:2] + slack[2:] / dual[2:]
        K = np.diag(reg) + (Z * (1.0 / g).sum(axis=0)) @ Zt

        def newton(rc):
            u = primal - rc[:2] / dual[:2] + (rc[2:] + slack[2:] * dual_box) / dual[2:]
            d_theta = np.linalg.solve(K, -stationarity - Z @ (signs * u / g).sum(axis=0))
            d_tube = (u + signs * (Zt @ d_theta)) / g
            d_dual = np.vstack([d_tube, dual_box - d_tube])
            return d_theta, d_dual, -(rc + slack * d_dual) / dual

        gap = float(np.sum(dual * slack))
        _, aff_dual, aff_slack = newton(dual * slack)
        t = max_step(aff_dual, aff_slack)
        gap_aff = float(np.sum((dual + t * aff_dual) * (slack + t * aff_slack)))
        target = (gap_aff / gap) ** 3 * gap / dual.size
        d_theta, d_dual, d_slack = newton(dual * slack + aff_dual * aff_slack - target)
        t = min(1.0, 0.99 * max_step(d_dual, d_slack))
        theta, dual, slack = theta + t * d_theta, dual + t * d_dual, slack + t * d_slack
        r, primal, stationarity, dual_box = residuals(theta, dual, slack)
        half_ww = 0.5 * float(theta[:-1] @ theta[:-1])
        best = min(best, half_ww + float(c @ np.maximum(np.abs(r) - eps, 0.0)))
        if trace_out is not None:
            trace_out.append(best)
        if (float(np.sum(dual * slack)) <= tol * (1.0 + abs(half_ww + float(c @ slack[2:].sum(axis=0))))
                and np.abs(primal).max() <= tol * primal_scale
                and max(np.abs(stationarity).max(), np.abs(dual_box).max()) <= tol * dual_scale):
            break
    theta[-1] = baselines._exact_intercept(Z[:-1].T @ theta[:-1] - y, c, eps, b_start)
    return theta[:-1], float(theta[-1])


def close_to_unstacked(design, lambda_, C=1.0):
    """svr_fit at cost C against unstacked_svr_fit: the same step count, and w and b within 1e-9 relative."""
    got_trace, want_trace = [], []
    with pytest.MonkeyPatch.context() as patched:
        svr_settings(patched, C=C)
        got = svr_fit(design, lambda_=lambda_, trace_out=got_trace)
    want_w, want_b = unstacked_svr_fit(design, C=C, lambda_=lambda_, trace_out=want_trace)
    scale = max(np.linalg.norm(want_w), abs(want_b))
    assert len(got_trace) == len(want_trace)
    assert np.linalg.norm(got.w_vec - want_w) <= 1e-9 * scale and abs(got.b - want_b) <= 1e-9 * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(60, 72))
def test_svr_matches_the_unstacked_loop_on_random_designs(seed):
    rng = np.random.default_rng(seed)
    T, P = rng.integers(1, 5, size=2)
    design = random_design(rng, T, P, int(rng.integers(10, 120)), int(rng.integers(0, 40)))
    for lam in (0.0, 0.05, 0.3):  # lambda = 0 is the fit that ignores censored samples
        close_to_unstacked(design, lam, C=(0.5, 1.0, 4.0)[seed % 3])


def test_svr_matches_the_unstacked_loop_on_cv_fold_designs(cv_fold_fits):
    for design, kwargs, _ in cv_fold_fits[1]:
        close_to_unstacked(design, kwargs["lambda_"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_svr_non_finite_iterate_is_numerical_error():
    rng = np.random.default_rng(11)
    design = random_design(rng, 2, 3, 20, 6)
    design.y[0] = 1e200  # a complete sample's label
    with pytest.raises(NumericalError, match="non-finite"):
        svr_fit(design, lambda_=0.3)


def stacked_augmented(design, lambda_, censored_mode):
    """`_augmented` written out on its own: [X; 1], and each sample's weight 1, lambda or 0."""
    Z = np.vstack([design.X, np.ones((1, design.y.size))])
    return Z, np.where(design.censored, lambda_ if censored_mode == "weighted" else 0.0, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(40, 52))
def test_fits_match_the_stacked_blocks_bit_for_bit(seed, monkeypatch):
    # every third design has no censored samples; "ignore" is reached by no CLI command, and svr has no such mode
    rng = np.random.default_rng(seed)
    T, P = rng.integers(1, 4, size=2)
    n_z = 0 if seed % 3 == 0 else int(rng.integers(1, 20))
    design = random_design(rng, T, P, int(rng.integers(5, 40)), n_z)
    for lam, mode in itertools.product((0.0, 0.05, 0.3), ("weighted", "ignore")):
        got = [ols_fit(design, lam, mode), svr_fit(design, lambda_=lam)]
        with monkeypatch.context() as patched:
            patched.setattr(baselines, "_augmented", stacked_augmented)
            want = [ols_fit(design, lam, mode), svr_fit(design, lambda_=lam)]
        for g, w in zip(got, want):
            assert np.array_equal(g.w, w.w) and g.b == w.b, (g.kind, lam, mode)
