"""Benchmark regressors: ordinary least squares and linear epsilon-SVR.

Both weight censored samples into the fit by lambda, treating the
censoring label as a plain regression target (the conventional way
unbalanced samples are folded into these models); lambda must be finite
and nonnegative. OLS can also ignore censored samples ("ignore" means a
censored weight of 0); SVR has no such mode, since lambda = 0 gives the
same fit. Both fit theta = (w, b) over [X; 1] and return the solver's
ModelParams, with no rank budget.
"""

from __future__ import annotations

import warnings

import numpy as np

from .cohort import DesignSet
from .errors import DataError, NumericalError
from .solver import ModelParams, _solve, check_lambda

# svr_fit's settings, read at each call: the cost C of a complete sample, the half-width of the tube, and the
# stopping tolerance and iteration cap of its interior-point method
SVR_C = 1.0
SVR_EPSILON = 0.1
SVR_TOL = 1e-8
SVR_MAX_ITER = 100


def _augmented(design: DesignSet, lambda_: float, censored_mode: str) -> tuple[np.ndarray, np.ndarray]:
    """[X; 1] of the design, and each sample's weight: 1 if complete, else lambda, or 0 if ignored."""
    if censored_mode not in ("ignore", "weighted"):
        raise ValueError(f"unknown censored_mode {censored_mode!r}")
    check_lambda(lambda_)
    if design.censored.all():
        raise DataError("baseline fits require at least one complete sample")
    weight = lambda_ if censored_mode == "weighted" else 0.0
    return np.vstack([design.X, np.ones(design.y.size)]), np.where(design.censored, weight, 1.0)


def ols_fit(design: DesignSet, lambda_: float = 0.0, censored_mode: str = "weighted") -> ModelParams:
    """Least squares on complete samples, optionally lambda-weighting censored ones.

    The minimum-norm solution of the normal equations by `solver._solve`,
    as fit_pgd's Newton steps are solved, so no weight goes along
    directions the data does not span, and exactly fittable data are
    interpolated. The normal matrix is formed as (Z sqrt(c)) (Z sqrt(c))',
    a product numpy computes exactly symmetric.
    """
    Z, weight = _augmented(design, lambda_, censored_mode)
    Zs = Z * np.sqrt(weight)
    theta = _solve(Zs @ Zs.T, Z @ (weight * design.y))
    return ModelParams.unconstrained(theta, design, lambda_, "ols", {"censored_mode": censored_mode})


def svr_fit(design: DesignSet, lambda_: float = 0.0, trace_out: list | None = None) -> ModelParams:
    """Linear epsilon-insensitive SVR by a primal-dual interior-point method.

    Minimizes 1/2 ||w||^2 + sum c_i max(0, |z_i'theta - y_i| - eps) over
    theta = (w, b), with c_i = C for complete samples and C * lambda for the
    censored ones; a censored sample enters the QP only when its weight is
    nonzero. C, eps, the tolerance and the iteration cap are the module's
    SVR_C, SVR_EPSILON, SVR_TOL and SVR_MAX_ITER, read at each call.
    This is the QP

        min 1/2 ||w||^2 + c'(xi + xi*)
        s.t. s = eps + xi - r >= 0,  s* = eps + xi* + r >= 0,  xi, xi* >= 0

    in r = Z'theta - y, solved by Mehrotra predictor-corrector steps from a
    strictly feasible start. The four multiplier rows and the four slack
    rows (s, s*, xi, xi*) are one 8 x n array, so each step's length (the
    longest that keeps all eight rows nonnegative, at most 1) is one ratio
    over it. Eliminating the diagonal blocks leaves one system in
    K = diag(1, ..., 1, 0) + (Z D^1/2)(Z D^1/2)', (d + 1) x (d + 1) and
    exactly symmetric, solved by LU twice per iteration (predictor and
    corrector); a non-finite or singular K raises NumericalError. The fit
    stops once the duality gap is at most the tolerance times 1 + |primal
    objective| and both residuals are at most the tolerance times their
    data scale; stopping at the iteration cap instead emits a
    RuntimeWarning.
    `trace_out`, if given, records the best objective after each iteration
    (non-increasing). After the last iteration, b is set exactly for the
    final w; where a whole interval minimizes, b is its point nearest the
    complete samples' mean label. A non-finite iterate raises NumericalError.
    """
    C, eps, tol, max_iter = SVR_C, SVR_EPSILON, SVR_TOL, SVR_MAX_ITER
    Z, weight = _augmented(design, lambda_, "weighted")
    keep = weight > 0
    Z, y, c = Z[:, keep], design.y[keep], C * weight[keep]
    b_start = float(design.y[~design.censored].mean())
    Zt = np.ascontiguousarray(Z.T)
    reg = np.ones(Z.shape[0])
    reg[-1] = 0.0  # the intercept is not regularized
    diag = np.diag(reg)
    signs = np.array([[1.0], [-1.0]])
    # the state z: rows 0-3 the multipliers of s, s*, xi, xi*, rows 4-7 those slacks; dz a step in it, and
    # ratio the work array of its length
    z, dz, ratio = np.empty((3, 8, y.size))
    dual, slack = z[:4], z[4:]

    def residuals(theta):
        r = Zt @ theta - y
        primal = slack[:2] - eps - slack[2:] + signs * r
        return r, primal, reg * theta + Z @ (dual[0] - dual[1]), c - dual[:2] - dual[2:]

    # strictly feasible start: w = 0, b = mean(y), xi and xi* one unit above
    # the tube excess, every multiplier at c / 2
    theta = np.zeros(Z.shape[0])
    theta[-1] = b_start
    r = Zt @ theta - y
    xi = np.maximum(signs * r - eps, 0.0) + max(1.0, float(np.std(y)))
    slack[:2] = eps + xi - signs * r
    slack[2:] = xi
    dual[:] = c / 2
    r, primal, stationarity, dual_box = residuals(theta)
    primal_scale = 1.0 + float(np.abs(y).max()) + eps
    dual_scale = 1.0 + float(c.max())

    def max_step():
        # the longest step t <= 1 along dz that keeps z nonnegative
        ratio.fill(-np.inf)
        np.divide(z, dz, out=ratio, where=dz < 0)
        return min(1.0, -float(ratio.max()))

    def newton(rc):
        # Newton step, in the iteration's K and g, for the complementarity targets dual * slack = dual * slack - rc;
        # returns d_theta and writes (d_dual, d_slack) to dz
        v = rc.copy()
        v[2:] += slack[2:] * dual_box
        v /= dual
        u = primal - v[:2] + v[2:]
        ug = u / g
        try:
            d_theta = np.linalg.solve(K, -stationarity - Z @ (ug[0] - ug[1]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("svr_fit: the Newton system is non-finite or singular") from exc
        d_tube = (u + signs * (Zt @ d_theta)) / g
        dz[:2] = d_tube
        np.subtract(dual_box, d_tube, out=dz[2:4])
        d_slack = dz[4:]
        np.multiply(slack, dz[:4], out=d_slack)
        d_slack += rc
        d_slack /= dual
        np.negative(d_slack, out=d_slack)
        return d_theta

    best = 0.5 * float(theta[:-1] @ theta[:-1]) + float(c @ np.maximum(np.abs(r) - eps, 0.0))
    complementarity = dual * slack
    gap = float(complementarity.sum())
    converged = False
    for _ in range(max_iter):
        q = slack / dual
        g = q[:2] + q[2:]
        Zs = Z * np.sqrt((1.0 / g).sum(axis=0))
        K = Zs @ Zs.T
        K += diag
        if not np.isfinite(K).all():
            raise NumericalError("svr_fit: the Newton system is non-finite or singular")
        newton(complementarity)
        t = max_step()
        step = z + t * dz
        gap_aff = float((step[:4] * step[4:]).sum())
        target = (gap_aff / gap) ** 3 * gap / dual.size
        d_theta = newton(complementarity + dz[:4] * dz[4:] - target)
        t = min(1.0, 0.99 * max_step())
        theta = theta + t * d_theta
        z += t * dz
        if not np.isfinite(theta).all():
            raise NumericalError("svr_fit produced a non-finite iterate")
        r, primal, stationarity, dual_box = residuals(theta)
        half_ww = 0.5 * float(theta[:-1] @ theta[:-1])
        if trace_out is not None:  # the objective is read by nothing else
            best = min(best, half_ww + float(c @ np.maximum(np.abs(r) - eps, 0.0)))
            trace_out.append(best)
        complementarity = dual * slack
        gap = float(complementarity.sum())
        if (gap <= tol * (1.0 + abs(half_ww + float(c @ slack[2:].sum(axis=0))))
                and np.abs(primal).max() <= tol * primal_scale
                and max(np.abs(stationarity).max(), np.abs(dual_box).max()) <= tol * dual_scale):
            converged = True
            break
    if not converged:
        warnings.warn(f"svr_fit stopped at max_iter={max_iter} before its duality gap closed",
                      RuntimeWarning, stacklevel=2)
    theta[-1] = _exact_intercept(Z[:-1].T @ theta[:-1] - y, c, eps, b_start)
    return ModelParams.unconstrained(theta, design, lambda_, "svr",
                                     {"C": C, "epsilon_tube": eps, "censored_mode": "weighted"})


def _exact_intercept(a: np.ndarray, c: np.ndarray, eps: float, prefer: float) -> float:
    """The b minimizing sum c_i max(0, |a_i + b| - eps); of a minimizing interval, the point nearest `prefer`.

    The function is convex and piecewise linear, with kinks at -a_i - eps
    and -a_i + eps; its slope climbs from -sum(c) by c_i at each kink.
    """
    kinks = np.concatenate([-a - eps, -a + eps])
    order = np.argsort(kinks, kind="stable")
    kinks = kinks[order]
    slope = np.cumsum(np.concatenate([c, c])[order]) - c.sum()
    tiny = 1e-12 * float(c.sum())
    lo = kinks[np.searchsorted(slope, -tiny, side="left")]
    hi = kinks[np.searchsorted(slope, tiny, side="right")]
    return float(min(max(prefer, lo), hi))
