"""Benchmark regressors: ordinary least squares and linear epsilon-SVR.

Both can either ignore censored samples or weight them into the fit by
lambda, treating the censoring label as a plain regression target (the
conventional way unbalanced samples are folded into these models); lambda
must be finite and nonnegative, and "ignore" means a censored weight of 0.
Both fit theta = (w, b) over the solver's intercept block and return the
solver's ModelParams, with no rank budget.
"""

from __future__ import annotations

import warnings

import numpy as np

from .cohort import DesignSet
from .errors import DataError, NumericalError
from .solver import ModelParams, _block, _solve, check_lambda


def _augmented(design: DesignSet, lambda_: float, censored_mode: str) -> tuple[DesignSet, np.ndarray]:
    """The intercept block of the design, and each sample's weight: 1 if complete, else lambda, or 0 if ignored."""
    if censored_mode not in ("ignore", "weighted"):
        raise ValueError(f"unknown censored_mode {censored_mode!r}")
    check_lambda(lambda_)
    if design.censored.all():
        raise DataError("baseline fits require at least one complete sample")
    weight = lambda_ if censored_mode == "weighted" else 0.0
    return _block(design.X, design), np.where(design.censored, weight, 1.0)


def ols_fit(design: DesignSet, lambda_: float = 0.0, censored_mode: str = "weighted") -> ModelParams:
    """Least squares on complete samples, optionally lambda-weighting censored ones.

    The minimum-norm solution of the normal equations (`solver._solve`,
    the rule of fit_pgd's Newton steps): no weight along directions the data
    does not span, and exactly fittable data interpolated. The normal matrix
    is formed as (Z sqrt(c)) (Z sqrt(c))', a product numpy computes exactly
    symmetric.
    """
    block, weight = _augmented(design, lambda_, censored_mode)
    Zs = block.X * np.sqrt(weight)
    theta = _solve(Zs @ Zs.T, block.X @ (weight * block.y))
    return ModelParams.unconstrained(theta, design, lambda_, "ols", {"censored_mode": censored_mode})


def svr_fit(design: DesignSet, C: float = 1.0, epsilon_tube: float = 0.1,
            lambda_: float = 0.0, censored_mode: str = "weighted",
            tol: float = 1e-8, max_iter: int = 100, trace_out: list | None = None) -> ModelParams:
    """Linear epsilon-insensitive SVR by a primal-dual interior-point method.

    Minimizes 1/2 ||w||^2 + sum c_i max(0, |z_i'theta - y_i| - eps) over
    theta = (w, b), with c_i = C for complete samples and C * lambda for the
    censored ones; a censored sample enters the QP only when its weight is
    nonzero.
    This is the QP

        min 1/2 ||w||^2 + c'(xi + xi*)
        s.t. s = eps + xi - r >= 0,  s* = eps + xi* + r >= 0,  xi, xi* >= 0

    in r = Z'theta - y, solved by Mehrotra predictor-corrector steps from a
    strictly feasible start. Eliminating the diagonal blocks leaves one
    system in K = diag(1, ..., 1, 0) + Z D Z', (d + 1) x (d + 1), solved
    by LU twice per iteration (predictor and corrector); a non-finite or
    singular K raises NumericalError. The fit stops once the duality gap is
    at most `tol` times 1 + |primal objective| and both residuals are at
    most `tol` times their data scale; stopping after `max_iter` iterations
    instead emits a RuntimeWarning.
    `trace_out`, if given, records the best objective after each iteration
    (non-increasing). After the last iteration, b is set exactly for the
    final w; where a whole interval minimizes, b is its point nearest the
    complete samples' mean label. A non-finite iterate raises NumericalError.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if epsilon_tube < 0:
        raise ValueError("epsilon_tube must be nonnegative")
    block, weight = _augmented(design, lambda_, censored_mode)
    keep = weight > 0
    Z, y, c = block.X[:, keep], block.y[keep], C * weight[keep]
    b_start = float(block.y[~block.censored].mean())
    eps = epsilon_tube
    Zt = np.ascontiguousarray(Z.T)
    reg = np.ones(Z.shape[0])
    reg[-1] = 0.0  # the intercept is not regularized
    signs = np.array([[1.0], [-1.0]])

    def residuals(theta, dual, slack):
        # rows of slack: s, s*, xi, xi*; rows of dual: their multipliers
        r = Zt @ theta - y
        primal = slack[:2] - eps - slack[2:] + signs * r
        return r, primal, reg * theta + Z @ (dual[0] - dual[1]), c - dual[:2] - dual[2:]

    # strictly feasible start: w = 0, b = mean(y), xi and xi* one unit above
    # the tube excess, every multiplier at c / 2
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
    converged = False
    for _ in range(max_iter):
        g = slack[:2] / dual[:2] + slack[2:] / dual[2:]
        K = np.diag(reg) + (Z * (1.0 / g).sum(axis=0)) @ Zt

        def newton(rc):
            # Newton step for the complementarity targets dual * slack = dual * slack - rc
            u = primal - rc[:2] / dual[:2] + (rc[2:] + slack[2:] * dual_box) / dual[2:]
            try:
                if not np.isfinite(K).all():
                    raise np.linalg.LinAlgError
                d_theta = np.linalg.solve(K, -stationarity - Z @ (signs * u / g).sum(axis=0))
            except np.linalg.LinAlgError as exc:
                raise NumericalError("svr_fit: the Newton system is non-finite or singular") from exc
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
        if not np.isfinite(theta).all():
            raise NumericalError("svr_fit produced a non-finite iterate")
        r, primal, stationarity, dual_box = residuals(theta, dual, slack)
        half_ww = 0.5 * float(theta[:-1] @ theta[:-1])
        best = min(best, half_ww + float(c @ np.maximum(np.abs(r) - eps, 0.0)))
        if trace_out is not None:
            trace_out.append(best)
        if (float(np.sum(dual * slack)) <= tol * (1.0 + abs(half_ww + float(c @ slack[2:].sum(axis=0))))
                and np.abs(primal).max() <= tol * primal_scale
                and max(np.abs(stationarity).max(), np.abs(dual_box).max()) <= tol * dual_scale):
            converged = True
            break
    if not converged:
        warnings.warn(f"svr_fit stopped at max_iter={max_iter} before its duality gap closed",
                      RuntimeWarning, stacklevel=2)
    theta[-1] = _exact_intercept(Z[:-1].T @ theta[:-1] - y, c, eps, b_start)
    return ModelParams.unconstrained(theta, design, lambda_, "svr",
                                     {"C": C, "epsilon_tube": epsilon_tube, "censored_mode": censored_mode})


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
