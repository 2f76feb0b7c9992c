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
from .solver import ModelParams, _block, check_lambda


def _augmented(design: DesignSet, lambda_: float, censored_mode: str) -> tuple[DesignSet, float]:
    """The intercept block of the design, and the weight of its censored samples."""
    if censored_mode not in ("ignore", "weighted"):
        raise ValueError(f"unknown censored_mode {censored_mode!r}")
    check_lambda(lambda_)
    if design.n_complete == 0:
        raise DataError("baseline fits require at least one complete sample")
    return _block(design.X_complete, design.X_censored, design), lambda_ if censored_mode == "weighted" else 0.0


def ols_fit(design: DesignSet, lambda_: float = 0.0, censored_mode: str = "weighted") -> ModelParams:
    """Least squares on complete samples, optionally lambda-weighting censored ones.

    Solved by ridge-stabilized normal equations; the ridge is a tiny
    trace-scaled floor, 1e-8 * trace(H) / dim, so exactly fittable data is
    interpolated to machine precision.
    """
    block, weight = _augmented(design, lambda_, censored_mode)
    Z, Zc = block.X_complete, block.X_censored
    H = Z @ Z.T + weight * (Zc @ Zc.T)
    rhs = Z @ block.y_complete + weight * (Zc @ block.y_censored)
    eps = 1e-8 * float(np.trace(H)) / H.shape[0]
    mu, V = np.linalg.eigh(H)
    # floor small curvature at eps and drop the numerical null space so a
    # consistent system is interpolated exactly (min-norm solution there)
    inv = np.where(mu > 1e-12 * mu[-1], 1.0 / np.maximum(mu, eps), 0.0)
    theta = (V * inv) @ V.T @ rhs
    return ModelParams.unconstrained(theta, design, lambda_, "ols", {"censored_mode": censored_mode, "ridge": eps})


def svr_fit(design: DesignSet, C: float = 1.0, epsilon_tube: float = 0.1,
            lambda_: float = 0.0, censored_mode: str = "weighted",
            tol: float = 1e-8, max_iter: int = 100, trace_out: list | None = None) -> ModelParams:
    """Linear epsilon-insensitive SVR by a primal-dual interior-point method.

    Minimizes 1/2 ||w||^2 + sum c_i max(0, |z_i'theta - y_i| - eps) over
    theta = (w, b), with c_i = C for complete samples and C * lambda for the
    censored ones, which are stacked only when that weight is nonzero.
    This is the QP

        min 1/2 ||w||^2 + c'(xi + xi*)
        s.t. s = eps + xi - r >= 0,  s* = eps + xi* + r >= 0,  xi, xi* >= 0

    in r = Z'theta - y, solved by Mehrotra predictor-corrector steps from a
    strictly feasible start. Eliminating the diagonal blocks leaves one
    Cholesky factorisation of diag(1, ..., 1, 0) + Z D Z' per iteration,
    (d + 1) x (d + 1). The fit stops once the duality gap is at most `tol`
    times 1 + |primal objective| and both residuals are at most `tol` times
    their data scale; stopping after `max_iter` iterations instead emits a
    RuntimeWarning.
    `trace_out`, if given, records the best objective after each iteration
    (non-increasing). After the last iteration, b is set exactly for the
    final w; where a whole interval minimizes, b is its point nearest
    mean(y_complete). A non-finite iterate raises NumericalError.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if epsilon_tube < 0:
        raise ValueError("epsilon_tube must be nonnegative")
    block, weight = _augmented(design, lambda_, censored_mode)
    Z, y = block.X_complete, block.y_complete
    b_start = float(y.mean())
    c = np.full(y.size, C)
    if weight:
        Z, y = np.hstack([Z, block.X_censored]), np.concatenate([y, block.y_censored])
        c = np.concatenate([c, np.full(block.n_censored, C * weight)])
    eps = epsilon_tube
    reg = np.ones(Z.shape[0])
    reg[-1] = 0.0  # the intercept is not regularized
    signs = np.array([[1.0], [-1.0]])

    def residuals(theta, dual, slack):
        # rows of slack: s, s*, xi, xi*; rows of dual: their multipliers
        r = Z.T @ theta - y
        primal = slack[:2] - eps - slack[2:] + signs * r
        return r, primal, reg * theta + Z @ (dual[0] - dual[1]), c - dual[:2] - dual[2:]

    # strictly feasible start: w = 0, b = mean(y), xi and xi* one unit above
    # the tube excess, every multiplier at c / 2
    theta = np.zeros(Z.shape[0])
    theta[-1] = b_start
    r = Z.T @ theta - y
    xi = np.maximum(signs * r - eps, 0.0) + max(1.0, float(np.std(y)))
    slack = np.vstack([eps + xi - signs * r, xi])
    dual = np.tile(c / 2, (4, 1))
    r, primal, stationarity, dual_box = residuals(theta, dual, slack)
    primal_scale = 1.0 + float(np.abs(y).max()) + eps
    dual_scale = 1.0 + float(c.max())

    def max_step(d_dual, d_slack):
        v, dv = np.concatenate([dual, slack]), np.concatenate([d_dual, d_slack])
        shrinking = dv < 0
        return min(1.0, float(np.min(-v[shrinking] / dv[shrinking], initial=np.inf)))

    best = 0.5 * float(theta[:-1] @ theta[:-1]) + float(c @ np.maximum(np.abs(r) - eps, 0.0))
    converged = False
    for _ in range(max_iter):
        g = slack[:2] / dual[:2] + slack[2:] / dual[2:]
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(np.diag(reg) + (Z * (1.0 / g).sum(axis=0)) @ Z.T))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("svr_fit: the Newton system is non-finite or not positive definite") from exc

        def newton(rc):
            # Newton step for the complementarity targets dual * slack = dual * slack - rc
            u = primal - rc[:2] / dual[:2] + (rc[2:] + slack[2:] * dual_box) / dual[2:]
            d_theta = L_inv.T @ (L_inv @ (-stationarity - Z @ (signs * u / g).sum(axis=0)))
            d_tube = (u + signs * (Z.T @ d_theta)) / g
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
