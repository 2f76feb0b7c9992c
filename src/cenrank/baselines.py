"""Benchmark regressors: ordinary least squares and linear epsilon-SVR.

Both can either ignore censored samples or weight them into the fit by
lambda, treating the censoring label as a plain regression target (the
conventional way unbalanced samples are folded into these models); lambda
must be finite and nonnegative. Both return the solver's ModelParams, with
no rank budget.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cohort import DesignSet
from .errors import DataError
from .solver import ModelParams, check_lambda


@dataclass
class SvrOptions:
    tol: float = 1e-8
    max_iter: int = 5000
    eta0: float | None = None
    patience: int = 50


def _augmented(design: DesignSet, lambda_: float, censored_mode: str):
    if censored_mode not in ("ignore", "weighted"):
        raise ValueError(f"unknown censored_mode {censored_mode!r}")
    check_lambda(lambda_)
    if design.n_complete == 0:
        raise DataError("baseline fits require at least one complete sample")
    Z = np.vstack([design.X_complete, np.ones((1, design.n_complete))])
    y = design.y_complete
    if censored_mode == "weighted" and design.n_censored:
        Zc = np.vstack([design.X_censored, np.ones((1, design.n_censored))])
        yc = design.y_censored
    else:
        Zc = np.zeros((Z.shape[0], 0))
        yc = np.zeros(0)
    return Z, y, Zc, yc


def ols_fit(design: DesignSet, lambda_: float = 0.0, censored_mode: str = "weighted") -> ModelParams:
    """Least squares on complete samples, optionally lambda-weighting censored ones.

    Solved by ridge-stabilized normal equations; the ridge is the same tiny
    trace-scaled floor the preconditioner uses, so exactly fittable data is
    interpolated to machine precision.
    """
    Z, y, Zc, yc = _augmented(design, lambda_, censored_mode)
    H = Z @ Z.T + lambda_ * (Zc @ Zc.T)
    rhs = Z @ y + lambda_ * (Zc @ yc)
    eps = 1e-8 * float(np.trace(H)) / H.shape[0]
    mu, V = np.linalg.eigh(H)
    # floor small curvature at eps and drop the numerical null space so a
    # consistent system is interpolated exactly (min-norm solution there)
    inv = np.where(mu > 1e-12 * mu[-1], 1.0 / np.maximum(mu, eps), 0.0)
    theta = (V * inv) @ V.T @ rhs
    return ModelParams.unconstrained(theta, design, lambda_, "ols", {"censored_mode": censored_mode, "ridge": eps})


def svr_fit(design: DesignSet, C: float = 1.0, epsilon_tube: float = 0.1,
            lambda_: float = 0.0, censored_mode: str = "weighted",
            options: SvrOptions | None = None, trace_out: list | None = None) -> ModelParams:
    """Linear epsilon-insensitive SVR by deterministic subgradient descent.

    Minimizes 1/2 ||w||^2 + C * sum max(0, |z'theta - y| - eps) over the
    complete samples, plus the lambda-weighted censored terms in weighted
    mode. Both sample sets are stacked once, with per-sample weights C and
    C * lambda, so each step makes one residual pass: it gives the objective
    at the new iterate and the signed weights of the samples outside the
    tube, from which the next subgradient follows. Steps are normalized
    subgradients at a constant length that is halved (restarting from the
    best iterate) whenever `patience` steps pass without a relative
    improvement of tol, so the kept objective decays geometrically. Stops
    once the step has shrunk below 1e-12 of its starting value or the
    subgradient vanishes; stopping at max_iter instead emits a
    RuntimeWarning. The best iterate is returned and `trace_out`, if given,
    records its objective per step (non-increasing).
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if epsilon_tube < 0:
        raise ValueError("epsilon_tube must be nonnegative")
    opts = options or SvrOptions()
    Z, y, Zc, yc = _augmented(design, lambda_, censored_mode)
    theta = np.zeros(Z.shape[0])
    theta[-1] = float(y.mean())
    eta0 = opts.eta0 if opts.eta0 is not None else max(1.0, float(np.std(y)))
    eta = eta0

    weight = np.full(y.size, C)
    if lambda_ != 0.0 and yc.size:
        Z, y = np.hstack([Z, Zc]), np.concatenate([y, yc])
        weight = np.concatenate([weight, np.full(yc.size, C * lambda_)])

    def evaluate(theta):
        # sign(excess) is 1 outside the tube and 0 inside it
        res = Z.T @ theta - y
        excess = np.maximum(np.abs(res) - epsilon_tube, 0.0)
        signs = weight * np.sign(res) * np.sign(excess)
        return 0.5 * float(theta[:-1] @ theta[:-1]) + float(weight @ excess), signs

    best = theta
    best_obj, signs = evaluate(theta)
    best_signs = signs
    stall = 0
    for _ in range(opts.max_iter):
        g = Z @ signs
        g[:-1] += theta[:-1]
        norm = np.linalg.norm(g)
        if norm == 0.0:
            break
        theta = theta - eta * (g / norm)
        obj, signs = evaluate(theta)
        if obj < best_obj - opts.tol * max(abs(best_obj), 1.0):
            best, best_obj, best_signs = theta, obj, signs
            stall = 0
        else:
            stall += 1
            if stall >= opts.patience:
                eta *= 0.5
                theta, signs = best, best_signs
                stall = 0
                if eta < 1e-12 * eta0:
                    break
        if trace_out is not None:
            trace_out.append(best_obj)
    else:
        warnings.warn(f"svr_fit stopped at max_iter={opts.max_iter} before its step length converged",
                      RuntimeWarning, stacklevel=2)
    return ModelParams.unconstrained(best, design, lambda_, "svr",
                                     {"C": C, "epsilon_tube": epsilon_tube, "censored_mode": censored_mode})
