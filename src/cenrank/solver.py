"""Censored low-rank regression solved by preconditioned projected gradient descent.

The objective over a weight matrix w (T x P) and intercept b is

    sum_complete 1/2 (<x, w> + b - y)^2
  + sum_censored lambda/2 (min(0, <x, w> + b - y))^2

subject to rank(w) <= r. The squared hinge charges a censored sample only
when the predicted time-to-event falls short of its censoring label. The
rank constraint is handled by SVD truncation after each gradient step; the
complete-sample Gram matrix supplies an inverse-square-root preconditioner
so the descent iterates on a well-conditioned reparameterization. There is
one step rule: start at the inverse Lipschitz bound and halve until the
objective decreases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cohort import DesignSet, vectorize
from .errors import DataError, NumericalError

RANK_TOL = 1e-10
MAX_HALVINGS = 50


@dataclass
class ModelParams:
    """The linear predictor <x, w> + b over a T x P window, for every method.

    `rank` is the budget on w (min(T, P) when there is none), `kind` names
    the method that fitted it and `hyperparams` that method's settings.
    """

    w: np.ndarray
    b: float
    rank: int
    lambda_: float
    kind: str = "censored_lowrank"
    hyperparams: dict = field(default_factory=dict)

    @property
    def w_vec(self) -> np.ndarray:
        return vectorize(self.w)

    @classmethod
    def unconstrained(cls, theta, design: DesignSet, lambda_: float, kind: str, hyperparams: dict):
        """The model stacked as [vec(w); b] in theta, with no rank budget."""
        T, P = design.T, design.P
        return cls(theta[:-1].reshape(T, P), float(theta[-1]), min(T, P), lambda_, kind, hyperparams)


@dataclass
class Preconditioner:
    """A = (X_complete X_complete' + ridge I)^(-1/2), symmetric PD."""

    A: np.ndarray
    ridge: float


@dataclass
class SolveReport:
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    ridge: float = 0.0
    rank_w: int = 0
    max_excess_sv_ratio: float = 0.0

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])


@dataclass
class SolverOptions:
    tol: float = 1e-4
    max_iter: int = 500
    precondition: bool = True


def check_lambda(lambda_):
    if not (math.isfinite(lambda_) and lambda_ >= 0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lambda_!r}")


def _check_design(w, design):
    if w.shape != (design.T, design.P):
        raise DataError(f"w has shape {w.shape}, design expects {(design.T, design.P)}")


def _margins(w_vec, b, design):
    r = design.X_complete.T @ w_vec + b - design.y_complete
    m = np.minimum(0.0, design.X_censored.T @ w_vec + b - design.y_censored)
    return r, m


def _objective_vec(w_vec, b, design, lambda_):
    """Objective at (w_vec, b), with the margins it was computed from."""
    r, m = _margins(w_vec, b, design)
    return 0.5 * float(r @ r) + 0.5 * lambda_ * float(m @ m), (r, m)


def _gradient_vec(margins, design, lambda_):
    r, m = margins
    g_w = design.X_complete @ r + lambda_ * (design.X_censored @ m)
    g_b = float(r.sum()) + lambda_ * float(m.sum())
    return g_w, g_b


def objective(params: ModelParams, design: DesignSet) -> float:
    """Censored least-squares / squared-hinge objective value."""
    _check_design(params.w, design)
    return _objective_vec(vectorize(params.w), params.b, design, params.lambda_)[0]


def gradient(params: ModelParams, design: DesignSet) -> tuple[np.ndarray, float]:
    """Analytic gradient (d/d vec(w), d/db) of the objective."""
    _check_design(params.w, design)
    return _gradient_vec(_margins(vectorize(params.w), params.b, design), design, params.lambda_)


def build_preconditioner(X_complete: np.ndarray, ridge_policy="auto") -> Preconditioner:
    """Inverse square root of the complete-sample Gram matrix.

    ridge_policy "auto" picks eps = 1e-8 * trace(G)/dim and raises it to
    1e-6 * max eigenvalue when the Gram matrix is rank-deficient; a float
    fixes eps directly. Eigenvalues of G + eps I are floored at eps before
    the inverse square root so roundoff cannot produce negative curvature.
    """
    if X_complete.shape[1] == 0:
        raise DataError("preconditioner requires at least one complete sample")
    G = X_complete @ X_complete.T
    d = G.shape[0]
    mu, V = np.linalg.eigh(G)
    mu_max = float(mu[-1])
    if isinstance(ridge_policy, str):
        if ridge_policy != "auto":
            raise ValueError(f"unknown ridge policy {ridge_policy!r}")
        eps = 1e-8 * float(np.trace(G)) / d
        if mu[0] < 1e-10 * mu_max:  # rank-deficient Gram
            eps = max(eps, 1e-6 * mu_max)
    else:
        eps = float(ridge_policy)
    nu = np.maximum(mu + eps, eps)
    A = (V / np.sqrt(nu)) @ V.T
    return Preconditioner(A=0.5 * (A + A.T), ridge=eps)


def project_rank(w_hat: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r Frobenius approximation via SVD truncation."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    U, s, Vt = np.linalg.svd(w_hat, full_matrices=False)
    k = min(r, s.size)
    return (U[:, :k] * s[:k]) @ Vt[:k]


def _project_tracked(w_hat, r):
    U, s, Vt = np.linalg.svd(w_hat, full_matrices=False)
    k = min(r, s.size)
    out = (U[:, :k] * s[:k]) @ Vt[:k]
    sv = np.linalg.svd(out, compute_uv=False)
    leak = float(sv[k] / sv[0]) if sv.size > k and sv[0] > 0 else 0.0
    return out, leak


def _spectral_norm_sq(X, n):
    if X.shape[1] == 0:
        return 0.0
    Z = np.vstack([X, np.ones((1, n))])
    return float(np.linalg.norm(Z, 2) ** 2)


def numerical_rank(w: np.ndarray, rel_tol: float = RANK_TOL) -> int:
    s = np.linalg.svd(w, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def fit_pgd(design: DesignSet, lambda_: float, r: int,
            options: SolverOptions | None = None) -> tuple[ModelParams, SolveReport]:
    """Fit the rank-constrained censored regression by projected gradient descent.

    lambda_ must be finite and nonnegative (ValueError otherwise).

    Runs on the preconditioned variables vec(w_hat) = (G + eps I)^{1/2} vec(w)
    when options.precondition is set (requires complete samples; the ridge
    eps is the "auto" one of build_preconditioner), taking a gradient step
    and an SVD rank-r truncation per iteration. Each step starts at 1/L, L
    the Lipschitz bound of the smooth part, and is halved up to
    MAX_HALVINGS times until the objective decreases, so the reported trace
    is strictly decreasing; when no halving decreases it the iterate is
    taken as stationary. Convergence is declared when
    (f_k - f_{k+1}) / max(|f_k|, 1) < tol; stopping at max_iter instead
    emits a RuntimeWarning. w is recovered from w_hat once,
    at termination, so its numerical rank (reported in SolveReport.rank_w)
    can exceed r when preconditioning is on; the rank constraint itself is
    enforced on w_hat at every iteration.
    """
    opts = options or SolverOptions()
    if r < 1:
        raise ValueError("rank must be >= 1")
    check_lambda(lambda_)
    T, P = design.T, design.P
    n_c, n_z = design.n_complete, design.n_censored
    if n_c == 0 and n_z == 0:
        raise DataError("design has no samples")

    if opts.precondition:
        if n_c == 0:
            raise DataError("preconditioning requires at least one complete sample")
        pre = build_preconditioner(design.X_complete)
        A, ridge = pre.A, pre.ridge
        work = DesignSet(A @ design.X_complete, design.y_complete,
                         A @ design.X_censored, design.y_censored, T, P)
    else:
        A, ridge = None, 0.0
        work = design

    w_hat = np.zeros(T * P)
    b = float(design.y_complete.mean()) if n_c else 0.0

    # Lipschitz bound of the smooth part over (w_hat, b), intercept row included
    L = _spectral_norm_sq(work.X_complete, n_c) + lambda_ * _spectral_norm_sq(work.X_censored, n_z)
    eta0 = 1.0 / max(L, 1e-12)

    f_cur, margins = _objective_vec(w_hat, b, work, lambda_)
    if not np.isfinite(f_cur):
        raise NumericalError("objective is non-finite at the starting point")
    trace = [f_cur]
    converged = False
    max_leak = 0.0
    for _ in range(opts.max_iter):
        g_w, g_b = _gradient_vec(margins, work, lambda_)
        eta = eta0
        for _ in range(MAX_HALVINGS + 1):
            w_new, leak = _project_tracked((w_hat - eta * g_w).reshape(T, P), r)
            b_new = b - eta * g_b
            f_new, new_margins = _objective_vec(w_new.ravel(), b_new, work, lambda_)
            if np.isfinite(f_new) and f_new < f_cur:
                break
            eta *= 0.5
        else:
            # no decreasing step within the halving budget: stationary
            converged = True
            break
        trace.append(f_new)
        max_leak = max(max_leak, leak)
        decrease = f_cur - f_new
        w_hat, b, f_prev = w_new.ravel(), b_new, f_cur
        f_cur, margins = f_new, new_margins
        if decrease / max(abs(f_prev), 1.0) < opts.tol:
            converged = True
            break

    if not converged:
        warnings.warn(f"fit_pgd stopped at max_iter={opts.max_iter} before reaching tol={opts.tol:g}",
                      RuntimeWarning, stacklevel=2)
    w_vec = A @ w_hat if A is not None else w_hat
    w = w_vec.reshape(T, P)
    params = ModelParams(w=w, b=float(b), rank=r, lambda_=lambda_)
    report = SolveReport(
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        ridge=ridge,
        rank_w=numerical_rank(w),
        max_excess_sv_ratio=max_leak,
    )
    return params, report


def factorize(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear factors (u, v) with u v' = w, via the SVD of w.

    u carries the singular values (T x r), v the right singular vectors
    (P x r). Faithful only when rank(w) <= params.rank; any spill beyond
    the rank budget is truncated.
    """
    U, s, Vt = np.linalg.svd(params.w, full_matrices=False)
    k = min(params.rank, s.size)
    u = U[:, :k] * s[:k]
    v = Vt[:k].T
    return u, v
