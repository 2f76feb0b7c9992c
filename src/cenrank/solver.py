"""Censored low-rank regression solved by exact alternating minimisation over w = U V'.

The objective over a weight matrix w (T x P) and intercept b is

    sum_complete 1/2 (<x, w> + b - y)^2
  + sum_censored lambda/2 (min(0, <x, w> + b - y))^2

subject to rank(w) <= r. The squared hinge charges a censored sample only
when the predicted time-to-event falls short of its censoring label.

The rank constraint is met by writing w = U V' with U (T x r) and V
(P x r), the bilinear form sum_k u_k' x v_k. With V fixed the objective is
a convex piecewise-quadratic least-squares problem in (U, b), and with U
fixed one in (V, b). Each such block is solved exactly by finite Newton
steps (Mangasarian 2002; Keerthi & DeCoste 2005): the generalised Hessian
covers the complete samples plus the censored samples whose margin is
below zero, and an Armijo backtracking search guards each step. The same
routine solves the unconstrained problem over [vec(w); b], whose rank-r
truncation is the starting point. Each step, like OLS, is a minimum-norm
solve (`_solve`), so weights the windows do not span stay zero. When one
test per block solve (`_certified`) shows that no Hessian of the block can
come near singular, each step has one solution, and LU finds it
(`_lu_solve`) without an eigendecomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cohort import DesignSet, vectorize
from .errors import DataError, NumericalError

RANK_TOL = 1e-10
EIG_CUT = 1e-10
MAX_HALVINGS = 50
NEWTON_STEPS = 50
ARMIJO = 1e-4
ROUNDING = np.finfo(float).eps


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
class SolveReport:
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    rank_w: int

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of fit_pgd: gradient tolerance and the cap on alternating passes, both nonnegative.

    `precondition` is read by nothing. It stays only because the benchmark
    (bench/workloads.py) passes precondition=False; it goes when that
    argument does.
    """

    tol: float = 1e-4
    max_iter: int = 500
    precondition: bool = True

    def __post_init__(self):
        if not (self.tol >= 0 and self.max_iter >= 0):
            raise ValueError(f"tol and max_iter must be nonnegative, got {self.tol!r} and {self.max_iter!r}")


def check_lambda(lambda_):
    if not (math.isfinite(lambda_) and lambda_ >= 0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lambda_!r}")


def _check_design(w, design):
    if w.shape != (design.T, design.P):
        raise DataError(f"w has shape {w.shape}, design expects {(design.T, design.P)}")


def _margins(w_vec, b, design):
    """Each sample's margin: its residual <x, w> + b - y, or min(0, residual) if it is censored."""
    m = design.X.T @ w_vec + b - design.y
    return np.minimum(m, 0.0, out=m, where=design.censored)


def _weights(design, lambda_):
    """Each sample's weight in the objective: 1 if complete, lambda if censored."""
    return np.where(design.censored, lambda_, 1.0)


def _objective_vec(w_vec, b, design, weight):
    """Objective at (w_vec, b) under the sample weights `weight` (`_weights`), with the margins it was computed from."""
    m = _margins(w_vec, b, design)
    return 0.5 * float((weight * m) @ m), m


def _gradient_vec(margins, design, weight):
    weighted = weight * margins
    return design.X @ weighted, float(weighted.sum())


def objective(params: ModelParams, design: DesignSet) -> float:
    """Censored least-squares / squared-hinge objective value."""
    _check_design(params.w, design)
    return _objective_vec(vectorize(params.w), params.b, design, _weights(design, params.lambda_))[0]


def gradient(params: ModelParams, design: DesignSet) -> tuple[np.ndarray, float]:
    """Analytic gradient (d/d vec(w), d/db) of the objective."""
    _check_design(params.w, design)
    return _gradient_vec(_margins(vectorize(params.w), params.b, design), design, _weights(design, params.lambda_))


def project_rank(w_hat: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r Frobenius approximation via SVD truncation."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    U, s, Vt = np.linalg.svd(w_hat, full_matrices=False)
    k = min(r, s.size)
    return (U[:, :k] * s[:k]) @ Vt[:k]


def numerical_rank(w: np.ndarray) -> int:
    s = np.linalg.svd(w, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def _block(F, design) -> DesignSet:
    """The least-squares block over theta = [coefficients; b]: features F over a row of ones.

    Column i of F holds the features of the design's sample i, whose label
    and censored mark the block keeps.
    """
    Z = np.empty((F.shape[0] + 1, F.shape[1]))
    Z[:-1] = F
    Z[-1] = 1.0
    return DesignSet(Z, design.y, design.censored, 1, Z.shape[0])


def _solve(H, rhs):
    """The minimum-norm solution of H x = rhs for symmetric positive semidefinite H, from one eigh.

    Directions with eigenvalue at most EIG_CUT times the largest get no
    component (H = 0 gives x = 0); one refinement step on the kept ones
    restores the accuracy a plain eigh solve loses.
    """
    mu, V = np.linalg.eigh(H)
    keep = mu > EIG_CUT * mu[-1]
    mu, V = mu[keep], V[:, keep]
    x = V @ ((V.T @ rhs) / mu)
    return x + V @ ((V.T @ (rhs - H @ x)) / mu)


def _lu_solve(H, rhs):
    """The solution of H x = rhs for nonsingular H by LU, with `_solve`'s one refinement step."""
    x = np.linalg.solve(H, rhs)
    return x + np.linalg.solve(H, rhs - H @ x)


def _certified(H_c, censored_weight):
    """Whether every Newton Hessian H = H_c + lambda Z_A Z_A' of a block keeps all its directions under `_solve`.

    H_c is X_c X_c' over the block's complete columns X_c, and Z_A holds the
    censored columns whose margin is active. censored_weight is
    lambda ||X_z||_F^2 over all censored columns X_z, the trace of lambda X_z X_z'.
    Whatever the active set A, H's largest eigenvalue is at most its trace,
    tr H_c + censored_weight at most, and its smallest at least H_c's; so
    it suffices that H_c's smallest eigenvalue exceeds EIG_CUT times that
    trace bound, which one Cholesky factorisation of H_c less that much
    times the identity shows.
    """
    shifted = H_c.copy()
    shifted.flat[::shifted.shape[0] + 1] -= EIG_CUT * (H_c.trace() + censored_weight)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton(block: DesignSet, lambda_, theta):
    """Minimise the block objective over theta by finite Newton steps.

    The intercept is the last entry of theta, so the objective is taken at
    b = 0; a non-finite objective at the start raises NumericalError.
    Each step is the minimum-norm solution of the Newton system (`_solve`);
    when `_certified` shows that no Hessian of the call has an eigenvalue at
    `_solve`'s cut, that solution is the unique one, and an LU solve with
    the same refinement step gives it (`_lu_solve`). A step is halved
    until it meets the Armijo condition, except once its predicted decrease
    -g'd is at most ROUNDING |f|: there no step length can be told better
    than another in floating point, so the full step is taken and the call
    ends.
    Returns (theta, exact); exact means the last full step kept the active
    set of censored margins, so theta minimises the quadratic that agrees
    with the objective around it, or that no descent direction is left.
    """
    censored = block.censored
    weight = _weights(block, lambda_)
    X_c = block.X[:, ~censored]
    H_c = X_c @ X_c.T
    solve = _lu_solve if _certified(H_c, lambda_ * float((block.X[:, censored] ** 2).sum())) else _solve
    f, margins = _objective_vec(theta, 0.0, block, weight)
    if not np.isfinite(f):
        raise NumericalError("objective is non-finite at the starting point")
    for _ in range(NEWTON_STEPS):
        active = censored & (margins < 0)
        g = block.X @ (weight * margins)
        Z = block.X[:, active]
        d = solve(H_c + lambda_ * (Z @ Z.T), -g)
        slope = float(g @ d)
        if not slope < 0:
            return theta, True
        if -slope <= ROUNDING * abs(f):
            # below f's rounding no step length can be told better than another: take the whole step and stop
            theta = theta + d
            margins = _objective_vec(theta, 0.0, block, weight)[1]
            return theta, np.array_equal(censored & (margins < 0), active)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = theta + t * d
            f_new, new_margins = _objective_vec(trial, 0.0, block, weight)
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return theta, False
        theta, f, margins = trial, f_new, new_margins
        if t == 1.0 and np.array_equal(censored & (margins < 0), active):
            return theta, True
    return theta, False


def _split(w, r):
    """The rank-r SVD factors (U, V) of w, U V' its truncation, with the singular values split evenly."""
    A, s, Bt = np.linalg.svd(w, full_matrices=False)
    root = np.sqrt(s[:r])
    return A[:, :r] * root, Bt[:r].T * root


def fit_pgd(design: DesignSet, lambda_: float, r: int,
            options: SolverOptions | None = None) -> tuple[ModelParams, SolveReport]:
    """Fit the rank-constrained censored regression by exact alternating minimisation.

    lambda_, options.tol and options.max_iter must be nonnegative, and
    lambda_ finite (ValueError otherwise); a non-finite objective raises
    NumericalError. The name is kept from the projected-gradient solver
    this replaced.

    The start is the unconstrained minimiser over [vec(w); b], found by the
    finite Newton routine. When r >= min(T, P) it is the answer, after 0
    passes, and it is converged when the Newton routine ended exactly or
    its gradient meets the bound below. Otherwise its rank-r SVD truncation
    w = U V' (U = U_r S_r^1/2, V = V_r S_r^1/2) starts a sequence of passes.
    Each pass solves for (U, b) with V fixed, then for (V, b) with U fixed,
    then rebalances the factors (the SVD of U V', its singular values split
    evenly) so that U and V keep equal scale.

    converged=True means that, after the last pass (or at the start),
    ||(G V, G' U, g_b)|| <= tol * (||X_c y_c|| + lambda ||X_z y_z||), where
    X_c, y_c are the complete samples' columns and labels and X_z, y_z the
    censored samples', (G, g_b) is `gradient` at (w, b) and U, V are the
    balanced factors, that is the SVD factors of w with the singular values
    split evenly.
    A pass that does not lower the objective ends the fit. If its objective
    is level with the last one and its new point meets the bound, the fit
    ends converged at that point, and the pass is recorded with that
    point's objective; otherwise the fit ends "stalled" at the last point,
    and the pass is not recorded. So objective_trace, whose first entry is
    the objective at the start, is non-increasing, and strictly decreasing
    except that its last entry may equal the one before it. `iterations`
    counts the recorded passes, at most options.max_iter; a fit that stops
    before the bound is met emits a RuntimeWarning. rank(w) <= r by
    construction, and `rank_w` is numerical_rank(w).

    Floating point sets a floor between tol 1e-9 and 1e-8: of the 30 random
    designs of tools/solver_floor.py, 29 converge at 1e-8, 7 at 1e-9 and 1
    at 1e-10; the others stall.
    """
    opts = options or SolverOptions()
    if r < 1:
        raise ValueError("rank must be >= 1")
    check_lambda(lambda_)
    T, P, X, y, censored = design.T, design.P, design.X, design.y, design.censored
    if not y.size:
        raise DataError("design has no samples")
    b0 = float(y[~censored].mean()) if not censored.all() else 0.0
    theta, exact = _newton(_block(X, design), lambda_, np.append(np.zeros(T * P), b0))
    bound = opts.tol * (np.linalg.norm(X[:, ~censored] @ y[~censored])
                        + lambda_ * np.linalg.norm(X[:, censored] @ y[censored]))
    w, b = theta[:-1].reshape(T, P), float(theta[-1])
    if r >= min(T, P):
        weight = _weights(design, lambda_)
        f, margins = _objective_vec(w.ravel(), b, design, weight)
        g_w, g_b = _gradient_vec(margins, design, weight)
        trace, capped = [f], False
        converged = exact or math.hypot(np.linalg.norm(g_w), g_b) <= bound
    else:
        w, b, trace, converged, capped = _alternate(design, lambda_, r, w, b, bound, opts.max_iter)

    if not converged:
        why = f"stopped at max_iter={opts.max_iter}" if capped else "stalled"
        warnings.warn(f"fit_pgd {why} before reaching tol={opts.tol:g}", RuntimeWarning, stacklevel=2)
    params = ModelParams(w=w, b=b, rank=r, lambda_=lambda_)
    report = SolveReport(
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=bool(converged),
        rank_w=numerical_rank(w),
    )
    return params, report


def _alternate(design, lambda_, r, w, b, bound, max_iter):
    """Alternating passes from the rank-r truncation of w.

    Returns (w, b, objective trace, converged, capped); capped means the
    passes ran out at max_iter.
    """
    T, P = design.T, design.P
    weight = _weights(design, lambda_)
    U, V = _split(w, r)
    w = U @ V.T
    f, margins = _objective_vec(w.ravel(), b, design, weight)
    trace = [f]
    # each sample's window as T x P (for the U block) and P x T (for the V block)
    X = design.X.reshape(T, P, -1)
    Xt = X.transpose(1, 0, 2)

    def stationary(U, V, margins):
        g_w, g_b = _gradient_vec(margins, design, weight)
        G = g_w.reshape(T, P)
        return math.sqrt(((G @ V) ** 2).sum() + ((G.T @ U) ** 2).sum() + g_b * g_b) <= bound

    while not stationary(U, V, margins):
        if len(trace) - 1 == max_iter:
            return w, b, trace, False, True
        # (U, b) with V fixed: the features of a sample are X V (T x r)
        block = _block((V.T @ X).reshape(T * r, -1), design)
        theta = _newton(block, lambda_, np.append(U.ravel(), b))[0]
        U_new = theta[:-1].reshape(T, r)
        # (V, b) with U fixed: the features of a sample are X' U (P x r)
        block = _block((U_new.T @ Xt).reshape(P * r, -1), design)
        theta = _newton(block, lambda_, np.append(V.ravel(), theta[-1]))[0]
        U_new, V_new = _split(U_new @ theta[:-1].reshape(P, r).T, r)
        w_new, b_new = U_new @ V_new.T, float(theta[-1])
        f_new, new_margins = _objective_vec(w_new.ravel(), b_new, design, weight)
        if not f_new < f:
            # no lower in floating point: the fit ends, at the new point if that one is stationary
            if f_new == f and stationary(U_new, V_new, new_margins):
                return w_new, b_new, trace + [f_new], True, False
            return w, b, trace, False, False
        U, V, w, b, f, margins = U_new, V_new, w_new, b_new, f_new, new_margins
        trace.append(f)
    return w, b, trace, True, False


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
