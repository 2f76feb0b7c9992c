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
solve (`_solve`), so weights the windows do not span stay zero. When a
test on the step's matrix (`_certified`) shows it far from singular, the
step has one solution, and `_solve` finds it by LU without an
eigendecomposition. Each alternating pass is followed by one trial point
along its own direction, kept when it is lower (`fit_pgd` gives the
rule), and a fit orders its samples once, complete first, so every block
reads its complete and censored columns as slices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cohort import DesignSet, vectorize
from .errors import DataError, NumericalError

RANK_TOL = 1e-10
EIG_CUT = 1e-10
MAX_HALVINGS = 50
NEWTON_STEPS = 50
ARMIJO = 1e-4
ROUNDING = np.finfo(float).eps
# fit_pgd's extrapolation factor beta: its start, its cap and its floor
EXTRAPOLATION = (1.0, 16.0, 0.5)
# a pass that lowers the objective by less than GATE |f| is not extrapolated
GATE = math.sqrt(ROUNDING)


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
    converged: bool
    rank_w: int

    @property
    def iterations(self) -> int:
        """The recorded passes: one per objective_trace entry after the start."""
        return len(self.objective_trace) - 1

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of fit_pgd: gradient tolerance (finite) and the cap on alternating passes, both nonnegative.

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
        if not math.isfinite(self.tol):
            # a bound of inf holds at any point, so "converged" would not mean stationary
            raise ValueError(f"tol must be finite, got {self.tol!r}")


def check_lambda(lambda_):
    if not (math.isfinite(lambda_) and lambda_ >= 0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lambda_!r}")


def _check_design(w, design):
    if w.shape != (design.T, design.P):
        raise DataError(f"w has shape {w.shape}, design expects {(design.T, design.P)}")


class _Samples(NamedTuple):
    """A fit's samples in its layout, complete first: labels, weights (1, then lambda_) and the complete count."""

    y: np.ndarray
    weight: np.ndarray
    n_c: int
    lambda_: float


def _layout(design, lambda_):
    """The design's samples ordered once, complete first (stable): [X; 1] over them, and their `_Samples`.

    Every block of a fit keeps this order, so its complete and censored
    columns are the slices [:n_c] and [n_c:].
    """
    n = design.y.size
    order = np.argsort(design.censored, kind="stable")
    Z = np.empty((design.X.shape[0] + 1, n))
    Z[:-1] = design.X[:, order]
    Z[-1] = 1.0
    n_c = n - int(design.censored.sum())
    weight = np.full(n, lambda_, dtype=float)
    weight[:n_c] = 1.0
    return Z, _Samples(design.y[order], weight, n_c, lambda_)


def _objective_vec(Z, theta, s):
    """Objective at theta over the features Z ([F; 1]) of the samples s, with the margins it was computed from.

    A margin is the residual F'theta[:-1] + theta[-1] - y, or min(0, residual) for a censored sample.
    """
    m = Z[:-1].T @ theta[:-1]
    m += theta[-1]
    m -= s.y
    tail = m[s.n_c:]
    np.minimum(tail, 0.0, out=tail)
    return 0.5 * float((s.weight * m) @ m), m


def _stacked(params, design):
    """[vec(w); b] of params, and the design's layout."""
    _check_design(params.w, design)
    return (np.append(vectorize(params.w), params.b), *_layout(design, params.lambda_))


def objective(params: ModelParams, design: DesignSet) -> float:
    """Censored least-squares / squared-hinge objective value."""
    theta, Z, s = _stacked(params, design)
    return _objective_vec(Z, theta, s)[0]


def gradient(params: ModelParams, design: DesignSet) -> tuple[np.ndarray, float]:
    """Analytic gradient (d/d vec(w), d/db) of the objective."""
    theta, Z, s = _stacked(params, design)
    g = Z @ (s.weight * _objective_vec(Z, theta, s)[1])
    return g[:-1], float(g[-1])


def _truncated(w, r):
    """The rank-r SVD truncation of w as its factors (U_r, s_r, V_r'); fewer when w has fewer singular values."""
    U, s, Vt = np.linalg.svd(w, full_matrices=False)
    return U[:, :r], s[:r], Vt[:r]


def project_rank(w_hat: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r Frobenius approximation via SVD truncation."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    U, s, Vt = _truncated(w_hat, r)
    return (U * s) @ Vt


def numerical_rank(w: np.ndarray) -> int:
    s = np.linalg.svd(w, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def _certified(H):
    """Whether symmetric H's smallest eigenvalue exceeds EIG_CUT times its trace, so `_solve` cuts no direction.

    H's largest eigenvalue is at most its trace, so the smallest then
    exceeds EIG_CUT times the largest. One Cholesky factorisation of H less
    EIG_CUT tr(H) times the identity shows it.
    """
    shifted = H.copy()
    shifted.flat[::shifted.shape[0] + 1] -= EIG_CUT * H.trace()
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve(H, rhs):
    """The minimum-norm solution of H x = rhs for symmetric positive semidefinite H.

    The choice is made per matrix. When `_certified` shows H far from
    singular, the solution is unique and LU finds it. Otherwise one eigh
    gives it: directions with eigenvalue at most EIG_CUT times the largest
    get no component (H = 0 gives x = 0). Either way one refinement step
    follows (on the kept directions for eigh), which restores the accuracy
    a plain solve loses.
    """
    if _certified(H):
        x = np.linalg.solve(H, rhs)
        return x + np.linalg.solve(H, rhs - H @ x)
    mu, V = np.linalg.eigh(H)
    keep = mu > EIG_CUT * mu[-1]
    mu, V = mu[keep], V[:, keep]
    x = V @ ((V.T @ rhs) / mu)
    return x + V @ ((V.T @ (rhs - H @ x)) / mu)


def _newton(Z, s, theta):
    """Minimise the block objective over theta by finite Newton steps.

    Z is the block's features over a row of ones, one column per sample in
    the fit's layout (`_layout`): the s.n_c complete samples first, so the
    complete and censored columns are slices and no column is copied but
    the active ones. The intercept is the last entry of theta; a non-finite
    objective at the start raises NumericalError.
    Each step is the minimum-norm solution of the Newton system (`_solve`).
    A step is halved until it meets the Armijo condition, except once its
    predicted decrease -g'd is at most ROUNDING |f|: there no step length
    can be told better than another in floating point, so the full step is
    taken and the call ends.
    Returns (theta, exact); exact means the last full step kept the active
    set of censored margins, so theta minimises the quadratic that agrees
    with the objective around it, or that no descent direction is left.
    """
    n_c, lambda_ = s.n_c, s.lambda_
    Z_c, Z_z = Z[:, :n_c], Z[:, n_c:]
    H_c = Z_c @ Z_c.T
    f, margins = _objective_vec(Z, theta, s)
    if not np.isfinite(f):
        raise NumericalError("objective is non-finite at the starting point")
    for _ in range(NEWTON_STEPS):
        active = margins[n_c:] < 0
        g = Z @ (s.weight * margins)
        Z_a = Z_z[:, active]
        d = _solve(H_c + lambda_ * (Z_a @ Z_a.T), -g)
        slope = float(g @ d)
        if not slope < 0:
            return theta, True
        if -slope <= ROUNDING * abs(f):
            # below f's rounding no step length can be told better than another: take the whole step and stop
            theta = theta + d
            margins = _objective_vec(Z, theta, s)[1]
            return theta, np.array_equal(margins[n_c:] < 0, active)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = theta + t * d
            f_new, new_margins = _objective_vec(Z, trial, s)
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return theta, False
        theta, f, margins = trial, f_new, new_margins
        if t == 1.0 and np.array_equal(margins[n_c:] < 0, active):
            return theta, True
    return theta, False


def _split(w, r):
    """The rank-r SVD factors (U, V) of w, U V' its truncation, with the singular values split evenly."""
    A, s, Bt = _truncated(w, r)
    root = np.sqrt(s)
    return A * root, Bt.T * root


def fit_pgd(design: DesignSet, lambda_: float, r: int,
            options: SolverOptions | None = None) -> tuple[ModelParams, SolveReport]:
    """Fit the rank-constrained censored regression by exact alternating minimisation.

    lambda_ must be finite and nonnegative, options.tol finite and
    nonnegative and options.max_iter nonnegative (ValueError otherwise); a
    non-finite objective raises NumericalError. The name is kept from the
    projected-gradient solver this replaced.

    The fit orders the design's samples once, complete first (`_layout`),
    and every block it solves keeps that order. The start is the
    unconstrained minimiser over [vec(w); b], found by the finite Newton
    routine. When r >= min(T, P) it is the answer, after 0 passes, and it
    is converged when the Newton routine ended exactly or its gradient
    meets the bound below. Otherwise its rank-r SVD truncation w = U V'
    (U = U_r S_r^1/2, V = V_r S_r^1/2) starts a sequence of passes.
    Each pass solves for (U, b) with V fixed, then for (V, b) with U fixed,
    then rebalances the factors (the SVD of U V', its singular values split
    evenly) so that U and V keep equal scale. The U-block and V-block
    features of every sample, over a row of ones, are written into two
    buffers allocated once per fit.

    A pass that lowers the objective from f to f+ by at least
    sqrt(eps) |f| is then extrapolated: from the last point (w, b) and the
    pass's point (w+, b+) it tries w_e = U_e V_e', with (U_e, V_e) the
    balanced rank-r factors of w+ + beta (w+ - w), and b_e = b+ + beta (b+ - b),
    and keeps that point if its objective is strictly lower than f+.
    beta starts at EXTRAPOLATION[0], doubles after a kept point up to
    EXTRAPOLATION[1] and halves after a refused one down to
    EXTRAPOLATION[2]. Alternation closes the gap to a minimum by a nearly
    fixed factor per pass, so the step along a pass's direction saves
    passes; below the sqrt(eps) gate the objective's rounding is too close
    to the decrease for a trial point to be judged, so those passes stay
    plain.

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
    the objective at the start and which holds one point per pass, is
    non-increasing, and strictly decreasing except that its last entry may
    equal the one before it. `iterations` counts the recorded passes, at
    most options.max_iter; a fit that stops before the bound is met emits
    a RuntimeWarning. rank(w) <= r by construction, and `rank_w` is
    numerical_rank(w).

    Floating point sets a floor between tol 1e-9 and 1e-8: of the 30 random
    designs of tools/solver_floor.py, 29 converge at 1e-8, 7 at 1e-9 and 2
    at 1e-10; the others stall.
    """
    opts = options or SolverOptions()
    if r < 1:
        raise ValueError("rank must be >= 1")
    check_lambda(lambda_)
    T, P = design.T, design.P
    if not design.y.size:
        raise DataError("design has no samples")
    Z, s = _layout(design, lambda_)
    n_c, y = s.n_c, s.y
    b0 = float(y[:n_c].mean()) if n_c else 0.0
    theta, exact = _newton(Z, s, np.append(np.zeros(T * P), b0))
    bound = opts.tol * (np.linalg.norm(Z[:-1, :n_c] @ y[:n_c]) + lambda_ * np.linalg.norm(Z[:-1, n_c:] @ y[n_c:]))
    w, b = theta[:-1].reshape(T, P), float(theta[-1])
    if r >= min(T, P):
        f, margins = _objective_vec(Z, theta, s)
        trace, capped = [f], False
        converged = exact or np.linalg.norm(Z @ (s.weight * margins)) <= bound
    else:
        w, b, trace, converged, capped = _alternate(Z, s, r, w, b, bound, opts.max_iter)

    if not converged:
        why = f"stopped at max_iter={opts.max_iter}" if capped else "stalled"
        warnings.warn(f"fit_pgd {why} before reaching tol={opts.tol:g}", RuntimeWarning, stacklevel=2)
    params = ModelParams(w=w, b=b, rank=r, lambda_=lambda_)
    report = SolveReport(objective_trace=np.asarray(trace), converged=bool(converged), rank_w=numerical_rank(w))
    return params, report


def _alternate(Z, s, r, w, b, bound, max_iter):
    """Alternating passes, each extrapolated as `fit_pgd` describes, from the rank-r truncation of w.

    Z is the fit's [X; 1] in its layout s. Returns (w, b, objective trace,
    converged, capped); capped means the passes ran out at max_iter.
    """
    T, P = w.shape
    n = s.y.size
    # each sample's window as T x P (for the U block) and P x T (for the V block)
    X = Z[:-1].reshape(T, P, n)
    Xt = X.transpose(1, 0, 2)
    # the U-block features X V (T x r) and the V-block features X' U (P x r) of every sample, over a row of ones
    Z_u, Z_v = np.empty((T * r + 1, n)), np.empty((P * r + 1, n))
    Z_u[-1] = Z_v[-1] = 1.0
    F_u, F_v = Z_u[:-1].reshape(T, r, n), Z_v[:-1].reshape(P, r, n)

    def point(U, V, b):
        """(U, V, w, b, objective, margins) at w = U V'."""
        w = U @ V.T
        return (U, V, w, b, *_objective_vec(Z, np.append(w.ravel(), b), s))

    def stationary(U, V, margins):
        g = Z @ (s.weight * margins)
        G = g[:-1].reshape(T, P)
        return math.sqrt(((G @ V) ** 2).sum() + ((G.T @ U) ** 2).sum() + g[-1] ** 2) <= bound

    U, V, w, b, f, margins = point(*_split(w, r), b)
    trace = [f]
    beta = EXTRAPOLATION[0]
    while not stationary(U, V, margins):
        if len(trace) - 1 == max_iter:
            return w, b, trace, False, True
        np.matmul(V.T, X, out=F_u)
        theta = _newton(Z_u, s, np.append(U.ravel(), b))[0]
        U_new = theta[:-1].reshape(T, r)
        np.matmul(U_new.T, Xt, out=F_v)
        theta = _newton(Z_v, s, np.append(V.ravel(), theta[-1]))[0]
        new = point(*_split(U_new @ theta[:-1].reshape(P, r).T, r), float(theta[-1]))
        f_new = new[4]
        if not f_new < f:
            # no lower in floating point: the fit ends, at the new point if that one is stationary
            if f_new == f and stationary(new[0], new[1], new[5]):
                return new[2], new[3], trace + [f_new], True, False
            return w, b, trace, False, False
        if f - f_new >= GATE * abs(f):
            w_new, b_new = new[2], new[3]
            trial = point(*_split(w_new + beta * (w_new - w), r), b_new + beta * (b_new - b))
            if trial[4] < f_new:
                new, beta = trial, min(2 * beta, EXTRAPOLATION[1])
            else:
                beta = max(beta / 2, EXTRAPOLATION[2])
        U, V, w, b, f, margins = new
        trace.append(f)
    return w, b, trace, True, False


def factorize(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear factors (u, v) with u v' = w, via the SVD of w.

    u carries the singular values (T x r), v the right singular vectors
    (P x r). Faithful only when rank(w) <= params.rank; any spill beyond
    the rank budget is truncated.
    """
    U, s, Vt = _truncated(params.w, params.rank)
    return U * s, Vt.T
