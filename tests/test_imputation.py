import warnings

import numpy as np
import pytest

from cenrank.cohort import extract_windows
from cenrank import imputation
from cenrank.errors import EmptyColumnError, NumericalError
from cenrank.imputation import (
    BmcImputer,
    BmcModel,
    KnnImputer,
    MeanImputer,
    bmc_fit,
    compute_bounds,
    fill_windows,
    impute_rows,
)
from cenrank.modelio import load_imputer, save_imputer
from cenrank.synthetic import SyntheticSpec, generate_cohort, generate_lowrank_matrix
from helpers import tiny_cohort


def bmc_oracle(X, mask, r, n_iter=200):
    """Straight transcription of the alternating completion loop, kept
    independent of the library implementation."""
    lower = np.nanmin(np.where(mask, X, np.nan), axis=0)
    upper = np.nanmax(np.where(mask, X, np.nan), axis=0)
    means = np.nanmean(np.where(mask, X, np.nan), axis=0)
    Xw = X.copy()
    Xw[~mask] = np.broadcast_to(means, X.shape)[~mask]
    for _ in range(n_iter):
        U, s, Vt = np.linalg.svd(Xw, full_matrices=False)
        M = (U[:, :r] * s[:r]) @ Vt[:r]
        Xw[~mask] = np.minimum(upper, np.maximum(lower, M))[~mask]
    return Xw, M


def bmc_reference(X, r, tol=1e-6, max_iter=500, bounds=None):
    """The residual-form completion loop written with boolean masks and fresh arrays.

    It does the arithmetic of `bmc_fit` in the same order (rows with a
    missing cell first, the other rows' Gram matrix once, then per iteration
    `eigh` of the Gram matrix, R = X W over the P - r bottom eigenvectors W,
    M = X - R W' at the missing cells, clamp, refill, and the objective
    ||R||^2 - ||X - M||^2 + ||clamped - M||^2 over the missing cells), so
    the two must agree bit for bit. Returns the completion, the basis and
    the trace.
    """
    X = np.array(X, dtype=float)
    P = X.shape[1]
    floor = tol * tol * float(np.nansum(np.square(X)))
    lower, upper = (np.nanmin(X, axis=0), np.nanmax(X, axis=0)) if bounds is None else bounds
    means = np.nanmean(X, axis=0)
    live = np.isnan(X).any(axis=1)
    order = np.concatenate([np.flatnonzero(live), np.flatnonzero(~live)])
    X, live = X[order], live[order]
    missing = np.isnan(X)
    lo, hi = np.broadcast_to(lower, X.shape)[missing], np.broadcast_to(upper, X.shape)[missing]
    X[missing] = np.clip(np.broadcast_to(means, X.shape)[missing], lo, hi)
    complete = X[~live]
    G_C = np.dot(complete.T, complete)

    trace, M = [], None
    for _ in range(max_iter):
        L = X[live]
        W = np.linalg.eigh(np.dot(L.T, L) + G_C)[1][:, :P - r]
        R = np.dot(X, W)
        d = np.dot(R[live], W.T)[missing[live]]
        m = X[missing] - d
        X[missing] = np.clip(m, lo, hi)
        e = X[missing] - m
        trace.append(float(np.vdot(R, R) - np.dot(d, d) + np.dot(e, e)))
        M = X - np.dot(R, W.T)
        M[missing] = m
        if trace[-1] <= floor or len(trace) > 1 and (trace[-2] <= 0.0 or (trace[-2] - trace[-1]) / trace[-2] < tol):
            break
    done = np.empty_like(X)
    done[order] = X
    if M is None:
        M = done
    return done, np.linalg.eigh(M.T @ M)[1][:, ::-1][:, :r], trace


def bmc_old_order(X, r, tol=1e-6, max_iter=500, bounds=None):
    """The completion loop in the order `bmc_fit` used before its residual form: each iteration
    projects the whole matrix, M = (X V_r) V_r', refills the missing cells and sums (X - M)^2 over all
    cells. Returns the completion, the basis and the trace."""
    X = np.array(X, dtype=float)
    floor = tol * tol * float(np.nansum(np.square(X)))
    missing = np.isnan(X)
    lower, upper = (np.nanmin(X, axis=0), np.nanmax(X, axis=0)) if bounds is None else bounds
    X[missing] = np.broadcast_to(np.clip(np.nanmean(X, axis=0), lower, upper), X.shape)[missing]

    def truncate(A):
        V_r = np.linalg.eigh(A.T @ A)[1][:, ::-1][:, :r]
        return (A @ V_r) @ V_r.T, V_r

    trace, M = [], X
    for _ in range(max_iter):
        M, _ = truncate(X)
        X[missing] = np.clip(M, lower, upper)[missing]
        trace.append(float(np.sum((X - M) ** 2)))
        if trace[-1] <= floor or len(trace) > 1 and (trace[-2] <= 0.0 or (trace[-2] - trace[-1]) / trace[-2] < tol):
            break
    return X, truncate(M)[1], trace


def bmc_case(case):
    """Rows and `bmc_fit` arguments of one completion case."""
    if case == "planted_capped":  # the planted experiment's training rows, cut to 60 iterations
        spec = SyntheticSpec(n_subjects=600, days_per_subject=5, P=10, T_star=5, true_rank=2,
                             noise_sigma=1.0, missing_rate=0.10, latent_rank=8, seed=5)
        return generate_cohort(spec)[0].days, dict(r=8, max_iter=60)
    rng = np.random.default_rng(9)
    X = generate_lowrank_matrix(200, 10, 3, seed=9) + 0.05 * rng.standard_normal((200, 10))
    if case == "no_missing_cell":
        return X, dict(r=3)
    if case == "no_complete_row":  # one missing cell per row, each column observed elsewhere
        X[np.arange(200), rng.integers(0, 10, size=200)] = np.nan
        return X, dict(r=3)
    X[rng.random(X.shape) < 0.2] = np.nan
    X[0] = np.nan_to_num(X[0])  # every column observed
    kwargs = dict(r=3)
    if case == "explicit_bounds":
        kwargs["bounds"] = (np.full(10, -0.2), np.full(10, 0.3))
    elif case == "full_rank":
        kwargs["r"] = 10
    elif case == "no_iterations":
        kwargs["max_iter"] = 0
    return X, kwargs


def impute_oracle(Z, model, sweeps):
    """Straight transcription of the alternating projection loop the fill replaced, run on all rows for
    a fixed number of sweeps with no stopping rule, kept independent of the library implementation."""
    Z = np.array(Z, dtype=float)
    U = model.basis
    missing = np.isnan(Z)
    Z[missing] = np.broadcast_to(np.minimum(model.upper, np.maximum(model.lower, model.col_means)), Z.shape)[missing]
    for _ in range(sweeps):
        Z = np.where(missing, np.minimum(model.upper, np.maximum(model.lower, (Z @ U) @ U.T)), Z)
    return Z


def row_objective(Z, model):
    """||z - U U'z||^2 of each row."""
    return np.sum((Z - (Z @ model.basis) @ model.basis.T) ** 2, axis=1)


def on_bound(out, missing, model):
    """Rows with an imputed cell on its lower or upper bound."""
    return (missing & ((out == model.lower) | (out == model.upper))).any(axis=1)


class TestBounds:
    def test_min_max(self):
        X = np.array([[2.0, 1.0], [4.0, np.nan]])
        lower, upper = compute_bounds(X)
        assert lower.tolist() == [2.0, 1.0]
        assert upper.tolist() == [4.0, 1.0]

    def test_single_observation_column(self):
        X = np.array([[3.0], [np.nan]])
        lower, upper = compute_bounds(X)
        assert lower[0] == upper[0] == 3.0

    def test_empty_column(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(EmptyColumnError):
            compute_bounds(X)


class TestBmcFit:
    def test_no_missing_returns_input(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 4))
        done, model = bmc_fit(X, r=2)
        assert np.array_equal(done, X)
        assert model.basis.shape == (4, 2)

    def test_clamped_fixed_point(self):
        # rank-1 completion of [[1,2],[2,4],[3,.]] wants 6 (exact rank-1
        # pattern) but the observed column-2 max is 4, so the bound binds
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, np.nan]])
        mask = ~np.isnan(X)
        done, model = bmc_fit(X, r=1)
        assert done[2, 1] == 4.0
        oracle_X, _ = bmc_oracle(X, mask, r=1)
        assert oracle_X[2, 1] == 4.0
        # the unconstrained rank-1 value at the fixed point exceeds the bound
        U, s, Vt = np.linalg.svd(oracle_X, full_matrices=False)
        M1 = (U[:, :1] * s[:1]) @ Vt[:1]
        assert M1[2, 1] >= 4.0

    def test_matches_oracle_on_random_instance(self):
        rng = np.random.default_rng(4)
        X = generate_lowrank_matrix(12, 6, 2, seed=4) + 0.05 * rng.standard_normal((12, 6))
        mask = rng.random((12, 6)) >= 0.25
        X_in = np.where(mask, X, np.nan)
        done, _ = bmc_fit(X_in, r=2, tol=1e-14, max_iter=400)
        oracle_X, _ = bmc_oracle(X_in, mask, r=2, n_iter=400)
        assert np.allclose(done, oracle_X, atol=1e-8)

    def test_exact_rank2_recovery(self):
        M = generate_lowrank_matrix(60, 12, 2, seed=11)
        rng = np.random.default_rng(11)
        mask = rng.random((60, 12)) >= 0.2
        wide = (np.full(12, -1e9), np.full(12, 1e9))
        done, _ = bmc_fit(np.where(mask, M, np.nan), r=2, tol=1e-12, max_iter=3000, bounds=wide)
        hidden = ~mask
        rel = np.linalg.norm((done - M)[hidden]) / np.linalg.norm(M[hidden])
        assert rel <= 1e-3

    def test_observed_untouched_and_bounds_respected(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((15, 5)) * 3
            mask = rng.random((15, 5)) >= 0.3
            mask[0] = True  # keep every column observed at least once
            X_in = np.where(mask, X, np.nan)
            trace = []
            done, model = bmc_fit(X_in, r=2, trace_out=trace)
            assert np.array_equal(done[mask], X[mask])
            missing = ~mask
            assert np.all(done[missing] >= np.broadcast_to(model.lower, X.shape)[missing])
            assert np.all(done[missing] <= np.broadcast_to(model.upper, X.shape)[missing])
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_basis_is_orthonormal(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 6))
        mask = rng.random((20, 6)) >= 0.2
        mask[0] = True
        _, model = bmc_fit(np.where(mask, X, np.nan), r=3)
        assert np.allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-8)

    def test_capped_fit_warns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 6))
        mask = rng.random((20, 6)) >= 0.3
        mask[0] = True
        with pytest.warns(RuntimeWarning, match="max_iter=2"):
            bmc_fit(np.where(mask, X, np.nan), r=2, max_iter=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bmc_fit(np.where(mask, X, np.nan), r=2, max_iter=5000)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_rank_fit_stops_at_the_scale_floor(self, seed):
        """Day rows of latent rank 3 fitted at rank 3: the objective falls towards 0, and the fit
        stops once it is within tol^2 of the observed sum of squares, before the relative rule would."""
        spec = SyntheticSpec(n_subjects=60, days_per_subject=10, P=10, T_star=5, true_rank=2,
                             noise_sigma=1.0, missing_rate=0.1, latent_rank=3, seed=seed)
        X = generate_cohort(spec)[0].days
        floor = 1e-12 * np.nansum(X ** 2)
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            done, _ = bmc_fit(X, r=3, trace_out=trace)
        long_trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            long_done, _ = bmc_fit(X, r=3, tol=0.0, max_iter=3000, trace_out=long_trace)
        assert np.array_equal(trace, long_trace[:len(trace)])  # the same iterates, cut short
        assert trace[-1] <= floor < trace[-2]
        prev, cur = np.array(long_trace[:-1]), np.array(long_trace[1:])
        relative_stop = np.flatnonzero((prev - cur) / prev < 1e-6)[0] + 2  # trace length under the relative rule
        assert len(trace) < relative_stop / 2
        assert np.linalg.norm(done - long_done) <= 1e-5 * np.linalg.norm(long_done)

    @pytest.mark.parametrize("case", ["planted_capped", "rank3_tol_stop", "explicit_bounds"])
    def test_iterates_match_reference_bit_for_bit(self, case):
        X, kwargs = bmc_case(case)
        X_in = X.copy()
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            done, model = bmc_fit(X_in, trace_out=trace, **kwargs)
            ref_done, ref_basis, ref_trace = bmc_reference(X, **kwargs)
        assert np.array_equal(done, ref_done)
        assert np.array_equal(model.basis, ref_basis)
        assert np.array_equal(trace, ref_trace)
        assert np.isnan(X_in).sum() == np.isnan(X).sum() > 0  # the caller's array keeps its NaNs
        assert np.array_equal(X_in, X, equal_nan=True)
        if case == "planted_capped":
            assert len(trace) == 60
        else:
            assert len(trace) < 500

    @pytest.mark.parametrize("case", ["planted_capped", "rank3_tol_stop", "explicit_bounds", "no_missing_cell",
                                      "no_complete_row", "full_rank", "no_iterations"])
    def test_iterates_match_the_old_order(self, case):
        """The residual form takes the iterates of the whole-matrix projection it replaced: the same
        iteration count, and the completion, basis and trace to rounding."""
        X, kwargs = bmc_case(case)
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            done, model = bmc_fit(X, trace_out=trace, **kwargs)
            old_done, old_basis, old_trace = bmc_old_order(X, **kwargs)
        assert len(trace) == len(old_trace)
        assert np.max(np.abs(done - old_done)) <= 1e-12 * np.nanmax(np.abs(X))
        assert np.max(np.abs(model.basis @ model.basis.T - old_basis @ old_basis.T)) <= 1e-12
        if case == "full_rank":  # no complement: the objective is 0 and the scale floor stops the fit at once
            assert trace == [0.0] and old_trace[0] <= 1e-12 * np.nansum(X ** 2)
        else:
            assert np.allclose(trace, old_trace, rtol=1e-9, atol=0.0)
        missing = np.isnan(X)
        assert np.array_equal(done[~missing], X[~missing])
        if case == "no_missing_cell":
            assert len(trace) == 2  # nothing moves, so the second objective equals the first
        if case == "no_iterations":  # the basis of the mean-filled rows
            assert trace == [] and np.array_equal(model.basis, old_basis)
            assert np.array_equal(done, np.where(missing, np.nanmean(X, axis=0), X))
        if case == "explicit_bounds":  # the narrow boxes clamp, and observed cells outside them stay
            assert np.all((done[missing] >= -0.2) & (done[missing] <= 0.3))
            assert np.any(done[missing] == -0.2) and np.any(done[missing] == 0.3)
            assert np.any(np.abs(X[~missing]) > 0.3)

    def test_empty_column_raises(self):
        X = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(EmptyColumnError):
            bmc_fit(X, r=1)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinite_entry_rejected(self, inf):
        X = np.array([[1.0, 2.0], [3.0, np.nan], [inf, 4.0]])
        with pytest.raises(NumericalError):
            bmc_fit(X, r=1)


class TestImputeNew:
    """`impute_rows` on a single new row."""

    def _model(self, upper2=10.0):
        return BmcModel(
            basis=np.array([[0.6], [0.8]]),
            lower=np.array([0.0, 0.0]),
            upper=np.array([10.0, upper2]),
            col_means=np.array([0.0, 0.0]),
        )

    def test_fully_observed_unchanged(self):
        z = np.array([3.0, 5.0])
        out = impute_rows(z[None], self._model())[0]
        assert np.array_equal(out, z)

    def test_scalar_fixed_point(self):
        # z2 = 0.8 * (0.6*3 + 0.8*z2) has the unique fixed point 4.0
        out = impute_rows(np.array([[3.0, np.nan]]), self._model())[0]
        assert abs(out[1] - 4.0) < 1e-6
        assert out[0] == 3.0

    def test_clamped_at_upper_bound(self):
        out = impute_rows(np.array([[3.0, np.nan]]), self._model(upper2=2.0))[0]
        assert out[1] == 2.0

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        model = BmcModel(basis=basis, lower=np.full(8, -9.0), upper=np.full(8, 9.0),
                         col_means=np.zeros(8))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(8) * 2
            observed = rng.random(8) >= 0.5
            trace = []
            out = impute_rows(np.where(observed, z, np.nan)[None], model, trace_out=trace)[0]
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
            assert np.all(out >= model.lower - 1e-12) and np.all(out <= model.upper + 1e-12)
            assert np.array_equal(out[observed], z[observed])

    def test_all_missing_fills_from_means(self):
        model = self._model()
        model = BmcModel(basis=model.basis, lower=model.lower, upper=model.upper,
                         col_means=np.array([1.0, 2.0]))
        out = impute_rows(np.array([[np.nan, np.nan]]), model)[0]
        assert np.all(np.isfinite(out))


class TestImputeRows:
    unit = BmcModel(basis=np.array([[0.6], [0.8]]), lower=np.zeros(2), upper=np.full(2, 10.0),
                    col_means=np.zeros(2))

    @pytest.fixture(scope="class")
    def fitted(self):
        spec = SyntheticSpec(n_subjects=100, days_per_subject=6, P=10, T_star=5, true_rank=2,
                             noise_sigma=1.0, missing_rate=0.2, latent_rank=8, seed=5)
        X = generate_cohort(spec)[0].days
        mask = ~np.isnan(X)
        assert X.shape[0] >= 500
        assert mask.all(axis=1).any() and not mask.all()
        imputer = BmcImputer(rank=3)
        imputer.fit_transform(X)
        return X, mask, imputer.model

    def test_matches_one_row_at_a_time(self, fitted):
        X, mask, model = fitted
        trace = []
        out = impute_rows(X, model, trace_out=trace)
        for i in range(X.shape[0]):
            assert np.max(np.abs(out[i] - impute_rows(X[i][None], model)[0])) <= 1e-12
        # against a long run of the loop the fill replaced: its limit where no bound is active, and an
        # objective no lower where one is
        limit = impute_oracle(X, model, sweeps=20_000)
        bounded = on_bound(out, ~mask, model)
        assert 0 < bounded.sum() < (~mask).any(axis=1).sum()
        assert np.max(np.abs(out - limit)[~bounded]) <= 1e-9
        assert np.all(row_objective(out[bounded], model) <= row_objective(limit[bounded], model) * (1 + 1e-12))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))
        full = mask.all(axis=1)
        assert np.array_equal(out[full], X[full])
        assert np.array_equal(out[mask], X[mask])

    def test_bounded_rows_meet_their_kkt_conditions(self, fitted):
        # the gradient 2 A z (A = I - U U') of the row objective, on its missing cells: zero on a cell
        # inside its box, >= 0 on one at its lower bound and <= 0 on one at its upper bound
        rng = np.random.default_rng(3)
        tight = BmcModel(basis=np.linalg.qr(rng.standard_normal((8, 3)))[0], lower=np.full(8, -0.5),
                         upper=np.full(8, 0.5), col_means=np.zeros(8))
        Z = np.where(rng.random((300, 8)) < 0.5, np.nan, 2.0 * rng.standard_normal((300, 8)))
        for X, model in ((fitted[0], fitted[2]), (Z, tight)):
            missing = np.isnan(X)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = impute_rows(X, model)
            bounded = on_bound(out, missing, model)
            g = (out - (out @ model.basis) @ model.basis.T)[bounded]
            m, z = missing[bounded], out[bounded]
            at_lo, at_hi = m & (z == model.lower), m & (z == model.upper)
            slack = 1e-10 * np.linalg.norm(z, axis=1, keepdims=True)
            assert bounded.sum() >= 3
            assert np.all(np.abs(g[m & ~at_lo & ~at_hi]) <= np.broadcast_to(slack, g.shape)[m & ~at_lo & ~at_hi])
            assert np.all((g >= -slack)[at_lo]) and np.all((g <= slack)[at_hi])

    def test_unsettled_rows_warn(self, monkeypatch):
        # one round moves the row [3, nan] to its box edge 2.0 and leaves it unsettled
        monkeypatch.setattr(imputation, "FILL_ROUNDS", 1)
        model = BmcModel(basis=self.unit.basis, lower=np.zeros(2), upper=np.array([10.0, 2.0]),
                         col_means=np.zeros(2))
        with pytest.warns(RuntimeWarning, match="1 rows did not settle within 1 rounds"):
            out = impute_rows(np.array([[3.0, np.nan]]), model)
        assert out[0, 1] == 2.0

    def test_one_row_trace_is_the_row_trace(self):
        rows_trace, row_trace = [], []
        impute_rows(np.array([[1.0, 2.0], [3.0, np.nan]]), self.unit, trace_out=rows_trace)
        impute_rows(np.array([[3.0, np.nan]]), self.unit, trace_out=row_trace)
        assert rows_trace == row_trace and len(row_trace) > 1  # a fully observed row adds nothing

    def test_non_finite_observed_rejected(self):
        for inf in (np.inf, -np.inf):
            with pytest.raises(NumericalError):
                impute_rows(np.array([[inf, np.nan]]), self.unit)


class TestTransform:
    X = np.array([[1.0, 2.0, np.nan], [np.nan, np.nan, 6.0], [0.5, 1.0, 3.0], [4.0, np.nan, 1.0]])

    def test_mean_transform_fills_training_means(self):
        train = np.array([[2.0, 4.0, 0.0], [4.0, 8.0, 3.0]])
        imputer = MeanImputer()
        imputer.fit_transform(train)
        out = imputer.transform(self.X.copy())
        expected = np.where(np.isnan(self.X), np.array([3.0, 6.0, 1.5]), self.X)
        assert np.array_equal(out, expected)

    def test_knn_transform_matches_per_row_neighbours(self):
        train_X = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, np.nan], [5.0, 5.0, 5.0], [1.0, np.nan, 7.0]])
        imputer = KnnImputer(k=2)
        imputer.fit_transform(train_X)
        out = imputer.transform(self.X.copy())
        expected = self.X.copy()
        train_mask = ~np.isnan(train_X)
        for i, j in zip(*np.nonzero(np.isnan(self.X))):
            dists = {}
            for other in range(4):
                shared = ~np.isnan(self.X[i]) & train_mask[other]
                if shared.any():
                    dists[other] = np.sqrt(np.mean((self.X[i, shared] - train_X[other, shared]) ** 2))
            eligible = [o for o in sorted(dists, key=lambda o: (dists[o], o)) if train_mask[o, j]]
            expected[i, j] = np.mean([train_X[o, j] for o in eligible[:2]])
        assert np.array_equal(out, expected)
        assert out[0, 2] == (3.0 + 7.0) / 2  # rows 0 and 3 tie at distance 0
        assert np.array_equal(out[2], self.X[2])


class TestMeanImpute:
    def test_column_mean(self):
        X = np.array([[2.0, 1.0], [4.0, 2.0], [np.nan, 3.0]])
        out = MeanImputer().fit_transform(X)
        assert out[2, 0] == 3.0

    def test_no_missing_unchanged(self):
        X = np.array([[1.0, 2.0]])
        assert np.array_equal(MeanImputer().fit_transform(X), X)

    def test_single_observation_columns(self):
        X = np.array([[5.0, np.nan], [np.nan, 7.0]])
        out = MeanImputer().fit_transform(X)
        assert out[1, 0] == 5.0 and out[0, 1] == 7.0


class TestKnnImpute:
    def test_nearest_row_wins(self):
        X = np.array([[1.0, 2.0], [1.0, np.nan], [5.0, 6.0]])
        out = KnnImputer(k=1).fit_transform(X)
        assert out[1, 1] == 2.0

    def test_large_k_averages_eligible_rows(self):
        X = np.array([[1.0, 2.0], [1.0, np.nan], [5.0, 6.0], [2.0, 4.0]])
        out = KnnImputer(k=10).fit_transform(X)
        assert out[1, 1] == pytest.approx((2.0 + 6.0 + 4.0) / 3)

    def test_isolated_row_falls_back_to_column_mean(self):
        X = np.array([[1.0, np.nan], [np.nan, 6.0], [np.nan, 2.0]])
        out = KnnImputer(k=2).fit_transform(X)
        assert out[0, 1] == 4.0  # no row shares an observed column with row 0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            KnnImputer(k=0)

    def test_exhaustive_distance_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((9, 4)) * 2
        mask = rng.random((9, 4)) >= 0.3
        mask[0] = True
        X_in = np.where(mask, X, np.nan)
        out = KnnImputer(k=3).fit_transform(X_in)
        col_means = np.nanmean(np.where(mask, X, np.nan), axis=0)
        for i in range(9):
            for j in range(4):
                if mask[i, j]:
                    assert out[i, j] == X[i, j]
                    continue
                dists = {}
                for other in range(9):
                    if other == i:
                        continue
                    shared = mask[i] & mask[other]
                    if not shared.any():
                        continue
                    dists[other] = np.sqrt(np.mean((X[i, shared] - X[other, shared]) ** 2))
                eligible = [o for o in sorted(dists, key=lambda o: (dists[o], o)) if mask[o, j]]
                if eligible:
                    expect = np.mean([X[o, j] for o in eligible[:3]])
                else:
                    expect = col_means[j]
                assert out[i, j] == pytest.approx(expect, abs=1e-12)


def cohort_rows(cohort, windows):
    """The distinct (subject, day) rows that windows read, taken from the cohort, in cohort order and then day order."""
    order = {s.subject_id: i for i, s in enumerate(cohort.subjects)}
    keys = sorted({(order[sid], end_day - windows.T + 1 + t)
                   for sid, end_day in zip(windows.subject_id, windows.end_day.tolist()) for t in range(windows.T)})
    return np.array([cohort.subjects[i].values[day - cohort.subjects[i].first_day] for i, day in keys])


class Recorder:
    """A fill that records the rows it was given and marks each missing cell with -1."""

    def __init__(self):
        self.calls = []

    def __call__(self, X):
        self.calls.append(X.copy())
        return np.nan_to_num(X, nan=-1.0)


class TestWindowMatrixPlumbing:
    def test_unique_rows_and_refill(self):
        cohort = tiny_cohort()
        windows = extract_windows(cohort, T=3)
        fill = Recorder()
        filled = fill_windows(windows, fill)
        [X] = fill.calls
        assert np.array_equal(X, cohort_rows(cohort, windows), equal_nan=True)
        assert filled.days.shape[0] == X.shape[0] and filled.T == windows.T
        for raw, w in zip(windows, filled):
            assert w.x_mask.all()
            assert np.array_equal(w.x, np.nan_to_num(raw.x, nan=-1.0))
        for field in ("y", "censored", "subject_id", "end_day"):
            assert np.array_equal(getattr(filled, field), getattr(windows, field))

    def test_shuffled_training_windows_fill_to_the_values_of_sorted_ones(self):
        spec = SyntheticSpec(n_subjects=20, days_per_subject=6, P=5, T_star=3, true_rank=2, noise_sigma=1.0,
                             missing_rate=0.2, latent_rank=3, seed=4)
        windows = extract_windows(generate_cohort(spec)[0], 3)
        perm = np.random.default_rng(0).permutation(len(windows))
        assert perm[0] != 0  # the shuffle moved the first window
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ordered = fill_windows(windows, BmcImputer(rank=3).fit_transform)
            shuffled = fill_windows(windows[perm], BmcImputer(rank=3).fit_transform)
        for i, w in zip(perm, shuffled):
            assert np.array_equal(w.x, ordered[i].x)

    def test_subjects_with_the_same_days_never_share_a_row(self):
        cohort = tiny_cohort()
        windows = extract_windows(cohort, T=2)
        fill = Recorder()
        filled = fill_windows(windows, fill)
        at = {key: i for i, key in enumerate(zip(filled.subject_id, filled.end_day.tolist()))}
        assert fill.calls[0].shape[0] == len(cohort_rows(cohort, windows)) == 11  # A days 1-5, B days 1-6
        for day in (2, 3, 4):
            a, b = at["A", day], at["B", day]
            assert not set(filled.rows[a]) & set(filled.rows[b])
            assert not np.array_equal(filled[a].x, filled[b].x)

    @pytest.mark.parametrize("T, stride", [(1, 1), (2, 3), (3, 5)])
    def test_short_windows_and_strides_beyond_T(self, T, stride):
        windows = extract_windows(tiny_cohort(), T=T, stride=stride)
        fill = Recorder()
        filled = fill_windows(windows, fill)
        assert fill.calls[0].shape[0] == len(windows) * T  # windows that do not overlap share no row
        assert sorted(filled.rows.ravel().tolist()) == list(range(len(windows) * T))
        for raw, w in zip(windows, filled):
            assert np.array_equal(w.x, np.nan_to_num(raw.x, nan=-1.0))

    def test_refilled_windows_keep_their_observed_cells(self):
        windows = extract_windows(tiny_cohort(), T=3)
        assert not all(w.x_mask.all() for w in windows)
        imputer = MeanImputer()
        imputer.fit_transform(np.array([[1.0, 2.0], [3.0, 5.0], [4.0, 6.0]]))
        for raw, filled in zip(windows, fill_windows(windows, imputer.transform)):
            assert filled.x_mask.all()
            assert np.array_equal(filled.x[raw.x_mask], raw.x[raw.x_mask])
            assert np.array_equal(filled.x[~raw.x_mask], imputer.col_means[np.nonzero(~raw.x_mask)[1]])

    def test_no_windows_no_rows(self):
        fill = Recorder()
        empty = extract_windows(tiny_cohort(), T=7)  # longer than either subject
        assert len(empty) == 0
        assert len(fill_windows(empty, fill)) == 0
        assert fill.calls == []


class TestBmcPersistence:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 5))
        mask = rng.random((30, 5)) >= 0.2
        mask[0] = True
        imputer = BmcImputer(rank=2)
        imputer.fit_transform(np.where(mask, X, np.nan))
        model = imputer.model
        path = tmp_path / "bmc.json"
        save_imputer(path, imputer, [f"v{i}" for i in range(5)])
        loaded_imputer = load_imputer(path)
        loaded = loaded_imputer.model
        assert np.array_equal(loaded.basis, model.basis)
        assert np.array_equal(loaded.lower, model.lower)
        assert np.array_equal(loaded.upper, model.upper)
        assert np.array_equal(loaded.col_means, model.col_means)
        assert loaded_imputer.rank == imputer.rank
