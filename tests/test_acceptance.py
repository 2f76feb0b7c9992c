"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module finishes in well under five minutes.
"""

import time

import numpy as np
import pytest

from cenrank.baselines import ols_fit
from cenrank.cohort import DesignSet, assemble_design, extract_windows, split_folds
from cenrank.evaluation import cross_validate, fit_method, impute_split, mae, predict_windows
from cenrank.imputation import BmcImputer, BmcModel, MeanImputer, bmc_fit, impute_rows
from cenrank.modelio import load_model, save_cv_report, save_model
from cenrank.solver import (
    ModelParams,
    SolverOptions,
    factorize,
    fit_pgd,
    gradient,
    objective,
    project_rank,
)
from cenrank.synthetic import SyntheticSpec, generate_cohort, generate_lowrank_matrix, oracle_ols
from helpers import excess_sv_ratio, halves, stacked_design


def report(criterion, passed, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{criterion} failed: {detail}"


def random_instance(rng, T=4, P=6, n_c=20, n_z=10):
    d = T * P
    Xc = rng.standard_normal((d, n_c))
    Xz = rng.standard_normal((d, n_z))
    yc = 3.0 * rng.standard_normal(n_c)
    yz = 3.0 * rng.standard_normal(n_z)
    return stacked_design(Xc, yc, Xz, yz, T, P)


def test_c01_gradient_certification():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    h = 1e-5
    checked = 0
    while checked < 100:
        design = random_instance(rng)
        lam = float(rng.uniform(0.01, 1.0))
        w = rng.standard_normal((4, 6))
        b = float(rng.standard_normal())
        _, _, Xz, yz = halves(design)
        margins = Xz.T @ w.ravel() + b - yz
        if np.any(np.abs(margins) < 1e-4):  # too close to a hinge kink for h=1e-5
            continue
        checked += 1
        params = ModelParams(w, b, 4, lam)
        g_w, g_b = gradient(params, design)
        analytic = np.concatenate([g_w, [g_b]])
        fd = np.zeros(25)
        flat = w.ravel()
        for i in range(24):
            wp, wm = flat.copy(), flat.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (
                objective(ModelParams(wp.reshape(4, 6), b, 4, lam), design)
                - objective(ModelParams(wm.reshape(4, 6), b, 4, lam), design)
            ) / (2 * h)
        fd[24] = (
            objective(ModelParams(w, b + h, 4, lam), design)
            - objective(ModelParams(w, b - h, 4, lam), design)
        ) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    report("C1 gradient-certification", worst < 1e-6 and elapsed < 10,
           f"max rel err {worst:.2e} over 100 instances in {elapsed:.1f}s")


def test_c02_ols_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_obj, worst_pred = 0.0, 0.0
    for _ in range(20):
        T, P = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        n = T * P + int(rng.integers(10, 30))
        X = rng.standard_normal((T * P, n))
        theta = rng.standard_normal(T * P)
        y = X.T @ theta + rng.standard_normal() + rng.standard_normal(n)
        design = DesignSet(X, y, np.zeros(n, dtype=bool), T, P)
        oracle = oracle_ols(design, ridge=1e-12)
        obj_star = 0.5 * float(np.sum((X.T @ oracle.w_vec + oracle.b - y) ** 2))
        params, _ = fit_pgd(design, 0.0, min(T, P), SolverOptions(tol=1e-16, max_iter=30000))
        rel_obj = abs(objective(params, design) - obj_star) / obj_star
        pred_gap = float(np.max(np.abs(
            X.T @ params.w.ravel() + params.b - (X.T @ oracle.w_vec + oracle.b)
        )))
        worst_obj, worst_pred = max(worst_obj, rel_obj), max(worst_pred, pred_gap)
    elapsed = time.time() - t0
    report("C2 ols-oracle-equivalence",
           worst_obj < 1e-8 and worst_pred < 1e-6 and elapsed < 20,
           f"obj rel {worst_obj:.2e}, pred gap {worst_pred:.2e}, {elapsed:.1f}s")


def test_c03_monotonicity_and_feasibility():
    rng = np.random.default_rng(303)
    ok = True
    details = []
    for _ in range(6):
        T, P = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        design = random_instance(rng, T, P, int(rng.integers(5, 40)), int(rng.integers(0, 20)))
        r = int(rng.integers(1, min(T, P) + 1))
        params, rep = fit_pgd(design, float(rng.uniform(0, 2)), r, SolverOptions(max_iter=400))
        if not np.all(np.diff(rep.objective_trace) <= 0):
            ok = False
            details.append("pgd trace increased")
        leak = excess_sv_ratio(params.w, r)
        if leak > 1e-10:
            ok = False
            details.append(f"rank leak {leak:.1e}")
    for seed in range(4):
        rng_b = np.random.default_rng(seed)
        X = rng_b.standard_normal((25, 6)) * 2
        mask = rng_b.random((25, 6)) >= 0.3
        mask[0] = True
        trace = []
        done, model = bmc_fit(np.where(mask, X, np.nan), r=2, trace_out=trace)
        if not all(b <= a + 1e-15 for a, b in zip(trace, trace[1:])):
            ok = False
            details.append("bmc trace increased")
        miss = ~mask
        lo = np.broadcast_to(model.lower, X.shape)
        hi = np.broadcast_to(model.upper, X.shape)
        if not (np.all(done[miss] >= lo[miss]) and np.all(done[miss] <= hi[miss])):
            ok = False
            details.append("bmc outside bounds")
        z = np.where(rng_b.random(6) >= 0.5, X[0], np.nan)
        ztrace = []
        filled = impute_rows(z[None], model, trace_out=ztrace)[0]
        if not all(b <= a + 1e-15 for a, b in zip(ztrace, ztrace[1:])):
            ok = False
            details.append("impute_rows trace increased")
        if not (np.all(filled >= model.lower - 0.0) and np.all(filled <= model.upper + 0.0)):
            ok = False
            details.append("impute_rows outside bounds")
    report("C3 monotonicity-and-feasibility", ok, "; ".join(details) or "all fits monotone and feasible")


def test_c04_eckart_young():
    rng = np.random.default_rng(404)
    ok = True
    worst_gap = 0.0
    for _ in range(100):
        T, P = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(T, P) + 1))
        w = rng.standard_normal((T, P))
        best = project_rank(w, r)
        err_best = np.linalg.norm(w - best)
        # independent truncation oracle through the Gram eigendecomposition
        lam, V = np.linalg.eigh(w.T @ w)
        Vr = V[:, np.argsort(lam)[::-1][:r]]
        oracle = (w @ Vr) @ Vr.T
        worst_gap = max(worst_gap, float(np.linalg.norm(best - oracle)))
        for _ in range(50):
            cand = generate_lowrank_matrix(T, P, r, seed=int(rng.integers(1 << 31)))
            cand *= np.linalg.norm(w) / np.linalg.norm(cand)
            if np.linalg.norm(w - cand) < err_best - 1e-12:
                ok = False
    report("C4 eckart-young", ok and worst_gap < 1e-10,
           f"oracle gap {worst_gap:.1e}; no competitor beat the truncation")


def test_c05_bmc_recovery():
    t0 = time.time()
    hits = 0
    for seed in range(10):
        M = generate_lowrank_matrix(60, 12, 2, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        mask = rng.random((60, 12)) >= 0.2
        wide = (np.full(12, -1e9), np.full(12, 1e9))
        done, _ = bmc_fit(np.where(mask, M, np.nan), r=2,
                          tol=1e-12, max_iter=3000, bounds=wide)
        hidden = ~mask
        rel = np.linalg.norm((done - M)[hidden]) / np.linalg.norm(M[hidden])
        hits += rel <= 1e-3
    elapsed = time.time() - t0
    report("C5 bmc-recovery", hits >= 9 and elapsed < 10, f"{hits}/10 seeds within 1e-3, {elapsed:.1f}s")


def test_c06_projection_fixed_point():
    model = BmcModel(basis=np.array([[0.6], [0.8]]), lower=np.array([0.0, 0.0]),
                     upper=np.array([10.0, 10.0]), col_means=np.array([0.0, 0.0]))
    free = impute_rows(np.array([[3.0, np.nan]]), model)[0]
    bounded_model = BmcModel(basis=model.basis, lower=model.lower,
                             upper=np.array([10.0, 2.0]), col_means=model.col_means)
    clamped = impute_rows(np.array([[3.0, np.nan]]), bounded_model)[0]
    report("C6 basis-projection-fixed-point",
           abs(free[1] - 4.0) < 1e-6 and clamped[1] == 2.0,
           f"free {free[1]:.8f}, clamped {clamped[1]}")


def test_c07_bilinear_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        T, P = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = min(2, T, P)
        w = generate_lowrank_matrix(T, P, r, seed=int(rng.integers(1 << 31)))
        u, v = factorize(ModelParams(w, 0.0, r, 0.0))
        x = rng.standard_normal((T, P))
        inner = float(np.sum((u @ v.T) * x))
        bilinear = float(sum(u[:, i] @ x @ v[:, i] for i in range(r)))
        worst = max(worst, abs(inner - bilinear), abs(inner - float(np.sum(w * x))))
    report("C7 bilinear-identity", worst < 1e-9, f"max gap {worst:.1e} over 100 draws")


def test_c08_rank_preserved_under_kron_transform():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        T, P = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        r = int(rng.integers(1, min(T, P) + 1))
        w = generate_lowrank_matrix(T, P, r, seed=int(rng.integers(1 << 31)))
        B = rng.standard_normal((T, T))
        while abs(np.linalg.det(B)) < 1e-6:
            B = rng.standard_normal((T, T))
        w_hat = (np.kron(B, np.eye(P)) @ w.ravel()).reshape(T, P)
        s = np.linalg.svd(w_hat, compute_uv=False)
        rank_hat = int(np.sum(s > 1e-10 * s[0]))
        if rank_hat != r:
            ok = False
    report("C8 kron-rank-preservation", ok, "rank preserved on 100 invertible transforms")


@pytest.fixture(scope="module")
def planted_runs():
    """Shared 10-seed planted experiment behind criteria 9 and 10."""
    results = []
    for seed in range(10):
        spec = SyntheticSpec(n_subjects=800, days_per_subject=5, P=10, T_star=5, true_rank=2,
                             noise_sigma=1.0, censor_horizon=21.0, missing_rate=0.10,
                             latent_rank=8, seed=seed)
        cohort, _ = generate_cohort(spec)
        windows = extract_windows(cohort, 5, horizon=21.0)
        rng = np.random.default_rng(seed + 77)
        perm = rng.permutation(len(windows))
        train_idx, test_idx = np.sort(perm[:600]), np.sort(perm[600:800])
        tr_b, te_b, _ = impute_split(windows, train_idx, test_idx, BmcImputer(rank=8))
        tr_m, te_m, _ = impute_split(windows, train_idx, test_idx, MeanImputer())
        d_b, d_m = assemble_design(tr_b), assemble_design(tr_m)
        opts = SolverOptions(tol=1e-9, max_iter=12000, precondition=False)
        rank2, _ = fit_pgd(d_b, 0.05, 2, opts)
        full, _ = fit_pgd(d_b, 0.05, 5, opts)
        mean2, _ = fit_pgd(d_m, 0.05, 2, opts)
        ols = ols_fit(d_b, 0.0, censored_mode="ignore")
        preds = predict_windows(rank2, te_b)
        censored = np.array([w.censored for w in te_b])
        results.append({
            "rank2": mae(preds, te_b),
            "full": mae(predict_windows(full, te_b), te_b),
            "mean": mae(predict_windows(mean2, te_m), te_m),
            "ols": mae(predict_windows(ols, te_b), te_b),
            "censored_frac": float(censored.mean()),
            "separation": float(preds[censored].mean() - preds[~censored].mean()),
        })
    return results


def test_c09_end_to_end_synthetic_ordering(planted_runs):
    t0 = time.time()
    beats_ols = sum(r["rank2"] < r["ols"] for r in planted_runs)
    beats_mean = sum(r["rank2"] < r["mean"] for r in planted_runs)
    beats_full = sum(r["rank2"] < r["full"] for r in planted_runs)
    margins = ", ".join(f"{r['mean'] - r['rank2']:+.4f}" for r in planted_runs)
    report("C9 end-to-end-ordering",
           beats_ols >= 8 and beats_mean >= 8 and beats_full >= 8,
           f"rank2 beats ols {beats_ols}/10, mean-imputation {beats_mean}/10, "
           f"full rank {beats_full}/10 (censored ~{np.mean([r['censored_frac'] for r in planted_runs]):.0%}); "
           f"mean-imputation MAE - rank2 MAE by seed: {margins}")
    assert time.time() - t0 < 120  # fits come from the shared fixture


def test_c10_predicted_onset_separation(planted_runs):
    separated = sum(r["separation"] > 0 for r in planted_runs)
    report("C10 onset-separation", separated >= 9,
           f"censored group predicted later on {separated}/10 seeds")


def test_c11_determinism_and_persistence(tmp_path):
    spec = SyntheticSpec(n_subjects=50, days_per_subject=7, P=5, T_star=4, true_rank=2,
                         noise_sigma=1.0, missing_rate=0.15, latent_rank=3, seed=21)
    cohort, _ = generate_cohort(spec)
    opts = SolverOptions(max_iter=200)

    def run_cv(path):
        rep = cross_validate(cohort, [3, 4], [2], [0.05], ["censored_lowrank", "ols"], BmcImputer(rank=3),
                             k=3, seed=4, solver_options=opts)
        save_cv_report(rep, path)
        return path.read_bytes()

    first = run_cv(tmp_path / "cv.json")
    second = run_cv(tmp_path / "cv.json")
    identical = first == second

    windows = extract_windows(cohort, 4)
    tr, te, _ = impute_split(windows, np.arange(len(windows)), np.arange(len(windows)), BmcImputer(rank=3))
    params, rep = fit_pgd(assemble_design(tr), 0.05, 2, opts)
    before = predict_windows(params, te)
    save_model(tmp_path / "model.json", params, cohort.variables, rep)
    loaded = load_model(tmp_path / "model.json")
    after = predict_windows(loaded, te)
    roundtrip = np.array_equal(before, after)
    report("C11 determinism-and-persistence", identical and roundtrip,
           f"cv bytes identical: {identical}; save/load predictions bit-exact: {roundtrip}")


def test_c12_leakage_canary(tmp_path):
    spec = SyntheticSpec(n_subjects=60, days_per_subject=7, P=5, T_star=4, true_rank=2,
                         noise_sigma=1.0, missing_rate=0.15, latent_rank=3, seed=33)
    cohort, _ = generate_cohort(spec)

    def fit_bytes(cohort, path):
        windows = extract_windows(cohort, 4)
        folds = split_folds(windows, 3, unit="subject", seed=0)
        test_idx = folds[0]
        train_idx = np.setdiff1d(np.arange(len(windows)), test_idx)
        tr, _, _ = impute_split(windows, train_idx, test_idx, BmcImputer(rank=3))
        model, _ = fit_method(assemble_design(tr), "censored_lowrank", 2, 0.05,
                              SolverOptions(max_iter=300))
        save_model(path, model, cohort.variables)
        return path.read_bytes(), windows, test_idx

    baseline, windows, test_idx = fit_bytes(cohort, tmp_path / "m0.json")

    test_subject = windows[test_idx[0]].subject_id
    touched_test = False
    for s in cohort.subjects:
        if s.subject_id == test_subject:
            i, j = np.argwhere(s.mask)[0]
            s.values[i, j] += 1000.0
            touched_test = True
    assert touched_test
    perturbed_test, _, _ = fit_bytes(cohort, tmp_path / "m1.json")

    train_subject = next(w.subject_id for k, w in enumerate(windows) if k not in set(test_idx))
    for s in cohort.subjects:
        if s.subject_id == train_subject:
            i, j = np.argwhere(s.mask)[0]
            s.values[i, j] += 1000.0
    perturbed_train, _, _ = fit_bytes(cohort, tmp_path / "m2.json")

    unchanged = perturbed_test == baseline
    sensitive = perturbed_train != baseline
    report("C12 leakage-canary", unchanged and sensitive,
           f"test perturbation inert: {unchanged}; train perturbation detected: {sensitive}")
