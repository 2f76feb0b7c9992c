"""Output checks, computed separately from cenrank's own code paths.

Each check returns a list of failure messages (empty when the output holds).
The benchmark parses the cohort files itself, enumerates windows and labels
itself and recomputes objectives, ranks, means and MAEs with plain numpy, so
a fault in a cenrank routine cannot also hide in its check. No check calls
into cenrank.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-12
PRED_TOL = 1e-9
RANK_REL_TOL = 1e-9


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- cohorts


@dataclass
class Window:
    subject_id: str
    end_day: int
    censored: bool
    y: float
    x: np.ndarray  # T x P, NaN where the raw CSV has no value


def read_cohort(cohort_dir):
    """(variables, subjects) from a cohort directory written by `cenrank synth`.

    subjects maps subject_id -> (day -> {variable index: value}, outcome),
    in order of first appearance in observations.csv; outcome is
    ("event", onset_day) or ("censored", last_obs_day).
    """
    with open(f"{cohort_dir}/variables.txt", encoding="utf-8") as fh:
        variables = [line.strip() for line in fh if line.strip()]
    index = {v: j for j, v in enumerate(variables)}
    outcomes = {}
    for row in read_csv(f"{cohort_dir}/outcomes.csv"):
        if row["ssi"] == "1":
            outcomes[row["subject_id"]] = ("event", float(row["onset_day"]))
        else:
            outcomes[row["subject_id"]] = ("censored", float(row["last_obs_day"]))
    days: dict[str, dict[int, dict[int, float]]] = {}
    for row in read_csv(f"{cohort_dir}/observations.csv"):
        days.setdefault(row["subject_id"], {}).setdefault(int(row["day"]), {})[index[row["variable"]]] = float(row["value"])
    return variables, {sid: (d, outcomes[sid]) for sid, d in days.items()}


def cohort_windows(variables, subjects, T: int, horizon: float = 21.0) -> list[Window]:
    """Stride-1 windows with their labels, as the README defines them."""
    P = len(variables)
    out = []
    for sid, (days, (kind, day)) in subjects.items():
        first, last = min(days), max(days)
        for start in range(first, last - T + 2):
            end = start + T - 1
            if kind == "event" and end >= day:
                break
            x = np.full((T, P), np.nan)
            for t in range(T):
                for j, v in days.get(start + t, {}).items():
                    x[t, j] = v
            y = day - end if kind == "event" else max(horizon - end, 0.0)
            out.append(Window(sid, end, kind == "censored", float(y), x))
    return out


def _hist_sums(path, windows, preds=None) -> list[str]:
    rows = read_csv(path)
    failures = []
    n_complete = sum(not w.censored for w in windows)
    n_censored = len(windows) - n_complete
    comp = sum(int(r["complete_count"]) for r in rows)
    cens = sum(int(r["censored_count"]) for r in rows)
    if (comp, cens) != (n_complete, n_censored):
        failures.append(f"{path}: histogram counts {comp}/{cens}, groups have {n_complete}/{n_censored}")
    if preds is not None and rows and len(preds):
        lo, hi = float(rows[0]["bin_left"]), float(rows[-1]["bin_right"])
        if not (_close(lo, float(np.min(preds))) and _close(hi, float(np.max(preds)))):
            failures.append(f"{path}: bin edges [{lo}, {hi}] do not span the predictions")
    return failures


# ---------------------------------------------------------------- cv


def check_cv(out_dir, durations, ranks, lambdas, methods, k) -> tuple[list[str], float]:
    """grid.csv, lambda_curve.csv and duration_curve.csv; returns (failures, best mean_mae)."""
    failures = []
    rows = read_csv(f"{out_dir}/grid.csv")
    expected = set(itertools.product(durations, ranks, lambdas, methods))
    cells = {}
    for r in rows:
        key = (int(r["duration"]), int(r["rank"]), float(r["lambda"]), r["method"])
        if key in cells:
            failures.append(f"grid.csv: duplicate row {key}")
        cells[key] = r
        folds = [float(r.get(f"fold_{i + 1}") or "nan") for i in range(k)]
        if not all(math.isfinite(v) and v > 0 for v in folds):
            failures.append(f"grid.csv {key}: fold MAEs {folds} are not {k} finite positive values")
        elif not _close(float(r["mean_mae"]), float(np.mean(folds))):
            failures.append(f"grid.csv {key}: mean_mae {r['mean_mae']} != mean of folds {np.mean(folds)!r}")
    if set(cells) != expected:
        failures.append(f"grid.csv: cells {sorted(set(cells) ^ expected)} missing or unexpected")
    if failures:
        return failures, math.nan

    flagged = [key for key, r in cells.items() if r["is_best"] == "1"]
    best = min(cells, key=lambda key: (float(cells[key]["mean_mae"]), *key))
    if flagged != [best]:
        failures.append(f"grid.csv: is_best rows {flagged}, argmin is {best}")

    for name, axis, cast in (("lambda_curve.csv", 2, float), ("duration_curve.csv", 0, int)):
        column = "lambda" if axis == 2 else "duration"
        groups: dict[tuple, list[float]] = {}
        for key, r in cells.items():
            groups.setdefault((key[3], key[axis]), []).append(float(r["mean_mae"]))
        curve = {(r["method"], cast(r[column])): float(r["mean_mae"]) for r in read_csv(f"{out_dir}/{name}")}
        if set(curve) != set(groups):
            failures.append(f"{name}: points {sorted(curve)} != grid groups {sorted(groups)}")
            continue
        for point, values in groups.items():
            if not _close(curve[point], float(np.mean(values))):
                failures.append(f"{name} {point}: {curve[point]!r} != mean {np.mean(values)!r}")
    return failures, float(cells[best]["mean_mae"])


# ---------------------------------------------------------------- train / predict


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_train(out_dir, variables, windows) -> list[str]:
    """model.json, coefficients.csv and onset_hist.csv of `cenrank train`."""
    model = _read_json(f"{out_dir}/model.json")
    T, P = int(model["T"]), int(model["P"])
    w = np.asarray(model["w"], dtype=float).reshape(T, P)
    failures = []
    if P != len(variables) or not (np.all(np.isfinite(w)) and math.isfinite(model["b"])):
        failures.append(f"model.json: w {w.shape} / b {model['b']} not finite over {len(variables)} variables")
    rows = read_csv(f"{out_dir}/coefficients.csv")
    coefs = [float(r["coefficient"]) for r in rows]
    if any(a < b for a, b in zip(coefs, coefs[1:])):
        failures.append("coefficients.csv: coefficients are not in non-increasing order")
    entries = sorted((r["variable"], int(r["day_offset"]), float(r["coefficient"])) for r in rows)
    expected = sorted((variables[p], t, float(w[t, p])) for t in range(T) for p in range(P))
    if entries != expected:
        failures.append("coefficients.csv: entries are not the entries of w in model.json")
    return failures + _hist_sums(f"{out_dir}/onset_hist.csv", windows)


def check_predict(out_dir, model_dir, windows) -> tuple[list[str], float]:
    """predictions.csv and onset_hist.csv of `cenrank predict`; returns (failures, MAE)."""
    model = _read_json(f"{model_dir}/model.json")
    bounds = _read_json(f"{model_dir}/imputer_model.json")
    T, P = int(model["T"]), int(model["P"])
    w = np.asarray(model["w"], dtype=float).reshape(T, P)
    b = float(model["b"])
    lower, upper = np.asarray(bounds["lower"]), np.asarray(bounds["upper"])
    rows = read_csv(f"{out_dir}/predictions.csv")
    if len(rows) != len(windows):
        return [f"predictions.csv: {len(rows)} rows for {len(windows)} windows"], math.nan
    failures = []
    preds = np.array([float(r["prediction"]) for r in rows])
    for r, win, pred in zip(rows, windows, preds):
        got = (r["subject_id"], int(r["window_end_day"]), r["censored"] == "1", float(r["y"]))
        if got != (win.subject_id, win.end_day, win.censored, win.y):
            failures.append(f"predictions.csv: row {got} where the cohort gives {win.subject_id, win.end_day, win.censored, win.y}")
            continue
        observed = ~np.isnan(win.x)
        known = b + float(np.sum(np.where(observed, win.x, 0.0) * w))
        if observed.all():
            if abs(pred - known) > PRED_TOL * max(1.0, abs(known)):
                failures.append(f"predictions.csv {got[:2]}: {pred!r} != <x, w> + b = {known!r}")
            continue
        # imputed cells lie within the imputer bounds, which bound the prediction
        lo = np.minimum(w * lower, w * upper)[~observed].sum()
        hi = np.maximum(w * lower, w * upper)[~observed].sum()
        slack = PRED_TOL * max(1.0, abs(known) + abs(lo) + abs(hi))
        if not (known + lo - slack <= pred <= known + hi + slack):
            failures.append(f"predictions.csv {got[:2]}: {pred!r} outside [{known + lo!r}, {known + hi!r}]")
        if len(failures) > 20:
            break
    return failures + _hist_sums(f"{out_dir}/onset_hist.csv", windows, preds), mae(preds, windows)


# ---------------------------------------------------------------- planted split


def check_filled(raw_train, raw_test, filled_train, filled_test) -> list[str]:
    """Observed cells unchanged; imputed cells finite and within the training min/max."""
    stacked = np.vstack([np.where(w.x_mask, w.x, np.nan) for w in raw_train])
    lower, upper = np.nanmin(stacked, axis=0), np.nanmax(stacked, axis=0)
    failures = []
    for side, raws, filled in (("train", raw_train, filled_train), ("test", raw_test, filled_test)):
        if len(raws) != len(filled):
            failures.append(f"{side}: {len(filled)} filled windows for {len(raws)}")
            continue
        for raw, out in zip(raws, filled):
            if not (out.x_mask.all() and np.all(np.isfinite(out.x))):
                failures.append(f"{side} {raw.subject_id}: filled window is not complete and finite")
            elif not np.array_equal(out.x[raw.x_mask], raw.x[raw.x_mask]):
                failures.append(f"{side} {raw.subject_id}: an observed cell changed")
            elif np.any(~raw.x_mask & ((out.x < lower) | (out.x > upper))):
                failures.append(f"{side} {raw.subject_id}: an imputed cell lies outside the training min/max")
            if len(failures) > 20:
                return failures
    return failures


def design(windows):
    """(X_complete, y_complete, X_censored, y_censored), rows = row-major windows."""
    comp = [w for w in windows if not w.censored]
    cens = [w for w in windows if w.censored]
    P = windows[0].x.size

    def stack(ws):
        return np.array([w.x.ravel() for w in ws]).reshape(len(ws), P), np.array([w.y for w in ws], dtype=float)

    return (*stack(comp), *stack(cens))


def objective(w, b, data, lambda_) -> float:
    Xc, yc, Xz, yz = data
    r = Xc @ np.ravel(w) + b - yc
    m = np.minimum(0.0, Xz @ np.ravel(w) + b - yz)
    return 0.5 * float(r @ r) + 0.5 * lambda_ * float(m @ m)


def complete_sse(w, b, data) -> float:
    r = data[0] @ np.ravel(w) + b - data[1]
    return float(r @ r)


def numerical_rank(w) -> int:
    s = np.linalg.svd(np.asarray(w), compute_uv=False)
    return int(np.sum(s > RANK_REL_TOL * s[0])) if s.size and s[0] > 0 else 0


def check_lowrank_fit(w, b, reported, data, lambda_, rank, ceiling, ceiling_name) -> tuple[list[str], float]:
    """Rank budget, reported objective and an objective ceiling; returns (failures, objective)."""
    failures = []
    obj = objective(w, b, data, lambda_)
    if numerical_rank(w) > rank:
        failures.append(f"rank-{rank} fit: w has numerical rank {numerical_rank(w)}")
    if not _close(obj, reported, 1e-9):
        failures.append(f"rank-{rank} fit: objective {obj!r} != reported {reported!r}")
    if not obj <= ceiling * (1 + REL_TOL):
        failures.append(f"rank-{rank} fit: objective {obj!r} > {ceiling_name} {ceiling!r}")
    return failures, obj


def mae(preds, windows) -> float:
    complete = np.array([not w.censored for w in windows])
    labels = np.array([w.y for w in windows])
    return float(np.mean(np.abs(np.asarray(preds)[complete] - labels[complete])))


def check_predictions(preds, w, b, windows) -> list[str]:
    """Predictions equal <x, w> + b on the filled windows."""
    own = np.array([float(np.sum(win.x.ravel() * np.ravel(w))) + b for win in windows])
    if len(preds) != len(own) or not np.allclose(preds, own, rtol=PRED_TOL, atol=PRED_TOL):
        return ["predictions differ from <x, w> + b"]
    return []


def check_beats_constant(preds, windows, train_labels) -> tuple[list[str], float]:
    """Test MAE below that of a constant predictor at the median training label; returns (failures, MAE)."""
    got = mae(preds, windows)
    constant = mae(np.full(len(windows), float(np.median(train_labels))), windows)
    return ([] if got < constant else [f"test MAE {got!r} is not below the constant predictor's {constant!r}"]), got


def check_least_squares(w, b, data, others) -> list[str]:
    """Complete-sample squared error no larger than at any of the `others` (w, b)."""
    sse = complete_sse(w, b, data)
    floor = min(complete_sse(ow, ob, data) for ow, ob in others)
    return [] if sse <= floor * (1 + PRED_TOL) else [f"complete-sample SSE {sse!r} exceeds {floor!r}"]
