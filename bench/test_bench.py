"""Tests of the benchmark itself: smoke runs of every workload, and output
checks that must reject deliberately corrupted outputs.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import csv
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    importlib.import_module("cenrank.cli")
    return importlib.import_module("cenrank")


def smoke(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] is not None
        if not trace:
            assert got["value"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cv_grid", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------- corrupted outputs


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def produce(lib, workload_cls, tmp_path):
    wl = workload_cls("smoke")
    state = wl.setup(lib, tmp_path / "setup", 3)[0]
    wl.expect(state)
    rnd = wl.run_round(lib, state, tmp_path / "out", contextlib.nullcontext())
    assert rnd.check_failures == 0 and not rnd.failed, rnd.ops
    return wl, state


@pytest.fixture
def cv_out(lib, tmp_path):
    wl, _ = produce(lib, workloads.CvGrid, tmp_path)
    p = wl.p

    def check():
        return checks.check_cv(tmp_path / "out" / "cv", p["durations"], p["ranks"], p["lambdas"],
                               workloads.METHODS, p["k"])[0]
    return tmp_path / "out" / "cv", check


def _move_best(rows):
    i = next(i for i, r in enumerate(rows) if r["is_best"] == "1")
    rows[i]["is_best"], rows[i - 1]["is_best"] = "0", "1"


@pytest.mark.parametrize("name, edit", [
    ("grid.csv", _move_best),
    ("grid.csv", lambda rows: rows[0].update(is_best="1") if rows[0]["is_best"] == "0"
     else rows[1].update(is_best="1")),
    ("grid.csv", lambda rows: rows[0].update(fold_1=repr(float(rows[0]["fold_1"]) * 1.01))),
    ("grid.csv", lambda rows: rows[0].update(fold_2="-" + rows[0]["fold_2"])),
    ("grid.csv", lambda rows: rows.pop()),
    ("lambda_curve.csv", lambda rows: rows[0].update(mean_mae=repr(float(rows[0]["mean_mae"]) + 1e-6))),
    ("duration_curve.csv", lambda rows: rows.pop(0)),
])
def test_cv_check_rejects(cv_out, name, edit):
    out, check = cv_out
    assert check() == []
    rewrite_csv(out / name, edit)
    assert check()


@pytest.fixture
def train_predict_out(lib, tmp_path):
    _, state = produce(lib, workloads.TrainPredict, tmp_path)
    return tmp_path / "out", state


@pytest.mark.parametrize("name, edit", [
    ("coefficients.csv", lambda rows: rows.insert(0, rows.pop())),
    ("coefficients.csv", lambda rows: rows[3].update(coefficient=rows[2]["coefficient"])),
    ("onset_hist.csv", lambda rows: rows[0].update(censored_count=str(int(rows[0]["censored_count"]) + 1))),
])
def test_train_check_rejects(train_predict_out, name, edit):
    out, state = train_predict_out
    assert checks.check_train(out / "train", state["variables"], state["windows_A"]) == []
    rewrite_csv(out / "train" / name, edit)
    assert checks.check_train(out / "train", state["variables"], state["windows_A"])


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0].update(prediction=repr(-float(rows[0]["prediction"]))),
    lambda rows: rows[1].update(y=repr(float(rows[1]["y"]) + 1)),
    lambda rows: rows.pop(),
    lambda rows: rows.reverse(),
])
def test_predict_check_rejects(train_predict_out, edit):
    out, state = train_predict_out
    assert checks.check_predict(out / "predict", out / "train", state["windows_B"])[0] == []
    rewrite_csv(out / "predict" / "predictions.csv", edit)
    assert checks.check_predict(out / "predict", out / "train", state["windows_B"])[0]


def test_predict_check_rejects_a_small_error_on_a_fully_observed_window(lib, train_predict_out):
    out, _ = train_predict_out
    complete = out / "complete"
    assert lib.cli.dispatch(["synth", "--out", str(complete), "--seed", "5", "--n-subjects", "10",
                             "--days-per-subject", "8", "--missing-rate", "0"]) == 0
    args = [f"--{k}={complete / f}" for k, f in (("observations", "observations.csv"),
                                                    ("outcomes", "outcomes.csv"), ("dictionary", "variables.txt"))]
    assert lib.cli.dispatch(["predict", *args, "--out", str(out / "p2"), "--model", str(out / "train" / "model.json"),
                             "--imputer-model", str(out / "train" / "imputer_model.json")]) == 0
    variables, subjects = checks.read_cohort(complete)
    windows = checks.cohort_windows(variables, subjects, 5)
    assert checks.check_predict(out / "p2", out / "train", windows)[0] == []
    rewrite_csv(out / "p2" / "predictions.csv",
                lambda rows: rows[0].update(prediction=repr(float(rows[0]["prediction"]) + 1e-6)))
    assert checks.check_predict(out / "p2", out / "train", windows)[0]


@pytest.fixture
def planted(lib, tmp_path):
    wl = workloads.PlantedSplit("smoke")
    state = wl.setup(lib, tmp_path, 3)[0]

    def run_checks(corrupt=None):
        rnd = workloads.Round()
        r = wl.operations(lib, state, rnd)
        if corrupt:
            corrupt(r)
        wl.check(rnd, r)
        return rnd
    return run_checks


def _imputed_cell(r):
    raw, filled = next((raw, f) for raw, f in zip(r["test"], r["bmc"][1]) if not raw.x_mask.all())
    return filled.x, tuple(np.argwhere(~raw.x_mask)[0])


def _push_out_of_bounds(r):
    x, cell = _imputed_cell(r)
    x[cell] = 1e6


def _change_observed(r):
    raw, filled = r["train"][0], r["bmc"][0][0]
    filled.x[tuple(np.argwhere(raw.x_mask)[0])] += 1e-9


def _raise_rank(r):
    params = r["rank2"][0]
    params.w = params.w + 1e-3 * np.eye(*params.w.shape)


def _scale_rank5(r):
    r["rank5"][0].w *= 1.5


def _constant_rank2(r):
    params, report, preds = r["rank2"]
    params.w[:] = 0.0
    params.b = 100.0
    preds[:] = 100.0
    report.objective_trace[-1] = checks.objective(params.w, params.b, checks.design(r["bmc"][0]), 0.05)


def _flip_prediction(r):
    r["ols"][1][0] *= -1


@pytest.mark.parametrize("corrupt, op", [
    (_push_out_of_bounds, "bmc_impute"),
    (_change_observed, "bmc_impute"),
    (_raise_rank, "rank2"),
    (_scale_rank5, "rank5"),
    (_constant_rank2, "rank2"),
    (_flip_prediction, "ols"),
])
def test_planted_check_rejects(planted, corrupt, op):
    assert planted().check_failures == 0
    rnd = planted(corrupt)
    assert rnd.ops[op], rnd.ops


def test_check_least_squares_rejects_a_worse_fit():
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((40, 6)), rng.standard_normal(40)
    theta, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(40)]), y, rcond=None)
    data = (X, y, np.zeros((0, 6)), np.zeros(0))
    assert checks.check_least_squares(theta[:-1], theta[-1], data, [(np.zeros(6), 0.0)]) == []
    assert checks.check_least_squares(theta[:-1] * 0.9, theta[-1], data, [(theta[:-1], theta[-1])])
