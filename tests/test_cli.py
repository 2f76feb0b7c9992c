import argparse
import csv
import json
import warnings

import numpy as np
import pytest

from cenrank import cli, evaluation
from cenrank.baselines import ols_fit
from cenrank.cli import dispatch
from cenrank.cohort import assemble_design, extract_windows, load_cohort
from cenrank.evaluation import predict_windows
from cenrank.imputation import fill_windows
from cenrank.modelio import load_imputer, load_model, save_model
from cenrank.solver import ModelParams
from helpers import write_cohort_files, write_noisy_cohort


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = dispatch([
        "synth", "--out", str(out), "--seed", "3", "--n-subjects", "50",
        "--days-per-subject", "8", "--num-vars", "6", "--T-star", "4",
        "--true-rank", "2", "--latent-rank", "3", "--missing-rate", "0.1",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module", params=[0.01, 0.1], ids=["sigma0.01", "sigma0.1"])
def noisy_cohort_dir(cohort_dir, tmp_path_factory, request):
    """`cohort_dir` with N(0, sigma^2) added to every observed value, so its day rows have no exact span."""
    out = tmp_path_factory.mktemp("noisy") / "data"
    write_noisy_cohort(cohort_dir, out, request.param)
    return out


def cohort_files(d):
    return d / "observations.csv", d / "outcomes.csv", d / "variables.txt"


def cohort_args(d):
    obs, out, dic = cohort_files(d)
    return ["--observations", str(obs), "--outcomes", str(out), "--dictionary", str(dic)]


def reversed_dictionary(cohort_dir, tmp_path):
    """Path of the cohort's variable dictionary written in reverse order."""
    path = tmp_path / "reversed.txt"
    path.write_text("".join(f"{v}\n" for v in reversed((cohort_dir / "variables.txt").read_text().split())))
    return path


def mean_imputer(cohort_dir, tmp_path):
    """Path of a mean imputer fitted and saved by `cenrank impute`."""
    assert dispatch(["impute", *cohort_args(cohort_dir), "--out", str(tmp_path / "imp"), "--imputer", "mean"]) == 0
    return tmp_path / "imp" / "imputer_model.json"


def filled_windows(cohort_dir, imputer_path, T=4):
    """The cohort's windows filled in process by a saved imputer, as `cenrank predict` fills them."""
    windows = extract_windows(load_cohort(*cohort_files(cohort_dir)), T)
    return fill_windows(windows, load_imputer(imputer_path).transform)


def cv_report_text(fold_maes):
    """A one-entry cv_report.json with k = 3 whose entry holds `fold_maes`."""
    entry = {"duration": 3, "rank": 2, "lambda": 0.05, "method": "ols",
             "fold_maes": fold_maes, "mean_mae": float(np.mean(fold_maes)), "iterations": [], "converged": []}
    return json.dumps({"seed": 0, "k": 3, "split_unit": "sample", "entries": [entry]}) + "\n"


def read_predictions(out_dir):
    with open(out_dir / "predictions.csv") as fh:
        return np.array([float(r["prediction"]) for r in csv.DictReader(fh)])


def check_roundtrip_predictions(cohort_dir, tmp_path):
    """`train`, then `predict` on the same cohort; predictions.csv must match predictions made in process."""
    run = tmp_path / "run"
    assert dispatch([
        "train", *cohort_args(cohort_dir), "--out", str(run),
        "--T", "4", "--rank", "2", "--lambda", "0.05",
        "--imputer", "bmc", "--imputer-rank", "3", "--max-iter", "300",
    ]) == 0
    for name in ("model.json", "imputer_model.json", "coefficients.csv", "onset_hist.csv"):
        assert (run / name).exists()
    pred = tmp_path / "pred"
    assert dispatch([
        "predict", *cohort_args(cohort_dir), "--out", str(pred),
        "--model", str(run / "model.json"),
        "--imputer-model", str(run / "imputer_model.json"),
    ]) == 0
    assert (pred / "onset_hist.csv").exists()

    # replicate in process: the CSV must carry bit-identical predictions
    cohort = load_cohort(cohort_dir / "observations.csv", cohort_dir / "outcomes.csv",
                         cohort_dir / "variables.txt")
    windows = extract_windows(cohort, 4)
    filled = fill_windows(windows, load_imputer(run / "imputer_model.json").transform)
    model = load_model(run / "model.json")
    expected = predict_windows(model, filled)
    with open(pred / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    got = np.array([float(r["prediction"]) for r in rows])
    assert np.array_equal(got, expected)


def check_cv_table_and_determinism(cohort_dir, tmp_path):
    """`cv` twice into one directory: byte-identical outputs, and one grid row per cell with one best."""
    out1 = tmp_path / "cv1"
    args = [
        "cv", *cohort_args(cohort_dir), "--out", str(out1),
        "--durations", "3,4", "--ranks", "2", "--lambdas", "0.01,0.05",
        "--methods", "censored_lowrank,ols", "--k", "3", "--seed", "7",
        "--max-iter", "150",
    ]
    assert dispatch(args) == 0
    files = ["cv_report.json", "grid.csv", "lambda_curve.csv", "duration_curve.csv", "effective_config.json"]
    snapshot = {name: (out1 / name).read_bytes() for name in files}
    assert dispatch(args) == 0  # rerun into the same directory
    for name in files:
        assert (out1 / name).read_bytes() == snapshot[name]
    with open(out1 / "grid.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 1 * 2 * 2
    assert sum(int(r["is_best"]) for r in rows) == 1


def check_completed_matrix(cohort_dir, tmp_path):
    """`impute` with BMC: one finite completed row per observation row."""
    out = tmp_path / "imp"
    assert dispatch([
        "impute", *cohort_args(cohort_dir), "--out", str(out),
        "--imputer", "bmc", "--imputer-rank", "3",
    ]) == 0
    cohort = load_cohort(cohort_dir / "observations.csv", cohort_dir / "outcomes.csv",
                         cohort_dir / "variables.txt")
    n_rows = len(cohort.days)
    with open(out / "completed_matrix.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n_rows
    assert all(np.isfinite(float(r[v])) for r in rows for v in cohort.variables)


class TestNoisyCohorts:
    """The impute, train/predict and cv checks of `cohort_dir`, on its copies without an exact span."""

    def test_completed_matrix_covers_all_rows(self, noisy_cohort_dir, tmp_path):
        check_completed_matrix(noisy_cohort_dir, tmp_path)

    def test_roundtrip_predictions_match_in_process(self, noisy_cohort_dir, tmp_path):
        check_roundtrip_predictions(noisy_cohort_dir, tmp_path)

    def test_table_shape_and_determinism(self, noisy_cohort_dir, tmp_path):
        check_cv_table_and_determinism(noisy_cohort_dir, tmp_path)


class TestSynth:
    def test_outputs_and_effective_config(self, cohort_dir):
        for name in ("observations.csv", "outcomes.csv", "variables.txt", "truth.json", "effective_config.json"):
            assert (cohort_dir / name).exists()
        cfg = json.loads((cohort_dir / "effective_config.json").read_text())
        assert cfg["command"] == "synth"
        assert cfg["seed"] == 3
        assert cfg["noise_sigma"] == 1.0  # default materialized

    def test_repeat_runs_byte_identical(self, cohort_dir, tmp_path):
        again = tmp_path / "again"
        assert dispatch([
            "synth", "--out", str(again), "--seed", "3", "--n-subjects", "50",
            "--days-per-subject", "8", "--num-vars", "6", "--T-star", "4",
            "--true-rank", "2", "--latent-rank", "3", "--missing-rate", "0.1",
        ]) == 0
        for name in ("observations.csv", "outcomes.csv", "variables.txt", "truth.json"):
            assert (again / name).read_bytes() == (cohort_dir / name).read_bytes()


class TestTrainPredict:
    def test_roundtrip_predictions_match_in_process(self, cohort_dir, tmp_path):
        check_roundtrip_predictions(cohort_dir, tmp_path)

    def test_predict_scores_each_window_once(self, cohort_dir, tmp_path, monkeypatch):
        run = tmp_path / "run"
        assert dispatch(["train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--max-iter", "100"]) == 0
        scored = []
        real = evaluation.predict_windows

        def counting(model, samples):
            scored.append(len(samples))
            return real(model, samples)

        monkeypatch.setattr(evaluation, "predict_windows", counting)
        pred = tmp_path / "pred"
        assert dispatch([
            "predict", *cohort_args(cohort_dir), "--out", str(pred), "--model", str(run / "model.json"),
            "--imputer-model", str(run / "imputer_model.json"),
        ]) == 0
        preds = read_predictions(pred)
        assert scored == [preds.size]
        # onset_hist.csv is the 20-bin histogram of predictions.csv, recomputed here with numpy alone
        with open(pred / "predictions.csv") as fh:
            censored = np.array([r["censored"] == "1" for r in csv.DictReader(fh)])
        with open(pred / "onset_hist.csv") as fh:
            hist = list(csv.DictReader(fh))
        edges = np.histogram_bin_edges(preds, bins=20)
        assert [float(r["bin_left"]) for r in hist] == edges[:-1].tolist()
        assert [float(r["bin_right"]) for r in hist] == edges[1:].tolist()
        assert [int(r["complete_count"]) for r in hist] == np.histogram(preds[~censored], edges)[0].tolist()
        assert [int(r["censored_count"]) for r in hist] == np.histogram(preds[censored], edges)[0].tolist()

    def test_predict_requires_imputer_for_missing_data(self, cohort_dir, tmp_path):
        run = tmp_path / "run2"
        assert dispatch([
            "train", *cohort_args(cohort_dir), "--out", str(run),
            "--T", "4", "--max-iter", "100",
        ]) == 0
        code = dispatch([
            "predict", *cohort_args(cohort_dir), "--out", str(tmp_path / "p2"),
            "--model", str(run / "model.json"),
        ])
        assert code == 2

    def test_predict_rejects_reordered_dictionary(self, cohort_dir, tmp_path):
        run = tmp_path / "run3"
        assert dispatch([
            "train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--max-iter", "100",
        ]) == 0
        pred = tmp_path / "p3"
        code = dispatch([
            "predict", *cohort_args(cohort_dir)[:4], "--dictionary", str(reversed_dictionary(cohort_dir, tmp_path)),
            "--out", str(pred),
            "--model", str(run / "model.json"), "--imputer-model", str(run / "imputer_model.json"),
        ])
        assert code == 2
        assert not (pred / "predictions.csv").exists()

    def test_baseline_models_roundtrip(self, cohort_dir, tmp_path):
        for method in ("ols", "svr"):
            run = tmp_path / f"run_{method}"
            assert dispatch([
                "train", *cohort_args(cohort_dir), "--out", str(run),
                "--T", "4", "--method", method, "--lambda", "0.05",
            ]) == 0
            model = load_model(run / "model.json")
            assert model.kind == method
            assert model.w.shape[0] == 4
            pred = tmp_path / f"pred_{method}"
            assert dispatch([
                "predict", *cohort_args(cohort_dir), "--out", str(pred), "--model", str(run / "model.json"),
                "--imputer-model", str(run / "imputer_model.json"),
            ]) == 0
            filled = filled_windows(cohort_dir, run / "imputer_model.json")
            assert np.array_equal(read_predictions(pred), predict_windows(model, filled))

    def test_model_files_share_one_key_set(self, cohort_dir, tmp_path):
        keys = {}
        for method in ("censored_lowrank", "ols", "svr"):
            run = tmp_path / method
            assert dispatch([
                "train", *cohort_args(cohort_dir), "--out", str(run),
                "--T", "4", "--method", method, "--max-iter", "100",
            ]) == 0
            keys[method] = set(json.loads((run / "model.json").read_text())) - {"solve_report"}
        assert keys["censored_lowrank"] == keys["ols"] == keys["svr"]

    def test_library_saved_ols_model_scores(self, cohort_dir, tmp_path):
        imputer = mean_imputer(cohort_dir, tmp_path)
        filled = filled_windows(cohort_dir, imputer)
        model = ols_fit(assemble_design(filled), 0.05)
        save_model(tmp_path / "model.json", model, load_cohort(*cohort_files(cohort_dir)).variables)
        pred = tmp_path / "pred"
        assert dispatch([
            "predict", *cohort_args(cohort_dir), "--out", str(pred), "--model", str(tmp_path / "model.json"),
            "--imputer-model", str(imputer),
        ]) == 0
        assert np.array_equal(read_predictions(pred), predict_windows(model, filled))

    def test_model_of_the_wrong_width_is_data_error(self, cohort_dir, tmp_path, capsys):
        # the cohort has 6 variables; the file names them, so only the shape check can catch its 5 columns
        variables = load_cohort(*cohort_files(cohort_dir)).variables
        save_model(tmp_path / "model.json", ModelParams(np.ones((4, 5)), 0.0, 2, 0.05), variables)
        pred = tmp_path / "pred"
        code = dispatch([
            "predict", *cohort_args(cohort_dir), "--out", str(pred), "--model", str(tmp_path / "model.json"),
            "--imputer-model", str(mean_imputer(cohort_dir, tmp_path)),
        ])
        assert code == 2
        assert "shape" in capsys.readouterr().err
        assert not (pred / "predictions.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--max-iter", "-1"), ("--tol", "-1e-4")])
    def test_negative_solver_setting_is_usage_error(self, cohort_dir, tmp_path, capsys, flag, value):
        run = tmp_path / "run"
        assert dispatch(["train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", f"{flag}={value}"]) == 1
        assert "must be nonnegative" in capsys.readouterr().err
        assert not (run / "model.json").exists()

    @pytest.mark.parametrize("method", ["ols", "svr"])
    def test_negative_solver_settings_are_usage_errors_for_baselines(self, cohort_dir, tmp_path, capsys, method):
        for flag in ("--max-iter=-1", "--tol=-1"):
            run = tmp_path / flag
            assert dispatch(["train", *cohort_args(cohort_dir), "--out", str(run), "--method", method, flag]) == 1
            assert "must be nonnegative" in capsys.readouterr().err
            assert not (run / "model.json").exists()

    def test_infinite_tol_is_usage_error(self, cohort_dir, tmp_path, capsys):
        # a tol of inf once reported converged=True after 0 passes
        run = tmp_path / "run"
        assert dispatch(["train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--tol", "inf"]) == 1
        assert "tol must be finite" in capsys.readouterr().err
        assert not (run / "model.json").exists()

    @pytest.mark.parametrize("horizon", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("method", evaluation.METHODS)
    def test_non_finite_horizon_is_usage_error_for_train(self, cohort_dir, tmp_path, capsys, method, horizon):
        run = tmp_path / "run"
        argv = ["train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--method", method,
                "--imputer", "mean", "--horizon", horizon]
        assert dispatch(argv) == 1
        assert "horizon must be finite" in capsys.readouterr().err
        assert not (run / "model.json").exists()

    @pytest.mark.parametrize("horizon", ["nan", "inf", "1e400"])
    def test_non_finite_horizon_is_usage_error_for_predict(self, cohort_dir, tmp_path, capsys, horizon):
        # a NaN horizon once gave every censored window a label of NaN in predictions.csv
        run, pred = tmp_path / "run", tmp_path / "pred"
        assert dispatch(["train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--method", "ols",
                         "--imputer", "mean"]) == 0
        argv = ["predict", *cohort_args(cohort_dir), "--out", str(pred), "--model", str(run / "model.json"),
                "--imputer-model", str(run / "imputer_model.json"), "--horizon", horizon]
        assert dispatch(argv) == 1
        assert "horizon must be finite" in capsys.readouterr().err
        assert not (pred / "predictions.csv").exists()

    @pytest.mark.parametrize("horizon", ["nan", "inf", "1e400"])
    def test_non_finite_horizon_is_usage_error_for_cv(self, cohort_dir, tmp_path, capsys, horizon):
        # a NaN horizon once made every fold MAE NaN and marked a NaN cell best
        out = tmp_path / "cv"
        argv = ["cv", *cohort_args(cohort_dir), "--out", str(out), "--methods", "ols", "--imputer", "mean",
                "--durations", "3", "--k", "3", "--horizon", horizon]
        assert dispatch(argv) == 1
        assert "horizon must be finite" in capsys.readouterr().err
        assert not (out / "cv_report.json").exists()

    @pytest.mark.parametrize("method", evaluation.METHODS)
    @pytest.mark.parametrize("rank", ["0", "-5"])
    def test_rank_below_one_is_usage_error(self, cohort_dir, tmp_path, capsys, method, rank):
        run = tmp_path / "run"
        argv = ["train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--method", method, "--imputer",
                "mean", f"--rank={rank}"]
        assert dispatch(argv) == 1
        assert f"rank must be >= 1, got {rank}" in capsys.readouterr().err
        assert not (run / "model.json").exists()

    def test_negative_lambda_is_usage_error(self, cohort_dir, tmp_path):
        for method in ("censored_lowrank", "ols", "svr"):
            run = tmp_path / method
            code = dispatch([
                "train", *cohort_args(cohort_dir), "--out", str(run),
                "--T", "4", "--method", method, "--lambda", "-0.5",
            ])
            assert code == 1
            assert not (run / "model.json").exists()


class TestBrokenModelFiles:
    @pytest.fixture(scope="class")
    def trained(self, cohort_dir, tmp_path_factory):
        run = tmp_path_factory.mktemp("trained")
        assert dispatch([
            "train", *cohort_args(cohort_dir), "--out", str(run), "--T", "4", "--max-iter", "100",
        ]) == 0
        return run

    def predict(self, cohort_dir, trained, tmp_path, model=None, imputer=None):
        return dispatch([
            "predict", *cohort_args(cohort_dir), "--out", str(tmp_path / "pred"),
            "--model", str(model or trained / "model.json"),
            "--imputer-model", str(imputer or trained / "imputer_model.json"),
        ])

    def edited_model(self, trained, tmp_path, edit):
        doc = json.loads((trained / "model.json").read_text())
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(w=doc["w"][:-1]), "cannot reshape"),
        (lambda doc: doc.pop("T"), "missing key 'T'"),
        (lambda doc: doc.pop("P"), "missing key 'P'"),
        (lambda doc: doc.update(kind="forest"), "unknown model kind"),
        # the schema baseline files had before they recorded T and P
        (lambda doc: [doc.pop("T"), doc.pop("P"), doc.update(kind="ols", dim=len(doc["w"]))], "missing key 'T'"),
    ], ids=["short_w", "no_T", "no_P", "unknown_kind", "old_baseline_schema"])
    def test_malformed_model_is_data_error(self, cohort_dir, trained, tmp_path, capsys, edit, message):
        path = self.edited_model(trained, tmp_path, edit)
        assert self.predict(cohort_dir, trained, tmp_path, model=path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    @pytest.mark.parametrize("which, key, edit", [
        ("model", "b", lambda doc: doc.update(b=float("nan"))),
        ("model", "w", lambda doc: doc["w"].__setitem__(0, float("inf"))),
        ("imputer", "basis", lambda doc: doc["basis"].__setitem__(0, float("nan"))),
        ("imputer", "lower", lambda doc: doc["lower"].__setitem__(0, doc["upper"][0] + 1.0)),
        ("imputer", "col_means", lambda doc: doc["col_means"].__setitem__(0, float("nan"))),
    ], ids=["nan_b", "infinite_w", "nan_basis", "lower_above_upper", "nan_col_means"])
    def test_non_finite_or_crossed_array_is_data_error(self, cohort_dir, trained, tmp_path, capsys, which, key, edit):
        # json writes NaN and Infinity as bare words, and reads them back
        name = "model.json" if which == "model" else "imputer_model.json"
        doc = json.loads((trained / name).read_text())
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert self.predict(cohort_dir, trained, tmp_path, **{which: path}) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}" in err and key in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    @pytest.mark.parametrize("edit", [lambda doc: doc.update(variables=None), lambda doc: doc.pop("variables")],
                             ids=["null", "missing"])
    @pytest.mark.parametrize("which", ["model.json", "imputer_model.json"])
    def test_file_without_variables_is_data_error(self, cohort_dir, trained, tmp_path, capsys, edit, which):
        """A reversed dictionary reorders the cohort's columns; a file that does not name its columns is rejected."""
        reversed_dic = reversed_dictionary(cohort_dir, tmp_path)
        for name in ("model.json", "imputer_model.json"):
            doc = json.loads((trained / name).read_text())
            if name == which:
                edit(doc)
            else:  # the other file names the reversed columns, so it passes its check
                doc["variables"] = reversed_dic.read_text().split()
            (tmp_path / name).write_text(json.dumps(doc))
        pred = tmp_path / "pred"
        code = dispatch([
            "predict", *cohort_args(cohort_dir)[:4], "--dictionary", str(reversed_dic), "--out", str(pred),
            "--model", str(tmp_path / "model.json"), "--imputer-model", str(tmp_path / "imputer_model.json"),
        ])
        assert code == 2
        assert f"data error: {tmp_path / which}" in capsys.readouterr().err
        assert not (pred / "predictions.csv").exists()

    @pytest.mark.parametrize("which", ["model", "imputer"])
    def test_non_json_file_is_data_error(self, cohort_dir, trained, tmp_path, capsys, which):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        assert self.predict(cohort_dir, trained, tmp_path, **{which: bad}) == 2
        assert str(bad) in capsys.readouterr().err

    def test_missing_model_file_is_data_error(self, cohort_dir, trained, tmp_path, capsys):
        assert self.predict(cohort_dir, trained, tmp_path, model=tmp_path / "absent.json") == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("imputer, key", [("bmc", "lower"), ("bmc", "col_means"), ("mean", "col_means"),
                                              ("knn", "col_means")])
    def test_imputer_array_of_the_wrong_length_is_data_error(self, cohort_dir, trained, tmp_path, capsys,
                                                             imputer, key):
        fitted = tmp_path / "fitted"
        assert dispatch(["impute", *cohort_args(cohort_dir), "--out", str(fitted), "--imputer", imputer]) == 0
        doc = json.loads((fitted / "imputer_model.json").read_text())
        assert len(doc[key]) == 6
        doc[key] = doc[key][:3]
        path = tmp_path / "imputer_model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.predict(cohort_dir, trained, tmp_path, imputer=path) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}" in err and key in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()


class TestCv:
    def test_table_shape_and_determinism(self, cohort_dir, tmp_path):
        check_cv_table_and_determinism(cohort_dir, tmp_path)

    def test_report_regenerates_same_csvs(self, cohort_dir, tmp_path):
        out = tmp_path / "cv"
        assert dispatch([
            "cv", *cohort_args(cohort_dir), "--out", str(out),
            "--durations", "3", "--ranks", "2", "--lambdas", "0.05",
            "--k", "3", "--max-iter", "100",
        ]) == 0
        rep = tmp_path / "rep"
        assert dispatch(["report", "--cv-report", str(out / "cv_report.json"), "--out", str(rep)]) == 0
        for name in ("grid.csv", "lambda_curve.csv", "duration_curve.csv"):
            assert (rep / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("methods", ["ols", "svr", "censored_lowrank"])
    def test_rank_below_one_is_usage_error(self, cohort_dir, tmp_path, capsys, methods):
        run = tmp_path / "cv"
        assert dispatch(["cv", *cohort_args(cohort_dir), "--out", str(run), "--durations", "3", "--ranks", "0,-3",
                         "--lambdas", "0.05", "--methods", methods, "--imputer", "mean", "--k", "3"]) == 1
        assert "rank must be >= 1, got 0" in capsys.readouterr().err
        assert not (run / "grid.csv").exists()

    @pytest.mark.parametrize("flag, text", [("--durations", "3,3"), ("--ranks", "2,2"), ("--lambdas", "0.05,0.050"),
                                            ("--methods", "ols,ols"), ("--methods", "ols, svr,ols ")])
    def test_repeated_grid_value_is_usage_error(self, cohort_dir, tmp_path, capsys, flag, text):
        run = tmp_path / "cv"
        assert dispatch(["cv", *cohort_args(cohort_dir), "--out", str(run), "--durations", "3", "--ranks", "2",
                         "--lambdas", "0.05", "--k", "3", flag, text]) == 1
        assert f"usage error: {flag} repeats a value: {text!r}" in capsys.readouterr().err
        assert not (run / "grid.csv").exists()

    @pytest.mark.parametrize("max_iter, capped", [(1, True), (500, False)])
    def test_solver_report_kept_per_fold(self, cohort_dir, tmp_path, capsys, max_iter, capped):
        out = tmp_path / "cv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert dispatch([
                "cv", *cohort_args(cohort_dir), "--out", str(out), "--durations", "3", "--ranks", "1,2",
                "--lambdas", "0.05", "--methods", "censored_lowrank,ols", "--k", "3", "--max-iter", str(max_iter),
            ]) == 0
        entries = json.loads((out / "cv_report.json").read_text())["entries"]
        fits = []
        for e in entries:
            if e["method"] == "censored_lowrank":
                assert len(e["iterations"]) == len(e["converged"]) == 3
                fits += [(it, conv) for it, conv in zip(e["iterations"], e["converged"])]
            else:
                assert e["iterations"] == [] and e["converged"] == []
        n_capped = sum(it == max_iter and not conv for it, conv in fits)
        assert (n_capped > 0) == capped
        line = f"{n_capped} of 6 censored_lowrank fits stopped at max_iter"
        assert (line in capsys.readouterr().out) == capped


    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ("not json\n", "cannot read file"),
        ('{"seed": 0, "k": 3, "split_unit": "sample"}\n', "missing key 'entries'"),
        (cv_report_text([0.5, 0.7]), "entry 0 holds 2 fold MAEs, but k is 3"),
        (cv_report_text([0.5, 0.7, 0.6, 0.9]), "entry 0 holds 4 fold MAEs, but k is 3"),
        (cv_report_text([0.5, 0.7, 0.6]).replace(', "converged": []', ""), "missing key 'converged'"),
    ], ids=["missing_file", "not_json", "no_entries", "too_few_folds", "too_many_folds", "no_solver_fields"])
    def test_bad_cv_report_is_data_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "cv_report.json"
        if content is not None:
            path.write_text(content)
        assert dispatch(["report", "--cv-report", str(path), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (tmp_path / "rep" / "grid.csv").exists()


class TestImpute:
    def test_completed_matrix_covers_all_rows(self, cohort_dir, tmp_path):
        check_completed_matrix(cohort_dir, tmp_path)

    def test_labels_start_at_the_first_day_and_cover_gap_days(self, tmp_path):
        obs, out, dic = write_cohort_files(
            tmp_path, ["A,3,hr,60", "A,3,temp,37", "A,5,hr,64", "B,2,temp,38", "B,3,hr,70"],
            ["A,0,,21", "B,1,9,"], ["hr", "temp"])
        run = tmp_path / "imp"
        assert dispatch(["impute", "--observations", str(obs), "--outcomes", str(out), "--dictionary", str(dic),
                         "--out", str(run), "--imputer", "mean"]) == 0
        with open(run / "completed_matrix.csv") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["subject_id", "day", "hr", "temp"]
        assert [row[:2] for row in rows] == [["A", "3"], ["A", "4"], ["A", "5"], ["B", "2"], ["B", "3"]]
        hr, temp = np.mean([60.0, 64.0, 70.0]), np.mean([37.0, 38.0])
        want = [[60, 37], [hr, temp], [64, temp], [hr, 38], [70, temp]]
        assert np.allclose([[float(v) for v in row[2:]] for row in rows], want, rtol=0, atol=1e-12)

    def test_knn_and_mean_imputers_run(self, cohort_dir, tmp_path):
        windows = extract_windows(load_cohort(cohort_dir / "observations.csv", cohort_dir / "outcomes.csv",
                                              cohort_dir / "variables.txt"), 4)
        windows[0].x[0] = np.nan  # one fully missing day
        for imp in ("mean", "knn"):
            out = tmp_path / f"imp_{imp}"
            assert dispatch(["impute", *cohort_args(cohort_dir), "--out", str(out), "--imputer", imp]) == 0
            filled = np.stack([w.x for w in fill_windows(windows, load_imputer(out / "imputer_model.json").transform)])
            assert np.isfinite(filled).all()


class TestErrors:
    def test_missing_outcomes_file_is_data_error(self, cohort_dir, tmp_path, capsys):
        code = dispatch([
            "train",
            "--observations", str(cohort_dir / "observations.csv"),
            "--outcomes", str(cohort_dir / "nope.csv"),
            "--dictionary", str(cohort_dir / "variables.txt"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("name, fault", [
        ("observations.csv", "undecodable byte"),
        ("outcomes.csv", "undecodable byte"),
        ("variables.txt", "undecodable byte"),
        ("variables.txt", "missing file"),
        ("observations.csv", "field over the csv size limit"),
        ("observations.csv", "field over the csv size limit mid-file"),
        ("observations.csv", "day outside int64"),
    ])
    def test_unreadable_input_file_is_data_error_naming_it(self, cohort_dir, tmp_path, capsys, name, fault):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for path in cohort_files(cohort_dir):
            (inputs / path.name).write_bytes(path.read_bytes())
        bad = inputs / name
        if fault == "missing file":
            bad.unlink()
        elif fault == "undecodable byte":
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
        elif fault == "day outside int64":
            lines = bad.read_text().splitlines()
            sid, _, var, _ = lines[1].split(",")
            bad.write_text("\n".join([*lines, f"{sid},99999999999999999999,{var},1.0"]) + "\n")
        else:
            lines = bad.read_text().splitlines(keepends=True)
            at = len(lines) // 2 if fault.endswith("mid-file") else len(lines)
            bad.write_text("".join([*lines[:at], "x" * 131_073 + ",1,v01,1.0\n", *lines[at:]]))
        code = dispatch(["impute", *cohort_args(inputs), "--out", str(tmp_path / "x")])
        assert code == 2
        if fault == "day outside int64":
            want = f"data error: {bad} line {len(lines) + 1}: day must be from 1 to {2**63 - 1}, got {10**20 - 1}"
        else:
            want = f"data error: cannot read {bad}"
        assert want in capsys.readouterr().err

    def test_day_span_over_the_bound_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        """Days 1 and 1,000,000 of one event subject would make a 1,000,000-row day array; the file is rejected."""
        obs, out, dic = write_cohort_files(tmp_path, ["A,1,hr,60", "A,1000000,hr,61"], ["A,1,5,"], ["hr"])
        code = dispatch(["impute", "--observations", str(obs), "--outcomes", str(out), "--dictionary", str(dic),
                         "--imputer", "mean", "--out", str(tmp_path / "x")])
        assert code == 2
        assert (f"data error: {obs} line 3: subject 'A' spans 1000000 days, 1 to 1000000, with 2 observation rows"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("content, code", [(None, 2), ("not json\n", 1), ("[1, 2]\n", 1)],
                             ids=["missing_file", "not_json", "not_an_object"])
    def test_unusable_config_file_exit_code(self, cohort_dir, tmp_path, capsys, content, code):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "x"
        assert dispatch(["cv", *cohort_args(cohort_dir), "--out", str(out), "--config", str(cfg)]) == code
        assert str(cfg) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [["--censor-horizon", "0.5"], {"censor_horizon": -3},
                                         {"censor_horizon": float("nan")}, {"noise_sigma": float("nan")},
                                         {"noise_sigma": float("inf")}],
                             ids=["horizon_below_one", "negative_horizon", "nan_horizon", "nan_noise", "inf_noise"])
    def test_synth_setting_that_yields_no_usable_cohort_is_data_error(self, tmp_path, capsys, setting):
        argv = ["synth", "--out", str(tmp_path / "x")]
        if isinstance(setting, dict):
            (tmp_path / "cfg.json").write_text(json.dumps(setting))  # NaN and Infinity, as Python's json writes them
            argv += ["--config", str(tmp_path / "cfg.json")]
        else:
            argv += setting
        name = setting[0][2:].replace("-", "_") if isinstance(setting, list) else next(iter(setting))
        assert dispatch(argv) == 2
        assert f"data error: {name} " in capsys.readouterr().err
        assert not (tmp_path / "x" / "observations.csv").exists()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert dispatch([]) == 1
        assert "a subcommand is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_duration_longer_than_every_subject_is_data_error(self, cohort_dir, tmp_path, capsys, command):
        # no subject of cohort_dir has more than 8 days
        out = tmp_path / "x"
        if command == "train":
            flags = ["--T", "9", "--imputer", "mean"]
        else:
            variables = load_cohort(*cohort_files(cohort_dir)).variables
            save_model(tmp_path / "model.json", ModelParams(np.zeros((9, len(variables))), 0.0, 1, 0.05), variables)
            flags = ["--model", str(tmp_path / "model.json")]
        assert dispatch([command, *cohort_args(cohort_dir), "--out", str(out), *flags]) == 2
        assert "data error: no windows of length 9 could be extracted" in capsys.readouterr().err
        assert {p.name for p in out.iterdir()} == {"effective_config.json"}

    def test_observations_with_only_a_header_is_data_error(self, cohort_dir, tmp_path, capsys):
        obs = tmp_path / "observations.csv"
        obs.write_text("subject_id,day,variable,value\n")
        _, outcomes, dic = cohort_files(cohort_dir)
        out = tmp_path / "x"
        assert dispatch(["impute", "--observations", str(obs), "--outcomes", str(outcomes), "--dictionary", str(dic),
                         "--out", str(out), "--imputer", "mean"]) == 2
        assert "data error: cohort has no observation rows" in capsys.readouterr().err
        assert not (out / "completed_matrix.csv").exists()

    def test_unknown_config_key_is_usage_error(self, cohort_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"durations": "3", "bogus_key": 1}))
        code = dispatch(["cv", *cohort_args(cohort_dir), "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1

    @pytest.mark.parametrize("command, key, value, accepted", [
        ("train", "T", "5", False),
        ("train", "T", 5.0, False),
        ("train", "T", True, False),
        ("synth", "round_onsets", "no", False),
        ("synth", "round_onsets", 1, False),
        ("train", "lambda", False, False),
        ("train", "imputer", "median", False),
        ("cv", "split_unit", None, False),
        ("predict", "imputer_model", 3, False),
        ("train", "horizon", 21, True),
    ])
    def test_config_value_is_checked_like_its_flag(self, cohort_dir, tmp_path, capsys, command, key, value, accepted):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        inputs = [*cohort_args(cohort_dir), "--imputer", "mean"] if accepted else []
        code = dispatch([command, "--config", str(cfg), "--out", str(out), *inputs])
        if accepted:
            assert code == 0
            assert json.loads((out / "effective_config.json").read_text())[key] == value
        else:
            assert code == 1
            assert f"{key} must be" in capsys.readouterr().err
            assert not out.exists()

    def test_non_numeric_value_is_data_error(self, cohort_dir, tmp_path, capsys):
        bad = tmp_path / "observations.csv"
        lines = (cohort_dir / "observations.csv").read_text().splitlines()
        head, rest = lines[1].rsplit(",", 1)
        bad.write_text("\n".join([lines[0], head + ",high", *lines[2:]]) + "\n")
        code = dispatch([
            "train", "--observations", str(bad), "--outcomes", str(cohort_dir / "outcomes.csv"),
            "--dictionary", str(cohort_dir / "variables.txt"), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "observations.csv line 2" in capsys.readouterr().err

    def test_day_after_last_obs_day_is_data_error(self, cohort_dir, tmp_path, capsys):
        # one mistyped day would otherwise add about 20,000 empty days to the subject
        outcomes = (cohort_dir / "outcomes.csv").read_text().splitlines()
        sid = next(line.split(",")[0] for line in outcomes[1:] if line.split(",")[1] == "0")
        lines = (cohort_dir / "observations.csv").read_text().splitlines()
        bad = tmp_path / "observations.csv"
        bad.write_text("\n".join([*lines, f"{sid},20000,{lines[1].split(',')[2]},1.0"]) + "\n")
        run = tmp_path / "x"
        code = dispatch([
            "train", "--observations", str(bad), "--outcomes", str(cohort_dir / "outcomes.csv"),
            "--dictionary", str(cohort_dir / "variables.txt"), "--out", str(run), "--T", "4", "--imputer", "mean",
        ])
        assert code == 2
        assert f"observations.csv line {len(lines) + 1}: day 20000 is after last_obs_day" in capsys.readouterr().err
        assert not (run / "model.json").exists()

    def test_row_with_too_few_fields_is_data_error(self, cohort_dir, tmp_path, capsys):
        bad = tmp_path / "observations.csv"
        lines = (cohort_dir / "observations.csv").read_text().splitlines()
        bad.write_text("\n".join([lines[0], "", ",".join(lines[1].split(",")[:2]), *lines[2:]]) + "\n")
        code = dispatch([
            "train", "--observations", str(bad), "--outcomes", str(cohort_dir / "outcomes.csv"),
            "--dictionary", str(cohort_dir / "variables.txt"), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "observations.csv line 3" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert dispatch(["train"]) == 1

    def test_bad_flag_value_is_usage_error(self):
        assert dispatch(["cv", "--k", "not_a_number"]) == 1

    def test_grid_lists(self):
        assert cli._list("3,4,", "durations", int) == [3, 4]
        assert cli._list("0.05,1e-2", "lambdas", float) == [0.05, 0.01]
        assert cli._list(" ols,, svr , ,", "methods", str.strip) == ["ols", "svr"]
        for text, kind, message in [("3,x", int, "--durations must be a comma-separated list of integers"),
                                    ("0.1,y", float, "--durations must be a comma-separated list of numbers"),
                                    ("3,4,3", int, "--durations repeats a value: '3,4,3'"),
                                    ("0.1,0.10", float, "--durations repeats a value: '0.1,0.10'")]:
            with pytest.raises(cli.UsageError, match=message):
                cli._list(text, "durations", kind)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_objective_is_numerical_error(self, cohort_dir, tmp_path, capsys):
        outcomes = (cohort_dir / "outcomes.csv").read_text().splitlines()
        first_event = next(i for i, line in enumerate(outcomes) if line.split(",")[1] == "1")
        sid, _, _, last = outcomes[first_event].split(",")
        outcomes[first_event] = f"{sid},1,1e200,{last}"
        bad = tmp_path / "outcomes.csv"
        bad.write_text("\n".join(outcomes) + "\n")
        obs, _, dic = cohort_files(cohort_dir)
        run = tmp_path / "x"
        code = dispatch([
            "train", "--observations", str(obs), "--outcomes", str(bad), "--dictionary", str(dic),
            "--out", str(run), "--imputer", "mean",
        ])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (run / "model.json").exists()

    def test_config_flag_override(self, cohort_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"durations": "3", "ranks": "2", "lambdas": "0.05", "k": 3, "max_iter": 100}))
        out = tmp_path / "cv_cfg"
        assert dispatch([
            "cv", *cohort_args(cohort_dir), "--config", str(cfg), "--out", str(out), "--k", "4",
        ]) == 0
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["k"] == 4  # flag wins over config file
        assert eff["durations"] == "3"


COHORT_FLAGS = ["--observations", "--outcomes", "--dictionary"]

FLAGS = {
    "synth": ["--out", "--seed", "--n-subjects", "--days-per-subject", "--num-vars", "--T-star", "--true-rank",
              "--noise-sigma", "--censor-horizon", "--missing-rate", "--latent-rank", "--round-onsets"],
    "impute": [*COHORT_FLAGS, "--out", "--imputer", "--imputer-rank", "--knn-k"],
    "train": [*COHORT_FLAGS, "--out", "--T", "--stride", "--horizon", "--imputer", "--imputer-rank", "--knn-k",
              "--method", "--rank", "--lambda", "--tol", "--max-iter"],
    "predict": [*COHORT_FLAGS, "--model", "--out", "--stride", "--horizon", "--imputer-model"],
    "cv": [*COHORT_FLAGS, "--out", "--durations", "--ranks", "--lambdas", "--methods", "--imputer",
           "--imputer-rank", "--knn-k", "--k", "--split-unit", "--stride", "--horizon", "--tol", "--max-iter",
           "--seed"],
    "report": ["--cv-report", "--out"],
}


class TestFlagTable:
    def test_option_strings_per_subcommand(self):
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        got = {
            name: [s for a in p._actions if a.dest != "help" for s in a.option_strings]
            for name, p in subparsers.items()
        }
        assert got == {name: ["--config", *flags] for name, flags in FLAGS.items()}

    @pytest.mark.parametrize("argv, key, value", [
        (["synth", "--T-star", "7"], "T_star", 7),
        (["cv", "--max-iter", "7"], "max_iter", 7),
        (["synth", "--round-onsets"], "round_onsets", True),
    ])
    def test_flag_sets_its_key(self, argv, key, value):
        parsed = vars(cli._build_parser().parse_args(argv))
        assert type(parsed[key]) is type(value) and parsed[key] == value != cli.DEFAULTS[argv[0]][key]
        assert all(v is None for k, v in parsed.items() if k not in ("command", key))

    @pytest.mark.parametrize("command, key", [
        ("train", "step_policy"), ("cv", "eta"), ("synth", "t_star"), ("impute", "seed"), ("train", "seed"),
        ("predict", "seed"), ("report", "seed"), ("train", "precondition"), ("cv", "precondition"),
    ])
    def test_removed_config_key_is_usage_error(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        assert dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert f"unknown keys for {command!r}: [{key!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.DEFAULTS))
    def test_one_subcommand_parser_matches_the_full_one(self, command, capsys):
        def help_text(parser):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            return capsys.readouterr().out

        def usage_error(parser):
            with pytest.raises(cli.UsageError) as caught:
                parser.parse_args([command, "--config"])
            return str(caught.value)

        full, one = cli._build_parser(), cli._build_parser((command,))
        assert help_text(one) == help_text(full) and f"usage: cenrank {command}" in help_text(full)
        assert usage_error(one) == usage_error(full) == "argument --config: expected one argument"

    def test_top_level_help_and_unknown_command_list_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as caught:
            dispatch(["--help"])
        listing = "{" + ",".join(cli.DEFAULTS) + "}"
        assert caught.value.code == 0 and listing in capsys.readouterr().out
        assert dispatch(["fit"]) == 1
        assert "invalid choice: 'fit'" in capsys.readouterr().err

    def test_dispatch_builds_the_invoked_subcommand_only(self, tmp_path, monkeypatch):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda commands: built.append(tuple(commands)) or build(commands))
        assert dispatch(["synth", "--out", str(tmp_path / "x"), "--n-subjects", "3"]) == 0
        assert dispatch(["bogus"]) == dispatch([]) == 1
        assert built == [("synth",), tuple(cli.DEFAULTS), tuple(cli.DEFAULTS)]
