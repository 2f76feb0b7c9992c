"""The benchmark's workloads: set-up, one timed round, and the round's checks.

A round is the same list of operations every time; an operation is one CLI
subcommand or one library fit. Each workload draws several input units
(synthetic populations) from the seed and runs one unit per round, in turn,
so that one run averages over populations. `run_round` runs the operations
inside `with timer:` (which times them and installs the tracing or
objective recorder) and checks their outputs afterwards, outside the timed
block. cenrank is reached only through the modules in `lib` at call time,
so the functions a tracer installs are the ones called.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks

METHODS = ("censored_lowrank", "ols", "svr")
PLANTED_LAMBDA = 0.05
PLANTED_T = 5

SIZES = {
    "full": {
        "cv_grid": {"units": 6, "n_subjects": 40, "days": 10, "durations": (4, 5), "ranks": (2,),
                    "lambdas": (0.05,), "k": 5},
        "planted_split": {"units": 4, "n_subjects": 800, "n_train": 600, "n_test": 200, "max_iter": 12000},
        "train_predict": {"units": 8, "n_subjects": 100, "days": 10},
    },
    "smoke": {
        "cv_grid": {"units": 1, "n_subjects": 24, "days": 7, "durations": (3, 4), "ranks": (2,),
                    "lambdas": (0.05,), "k": 3},
        "planted_split": {"units": 1, "n_subjects": 160, "n_train": 120, "n_test": 40, "max_iter": 400},
        "train_predict": {"units": 1, "n_subjects": 40, "days": 8},
    },
}


class Round:
    """Operations attempted in one round, with the failure messages of each."""

    def __init__(self):
        self.ops: dict[str, list[str]] = {}
        self.check_failures = 0
        self.mae = math.nan
        self.scored = 0
        self.signature: object = None

    def attempt(self, op, fn, *args, **kwargs):
        self.ops[op] = []
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.ops[op].append(f"{type(exc).__name__}: {exc}")
            return None

    def skip(self, op, because):
        self.ops[op] = [f"not run: {because} failed"]

    def check(self, op, failures):
        self.ops[op].extend(failures)
        self.check_failures += len(failures)

    def ok(self, op) -> bool:
        return not self.ops[op]

    @property
    def failed(self) -> list[str]:
        return [op for op, messages in self.ops.items() if messages]


def run_cli(rnd: Round, lib, op: str, argv: list[str]) -> bool:
    """`cenrank <argv>` in-process through cli.dispatch; a nonzero exit fails the operation."""
    err = io.StringIO()

    def call():
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            return lib.cli.dispatch(argv)

    code = rnd.attempt(op, call)
    if code not in (0, None):
        rnd.ops[op].append(f"exit code {code}: {err.getvalue().strip()}")
    return rnd.ok(op)


def _cohort_args(cohort_dir: Path) -> list[str]:
    return ["--observations", str(cohort_dir / "observations.csv"), "--outcomes", str(cohort_dir / "outcomes.csv"),
            "--dictionary", str(cohort_dir / "variables.txt")]


def _synth(lib, out: Path, seed: int, n_subjects: int, days: int):
    """`cenrank synth` with daily vectors of latent rank 8 (above the default imputer rank of 3).

    At the CLI's default latent rank of 3 the rows are exactly of the
    imputer's rank, and per-row imputation iterations vary about 25% between
    populations; at rank 8 about 9%.
    """
    rnd = Round()
    if not run_cli(rnd, lib, "synth", ["synth", "--out", str(out), "--seed", str(seed), "--n-subjects",
                                       str(n_subjects), "--days-per-subject", str(days), "--latent-rank", "8"]):
        raise RuntimeError(f"set-up failed: {rnd.ops['synth']}")


class Workload:
    """`units` input units; unit j of seed s is made from seed units * s + j.

    Subclasses define `setup_unit(lib, work, seed) -> state` and
    `run_round(lib, state, out, timer) -> Round`, and may define `expect`.
    """

    name = ""

    def __init__(self, size="full"):
        self.p = SIZES[size][self.name]
        self.units = self.p["units"]

    def setup(self, lib, work: Path, seed: int) -> list[dict]:
        return [self.setup_unit(lib, work / f"unit{j}", self.units * seed + j) for j in range(self.units)]

    def expect(self, state: dict):
        """Adds what the checks need from the benchmark's own reading of the inputs."""


class CvGrid(Workload):
    """`cenrank cv` with the BMC imputer over censored_lowrank, ols and svr."""

    name = "cv_grid"

    def setup_unit(self, lib, work: Path, seed: int) -> dict:
        _synth(lib, work, seed, self.p["n_subjects"], self.p["days"])
        return {"cohort": work, "seed": seed}

    def expect(self, state):
        variables, subjects = checks.read_cohort(state["cohort"])
        p = self.p
        n_windows = sum(len(checks.cohort_windows(variables, subjects, T)) for T in p["durations"])
        # every grid cell predicts each window once, in the fold that holds it out
        state["scored"] = n_windows * len(p["ranks"]) * len(p["lambdas"]) * len(METHODS)

    def run_round(self, lib, state, out: Path, timer) -> Round:
        p = self.p
        rnd = Round()
        argv = ["cv", *_cohort_args(state["cohort"]), "--out", str(out / "cv"),
                "--methods", ",".join(METHODS), "--imputer", "bmc",
                "--durations", ",".join(map(str, p["durations"])), "--ranks", ",".join(map(str, p["ranks"])),
                "--lambdas", ",".join(map(str, p["lambdas"])), "--k", str(p["k"]), "--seed", str(state["seed"])]
        with timer:
            run_cli(rnd, lib, "cv", argv)
        if rnd.ok("cv"):
            failures, rnd.mae = checks.check_cv(out / "cv", p["durations"], p["ranks"], p["lambdas"], METHODS, p["k"])
            rnd.check("cv", failures)
            rnd.signature = (out / "cv" / "grid.csv").read_bytes()
        rnd.scored = state["scored"]
        return rnd


class TrainPredict(Workload):
    """`cenrank train` on cohort A, then `cenrank predict` on cohort B with the saved imputer."""

    name = "train_predict"
    T = 5

    def setup_unit(self, lib, work: Path, seed: int) -> dict:
        """One synthetic population, split by subject into cohorts A and B."""
        n = self.p["n_subjects"]
        _synth(lib, work / "synth", seed, 2 * n, self.p["days"])
        with open(work / "synth" / "outcomes.csv", encoding="utf-8") as fh:
            first_b = fh.readlines()[n + 1].split(",", 1)[0]
        for part in ("A", "B"):
            (work / part).mkdir()
            (work / part / "variables.txt").write_bytes((work / "synth" / "variables.txt").read_bytes())
        for name in ("outcomes.csv", "observations.csv"):
            with open(work / "synth" / name, encoding="utf-8") as fh, \
                 open(work / "A" / name, "w", encoding="utf-8") as fa, \
                 open(work / "B" / name, "w", encoding="utf-8") as fb:
                head = fh.readline()
                fa.write(head)
                fb.write(head)
                for line in fh:
                    # subject ids are zero-padded, so they sort in generation order
                    (fa if line.split(",", 1)[0] < first_b else fb).write(line)
        return {"A": work / "A", "B": work / "B"}

    def expect(self, state):
        for part in ("A", "B"):
            variables, subjects = checks.read_cohort(state[part])
            state["windows_" + part] = checks.cohort_windows(variables, subjects, self.T)
        state["variables"] = variables

    def run_round(self, lib, state, out: Path, timer) -> Round:
        rnd = Round()
        model = out / "train"
        with timer:
            trained = run_cli(rnd, lib, "train", ["train", *_cohort_args(state["A"]), "--out", str(model),
                                                  "--T", str(self.T)])
            if trained:
                run_cli(rnd, lib, "predict", ["predict", *_cohort_args(state["B"]), "--out", str(out / "predict"),
                                              "--model", str(model / "model.json"),
                                              "--imputer-model", str(model / "imputer_model.json")])
            else:
                rnd.skip("predict", "train")
        if trained:
            rnd.check("train", checks.check_train(model, state["variables"], state["windows_A"]))
        if rnd.ok("predict"):
            failures, rnd.mae = checks.check_predict(out / "predict", model, state["windows_B"])
            rnd.check("predict", failures)
            rnd.signature = (out / "predict" / "predictions.csv").read_bytes()
        rnd.scored = len(state["windows_B"])
        return rnd


class PlantedSplit(Workload):
    """The planted rank-2 experiment through the library, one window per subject."""

    name = "planted_split"

    def setup_unit(self, lib, work: Path, seed: int) -> dict:
        spec = lib.synthetic.SyntheticSpec(
            n_subjects=self.p["n_subjects"], days_per_subject=PLANTED_T, P=10, T_star=PLANTED_T, true_rank=2,
            noise_sigma=1.0, censor_horizon=21.0, missing_rate=0.10, latent_rank=8, seed=seed)
        cohort, truth = lib.synthetic.generate_cohort(spec)
        work.mkdir(parents=True)
        lib.cohort.write_cohort(cohort, work / "observations.csv", work / "outcomes.csv", work / "variables.txt")
        return {"seed": seed, "cohort": cohort, "truth": truth}

    def run_round(self, lib, state, out: Path, timer) -> Round:
        rnd = Round()
        with timer:
            r = self.operations(lib, state, rnd)
        rnd.mae = self.check(rnd, r)
        rnd.signature = [float(r[op][1].final_objective) for op in ("rank2", "rank5", "mean_rank2") if r.get(op)]
        rnd.scored = 4 * self.p["n_test"]
        return rnd

    def operations(self, lib, state, rnd: Round) -> dict:
        """Split, impute twice, fit rank 2 and 5 on BMC, rank 2 on mean imputation, and OLS."""
        p = self.p
        opts = lib.solver.SolverOptions(tol=1e-9, max_iter=p["max_iter"], precondition=False)

        def impute(windows, train_idx, test_idx, imputer):
            train, test, _ = lib.evaluation.impute_split(windows, train_idx, test_idx, imputer)
            return train, test, lib.cohort.assemble_design(train)

        def fit(design, rank, test):
            params, report = lib.solver.fit_pgd(design, PLANTED_LAMBDA, rank, opts)
            return params, report, lib.evaluation.predict_windows(params, test)

        def ols(design, test):
            model = lib.baselines.ols_fit(design, 0.0, censored_mode="ignore")
            return model, lib.evaluation.predict_windows(model, test)

        windows = lib.cohort.extract_windows(state["cohort"], PLANTED_T, horizon=21.0)
        perm = np.random.default_rng(state["seed"] + 77).permutation(len(windows))
        train_idx = np.sort(perm[:p["n_train"]])
        test_idx = np.sort(perm[p["n_train"]:p["n_train"] + p["n_test"]])
        r = {"truth": state["truth"], "train": [windows[i] for i in train_idx], "test": [windows[i] for i in test_idx]}
        r["bmc"] = rnd.attempt("bmc_impute", impute, windows, train_idx, test_idx, lib.imputation.BmcImputer(rank=8))
        r["mean"] = rnd.attempt("mean_impute", impute, windows, train_idx, test_idx, lib.imputation.MeanImputer())
        for op, source, rank in (("rank2", "bmc", 2), ("rank5", "bmc", 5), ("mean_rank2", "mean", 2)):
            if r[source]:
                r[op] = rnd.attempt(op, fit, r[source][2], rank, r[source][1])
            else:
                rnd.skip(op, f"{source}_impute")
        if r["bmc"]:
            r["ols"] = rnd.attempt("ols", ols, r["bmc"][2], r["bmc"][1])
        else:
            rnd.skip("ols", "bmc_impute")
        return r

    @staticmethod
    def check(rnd: Round, r: dict) -> float:
        """Checks every operation that ran; returns the rank-2 test MAE (NaN if it did not run)."""
        for source in ("bmc", "mean"):
            if r[source]:
                rnd.check(f"{source}_impute", checks.check_filled(r["train"], r["test"], *r[source][:2]))
        if not r["bmc"]:
            return math.nan
        train, test = r["bmc"][0], r["bmc"][1]
        data = checks.design(train)
        truth = r["truth"]
        planted = checks.objective(truth.w_star, truth.b_star, data, PLANTED_LAMBDA)
        mae = rank2_obj = math.nan
        if r.get("rank2"):
            params, report, preds = r["rank2"]
            failures, rank2_obj = checks.check_lowrank_fit(params.w, params.b, report.final_objective, data,
                                                           PLANTED_LAMBDA, 2, planted, "the objective at (w_star, b_star)")
            failures += checks.check_predictions(preds, params.w, params.b, test)
            beats, mae = checks.check_beats_constant(preds, test, data[1])
            rnd.check("rank2", failures + beats)
        if r.get("rank5"):
            params, report, preds = r["rank5"]
            ceiling, name = (rank2_obj, "the rank-2 objective") if r.get("rank2") else (planted, "the planted objective")
            failures, _ = checks.check_lowrank_fit(params.w, params.b, report.final_objective, data,
                                                   PLANTED_LAMBDA, 5, ceiling, name)
            rnd.check("rank5", failures + checks.check_predictions(preds, params.w, params.b, test))
        if r.get("mean_rank2"):
            params, report, preds = r["mean_rank2"]
            mean_data = checks.design(r["mean"][0])
            start = checks.objective(np.zeros_like(params.w), float(np.mean(mean_data[1])), mean_data, PLANTED_LAMBDA)
            failures, _ = checks.check_lowrank_fit(params.w, params.b, report.final_objective, mean_data,
                                                   PLANTED_LAMBDA, 2, start, "the objective at the starting point")
            rnd.check("mean_rank2", failures + checks.check_predictions(preds, params.w, params.b, r["mean"][1]))
        if r.get("ols"):
            model, preds = r["ols"]
            others = [(truth.w_star, truth.b_star)]
            if r.get("rank2"):
                others.append((r["rank2"][0].w, r["rank2"][0].b))
            rnd.check("ols", checks.check_least_squares(model.w_vec, model.b, data, others)
                      + checks.check_predictions(preds, model.w_vec, model.b, test))
        return mae


WORKLOADS = {w.name: w for w in (CvGrid, PlantedSplit, TrainPredict)}
