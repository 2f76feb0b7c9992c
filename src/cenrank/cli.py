"""Command-line entry point.

Subcommands cover the full pipeline: `synth` writes a synthetic cohort,
`impute` fits an imputer over a cohort, `train` fits one model
configuration, `predict` scores a cohort with a saved model, `cv` runs the
cross-validated grid search and `report` regenerates the report CSVs from
a stored CV result. Every run writes its effective configuration (all
defaults materialized, including the seed of `synth` and `cv`) next to its
outputs, and identical configurations produce byte-identical output files.
Each setting is declared once, as a key of DEFAULTS; its flag is derived
from the key.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, modelio, solver
from .cohort import assemble_design, extract_windows, load_cohort, write_cohort
from .errors import DataError, EmptyColumnError, NumericalError, UnimputedSampleError
from .evaluation import cross_validate, fit_method, write_csv, write_report_csvs
from .imputation import BmcImputer, KnnImputer, MeanImputer, fill_windows
from .synthetic import SyntheticSpec, generate_cohort


class UsageError(Exception):
    pass


DEFAULTS = {
    "synth": {
        "out": None, "seed": 0, "n_subjects": 60, "days_per_subject": 8, "num_vars": 10,
        "T_star": 5, "true_rank": 2, "noise_sigma": 1.0, "censor_horizon": 21.0,
        "missing_rate": 0.1, "latent_rank": 3, "round_onsets": False,
    },
    "impute": {
        "observations": None, "outcomes": None, "dictionary": None, "out": None,
        "imputer": "bmc", "imputer_rank": 3, "knn_k": 5,
    },
    "train": {
        "observations": None, "outcomes": None, "dictionary": None, "out": None,
        "T": 5, "stride": 1, "horizon": 21.0, "imputer": "bmc", "imputer_rank": 3, "knn_k": 5,
        "method": "censored_lowrank", "rank": 2, "lambda": 0.05,
        "tol": 1e-4, "max_iter": 500,
    },
    "predict": {
        "observations": None, "outcomes": None, "dictionary": None, "model": None, "out": None,
        "stride": 1, "horizon": 21.0, "imputer_model": None,
    },
    "cv": {
        "observations": None, "outcomes": None, "dictionary": None, "out": None,
        "durations": "3,4,5,6", "ranks": "2,3", "lambdas": "0.01,0.05,0.1",
        "methods": "censored_lowrank", "imputer": "bmc", "imputer_rank": 3, "knn_k": 5,
        "k": 5, "split_unit": "sample", "stride": 1, "horizon": 21.0,
        "tol": 1e-4, "max_iter": 500, "seed": 0,
    },
    "report": {"cv_report": None, "out": None},
}

HELP = {
    "synth": "write a synthetic cohort with planted structure",
    "impute": "fit an imputer on a cohort and write the completed matrix",
    "train": "fit one model configuration and save it",
    "predict": "score a cohort with a saved model",
    "cv": "cross-validated grid search over duration, rank and lambda",
    "report": "regenerate report CSVs from a stored CV result",
}

CHOICES = {
    "imputer": ["bmc", "mean", "knn"],
    "method": list(evaluation.METHODS),
    "split_unit": ["sample", "subject"],
}

REQUIRED = {
    "synth": ["out"],
    "impute": ["observations", "outcomes", "dictionary", "out"],
    "train": ["observations", "outcomes", "dictionary", "out"],
    "predict": ["observations", "outcomes", "dictionary", "model", "out"],
    "cv": ["observations", "outcomes", "dictionary", "out"],
    "report": ["cv_report", "out"],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> _Parser:
    """One subcommand per DEFAULTS entry and one flag per key, typed like its default.

    A boolean key defaults to False and `--key` turns it on. Unset flags
    parse to None, so config file keys and defaults show through.
    """
    parser = _Parser(prog="cenrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command, help=HELP[command])
        p.error = parser.error
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key, default in defaults.items():
            if isinstance(default, bool):
                p.add_argument(_flag(key), dest=key, action="store_const", const=True)
            else:
                p.add_argument(_flag(key), dest=key, type=str if default is None else type(default),
                               choices=CHOICES.get(key))
    return parser


# what a config-file value may be, by the type of its key's default
CONFIG_TYPES = {bool: (bool, "true or false"), int: (int, "an integer"), float: ((int, float), "a number"),
                str: (str, "a string"), type(None): (str, "a string")}


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS[command])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {args.config} must be a flat JSON object")
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise UsageError(f"config {args.config}: unknown keys for {command!r}: {unknown}")
        for key, value in file_cfg.items():  # typed like its flag, with the same choices
            kinds, what = CONFIG_TYPES[type(cfg[key])]
            ok = isinstance(value, kinds) and isinstance(value, bool) == isinstance(cfg[key], bool)
            if key in CHOICES:
                ok, what = value in CHOICES[key], f"one of {CHOICES[key]}"
            if not ok:
                raise UsageError(f"config {args.config}: {key} must be {what}, got {value!r}")
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    missing = [k for k in REQUIRED[command] if cfg.get(k) is None]
    if missing:
        raise UsageError(f"{command}: missing required options: {', '.join('--' + m.replace('_', '-') for m in missing)}")
    return cfg


def _list(text, name, kind):
    """The values of the comma-separated list `text` of setting `name`, each parsed by kind (int, float or str.strip).

    Blank entries are skipped. A value kind rejects, or one that repeats an
    earlier value, is a UsageError naming the flag.
    """
    try:
        values = [kind(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise UsageError(f"{_flag(name)} must be a comma-separated list of {what}: {text!r}") from exc
    if len(set(values)) < len(values):
        raise UsageError(f"{_flag(name)} repeats a value: {text!r}")
    return values


def _load_inputs(cfg):
    return load_cohort(cfg["observations"], cfg["outcomes"], cfg["dictionary"])


def _new_imputer(cfg):
    """The unfitted imputer cfg names; flag choices and the config check leave only bmc, knn and mean."""
    name = cfg["imputer"]
    if name == "bmc":
        return BmcImputer(rank=cfg["imputer_rank"])
    if name == "knn":
        return KnnImputer(k=cfg["knn_k"])
    return MeanImputer()


def _solver_options(cfg) -> solver.SolverOptions:
    return solver.SolverOptions(tol=cfg["tol"], max_iter=cfg["max_iter"])


def _cmd_synth(cfg, out_dir: Path):
    # every synth setting but out is a SyntheticSpec field of the same name; num_vars is P
    spec = SyntheticSpec(**{"P" if key == "num_vars" else key: cfg[key] for key in DEFAULTS["synth"] if key != "out"})
    cohort, truth = generate_cohort(spec)
    write_cohort(cohort, out_dir / "observations.csv", out_dir / "outcomes.csv", out_dir / "variables.txt")
    modelio.write_json(out_dir / "truth.json", {
        "b_star": truth.b_star,
        "w_star": [float(v) for v in truth.w_star.ravel()],
        "T_star": spec.T_star,
        "P": spec.P,
    })
    print(f"wrote cohort with {len(cohort)} subjects ({int(cohort.event.sum())} with events) to {out_dir}")


def _cmd_impute(cfg, out_dir: Path):
    cohort = _load_inputs(cfg)
    X = cohort.days
    if not len(X):
        raise EmptyColumnError("cohort has no observation rows")
    imputer = _new_imputer(cfg)
    completed = imputer.fit_transform(X)
    sids = np.repeat(cohort.subject_id, np.diff(cohort.start))
    rows = [[sid, day] + ["%.17g" % v for v in values]
            for sid, day, values in zip(sids, cohort.day.tolist(), completed)]
    write_csv(out_dir / "completed_matrix.csv", ["subject_id", "day"] + cohort.variables, rows)
    modelio.save_imputer(out_dir / "imputer_model.json", imputer, cohort.variables)
    print(f"imputed {int(np.isnan(X).sum())} missing cells over {X.shape[0]} rows")


def _cmd_train(cfg, out_dir: Path):
    options = _solver_options(cfg)
    cohort = _load_inputs(cfg)
    windows = extract_windows(cohort, cfg["T"], stride=cfg["stride"], horizon=cfg["horizon"])
    if not windows:
        raise DataError(f"no windows of length {cfg['T']} could be extracted")
    imputer = _new_imputer(cfg)
    filled = fill_windows(windows, imputer.fit_transform)
    design = assemble_design(filled)
    method = cfg["method"]
    model, report = fit_method(design, method, cfg["rank"], cfg["lambda"], options)
    if report is not None:
        print(f"fit converged={report.converged} iterations={report.iterations} "
              f"objective={report.final_objective:.6g} rank_w={report.rank_w}")
    else:
        censored = int(design.censored.sum())
        print(f"fit {method} on {design.y.size - censored} complete / {censored} censored samples")
    modelio.save_model(out_dir / "model.json", model, cohort.variables, report)
    modelio.save_imputer(out_dir / "imputer_model.json", imputer, cohort.variables)
    ranked = evaluation.coefficient_report(model, cohort.variables)
    evaluation.write_coefficients_csv(out_dir / "coefficients.csv", ranked)
    edges, comp, cen = evaluation.onset_distribution(evaluation.predict_windows(model, filled), filled)
    evaluation.write_onset_hist_csv(out_dir / "onset_hist.csv", edges, comp, cen)


def _cmd_predict(cfg, out_dir: Path):
    cohort = _load_inputs(cfg)
    model = modelio.load_model(cfg["model"], cohort.variables)
    T = model.w.shape[0]
    windows = extract_windows(cohort, T, stride=cfg["stride"], horizon=cfg["horizon"])
    if not windows:
        raise DataError(f"no windows of length {T} could be extracted")
    if cfg["imputer_model"]:
        windows = fill_windows(windows, modelio.load_imputer(cfg["imputer_model"], cohort.variables).transform)
    elif np.isnan(windows.days[windows.rows]).any():
        raise UnimputedSampleError("cohort has missing cells; pass --imputer-model to fill them")
    preds = evaluation.predict_windows(model, windows)
    rows = zip(windows.subject_id, windows.end_day.tolist(), windows.censored.astype(int).tolist(),
               ["%.17g" % y for y in windows.y.tolist()], ["%.17g" % p for p in preds.tolist()])
    write_csv(out_dir / "predictions.csv", ["subject_id", "window_end_day", "censored", "y", "prediction"], rows)
    edges, comp, cen = evaluation.onset_distribution(preds, windows)
    evaluation.write_onset_hist_csv(out_dir / "onset_hist.csv", edges, comp, cen)
    print(f"wrote {len(windows)} predictions")


def _cmd_cv(cfg, out_dir: Path):
    cohort = _load_inputs(cfg)
    report = cross_validate(
        cohort, _list(cfg["durations"], "durations", int), _list(cfg["ranks"], "ranks", int),
        _list(cfg["lambdas"], "lambdas", float), _list(cfg["methods"], "methods", str.strip), _new_imputer(cfg),
        k=cfg["k"], split_unit=cfg["split_unit"], seed=cfg["seed"],
        stride=cfg["stride"], horizon=cfg["horizon"],
        solver_options=_solver_options(cfg),
    )
    modelio.save_cv_report(report, out_dir / "cv_report.json")
    fits = [(it, conv) for e in report.entries for it, conv in zip(e.iterations, e.converged)]
    capped = sum(not conv and it == cfg["max_iter"] for it, conv in fits)
    if capped:
        print(f"{capped} of {len(fits)} censored_lowrank fits stopped at max_iter")
    best = write_report_csvs(report, out_dir)
    print(f"best: duration={best.duration} rank={best.rank} lambda={best.lambda_:g} "
          f"method={best.method} mean_mae={best.mean_mae:.6g}")


def _cmd_report(cfg, out_dir: Path):
    report = modelio.load_cv_report(cfg["cv_report"])
    write_report_csvs(report, out_dir)
    print(f"regenerated report CSVs for {len(report.entries)} grid entries")


COMMANDS = {
    "synth": _cmd_synth,
    "impute": _cmd_impute,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "cv": _cmd_cv,
    "report": _cmd_report,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (synth, impute, train, predict, cv, report)")
        cfg = _merge_config(args.command, args)
        out_dir = Path(cfg["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        modelio.write_json(out_dir / "effective_config.json", {"command": args.command, **cfg})
        COMMANDS[args.command](cfg, out_dir)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> None:
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
