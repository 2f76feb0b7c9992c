"""Save and load fitted models as structured text (JSON).

Floats are written through Python's shortest round-trip representation,
so a save/load cycle reproduces every parameter bit for bit and repeated
saves of the same model are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .baselines import BaselineParams
from .errors import DataError
from .imputation import BmcImputer, BmcModel, KnnImputer, MeanImputer
from .solver import ModelParams, SolveReport


def _floats(a) -> list[float]:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def save_model(path, model, variables=None, report: SolveReport | None = None,
               window_length: int | None = None):
    """Write a regression model (ModelParams or BaselineParams) to path."""
    if isinstance(model, ModelParams):
        T, P = model.w.shape
        doc = {
            "kind": "censored_lowrank",
            "T": T,
            "P": P,
            "window_length": T,
            "rank": model.rank,
            "lambda": model.lambda_,
            "b": model.b,
            "w": _floats(model.w),
            "variables": list(variables) if variables is not None else None,
        }
        if report is not None:
            doc["solve_report"] = {
                "iterations": report.iterations,
                "converged": report.converged,
                "final_objective": report.final_objective,
                "ridge": report.ridge,
                "rank_w": report.rank_w,
            }
    elif isinstance(model, BaselineParams):
        doc = {
            "kind": model.kind,
            "dim": int(model.w_vec.size),
            "window_length": window_length,
            "b": model.b,
            "w": _floats(model.w_vec),
            "hyperparams": model.hyperparams,
            "variables": list(variables) if variables is not None else None,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_variables(path, doc, variables):
    stored = doc.get("variables")
    if variables is not None and stored is not None and list(stored) != list(variables):
        raise DataError(f"{path}: fitted on variables {stored}, but the dictionary lists {list(variables)}")


def load_model(path, variables=None):
    """Read a model file; returns (model, meta) where meta holds the extras.

    When `variables` is given and the file records its variables, the two
    lists must be equal, order included.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_variables(path, doc, variables)
    kind = doc.get("kind")
    if kind == "censored_lowrank":
        T, P = int(doc["T"]), int(doc["P"])
        w = np.asarray(doc["w"], dtype=float).reshape(T, P)
        model = ModelParams(w=w, b=float(doc["b"]), rank=int(doc["rank"]), lambda_=float(doc["lambda"]))
    elif kind in ("ols", "svr"):
        model = BaselineParams(
            w_vec=np.asarray(doc["w"], dtype=float),
            b=float(doc["b"]),
            kind=kind,
            hyperparams=dict(doc.get("hyperparams", {})),
        )
    else:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    meta = {k: v for k, v in doc.items() if k not in ("w", "b")}
    return model, meta


def save_bmc_model(path, model: BmcModel, variables=None):
    """Write a fitted completion model: rank, bounds, means and basis (row-major)."""
    doc = {
        "kind": "bmc",
        "rank": model.rank,
        "P": int(model.basis.shape[0]),
        "variables": list(variables) if variables is not None else None,
        "lower": _floats(model.lower),
        "upper": _floats(model.upper),
        "col_means": _floats(model.col_means),
        "basis": _floats(model.basis),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bmc_model(path) -> BmcModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "bmc":
        raise DataError(f"{path}: not a completion model file")
    P, r = int(doc["P"]), int(doc["rank"])
    return BmcModel(
        basis=np.asarray(doc["basis"], dtype=float).reshape(P, r),
        lower=np.asarray(doc["lower"], dtype=float),
        upper=np.asarray(doc["upper"], dtype=float),
        rank=r,
        col_means=np.asarray(doc["col_means"], dtype=float),
    )


def save_imputer(path, imputer, variables=None):
    """Persist a fitted imputer so new rows can be filled at predict time."""
    if isinstance(imputer, BmcImputer):
        save_bmc_model(path, imputer.model, variables)
        return
    if isinstance(imputer, MeanImputer):
        doc = {"kind": "mean", "col_means": _floats(imputer.col_means),
               "variables": list(variables) if variables is not None else None}
    elif isinstance(imputer, KnnImputer):
        doc = {
            "kind": "knn",
            "k": imputer.k,
            "n_rows": int(imputer.train_X.shape[0]),
            "P": int(imputer.train_X.shape[1]),
            "train_values": _floats(np.where(imputer.train_mask, imputer.train_X, 0.0)),
            "train_mask": [int(v) for v in imputer.train_mask.ravel()],
            "col_means": _floats(imputer.col_means),
            "variables": list(variables) if variables is not None else None,
        }
    else:
        raise TypeError(f"cannot save imputer of type {type(imputer).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_imputer(path, variables=None):
    """Load a fitted imputer saved by save_imputer; `variables` is checked as in load_model."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_variables(path, doc, variables)
    kind = doc.get("kind")
    if kind == "bmc":
        imp = BmcImputer(rank=int(doc["rank"]))
        imp.model = load_bmc_model(path)
        return imp
    if kind == "mean":
        imp = MeanImputer()
        imp.col_means = np.asarray(doc["col_means"], dtype=float)
        return imp
    if kind == "knn":
        imp = KnnImputer(k=int(doc["k"]))
        n, P = int(doc["n_rows"]), int(doc["P"])
        imp.train_mask = np.asarray(doc["train_mask"], dtype=bool).reshape(n, P)
        imp.train_X = np.asarray(doc["train_values"], dtype=float).reshape(n, P)
        imp.train_X[~imp.train_mask] = np.nan
        imp.col_means = np.asarray(doc["col_means"], dtype=float)
        return imp
    raise DataError(f"{path}: unknown imputer kind {kind!r}")
