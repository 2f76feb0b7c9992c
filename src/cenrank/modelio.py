"""Save and load fitted models, imputers and CV reports as structured text (JSON).

Floats are written through Python's shortest round-trip representation,
so a save/load cycle reproduces every parameter bit for bit and repeated
saves of the same object are byte-identical. A file that cannot be read,
is not JSON, lacks a key or holds arrays of the wrong size raises a
DataError naming the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .errors import DataError
from .evaluation import METHODS, CvReport
from .imputation import BmcImputer, BmcModel, KnnImputer, MeanImputer
from .solver import ModelParams, SolveReport


def _floats(a) -> list[float]:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def _array(doc, key, *shape) -> np.ndarray:
    """doc[key] as a float array of `shape`; any other number of values is a ValueError naming the key."""
    try:
        return np.asarray(doc[key], dtype=float).reshape(shape)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def write_json(path, doc):
    """Write `doc` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@contextmanager
def _read(path, variables=None):
    """Yield the JSON object in a file; any failure to parse it is a DataError naming the file.

    When `variables` is given, the file's `variables` list must equal it,
    order included; a file without that list fails the check.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise DataError(f"{path}: file must hold a JSON object")
        if variables is not None and doc["variables"] != list(variables):
            raise DataError(f"{path}: fitted on variables {doc['variables']}, but the dictionary lists {variables}")
        yield doc
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise DataError(f"{path}: cannot read file: {exc}") from exc


def save_model(path, model: ModelParams, variables, report: SolveReport | None = None):
    """Write a linear model fitted on the columns named by `variables`.

    Every kind has the same keys, plus `solve_report` when one is given.
    """
    T, P = model.w.shape
    doc = {
        "kind": model.kind,
        "T": T,
        "P": P,
        "rank": model.rank,
        "lambda": model.lambda_,
        "b": model.b,
        "w": _floats(model.w),
        "hyperparams": model.hyperparams,
        "variables": list(variables),
    }
    if report is not None:
        doc["solve_report"] = {
            "iterations": report.iterations,
            "converged": report.converged,
            "final_objective": report.final_objective,
            "rank_w": report.rank_w,
        }
    write_json(path, doc)


def load_model(path, variables=None) -> ModelParams:
    """Read a model file written by save_model; `variables` is checked against the stored list."""
    with _read(path, variables) as doc:
        kind = doc["kind"]
        if kind not in METHODS:
            raise DataError(f"{path}: unknown model kind {kind!r}")
        T, P = int(doc["T"]), int(doc["P"])
        return ModelParams(
            w=_array(doc, "w", T, P),
            b=float(doc["b"]),
            rank=int(doc["rank"]),
            lambda_=float(doc["lambda"]),
            kind=kind,
            hyperparams=dict(doc["hyperparams"]),
        )


def save_imputer(path, imputer, variables):
    """Persist a fitted imputer, with the names of the columns it fills, so new rows can be filled at predict time."""
    if isinstance(imputer, BmcImputer):
        model = imputer.model
        doc = {
            "kind": "bmc",
            "rank": int(model.basis.shape[1]),
            "P": int(model.basis.shape[0]),
            "lower": _floats(model.lower),
            "upper": _floats(model.upper),
            "col_means": _floats(model.col_means),
            "basis": _floats(model.basis),
        }
    elif isinstance(imputer, MeanImputer):
        doc = {"kind": "mean", "col_means": _floats(imputer.col_means)}
    elif isinstance(imputer, KnnImputer):
        observed = ~np.isnan(imputer.train_X)
        doc = {
            "kind": "knn",
            "k": imputer.k,
            "n_rows": int(imputer.train_X.shape[0]),
            "P": int(imputer.train_X.shape[1]),
            "train_values": _floats(np.where(observed, imputer.train_X, 0.0)),
            "train_mask": [int(v) for v in observed.ravel()],
            "col_means": _floats(imputer.col_means),
        }
    else:
        raise TypeError(f"cannot save imputer of type {type(imputer).__name__}")
    doc["variables"] = list(variables)
    write_json(path, doc)


def load_imputer(path, variables=None):
    """Load a fitted imputer saved by save_imputer; `variables` is checked as in load_model."""
    with _read(path, variables) as doc:
        kind = doc.get("kind")
        if kind == "bmc":
            P, r = int(doc["P"]), int(doc["rank"])
            imp = BmcImputer(rank=r)
            imp.model = BmcModel(basis=_array(doc, "basis", P, r), lower=_array(doc, "lower", P),
                                 upper=_array(doc, "upper", P), col_means=_array(doc, "col_means", P))
            return imp
        if kind == "mean":
            imp = MeanImputer()
            imp.col_means = _array(doc, "col_means", len(doc["variables"]))
            return imp
        if kind == "knn":
            imp = KnnImputer(k=int(doc["k"]))
            n, P = int(doc["n_rows"]), int(doc["P"])
            observed = _array(doc, "train_mask", n, P).astype(bool)
            imp.train_X = np.where(observed, _array(doc, "train_values", n, P), np.nan)
            imp.col_means = _array(doc, "col_means", P)
            return imp
        raise DataError(f"{path}: unknown imputer kind {kind!r}")


def save_cv_report(report: CvReport, path):
    write_json(path, report.to_dict())


def load_cv_report(path) -> CvReport:
    """Read a CV report written by save_cv_report."""
    with _read(path) as doc:
        return CvReport.from_dict(doc)
