"""Spans around cenrank's public functions, installed from outside the package.

Every public function defined in a cenrank module is replaced, in every
cenrank module namespace that holds a reference to it, by a wrapper that
records a span (name, start, end, parent span). Names bound with
`from .x import f` are therefore wrapped where they are looked up, for
example `cli.load_cohort` and `evaluation.fit_method`. Nothing under `src/`
changes; `Patch.undo` puts the original functions back.

A few functions also report counts at the boundary: iterations through the
public `trace_out` argument (`bmc_fit`, `impute_new`, `svr_fit`), the solve
report of `fit_pgd`, the observation rows a `load_cohort` call returned, and
the distinct input rows `impute_new` was asked to fill.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

import numpy as np

PACKAGE = "cenrank"


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def public_functions():
    """(module, attribute, function) for each public cenrank function reference."""
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_") and not obj.__name__.startswith("_")
                    and (obj.__module__ or "").startswith(PACKAGE + ".")):
                yield mod, attr, obj


class Patch:
    """Replaces public cenrank functions by wrappers and restores them."""

    def __init__(self):
        self._saved = []

    def apply(self, make_wrapper, select=None):
        wrappers = {}
        for mod, attr, fn in public_functions():
            name = _layer_name(fn)
            if select is not None and name not in select:
                continue
            if fn not in wrappers:
                wrappers[fn] = make_wrapper(name, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])

    def undo(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


class ObjectiveRecorder:
    """Collects the final objective of every `fit_pgd` call; records no spans."""

    def __init__(self):
        self.objectives: list[float] = []

    def wrap(self, name, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.objectives.append(result[1].final_objective)
            return result
        return recorded


def _trace_out_position(fn) -> int:
    return list(inspect.signature(fn).parameters).index("trace_out")


class Tracer(ObjectiveRecorder):
    """Records spans and boundary counts for every wrapped call."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rows_seen: set[bytes] = set()

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        trace_pos = _trace_out_position(fn) if name in ("imputation.bmc_fit", "imputation.impute_new",
                                                        "baselines.svr_fit") else None
        max_iter_default = inspect.signature(fn).parameters["max_iter"].default if name == "imputation.bmc_fit" else None

        def traced(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if name == "cli.dispatch" and args and args[0] else name
            trace_out = None
            if trace_pos is not None and len(args) <= trace_pos and kwargs.get("trace_out") is None:
                trace_out = kwargs["trace_out"] = []
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if trace_out is not None:
                counts[name + ".iterations"] += len(trace_out)
            if name == "imputation.bmc_fit":
                max_iter = args[4] if len(args) > 4 else kwargs.get("max_iter", max_iter_default)
                counts[name + ".capped"] += int(trace_out is not None and len(trace_out) >= max_iter)
            elif name == "imputation.impute_new":
                self.rows_seen.add(np.asarray(args[0]).tobytes() + np.asarray(list(args[1])).tobytes())
            elif name == "solver.fit_pgd":
                report = result[1]
                counts[name + ".converged"] += int(report.converged)
                counts[name + ".iterations"] += report.iterations
                self.objectives.append(report.final_objective)
            elif name == "cohort.load_cohort":
                counts[name + ".rows"] += sum(int(s.mask.sum()) for s in result.subjects)
            return result
        return traced

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.rows_seen.clear()
        self.objectives.clear()

    def totals(self):
        """Per span name: (calls, wall seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        wall = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            wall[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, wall, self_s


LAYERS = ("cli", "cohort", "imputation", "solver", "baselines", "evaluation", "modelio")


def round_metrics(tracer: Tracer, round_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round from its spans and counts."""
    calls, wall, self_s = tracer.totals()
    c = tracer.counts
    fit_iters = c["solver.fit_pgd.iterations"]
    impute_calls = calls["imputation.impute_new"]
    m = {
        "cohort.load_cohort.s": wall["cohort.load_cohort"],
        "cohort.load_cohort.rows_per_s": (c["cohort.load_cohort.rows"] / wall["cohort.load_cohort"]
                                          if wall["cohort.load_cohort"] else 0.0),
        "cohort.extract_windows.s": wall["cohort.extract_windows"],
        "cohort.assemble_design.s": wall["cohort.assemble_design"],
        "imputation.bmc_fit.s": wall["imputation.bmc_fit"],
        "imputation.bmc_fit.iterations": c["imputation.bmc_fit.iterations"],
        "imputation.bmc_fit.capped": c["imputation.bmc_fit.capped"],
        "imputation.impute_new.s": wall["imputation.impute_new"],
        "imputation.impute_new.calls": impute_calls,
        "imputation.impute_new.iterations": c["imputation.impute_new.iterations"],
        "imputation.unique_row_ratio": len(tracer.rows_seen) / impute_calls if impute_calls else 0.0,
        "solver.fit_pgd.s": wall["solver.fit_pgd"],
        "solver.fit_pgd.calls": calls["solver.fit_pgd"],
        "solver.fit_pgd.iterations": fit_iters,
        "solver.fit_pgd.converged": c["solver.fit_pgd.converged"],
        "solver.fit_pgd.us_per_iteration": 1e6 * wall["solver.fit_pgd"] / fit_iters if fit_iters else 0.0,
        "baselines.svr_fit.s": wall["baselines.svr_fit"],
        "baselines.svr_fit.calls": calls["baselines.svr_fit"],
        "baselines.svr_fit.steps": c["baselines.svr_fit.iterations"],
        "baselines.ols_fit.s": wall["baselines.ols_fit"],
        "evaluation.cross_validate.self_s": self_s["evaluation.cross_validate"],
        "evaluation.impute_split.self_s": self_s["evaluation.impute_split"],
        "evaluation.predict_windows.s": wall["evaluation.predict_windows"],
        "evaluation.write_report_csvs.s": wall["evaluation.write_report_csvs"],
        "modelio.save.s": sum(v for k, v in self_s.items() if k.startswith("modelio.save")),
        "modelio.load.s": sum(v for k, v in self_s.items() if k.startswith("modelio.load")),
        "cli.cv.self_s": self_s["cli.cv"],
        "cli.train.self_s": self_s["cli.train"],
        "cli.predict.self_s": self_s["cli.predict"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    m["trace.wall_s"] = round_wall
    m["trace.unattributed_s"] = round_wall - sum(self_s.values())
    return m


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced set-up repetition."""
    _, wall, _ = tracer.totals()
    return {
        "synthetic.generate_cohort.s": wall["synthetic.generate_cohort"],
        "cohort.write_cohort.s": wall["cohort.write_cohort"],
    }


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(r[k] for r in per_round) for k in per_round[0]}

