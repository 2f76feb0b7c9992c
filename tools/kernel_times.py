"""Time `cenrank cv`'s fold kernels on the cv_grid benchmark's fold inputs, alone or against a base checkout.

Usage: python tools/kernel_times.py [base checkout]

Runs `cenrank cv` once per unit of the cv_grid benchmark workload (synth
seeds 0-5, 40 subjects x 10 days, latent rank 8; BMC, durations 4 and 5,
rank 2, lambda 0.05, 5 folds, methods censored_lowrank, ols and svr) with
this checkout's src/, and records the arguments of every fit_pgd,
svr_fit, ols_fit, bmc_fit and impute_rows call. A kernel's call set is
its recorded calls of one unit. Each of ROUNDS rounds times every call
set once, in one process with BLAS pinned to one thread.

Given a base checkout, its src/cenrank is loaded next to this one as the
package `cenrank_base`, both sides get the same recorded inputs, and the
two run call set by call set, in turns, the side that goes first swapping
with each call set and each round. Per kernel it prints the median of
the per-round change/base time ratios, their quartiles and the rounds
the change won, and each side's total steps: svr_fit interior-point
iterations, fit_pgd passes, bmc_fit iterations and impute_rows objective
records (one more than its rounds that moved a row, per call). Without
a base it prints this checkout's median round time and steps per kernel.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cenrank  # noqa: E402
from cenrank import baselines, imputation, solver  # noqa: E402
from cenrank.cli import dispatch  # noqa: E402

ROUNDS = 10
UNITS = range(6)
# (module, function) of each kernel, where `cross_validate` and the BMC imputer look it up
KERNELS = {"fit_pgd": "solver", "svr_fit": "baselines", "ols_fit": "baselines", "bmc_fit": "imputation",
           "impute_rows": "imputation"}


def record_calls(work: Path) -> list[dict[str, list]]:
    """Per unit, the (args, kwargs) of every kernel call in one `cenrank cv` run."""
    modules = {"solver": solver, "baselines": baselines, "imputation": imputation}
    units = []
    for seed in UNITS:
        calls = {name: [] for name in KERNELS}

        def recorder(name, fn):
            def recorded(*args, **kwargs):
                calls[name].append((args, kwargs))
                return fn(*args, **kwargs)
            return recorded

        originals = {name: getattr(modules[mod], name) for name, mod in KERNELS.items()}
        data, out = work / f"data{seed}", work / f"cv{seed}"
        cohort = ["--observations", str(data / "observations.csv"), "--outcomes", str(data / "outcomes.csv"),
                  "--dictionary", str(data / "variables.txt")]
        try:
            for name, mod in KERNELS.items():
                setattr(modules[mod], name, recorder(name, originals[name]))
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [dispatch(["synth", "--out", str(data), "--seed", str(seed), "--n-subjects", "40",
                                   "--days-per-subject", "10", "--latent-rank", "8"]),
                         dispatch(["cv", *cohort, "--out", str(out), "--methods", "censored_lowrank,ols,svr",
                                   "--imputer", "bmc", "--durations", "4,5", "--ranks", "2", "--lambdas", "0.05",
                                   "--k", "5", "--seed", str(seed)])]
        finally:
            for name, mod in KERNELS.items():
                setattr(modules[mod], name, originals[name])
        if codes != [0, 0]:
            raise SystemExit(f"cenrank exited {codes} on unit {seed}")
        units.append(calls)
    return units


def load_base(checkout: Path):
    """The package under checkout/src/cenrank, imported as `cenrank_base`."""
    init = checkout / "src" / "cenrank" / "__init__.py"
    spec = importlib.util.spec_from_file_location("cenrank_base", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["cenrank_base"] = package
    spec.loader.exec_module(package)
    return package


def convert(value, package):
    """A recorded argument for `package`: its dataclass of the same name, with the same fields."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = getattr(package, type(value).__name__)
        return cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    return value


def call_set(package, name, calls):
    """A function running `calls` of the kernel `name` of `package`; it returns their total steps."""
    fn = getattr(getattr(package, KERNELS[name]), name)
    calls = [([convert(a, package) for a in args], kwargs) for args, kwargs in calls]

    def run():
        steps = 0
        for args, kwargs in calls:
            trace = []
            if name == "fit_pgd":
                steps += fn(*args, **kwargs)[1].iterations
            elif name == "ols_fit":
                fn(*args, **kwargs)
            else:
                fn(*args, **kwargs, trace_out=trace)
            steps += len(trace)
        return steps
    return run


def timed(run):
    start = perf_counter()
    steps = run()
    return perf_counter() - start, steps


def main() -> int:
    base = load_base(Path(sys.argv[1]).resolve()) if len(sys.argv) > 1 else None
    with tempfile.TemporaryDirectory() as work:
        units = record_calls(Path(work))
    sides = [cenrank] + ([base] if base else [])
    runs = {name: [[call_set(pkg, name, unit[name]) for pkg in sides] for unit in units] for name in KERNELS}
    times = {name: np.zeros((ROUNDS, len(sides))) for name in KERNELS}
    steps = {name: [0] * len(sides) for name in KERNELS}
    turn = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(ROUNDS):
            for name in KERNELS:
                for pair in runs[name]:
                    # each call set swaps the side that goes first, and so does each round, so that a unit's
                    # call set leads on both sides equally often even when a round holds an even number of sets
                    order = list(range(len(sides)))[::(-1) ** (turn + i)]
                    turn += 1
                    for side in order:
                        t, s = timed(pair[side])
                        times[name][i, side] += t
                        if i == 0:
                            steps[name][side] += s
    n_calls = {name: sum(len(unit[name]) for unit in units) for name in KERNELS}
    for name in KERNELS:
        t = times[name]
        if base:
            ratio = t[:, 0] / t[:, 1]
            q1, med, q3 = np.percentile(ratio, [25, 50, 75])
            print(f"{name:12s} {n_calls[name]:3d} calls  change/base median {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
                  f"change won {int(np.sum(ratio < 1))}/{ROUNDS}; base {np.median(t[:, 1]):.4f} s, "
                  f"change {np.median(t[:, 0]):.4f} s per round; steps base {steps[name][1]}, "
                  f"change {steps[name][0]}")
        else:
            print(f"{name:12s} {n_calls[name]:3d} calls  {np.median(t[:, 0]):.4f} s per round (median of {ROUNDS}); "
                  f"steps {steps[name][0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
