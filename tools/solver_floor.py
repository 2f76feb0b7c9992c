"""Measure fit_pgd on 30 random designs: its tolerance floor and its distance to projected gradient descent.

Usage: PYTHONPATH=src python tools/solver_floor.py

Draws 30 designs with tests/helpers.random_design from default_rng(0)
(T 3-6, P 3-10, rank 1 to min(T, P) - 1, 20-119 complete and 5-39
censored samples, lambda 0.05 and 0.3 in turn). For each tol in 1e-8,
1e-9 and 1e-10 it prints how many rank-constrained fits converged, how
many stalled and how many stopped at max_iter 5000, and lists every fit
whose final objective lies more than 1e-6 (relative) above the test
suite's reference_pgd at tol 1e-13.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import random_design  # noqa: E402
from test_solver import reference_pgd  # noqa: E402

from cenrank.solver import SolverOptions, fit_pgd  # noqa: E402


def designs():
    rng = np.random.default_rng(0)
    for i in range(30):
        T, P = int(rng.integers(3, 7)), int(rng.integers(3, 11))
        r = int(rng.integers(1, min(T, P)))
        n_c, n_z = int(rng.integers(20, 120)), int(rng.integers(5, 40))
        yield f"T{T} P{P} r{r} n{n_c}", random_design(rng, T, P, n_c, n_z), (0.05, 0.3)[i % 2], r


def main() -> int:
    cases = [(name, design, lam, r, reference_pgd(design, lam, r, tol=1e-13, max_iter=200_000))
             for name, design, lam, r in designs()]
    for tol in (1e-8, 1e-9, 1e-10):
        counts, above = {"converged": 0, "stalled": 0, "max_iter": 0}, []
        for name, design, lam, r, reference in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _, report = fit_pgd(design, lam, r, SolverOptions(tol=tol, max_iter=5000))
            counts["converged"] += report.converged
            for key in ("stalled", "max_iter"):
                counts[key] += any(key in str(w.message) for w in caught)
            if report.final_objective > (1 + 1e-6) * reference:
                above.append(f"{name}: {report.final_objective:.6g} vs {reference:.6g}")
        print(f"tol {tol:g}: " + ", ".join(f"{key} {n}/30" for key, n in counts.items())
              + f"; above reference_pgd: {len(above)}" + "".join(f"\n  {line}" for line in above))
    return 0


if __name__ == "__main__":
    sys.exit(main())
