#!/usr/bin/env python3
"""Run one cenrank benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload cv_grid --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout: cenrank is imported from the
checkout's `src/`, and work files go to `.bench_work/` at its root and are
removed at the end. The run sets up its cohorts, then repeats rounds of the
workload's operations until `--seconds` have passed, checking every round's
outputs. It repeats the set-up at even intervals between the rounds, so
that set-up time (the median of the repetitions) samples the same stretch
of machine time as the rounds. With `--trace 0` it prints the end-to-end
metrics (times are medians over rounds); with `--trace 1` it alternates
untraced and traced rounds and prints the per-layer metrics. Metric units
come from BENCHMARK.json. The last line of standard output is the result
object; the line before it holds run details that are not metrics, among
them the time of a fixed numpy loop that uses no cenrank code.
"""

import os

# A second BLAS thread competes with the run on a small machine; fix one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = {"full": 9, "smoke": 2}


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def cenrank_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "cenrank" or n.startswith("cenrank.")}


def fresh_import():
    """Import cenrank and cenrank.cli anew (numpy stays loaded); returns the package."""
    for name in cenrank_modules():
        del sys.modules[name]
    lib = importlib.import_module("cenrank")
    importlib.import_module("cenrank.cli")
    return lib


def machine_probe(reps: int = 5) -> float:
    """Median time of a fixed numpy and Python loop that uses no cenrank code."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((50, 10))
    square = rng.standard_normal((150, 150))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(400):
            np.linalg.svd(small, full_matrices=False)
        x = square
        for _ in range(40):
            x = np.tanh(square @ x * 0.05)
        total = 0
        for i in range(200_000):
            total += i & 7
        times.append(perf_counter() - t0)
    return median(times)


class Timer:
    """Times one round's operations with `recorder` installed on cenrank's functions."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.wall = math.nan

    def __enter__(self):
        self.patch = tracer.Patch()
        select = None if isinstance(self.recorder, tracer.Tracer) else {"solver.fit_pgd"}
        self.patch.apply(self.recorder.wrap, select)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.t0
        self.patch.undo()
        return False


def set_up(workload, work: Path, seed: int, spans: "tracer.Tracer | None"):
    """One timed set-up into `work`: a fresh import of cenrank, then every unit's cohorts.

    Returns (package, unit states, seconds, traced set-up metrics or None).
    """
    shutil.rmtree(work, ignore_errors=True)
    t0 = perf_counter()
    lib = fresh_import()
    patch = tracer.Patch()
    if spans is not None:
        patch.apply(spans.wrap)
    state = workload.setup(lib, work, seed)
    elapsed = perf_counter() - t0
    patch.undo()
    layer = None
    if spans is not None:
        layer = tracer.setup_metrics(spans)
        spans.reset()
    return lib, state, elapsed, layer


def repeat_set_up(workload, work: Path, seed: int, spans, setup_times: list, setup_layer: list):
    """A further timed set-up whose cohorts are thrown away; the run keeps its own modules."""
    kept = cenrank_modules()
    try:
        _, _, elapsed, layer = set_up(workload, work, seed, spans)
    finally:
        for name in cenrank_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        shutil.rmtree(work, ignore_errors=True)
    setup_times.append(elapsed)
    if layer is not None:
        setup_layer.append(layer)


def _unit_mean(per_unit: list[dict]) -> dict:
    return {k: float(np.mean([m[k] for m in per_unit])) for k in per_unit[0]}


def _finite(x):
    return float(x) if math.isfinite(x) else None


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns {"detail": ..., "result": ...}."""
    workload = WORKLOADS[workload_name](size)
    work = ROOT / ".bench_work" / f"{workload_name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        probe_s = machine_probe()
        spans = tracer.Tracer() if trace else None
        setup_reps = SETUP_REPS[size]
        lib, states, elapsed, layer = set_up(workload, work / "setup", seed, spans)
        setup_times, setup_layer = [elapsed], [layer] if layer else []
        for state in states:
            workload.expect(state)

        rounds = []
        first = {}  # unit -> its first round
        min_rounds = workload.units * (2 if trace else 1)
        start = perf_counter()
        while True:
            # set-up repetition k is due k/setup_reps of the way through the run
            while (len(setup_times) < setup_reps
                   and perf_counter() - start >= seconds * len(setup_times) / setup_reps):
                repeat_set_up(workload, work / "resetup", seed, spans, setup_times, setup_layer)
            i = len(rounds)
            traced = trace and i % 2 == 1
            unit = (i // 2 if trace else i) % workload.units
            recorder = spans if traced else tracer.ObjectiveRecorder()
            if traced:
                spans.reset()
            timer = Timer(recorder)
            rnd = workload.run_round(lib, states[unit], work / "out", timer)
            rnd.unit, rnd.wall, rnd.traced, rnd.objectives = unit, timer.wall, traced, list(recorder.objectives)
            if traced:
                rnd.layer = tracer.round_metrics(spans, timer.wall)
            ref = first.setdefault(unit, rnd)
            if (rnd.signature, rnd.objectives) != (ref.signature, ref.objectives):
                rnd.check(next(iter(rnd.ops)), ["outputs differ from an earlier round's on identical inputs"])
            rounds.append(rnd)
            # stop at the round boundary nearest to the requested length
            if len(rounds) >= min_rounds and perf_counter() - start + rnd.wall / 2 >= seconds:
                break
        while len(setup_times) < setup_reps:  # a run shorter than asked for
            repeat_set_up(workload, work / "resetup", seed, spans, setup_times, setup_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units()
    failures = [f"round {i} {op}: {msg}" for i, r in enumerate(rounds) for op in r.failed for msg in r.ops[op]]
    unit_walls = [median(r.wall for r in rounds if r.unit == u and not r.traced) for u in first]
    wall_s = float(np.mean(unit_walls))
    if trace:
        layer = _unit_mean([tracer.median_metrics([r.layer for r in rounds if r.unit == u and r.traced])
                            for u in first])
        layer.update(tracer.median_metrics(setup_layer))
        layer["trace.overhead_s"] = layer["trace.wall_s"] - wall_s
        values = dict(sorted(layer.items()))
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scored_windows_per_s": sum(r.scored for r in first.values()) / sum(unit_walls),
            "mae": float(np.mean([r.mae for r in first.values()])),
            "objective_sum": float(sum(sum(r.objectives) for r in first.values())),
        }
    metrics = {name: {"value": _finite(v), "unit": units[name]} for name, v in values.items()}
    detail = {
        "workload": workload_name, "seed": seed, "size": size, "trace": int(trace),
        "probe_s": probe_s, "setup_times_s": setup_times,
        "round_walls_s": [r.wall for r in rounds], "traced_rounds": [r.traced for r in rounds],
        "failures": failures[:20],
    }
    result = {
        "correct": all(r.check_failures == 0 for r in rounds),
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SETUP_REPS), default="full",
                        help="smoke: tiny inputs for a quick end-to-end check")
    args = parser.parse_args(argv)
    if not (SRC / "cenrank" / "__init__.py").is_file():
        print(f"bench/run.py: cenrank sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in out["detail"]["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
