#!/usr/bin/env python3
"""Run two sets of benchmark runs of one checkout and compare them.

    python3 bench/compare.py --runs 10
    python3 bench/compare.py --runs 5 --sets 1 --workloads train_predict

Each pass runs every workload once per set, alternating which set goes
first, so a drift of the machine lands on both sets alike. Set A uses seeds
0..runs-1 and set B the next `runs` seeds. For every end-to-end metric the
report gives each set's median and quartiles, the spread (interquartile
distance over the median) and whether the sets agree within the bound in
BENCHMARK.json: each spread within the bound, B's median no worse than
A's by more than the bound, and the same share of failed operations. Runs
last BENCHMARK.json's `run_seconds`. It also reports the median time of the fixed numpy loop
each run records, which moves only with the machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds) -> dict:
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def compare(runs_a: list[dict], runs_b: list[dict], bounds: dict) -> dict:
    """Per metric: both sets' summaries, B's change in the worse direction, agreement."""
    out = {}
    for name, (bound, better) in bounds.items():
        a = summarize([r["result"]["metrics"][name]["value"] for r in runs_a])
        row = {"A": a, "bound": bound}
        if runs_b:
            b = summarize([r["result"]["metrics"][name]["value"] for r in runs_b])
            worse = (b["median"] - a["median"]) / abs(a["median"]) * (1 if better == "lower" else -1)
            row.update(B=b, worse_by=worse, agree=worse <= bound and max(a["spread"], b["spread"]) <= bound)
        else:
            row["agree"] = a["spread"] <= bound
        out[name] = row
    return out


def failed_share(runs: list[dict]) -> list[float]:
    return sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    sets = "AB"[:args.sets]
    runs = {w: {s: [] for s in sets} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s in (sets if i % 2 == 0 else sets[::-1]):
                seed = i + (args.runs if s == "B" else 0)
                r = run_once(spec["command"], w, seed, spec["run_seconds"])
                runs[w][s].append(r)
                res = r["result"]
                print(f"pass {i} {w:14s} set {s} seed {seed:3d}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} probe={r['detail']['probe_s']:.4f} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    for w in workloads:
        a, b = runs[w]["A"], runs[w].get("B", [])
        table = compare(a, b, bounds)
        shares = [failed_share(a)] + ([failed_share(b)] if b else [])
        same_share = all(len(s) == 1 for s in shares) and len({s[0] for s in shares}) == 1
        correct = all(r["result"]["correct"] for r in a + b)
        probe = {s: median(r["detail"]["probe_s"] for r in runs[w][s]) for s in sets}
        print(f"\n{w}: correct={correct} failed share {shares} numpy-loop median "
              + " ".join(f"{s}={v:.4f}s" for s, v in probe.items()))
        for name, row in table.items():
            cells = " | ".join(f"{s} {row[s]['median']:.5g} [{row[s]['q1']:.5g}, {row[s]['q3']:.5g}] "
                               f"spread {row[s]['spread']:.3f}" for s in sets)
            extra = f" | B worse by {row['worse_by']:+.3f}" if "worse_by" in row else ""
            print(f"  {name:22s} {cells}{extra} | bound {row['bound']} | {'agree' if row['agree'] else 'DISAGREE'}")
            ok &= row["agree"]
        ok &= same_share and correct
    print("\nall metrics agree within their bounds" if ok else "\nsome metrics do not agree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
