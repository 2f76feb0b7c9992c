"""Fingerprint the outputs of a fixed set of cenrank commands.

Usage: python tools/output_fingerprint.py <checkout> <workdir>

Runs every command of a fixed set with the package under <checkout>/src,
each writing into its own directory under <workdir> (which must not exist
yet), and prints one line per command with its exit code and the sha256 of
its standard output, then one line per output file with its sha256.
`effective_config.json` is skipped because it records the paths of the
run. Besides the synthetic cohorts, which all start on day 1 with no gaps,
the script writes one hand-made cohort with later first days, gap days,
rows after onset and ids that need quoting, and runs `impute`, `train`,
`predict` and `cv` on it. The `synth` commands, the hand-made cohort's
commands and the `predict` without an imputer model (which must exit 2)
are checked against their expected exit codes; the script exits 1 when
one differs. Two checkouts produce the same outputs
when their printouts are equal:

    python tools/output_fingerprint.py old/ /tmp/fp-old > old.txt
    python tools/output_fingerprint.py new/ /tmp/fp-new > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

IMPUTERS = ("bmc", "mean", "knn")
METHODS = ("censored_lowrank", "ols", "svr")
SKIPPED = {"effective_config.json"}
HAND_IDS = ["plain", "with,comma", 'with"quote', "Zürich-Ω", " padded ", "multi\nline"]


def write_hand_cohort(out: Path, n_subjects=30, variables=("hr", "temp", "wbc", "crp")):
    """Write a fixed cohort that no `synth` run makes, drawn with random.Random(0) to three decimals.

    Subjects start on days 1-4 and span D = 6-12 days, with one day from
    the third on unrecorded and 15% of the other cells missing. Every
    second subject has an event 4 to D + 1 days after its first observed
    day, so some are observed after onset; the others are event-free
    through their last observed day, or one day more.
    """
    rng = random.Random(0)
    out.mkdir()
    (out / "variables.txt").write_text("".join(v + "\n" for v in variables), encoding="utf-8")
    observations, outcomes = [], []
    for i in range(n_subjects):
        sid = f"{HAND_IDS[i % len(HAND_IDS)]}{i}"
        first, D = rng.randint(1, 4), rng.randint(6, 12)
        gap = first + rng.randint(2, D - 2)
        level = [rng.gauss(0, 1) for _ in variables]
        for day in range(first, first + D):
            for name, mean in zip(variables, level):
                if day != gap and rng.random() >= 0.15:
                    observations.append([sid, day, name, f"{mean + rng.gauss(0, 0.5):.3f}"])
        days = [row[1] for row in observations if row[0] == sid]
        if i % 2:
            outcomes.append([sid, 1, min(days) + rng.randint(4, D + 1), ""])
        else:
            outcomes.append([sid, 0, "", max(days) + rng.randint(0, 1)])
    rng.shuffle(observations)
    for name, header, rows in (("observations.csv", ["subject_id", "day", "variable", "value"], observations),
                               ("outcomes.csv", ["subject_id", "ssi", "onset_day", "last_obs_day"], outcomes)):
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _cohort(name):
    return ["--observations", f"{name}/observations.csv", "--outcomes", f"{name}/outcomes.csv",
            "--dictionary", f"{name}/variables.txt"]


def commands():
    """(output directory, arguments, expected exit code or None) for each command, in run order.

    Two cohorts are drawn; every other command runs once per cohort, and
    `predict` scores the other cohort with the models trained on this one.
    Last, a third cohort with whole-day onsets runs `train`, `predict` and
    `cv` with strides above 1 and a non-default horizon.
    """
    seeds = (0, 3)
    for seed in seeds:
        yield f"synth{seed}", ["synth", "--seed", str(seed), "--n-subjects", "120", "--days-per-subject", "10",
                               "--latent-rank", "8", "--missing-rate", "0.2"], 0
    for seed, other in zip(seeds, reversed(seeds)):
        cohort, fresh = _cohort(f"synth{seed}"), _cohort(f"synth{other}")
        for imputer in IMPUTERS:
            yield f"s{seed}_impute_{imputer}", ["impute", *cohort, "--imputer", imputer], None
        for imputer in IMPUTERS:
            for method in METHODS:
                train = f"s{seed}_train_{imputer}_{method}"
                yield train, ["train", *cohort, "--T", "4", "--imputer", imputer, "--method", method], None
                yield f"s{seed}_predict_{imputer}_{method}", [
                    "predict", *fresh, "--model", f"{train}/model.json",
                    "--imputer-model", f"{train}/imputer_model.json"], None
        yield f"s{seed}_cv_bmc", ["cv", *cohort, "--methods", ",".join(METHODS), "--durations", "3,4",
                                  "--ranks", "2,3"], None
        yield f"s{seed}_cv_knn_subject", ["cv", *cohort, "--imputer", "knn", "--split-unit", "subject",
                                          "--durations", "4"], None
        yield f"s{seed}_predict_unimputed", ["predict", *fresh, "--model",
                                             f"s{seed}_train_bmc_censored_lowrank/model.json"], 2
    rounded = _cohort("synth_round")
    yield "synth_round", ["synth", "--seed", "5", "--n-subjects", "120", "--days-per-subject", "10",
                          "--latent-rank", "8", "--missing-rate", "0.2", "--round-onsets"], 0
    yield "round_train_stride2", ["train", *rounded, "--T", "4", "--stride", "2", "--horizon", "12"], None
    yield "round_predict_stride3", ["predict", *rounded, "--stride", "3", "--model", "round_train_stride2/model.json",
                                    "--imputer-model", "round_train_stride2/imputer_model.json"], None
    yield "round_cv_stride2", ["cv", *rounded, "--stride", "2", "--durations", "3",
                               "--methods", "censored_lowrank"], None
    hand = _cohort("hand")
    for imputer in ("bmc", "mean"):
        yield f"hand_impute_{imputer}", ["impute", *hand, "--imputer", imputer], 0
    yield "hand_train", ["train", *hand, "--T", "3"], 0
    yield "hand_predict", ["predict", *hand, "--model", "hand_train/model.json",
                           "--imputer-model", "hand_train/imputer_model.json"], 0
    yield "hand_cv", ["cv", *hand, "--durations", "3", "--k", "3", "--methods", ",".join(METHODS)], 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    checkout, work = Path(argv[0]).resolve(), Path(argv[1])
    work.mkdir(parents=True)
    write_hand_cohort(work / "hand")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    unexpected = 0
    for out, args, expected in commands():
        run = subprocess.run([sys.executable, "-m", "cenrank.cli", *args, "--out", out],
                             cwd=work, env=env, capture_output=True, check=False)
        print(f"{out}: exit {run.returncode} stdout {_sha256(run.stdout)}")
        if expected is not None and run.returncode != expected:
            print(f"  expected exit {expected}: {run.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            unexpected += 1
        for path in sorted((work / out).rglob("*")):
            if path.is_file() and path.name not in SKIPPED:
                print(f"  {_sha256(path.read_bytes())}  {path.relative_to(work).as_posix()}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
