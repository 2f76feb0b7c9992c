"""Print `load_cohort` throughput, in observation rows per second, on synthetic cohorts of three sizes.

Usage: python tools/load_throughput.py [checkout]

Writes `cenrank synth --latent-rank 8` cohorts of 100, 400 and 4,000
subjects by 10 days (about 9k, 36k and 360k observation rows) with the
package under <checkout>/src (default: this repository) into a temporary
directory, and loads each twice over: as written, and with the last
observation row's subject id quoted. A file with no `"`, CR, NUL, blank
line or line over the csv module's field size limit is split with `str`
methods, and a quoted field sends it to `csv.reader`, so the two columns
time both tokenizers on the same records. Each figure is the median of
repeated loads, with the garbage collector left on as in a CLI run, and
the range over those loads. Compare two checkouts by running it on each:

    python tools/load_throughput.py old/
    python tools/load_throughput.py new/
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = ((100, 9), (400, 9), (4000, 5))  # (subjects, loads per file); 10 days per subject


def _loads(load_cohort, cohort: Path, repeats: int) -> tuple[int, list[float]]:
    """The observation rows of the cohort, and the seconds each of `repeats` loads took."""
    paths = [cohort / name for name in ("observations.csv", "outcomes.csv", "variables.txt")]
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        loaded = load_cohort(*paths)
        seconds.append(time.perf_counter() - start)
    return int(np.count_nonzero(~np.isnan(loaded.days))), seconds


def _quote_last_id(cohort: Path):
    """Quote the subject id of the last observation row; csv.reader reads the same records back."""
    path = cohort / "observations.csv"
    head, last = path.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)
    sid, rest = last.split(",", 1)
    path.write_text(f'{head}\n"{sid}",{rest}\n', encoding="utf-8")


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    sys.path.insert(0, str(checkout / "src"))
    from cenrank.cli import dispatch
    from cenrank.cohort import load_cohort

    print(f"{'rows':>8} {'subjects':>8}  {'plain rows/s (range)':>28}  {'one quoted id rows/s (range)':>28}")
    with tempfile.TemporaryDirectory() as tmp:
        for n_subjects, repeats in SIZES:
            cohort = Path(tmp) / str(n_subjects)
            with contextlib.redirect_stdout(io.StringIO()):
                code = dispatch(["synth", "--out", str(cohort), "--seed", "0", "--n-subjects", str(n_subjects),
                                 "--days-per-subject", "10", "--latent-rank", "8"])
            if code:
                return code
            cells = []
            for variant in ("plain", "quoted"):
                if variant == "quoted":
                    _quote_last_id(cohort)
                rows, seconds = _loads(load_cohort, cohort, repeats)
                rates = sorted(rows / s for s in seconds)
                cells.append(f"{statistics.median(rates):>10,.0f} ({rates[0]:>7,.0f}-{rates[-1]:>7,.0f})")
            print(f"{rows:>8,} {n_subjects:>8,}  {cells[0]:>28}  {cells[1]:>28}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
