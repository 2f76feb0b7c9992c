"""Compare two fingerprint work directories number by number.

Usage: python tools/output_diff.py <workdir A> <workdir B>

Both directories are written by tools/output_fingerprint.py. The script
compares each command's exit code and standard output (from runs.json)
and each output file but effective_config.json. It prints one line per
printout or file that differs, with its largest relative numeric change
|a - b| / max(|a|, |b|) over the numbers in its text, or "text differs"
when the text around the numbers differs, or "only in A" / "only in B".
The last two lines say whether any exit code differs and whether any
`is_best` cell of a grid.csv differs. Exits 1 when anything differs.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from pathlib import Path

from output_fingerprint import SKIPPED

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_change(a: str, b: str) -> float | None:
    """The largest relative change between the numbers of a and b, or None when the text around them differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def is_best(text: str) -> list[str]:
    return [row["is_best"] for row in csv.DictReader(io.StringIO(text))]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    a, b = map(Path, argv)
    runs_a, runs_b = (json.loads((d / "runs.json").read_text(encoding="utf-8")) for d in (a, b))
    texts_a, texts_b = ({f"{out} stdout": run["stdout"] for out, run in runs.items()} for runs in (runs_a, runs_b))
    for d, texts in ((a, texts_a), (b, texts_b)):
        for out in runs_a.keys() | runs_b.keys():
            for path in sorted((d / out).rglob("*")):
                if path.is_file() and path.name not in SKIPPED:
                    texts[path.relative_to(d).as_posix()] = path.read_text(encoding="utf-8", errors="replace")
    differs = False
    exits = sorted(out for out in runs_a.keys() | runs_b.keys()
                   if runs_a.get(out, {}).get("exit") != runs_b.get(out, {}).get("exit"))
    best = []
    for name in sorted(texts_a.keys() | texts_b.keys()):
        if texts_a.get(name) == texts_b.get(name):
            continue
        differs = True
        if name not in texts_b or name not in texts_a:
            print(f"{name}: only in {'A' if name in texts_a else 'B'}")
            continue
        change = largest_change(texts_a[name], texts_b[name])
        print(f"{name}: " + ("text differs" if change is None else f"largest relative change {change:.3g}"))
        if name.endswith("grid.csv") and is_best(texts_a[name]) != is_best(texts_b[name]):
            best.append(name)
    print("exit codes: " + (f"differ in {', '.join(exits)}" if exits else "all equal"))
    print("is_best: " + (f"differs in {', '.join(best)}" if best else "all equal"))
    return 1 if differs or exits else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
