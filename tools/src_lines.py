"""Count the lines of the package source, raw and code-only.

Usage: python tools/src_lines.py [source directory, default: src]

Prints one line per Python file, then a total line, each with the raw line
count and the code-only count. A code-only line holds at least one token
that is not a comment, a docstring or a blank line's newline, so deleting
comments and docstrings does not change it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set[tuple[int, int]]:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """(raw lines, code-only lines) of one Python source text."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv) -> int:
    root = Path(argv[0] if argv else "src")
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{raw:6d} {code:6d}  {path.as_posix()}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code-only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
