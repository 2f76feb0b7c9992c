"""Count the lines of the package source, raw and code-only, and its settable values.

Usage: python tools/src_lines.py [source directory, default: src]

Prints one line per Python file, then a total line, each with the raw line
count, the code-only count and the settable values. A code-only line holds
at least one token that is not a comment, a docstring or a blank line's
newline, so deleting comments and docstrings does not change it. The
settable values are the parameters with a default of the public functions
and methods (module level, or in a module-level class; a name is public
unless it starts with one underscore, so `__init__` counts) plus the
fields of public dataclasses: each is a value a caller can set, so each
is an option the tests and the benchmark may have to cover.
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


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(dec).startswith(("dataclass", "dataclasses.dataclass")) for dec in node.decorator_list)


def _defaults(node) -> int:
    """The parameters of a function that have a default."""
    return len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)


def settable(tree) -> int:
    """Parameters with a default of public functions and methods, plus fields of public dataclasses."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    total = 0
    for node in tree.body:
        if isinstance(node, functions) and _public(node.name):
            total += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, functions) and _public(item.name):
                    total += _defaults(item)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and _is_dataclass(node):
                    total += 1
    return total


def count(text: str) -> tuple[int, int, int]:
    """(raw lines, code-only lines, settable values) of one Python source text."""
    tree = ast.parse(text)
    docstrings = _docstring_starts(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code), settable(tree)


def main(argv) -> int:
    root = Path(argv[0] if argv else "src")
    totals = [0, 0, 0]
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:6d}  {path.as_posix()}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[2]:6d}  total (raw, code-only, settable values)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
