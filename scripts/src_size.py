#!/usr/bin/env python3
"""Size of the package source, per module and in total.

    PYTHONPATH=src python3 scripts/src_size.py

Prints one tab-separated row per module of ``fockbridge`` and a total row:
its lines as ``wc -l`` counts them, its code lines (lines that hold a token
other than a comment, with docstrings and blank lines left out) and its AST
nodes (every node ``ast.walk`` visits).  Joining lines moves only the first
count; the other two measure the logic.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

import fockbridge

PACKAGE = Path(fockbridge.__file__).parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(source: str) -> tuple[int, int, int]:
    """(lines, code lines, AST nodes) of one module's source."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(tree)), sum(1 for _ in ast.walk(tree))


def main() -> int:
    print("module\tlines\tcode lines\tAST nodes")
    total = [0, 0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        sizes = measure(path.read_text(encoding="utf-8"))
        total = [t + s for t, s in zip(total, sizes)]
        print("\t".join([path.stem, *map(str, sizes)]))
    print("\t".join(["total", *map(str, total)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
