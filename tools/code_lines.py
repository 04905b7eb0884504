"""Code lines of the `mslink` package, per module and in total, so that a
claim that a change makes the package smaller is one command.

    python3 tools/code_lines.py                 # src/mslink
    python3 tools/code_lines.py path/to/pkg     # any directory of modules

A code line is a line that holds a token of Python code: blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function) are not counted.  A statement or an expression that
spans several lines counts each of them, a multi-line string that is not a
docstring included.  Each line of output is `count  module`, the modules in
name order, and the last line is `count  total`.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                      tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
                      tokenize.ENCODING})


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", nargs="?", type=Path,
                    default=ROOT / "src" / "mslink",
                    help="directory of modules (default src/mslink)")
    args = ap.parse_args(argv)
    modules = sorted(args.package.glob("*.py"))
    if not modules:
        ap.error(f"{args.package}: no Python modules")
    total = 0
    for path in modules:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
