"""Count the code lines of Python sources.

A code line is a physical line that holds at least one token other than a
comment, a newline or indentation, where docstrings (a string expression
standing as the first statement of a module, class or function) do not
count.  Blank lines, comment-only lines and docstring lines are left out;
a statement that spans several lines counts each of them.

    python3 tools/code_lines.py src/gridest

prints one line per file, "code physical path", then the totals.  Paths
may be files or directories, searched for *.py.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one Python source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docstrings)
    return len(code), len(source.splitlines())


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path("src/gridest")]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total_code = total_physical = 0
    for f in files:
        code, physical = count(f.read_text())
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d} {f}")
    print(f"{total_code:6d} {total_physical:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
