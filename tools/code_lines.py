"""Count code lines per module of a Python package.

    python3 tools/code_lines.py [PATH ...]

A code line is a line that is not blank, not inside a docstring (the
string that opens a module, class or function body) and not a comment on
its own. Each PATH is a .py file or a directory, whose .py files are
counted (not its subdirectories); the default is src/mrank next to this
script. Prints one line per file, "name lines", then the total.
"""

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "mrank"


def docstring_lines(tree) -> set:
    """Line numbers (1-based) covered by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)] or [DEFAULT]
    files = []
    for p in paths:
        files += sorted(p.glob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{f.name} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
