"""Count the lines of each src/sparseconv module.

Prints each module's total lines and code lines, then the sums. A code
line is one that is not blank, not a `#` comment, and not inside the
docstring of a module, class or function (found through the AST).

    python tools/src_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparseconv"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by a module, class or function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))
    return len(lines), code


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    sums = [0, 0]
    print(f"{'module':<16} {'total':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        total, code = count(path)
        sums[0] += total
        sums[1] += code
        print(f"{path.name:<16} {total:>6} {code:>6}")
    print(f"{'sum':<16} {sums[0]:>6} {sums[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
