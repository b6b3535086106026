"""Line counts of fdprof's modules.

    python3 tools/lines.py [TREE]

prints, for each module of TREE/src/fdprof (TREE defaults to this
checkout), its `wc -l` count and its code lines, then the totals.  A code
line is one that is not blank, not a comment and not part of a docstring
(the first statement of a module, class or function, when it is a string).
"""
from __future__ import annotations

import ast
import os
import sys


def counts(path: str) -> tuple[int, int]:
    """(wc -l, code lines) of one Python file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return text.count("\n"), code


def main(argv: list[str]) -> int:
    tree = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(
        os.path.abspath(__file__)), os.pardir)
    src = os.path.join(tree, "src", "fdprof")
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        wc, code = counts(os.path.join(src, name))
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{name:<16}{wc:>8,}{code:>8,}")
    print(f"{'total':<16}{total_wc:>8,}{total_code:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
