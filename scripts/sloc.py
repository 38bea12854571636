#!/usr/bin/env python3
"""Lines of code of each ``src/mcrefine`` module, and their total.

    python3 scripts/sloc.py [TREE]

TREE is a checkout of this repository and defaults to the one holding this
script.  A line counts when it holds part of a statement: blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function) do not.  A line that holds code and a trailing comment
counts once.  Uses the standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by every docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def lines_of_code(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(code)


def main(argv: list) -> int:
    tree = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1]
    modules = sorted((tree / "src" / "mcrefine").glob("*.py"))
    if not modules:
        print(f"no modules under {tree / 'src' / 'mcrefine'}",
              file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = lines_of_code(path.read_text())
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
