"""Code lines of the package under src/, one line per module and a total.

    python bench/src_lines.py

A code line is a line that holds part of a Python token other than a
comment, a docstring or the layout tokens (newlines, indentation). Blank
lines, comment lines and docstring lines do not count; a line of code with
a trailing comment counts once. A docstring is the string-constant
expression that opens a module, class or function body (ast). A string
token that spans several lines counts each of them.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module's syntax tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of one module's source text."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
