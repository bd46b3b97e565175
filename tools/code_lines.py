"""Count total and code lines of Python modules.

Code lines are the lines outside docstring spans (as ``ast`` reports them),
outside comment-only lines (as ``tokenize`` reports them) and not blank.
Standard library only.  Usage, from the repository root::

    python3 tools/code_lines.py                  # every module in src/drbayes
    python3 tools/code_lines.py path/to/a.py ...
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "drbayes"
# Tokens that carry no code of their own.
_LAYOUT_TOKENS = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree):
    """Line numbers spanned by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _comment_only_lines(source):
    """Line numbers that hold a comment and no code token."""
    comments, code = set(), set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT_TOKENS:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return comments - code


def count(path):
    """``(total, code)`` line counts of the Python file ``path``."""
    source = Path(path).read_text()
    lines = source.splitlines()
    skip = _docstring_lines(ast.parse(source)) | _comment_only_lines(source)
    code = sum(1 for i, line in enumerate(lines, start=1) if line.strip() and i not in skip)
    return len(lines), code


def main(argv):
    paths = [Path(p) for p in argv] or sorted(DEFAULT_DIR.glob("*.py"))
    totals = [0, 0]
    print(f"{'module':<24}{'total':>7}{'code':>7}")
    for path in paths:
        total, code = count(path)
        totals[0] += total
        totals[1] += code
        print(f"{path.stem:<24}{total:>7}{code:>7}")
    print(f"{'all':<24}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
