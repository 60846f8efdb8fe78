"""Count code lines per module: python tools/code_lines.py <dir>

A line counts when it holds a token that is not a comment, a newline, an
indent or a dedent, and is not part of a docstring.  A string that is a
whole expression statement counts as a docstring.  A token that spans
several lines (a multi-line string) counts on each of them.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = [((n.lineno, n.col_offset), (n.end_lineno, n.end_col_offset))
                  for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
                  and isinstance(n.value.value, str)]
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py <dir>", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(pathlib.Path(argv[0]).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
