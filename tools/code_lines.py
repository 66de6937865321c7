"""Count the code lines of Python source files.

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent, and is not part of a module, class or function
docstring.  A token that spans lines, such as a multi-line string, counts
every line it spans.  Blank lines, comment lines and docstrings are not
counted, so the figure moves with the code alone.

    python tools/code_lines.py src/dsmseq/solver.py [more files ...]

prints each file's count, and the total when given more than one file.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: comments, line ends, indentation and the stream's own markers
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = {name: code_lines(Path(name)) for name in argv}
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    if len(counts) > 1:
        print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
