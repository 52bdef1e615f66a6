"""Count the code lines of each Python module in a directory.

A code line holds a token outside docstrings, comments and blank lines; a
statement over three lines counts three, a docstring none.  A docstring is
the string that opens a module, class or function body.

    python3 tools/code_lines.py [DIR]

prints one line per module, its count and its name, and then the total.
DIR defaults to the package source, src/jfkernel.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that a code token starts, ends or
    spans, docstrings left out."""
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "jfkernel"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
