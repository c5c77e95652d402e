"""Print the code lines of each module of src/butterflyseq and their total.

A line counts when it holds a token that is neither a comment nor part of a
docstring.  A docstring is a string statement that comes first in a
module, class or function.  A token that spans several lines (a multi-line
string that is not a docstring) counts each line it spans.  Blank lines,
comments and docstrings count nothing.

    python tools/code_lines.py [DIRECTORY]

The package does not import this script; it reads the sources as text.
"""

import ast
import pathlib
import sys
import tokenize

DEFAULT = pathlib.Path(__file__).resolve().parent.parent / "src" / "butterflyseq"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(source):
    """The (row, column) at which each docstring statement starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    with open(path, "rb") as f:
        source = f.read()
    starts = docstring_starts(source)
    lines, in_docstring = set(), False
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.start in starts:
                in_docstring = True
            if tok.type == tokenize.NEWLINE:
                in_docstring = False  # a docstring statement ends at its logical line
            elif not in_docstring and tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = pathlib.Path(argv[0]) if argv else DEFAULT
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
