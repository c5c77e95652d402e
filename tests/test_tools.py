"""tools/code_lines.py, the rule behind the code-line figures of ROADMAP.md
and CHANGES.md, pinned on a module written for the purpose."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

# The code lines are marked "# +1" (a line of the three-line string, "# +3",
# where it starts); every other line is a docstring, a comment or blank.
MODULE = '''"""A module docstring,
over two lines."""

# a comment
import os  # +1


class Thing:  # +1
    """A class docstring."""

    size = 1  # +1

    def method(self):  # +1
        """A method docstring,
        over two lines."""
        # a comment in a body
        text = """a multi-line string  # +3
that is not
a docstring"""
        return text  # +1


def function():  # +1
    """A function docstring."""
    x = os.sep  # +1
    """A string statement that is not first in its scope."""  # +1
    return x  # +1
'''


def test_code_lines_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    """The module holds 12 code lines: a multi-line string that is not a
    docstring counts each line it spans, and a string statement that is not
    first in its scope counts.  A directory run prints each module and the
    total."""
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 12
    assert sum(int(line.rsplit("# +", 1)[1]) for line in MODULE.splitlines()
               if "# +" in line) == 12
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py", "    12  sample.py", "    12  total"]


def test_default_run_prints_a_total_equal_to_the_sum_of_its_modules(capsys):
    """With no argument the script counts the package's modules, one line
    each, and a total that is their sum."""
    code_lines.main([])
    lines = capsys.readouterr().out.splitlines()
    counts = [line.split() for line in lines]
    assert counts[-1][1] == "total" and len(counts) > 2
    assert {name for _, name in counts[:-1]} == {
        path.name for path in (ROOT / "src" / "butterflyseq").glob("*.py")}
    assert int(counts[-1][0]) == sum(int(n) for n, _ in counts[:-1])
