"""The package is stdlib-only at runtime: every import in its modules is
relative or names a module of the standard library."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "butterflyseq"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_modules(path):
    """(line, top-level module name) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_relative_or_stdlib(path):
    outside = [(line, name) for line, name in imported_modules(path)
               if name not in sys.stdlib_module_names]
    assert outside == [], path.name
