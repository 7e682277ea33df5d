"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncauth").glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_ncauth(path):
    tops = {name.partition(".")[0] for name in imported_modules(path)}
    assert tops - sys.stdlib_module_names - {"ncauth"} == set()


def test_sources_found():
    assert {"field.py", "cli.py"} <= {p.name for p in SOURCES}
