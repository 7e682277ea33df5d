"""The one int rule has one owner: ``field._check_int`` alone words its two refusals."""

import ast
from pathlib import Path

import pytest

import ncauth
import ncauth.cli

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncauth").glob("*.py"))
FRAGMENTS = ("must be an int, got", "must be at least")


def string_owners(fragment):
    """(module, enclosing function) of every string literal in the package that holds `fragment`.

    An f-string's literal parts are string constants too, so a formatted
    message is found by its fixed words.
    """
    owners = []
    for path in SOURCES:
        scope = []

        def visit(node):
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named:
                scope.append(node.name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and fragment in node.value:
                owners.append((path.stem, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if named:
                scope.pop()

        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return owners


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_only_the_int_rule_words_its_refusals(fragment):
    # TaggedPacket's "must be an int in [0, 2^...)" names a bit range: another fragment
    assert string_owners(fragment) == [("field", "_check_int")]


def test_the_int_rule_is_private_and_has_no_copies():
    assert not hasattr(ncauth.cli, "_check_guard")
    assert not hasattr(ncauth, "_check_int")

