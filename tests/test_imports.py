"""The package imports only the standard library and itself, layer by layer."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncauth").glob("*.py"))
# each module may import only those before it; __init__ and __main__ are the package's front
LAYERS = ("field", "linalg", "scheme", "netsim", "attacks", "cli")


def imported_modules(path):
    """Every module `path` imports; `from .x import y` is named `ncauth.x`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):  # from .x import y, or from . import x
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from (f"ncauth.{name}" for name in names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_ncauth(path):
    tops = {name.partition(".")[0] for name in imported_modules(path)}
    assert tops - sys.stdlib_module_names - {"ncauth"} == set()


def test_sources_found():
    assert {"field.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem not in ("__init__", "__main__")], ids=lambda p: p.name
)
def test_modules_import_only_earlier_layers(path):
    earlier = LAYERS[: LAYERS.index(path.stem)]  # a module missing from LAYERS fails here
    package = set()
    for name in imported_modules(path):
        top, _, module = name.partition(".")
        if top == "ncauth":
            package.add(module)  # `import ncauth` adds "", which no layer allows
    assert package <= set(earlier)


# Sweep rows stay dataclasses because the benchmark digests each one with
# dataclasses.asdict; every other record is a namedtuple.  A frozen dataclass
# costs about 0.5 ms to create in a fresh Python 3.11 interpreter against
# 0.07 ms for a namedtuple (medians of 21 fresh runs), and `import ncauth`
# pays that for every record at each command-line start.
DIGESTED_DATACLASSES = {"RecoveryMeta", "RecoveryResult", "SweepRow"}


def test_only_the_digested_sweep_records_are_dataclasses():
    found = set()
    for path in SOURCES:
        name = "ncauth" if path.stem == "__init__" else f"ncauth.{path.stem}"
        module = importlib.import_module(name)
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == name:
                if "__dataclass_fields__" in vars(cls):  # declared here, not inherited
                    found.add(cls_name)
    assert found == DIGESTED_DATACLASSES
