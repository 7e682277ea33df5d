"""The package imports only the standard library and itself, layer by layer."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ncauth
import ncauth.cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ncauth").glob("*.py"))
PYTHON_FLOOR = (3, 10)  # the oldest Python pyproject.toml declares
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_at_the_declared_python_floor(path):
    # syntax newer than the floor (except*, type aliases, PEP 695 generics) fails here
    assert 'requires-python = ">=%d.%d"' % PYTHON_FLOOR in (ROOT / "pyproject.toml").read_text()
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=PYTHON_FLOOR)


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


# The sweep row stays a dataclass because the benchmark digests each one with
# dataclasses.asdict; every other record, the recovery records it is built
# from included, is a namedtuple.  A frozen dataclass costs about 0.5 ms to
# create in a fresh Python 3.11 interpreter against 0.07 ms for a namedtuple
# (medians of 21 fresh runs), and `import ncauth` would pay that for every
# record at each command-line start.  The sweep row itself, with the
# dataclasses module, is built at its first use (`cli._sweep_row`).
DIGESTED_DATACLASSES = {"SweepRow"}


def test_only_the_digested_sweep_records_are_dataclasses():
    ncauth.cli.SweepRow  # built on first access, whatever ran before
    found = set()
    for path in SOURCES:
        name = "ncauth" if path.stem == "__init__" else f"ncauth.{path.stem}"
        module = importlib.import_module(name)
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == name:
                if "__dataclass_fields__" in vars(cls):  # declared here, not inherited
                    found.add(cls_name)
    assert found == DIGESTED_DATACLASSES


def test_only_the_sweep_row_module_imports_dataclasses():
    importers = {path.name for path in SOURCES if "dataclasses" in imported_modules(path)}
    assert importers == {"cli.py"}


def test_sweep_row_is_built_once_on_first_access():
    row = ncauth.lemma_sweep([2], [1], [2], [1], [1], reps=1).rows[0]
    assert ncauth.SweepRow is ncauth.cli.SweepRow is ncauth.SweepRow is ncauth.cli.SweepRow
    assert type(row) is ncauth.SweepRow
    assert dataclasses.is_dataclass(row)
    names = [*ncauth.RecoveryResult._fields, "edge_counts", "seed"]
    assert [f.name for f in dataclasses.fields(row)] == list(dataclasses.asdict(row)) == names
    for module in (ncauth, ncauth.cli):
        with pytest.raises(AttributeError):
            module.nope


# What `import ncauth` loads beyond the package itself, taken exactly: a new
# module at import, such as `array`, costs every command-line start and the
# benchmark's `setup_s`, and fails here.  The stdlib modules the package
# imports by name, which an interpreter's `site` may already hold, are
# loaded before the count, so the set does not depend on the interpreter.
IMPORT_LOADS = {"__future__", "graphlib"}
PRELOADED = ("collections", "functools", "itertools", "operator", "random", "types")


def test_import_ncauth_leaves_the_command_line_modules_unloaded():
    # argparse and json serve only the command line, which imports them on
    # first use, and dataclasses (with the inspect, ast, dis and tokenize it
    # loads) only the sweep row, built at its first use; the modules `site`
    # loads at start-up are taken out first.
    code = (
        "import sys\n"
        f"import {', '.join(PRELOADED)}\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import ncauth\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    res = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(res.stdout.split())
    assert "ncauth.cli" in loaded
    assert loaded & {"argparse", "json"} == set()
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
    assert {m for m in loaded if m.partition(".")[0] != "ncauth"} == IMPORT_LOADS


def test_byte_tables_wait_for_the_first_elimination():
    # The GF(2^8) multiplication tables (64 KiB) serve elimination only, so
    # building a field or a packing, as the benchmark's set-up does, must
    # not build them; the first rank over the field does.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import ncauth\n"
        "from ncauth.field import _byte_tables, packing\n"
        "F = ncauth.Field(2, 8)\n"
        "packing(F, 5)\n"
        "print(_byte_tables.cache_info().currsize)\n"
        "ncauth.Matrix(F, [[F([0, 1] + [0] * 6)] * 5]).rank()\n"
        "print(_byte_tables.cache_info().currsize)\n"
    )
    res = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert res.stdout.split() == ["0", "1"]


def test_draw_tables_wait_for_the_first_key():
    # A key's block draws translate through one table per q, built on the
    # first keygen over that q: not at import, and not with the field,
    # which the benchmark's set-up builds.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import ncauth\n"
        "from ncauth.field import _draw_table\n"
        "F = ncauth.Field(2, 8)\n"
        "print(_draw_table.cache_info().currsize)\n"
        "params = ncauth.SystemParams(F, 3, 2, 1, 1, (F.one,))\n"
        "ncauth.keygen(params, 1)\n"
        "print(_draw_table.cache_info().currsize)\n"
        "ncauth.keygen(params, 2)\n"
        "print(_draw_table.cache_info().currsize)\n"
    )
    res = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert res.stdout.split() == ["0", "1", "1"]
