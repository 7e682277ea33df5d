"""Golden cases: the command lines whose output `tests/golden/` pins byte for byte.

Standard library only, so any interpreter can check the goldens without
pytest.  From the repository root,

    PYTHONPATH=src python tests/golden_cases.py

runs every case, names each one whose output drifted from its file, and
exits 1 if any did, 0 otherwise.  Under each `drifted: NAME` line on
standard error it says what changed, the file being the old side.  For a
JSON report, it lists the paths added, removed and changed
(`$.decodes.t1.ok`, `$.attack.coeffs[1]`), with old -> new for a changed
value.  For the sweep TSV, it lists the columns added or removed, the cells
changed by row and column (`row[3].gauss`, rows counted from 0 below the
header), and the summary fields changed (`summary.checked`).  When neither
finds a difference, as with whitespace, it gives the first differing line.  `tests/test_golden.py` runs the same
cases under pytest and regenerates the files.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

from ncauth.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SHOWN = 20  # changes printed per drifted case; the rest are counted
WIDTH = 40  # characters of a value shown before it is cut

# config file -> the subcommand that runs it
CONFIG_COMMANDS = {
    "butterfly_honest": "simulate",
    "butterfly_pollute": "pollute",
    "forge_target": "forge",
    "inline_topology": "simulate",
    "line_recover": "recover",
}

CASES = {
    **{
        f"{name}.{cmd}.json": [cmd, "--config", str(ROOT / "configs" / f"{name}.json")]
        for name, cmd in CONFIG_COMMANDS.items()
    },
    "butterfly_honest.keygen.json": [
        "keygen", "--config", str(ROOT / "configs" / "butterfly_honest.json")
    ],
    "lemma_sweep.default.tsv": ["lemma-sweep"],
}


def run_cli(argv) -> str:
    """The standard output of one command line, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"ncauth {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= WIDTH else text[: WIDTH - 3] + "..."


def _members(value) -> dict:
    if isinstance(value, dict):
        return {f".{key}": v for key, v in value.items()}
    return {f"[{i}]": v for i, v in enumerate(value)}


def _json_diff(old, new, path: str = "$") -> list[str]:
    """One line per path below `path` that was added, removed or changed."""
    if type(old) is type(new) and isinstance(old, (dict, list)):
        a, b = _members(old), _members(new)
        lines = []
        for key in {**a, **b}:
            if key not in b:
                lines.append(f"removed {path}{key}: {_short(a[key])}")
            elif key not in a:
                lines.append(f"added {path}{key}: {_short(b[key])}")
            else:
                lines += _json_diff(a[key], b[key], path + key)
        return lines
    if type(old) is type(new) and old == new:  # type first: true == 1 and 1 == 1.0
        return []
    return [f"changed {path}: {_short(old)} -> {_short(new)}"]


def _sweep(text: str):
    """A sweep TSV's columns, its rows as {column: cell} and its summary fields."""
    header, *lines = text.splitlines() or [""]
    columns = header.split("\t")
    rows = [dict(zip(columns, line.split("\t"))) for line in lines if not line.startswith("#")]
    fields = (part.partition("=") for line in lines if line.startswith("#") for part in line[1:].split())
    return columns, rows, {key: value for key, _, value in fields}


def _tsv_diff(old: str, new: str) -> list[str]:
    (cols_a, rows_a, sum_a), (cols_b, rows_b, sum_b) = _sweep(old), _sweep(new)
    lines = [f"removed column {c}" for c in cols_a if c not in cols_b]
    lines += [f"added column {c}" for c in cols_b if c not in cols_a]
    shared = [c for c in cols_a if c in cols_b]
    rows_a, rows_b = ([{c: r[c] for c in shared if c in r} for r in rows] for rows in (rows_a, rows_b))
    return lines + _json_diff(rows_a, rows_b, "row") + _json_diff(sum_a, sum_b, "summary")


def _first_line_diff(old: str, new: str) -> list[str]:
    a, b = old.splitlines(keepends=True), new.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    shown = [repr(lines[i][:WIDTH]) if i < len(lines) else "end of file" for lines in (a, b)]
    return [f"line {i + 1}: {shown[0]} -> {shown[1]}"]


def describe(name: str, old: str, new: str) -> list[str]:
    """What differs between the golden text `old` of case `name` and its output `new`."""
    lines = []
    if name.endswith(".tsv"):
        lines = _tsv_diff(old, new)
    elif name.endswith(".json"):
        try:
            lines = _json_diff(json.loads(old), json.loads(new))
        except ValueError:  # a golden that is not JSON is compared by its lines
            pass
    return lines or _first_line_diff(old, new)


def drifted(golden: Path = GOLDEN) -> dict[str, list[str]]:
    """Each case whose output differs from its file under `golden`, with what changed."""
    changes = {}
    for name, argv in CASES.items():
        old, new = (golden / name).read_text(encoding="utf-8"), run_cli(argv)
        if new != old:
            changes[name] = describe(name, old, new)
    return changes


def check(golden: Path = GOLDEN) -> int:
    """Print each drifted case and its changes to stderr and the match count to stdout.

    Returns the exit status: 1 if any case drifted, 0 otherwise.
    """
    stale = drifted(golden)
    for name, lines in stale.items():
        print(f"drifted: {name}", file=sys.stderr)
        for line in lines[:SHOWN]:
            print(f"  {line}", file=sys.stderr)
        if len(lines) > SHOWN:
            print(f"  ... and {len(lines) - SHOWN} more", file=sys.stderr)
    matched = len(CASES) - len(stale)
    print(f"Python {platform.python_version()}: {matched}/{len(CASES)} goldens match")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(check())
