"""Golden cases: the command lines whose output `tests/golden/` pins byte for byte.

Standard library only, so any interpreter can check the goldens without
pytest.  From the repository root,

    PYTHONPATH=src python tests/golden_cases.py

runs every case, names each one whose output drifted from its file, and
exits 1 if any did, 0 otherwise.  `tests/test_golden.py` runs the same
cases under pytest and regenerates the files.
"""

from __future__ import annotations

import contextlib
import io
import platform
import sys
from pathlib import Path

from ncauth.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

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
    "demo.seed0.txt": ["demo", "--seed", "0"],
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


def drifted(golden: Path = GOLDEN) -> list[str]:
    """The cases whose output differs from their file under `golden`."""
    return [
        name for name, argv in CASES.items()
        if run_cli(argv) != (golden / name).read_text(encoding="utf-8")
    ]


if __name__ == "__main__":
    stale = drifted()
    for name in stale:
        print(f"drifted: {name}", file=sys.stderr)
    matched = len(CASES) - len(stale)
    print(f"Python {platform.python_version()}: {matched}/{len(CASES)} goldens match")
    raise SystemExit(1 if stale else 0)
