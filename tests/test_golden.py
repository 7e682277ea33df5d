"""Golden reports: the command line's output, pinned byte for byte.

Each case runs `ncauth.cli.main` and compares its standard output with a
file under `tests/golden/`.  A deliberate report change regenerates them:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, argv
    return buf.getvalue()


def test_every_config_has_a_case():
    assert sorted(CONFIG_COMMANDS) == sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_cli(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run_cli(argv), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
