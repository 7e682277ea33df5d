"""Golden reports: the command line's output, pinned byte for byte.

Each case in `golden_cases.CASES` runs `ncauth.cli.main` and compares its
standard output with a file under `tests/golden/`.  A deliberate report
change regenerates them:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from golden_cases import CASES, CONFIG_COMMANDS, GOLDEN, ROOT, drifted, run_cli


def test_every_config_has_a_case():
    assert sorted(CONFIG_COMMANDS) == sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_cli(CASES[name]) == expected


def test_drift_is_named(tmp_path):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "demo.seed0.txt"
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert drifted(tmp_path) == ["demo.seed0.txt"]


def test_golden_check_runs_without_pytest():
    # the stdlib check under this interpreter, with only src/ on the path
    res = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "golden_cases.py")],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith(f"{len(CASES)}/{len(CASES)} goldens match\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run_cli(argv), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
