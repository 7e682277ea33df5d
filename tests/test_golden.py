"""Golden reports: the command line's output, pinned byte for byte.

Each case in `golden_cases.CASES` runs `ncauth.cli.main` and compares its
standard output with a file under `tests/golden/`.  A deliberate report
change regenerates them:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from golden_cases import CASES, CONFIG_COMMANDS, GOLDEN, ROOT, check, describe, drifted, run_cli


def test_every_config_has_a_case():
    assert sorted(CONFIG_COMMANDS) == sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_cli(CASES[name]) == expected


def test_no_golden_is_orphaned():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


def test_drift_is_named(tmp_path):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "butterfly_pollute.pollute.json"
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert list(drifted(tmp_path)) == ["butterfly_pollute.pollute.json"]


def test_drift_names_the_changed_json_paths(tmp_path, capsys):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    name = "butterfly_pollute.pollute.json"
    path = tmp_path / name
    report = json.loads(path.read_text(encoding="utf-8"))
    report["decodes"]["t1"]["rank"] = 7
    report["decodes"]["t2"]["extra"] = [1, 2]
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert check(tmp_path) == 1
    out, err = capsys.readouterr()
    # the golden is the old side: a key only it has was removed from the output
    assert err == (
        f"drifted: {name}\n"
        "  changed $.decodes.t1.rank: 7 -> 2\n"
        "  removed $.decodes.t2.extra: [1, 2]\n"
    )
    assert out.endswith(f"{len(CASES) - 1}/{len(CASES)} goldens match\n")


def test_drift_names_the_changed_sweep_cell(tmp_path):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    name = "lemma_sweep.default.tsv"
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").split("\n")
    column = lines[0].split("\t").index("gauss")
    cells = lines[4].split("\t")  # row[3]: rows count from 0 below the header
    was, cells[column] = cells[column], "999"
    lines[4] = "\t".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert drifted(tmp_path) == {name: [f'changed row[3].gauss: "999" -> "{was}"']}


def test_describe_names_columns_summary_and_first_line():
    old = "q\tl\tk\n2\t1\t2\n# rows=1 checked=1\n"
    new = "q\tk\tgauss\n3\t2\t4\n2\t2\t8\n# rows=2 checked=1\n"
    assert describe("sweep.tsv", old, new) == [
        "removed column l",
        "added column gauss",
        'changed row[0].q: "2" -> "3"',
        'added row[1]: {"k": "2", "q": "2"}',  # rows are compared on the shared columns
        'changed summary.rows: "1" -> "2"',
    ]
    assert describe("r.json", '{"a": true}', '{"a": 1}') == ["changed $.a: true -> 1"]
    assert describe("r.json", json.dumps({"a": "x" * 50}), "{}") == [f'removed $.a: "{"x" * 36}...']
    assert describe("r.json", '{"a": 1}\n', '{"a": 1}') == ["line 1: '{\"a\": 1}\\n' -> '{\"a\": 1}'"]
    assert describe("r.json", "not json", '{"a": 1}') == ["line 1: 'not json' -> '{\"a\": 1}'"]


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
