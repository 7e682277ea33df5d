"""The benchmark's three workloads: op decks, per-op output checks, digests.

An op is one call into the program's public API: one ``run_scenario`` call
or one one-row ``lemma_sweep`` call.  A workload is a deck of cells (what to
run); one pass runs every cell once, in deck order, and each op of a pass
draws its own seed from the workload seed, so the workload seed fixes every
input of a run and the program sees only generated inputs.

Why each workload exists (README.md has the layer -> metric map):

* sweep-small  -- the default lemma-sweep grid over tiny fields; about 95% of
  its time is exhaustive key enumeration (``attacks.brute_force_count``).
* scenarios    -- every example config as written, plus the simulate, forge
  and pollute configs moved to GF(2^8), GF(3^5) and GF(2^16); time spreads
  over tagging, verification, simulation, decoding and config loading, and
  brute force is almost absent.
* recover-wide -- one-row key counts in GF(2^8) and GF(3^5) beyond any
  brute-force budget; time goes to building the recovery system and to
  elimination over extension fields (``linalg.rref``).  It uses the line
  family, whose coalition shape is fixed by the cell, so an op's cost depends
  on its cell and not on its seed (the fan family draws it per seed).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from ncauth import cli
from ncauth.field import Field

WORKLOADS = ("sweep-small", "scenarios", "recover-wide")
# Wall seconds one timed pass over the deck, with its output checks and
# host-speed samples, took on a 2-vCPU host, Python 3.11.  They fix how many
# passes a run covers, so the ops a run times depend on the seed and
# --seconds only, never on how fast the host or the commit is.
PASS_SECONDS = {"sweep-small": 1.1, "scenarios": 0.13, "recover-wide": 0.8}

# The CLI's default lemma-sweep grid: (q, l) pairs, k, M, K, family.
SMALL_GRID = (((2, 1), (2, 2), (3, 1), (3, 2)), (2, 3), (1, 2), (1, 2), "fan")
# Extension fields and shapes whose key counts lie far beyond brute force.
WIDE_GRID = (((2, 8), (3, 5)), (4, 6), (3, 5), (1, 3), "line")
# Fields the simulate/forge/pollute configs are moved to, with k=4, M=3.
REPARAM_FIELDS = ((2, 8), (3, 5), (2, 16))
REPARAM_SHAPE = {"k": 4, "M": 3}
REPARAM_ATTACKS = ("none", "forge", "pollute")


@dataclass(frozen=True)
class Cell:
    """One entry of a workload deck."""

    label: str
    kind: str  # "scenario" (arg is a scenario document) or "sweep" (q, l, k, M, K, family)
    arg: object


@dataclass(frozen=True)
class Outcome:
    """What the benchmark concluded about one op's output."""

    ok: bool
    counted: bool  # the op produced a coalition key count
    checked: bool  # brute force confirmed that count


def _sweep_cells(fields, ks, Ms, Ks, family) -> list[Cell]:
    cells = []
    for q, l in fields:
        for k in ks:
            for m_count in Ms:
                for coalition in Ks:
                    # lemma_sweep generates no row for these (closed-form hypotheses)
                    if coalition > k - 1 or q**l - 1 < coalition:
                        continue
                    cells.append(
                        Cell(f"{family} q={q} l={l} k={k} M={m_count} K={coalition}", "sweep",
                             (q, l, k, m_count, coalition, family))
                    )
    return cells


def _reparam(doc: dict, q: int, l: int) -> dict:
    """The same scenario over F_{q^l} with k=4, M=3.

    Payload and target vectors are zero-padded to l coordinates, and an
    inline topology's kernel entries are reduced mod q, a zero becoming 1,
    so that its sinks keep full rank and still check a decode.
    """
    out = copy.deepcopy(doc)
    out["params"].update(q=q, l=l, **REPARAM_SHAPE)

    def pad(v):
        return v if isinstance(v, int) else list(v) + [0] * (l - len(v))

    if "messages" in out:
        out["messages"] = [pad(m) for m in out["messages"]]
    attack = out.get("attack", {})
    if "target" in attack:
        attack["target"] = pad(attack["target"])
    top = out["topology"]
    if isinstance(top, dict):
        top["q"] = q
        top["kernels"] = {
            node: [[v % q or 1 for v in row] for row in rows]
            for node, rows in top.get("kernels", {}).items()
        }
    return out


def _scenario_cells(config_dir: Path) -> list[Cell]:
    written, moved = [], []
    for path in sorted(config_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        written.append(Cell(path.stem, "scenario", doc))
        if doc.get("attack", {"type": "none"}).get("type", "none") in REPARAM_ATTACKS:
            for q, l in REPARAM_FIELDS:
                moved.append(Cell(f"{path.stem}@gf{q}_{l}", "scenario", _reparam(doc, q, l)))
    return written + moved


def build_deck(workload: str, root: Path) -> list[Cell]:
    if workload == "sweep-small":
        return _sweep_cells(*SMALL_GRID)
    if workload == "recover-wide":
        return _sweep_cells(*WIDE_GRID)
    if workload == "scenarios":
        return _scenario_cells(root / "configs")
    raise ValueError(f"unknown workload {workload!r}")


def deck_fields(deck: list[Cell]) -> list[tuple[int, int]]:
    """Every Field(q, l) the deck's ops construct, base fields included."""
    fields = set()
    for cell in deck:
        if cell.kind == "sweep":
            fields.add(cell.arg[:2])
        else:
            params = cell.arg["params"]
            fields.update({(params["q"], params["l"]), (params["q"], 1)})
    return sorted(fields)


def warm_fields(fields) -> None:
    """Build each field once: the modulus search is cached per process."""
    for q, l in fields:
        Field(q, l)


def passes(workload: str, deck_size: int, seconds: float, min_ops: int) -> int:
    """Whole passes that `seconds` covers, and at least `min_ops` ops."""
    return max(-(-min_ops // deck_size), round(seconds / PASS_SECONDS[workload]))


def pass_seeds(workload: str, seed: int, pass_index: int, size: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return [rng.getrandbits(31) for _ in range(size)]


def execute(cell: Cell, seed: int):
    # Called through the module, so that the traced run's spans see every op.
    if cell.kind == "scenario":
        return cli.run_scenario(cell.arg, seed=seed)
    q, l, k, m_count, coalition, family = cell.arg
    return cli.lemma_sweep([q], [l], [k], [m_count], [coalition], reps=1, seed=seed, family=family)


def output_hash(cell: Cell, seed: int, output) -> bytes:
    """sha256 of the op's label, seed and sorted-key JSON output."""
    if cell.kind == "scenario":
        body = output
    else:
        body = [dataclasses.asdict(r) for r in output.rows]
    text = f"{cell.label}\t{seed}\t{json.dumps(body, sort_keys=True)}\n"
    return hashlib.sha256(text.encode("utf-8")).digest()


# ---------------------------------------------------------------------------
# output checks, recomputed here rather than trusted from the program's summary


def _closed_form(q, l, k, M, K, r0) -> tuple[int, int]:
    """Predicted (rank, key count) of a coalition instance."""
    return r0 * k + (M + 1 - r0) * K, q ** (l * (M + 1 - r0) * (k - K))


def _check_row(row) -> Outcome:
    rank, count = _closed_form(row.q, row.l, row.k, row.M, row.K, row.r0)
    ok = (
        row.rank == row.predicted_rank == rank
        and row.rank_match is True
        and row.consistent is True
        and row.predicted == row.gauss == count
    )
    if row.skipped:
        ok = ok and row.brute is None and row.count_match is None
    else:
        ok = ok and row.brute == row.predicted and row.count_match is True
    return Outcome(ok, True, not row.skipped)


def _check_report(report: dict) -> Outcome:
    params = report["scenario"]["params"]
    q, n = params["q"], params["n"]
    attack = report["attack"]
    kind = attack["type"]
    # honest flows and pollution alike: every verifier accepts every packet
    ok = all(all(edges.values()) for edges in report["accepts"].values())
    if kind != "pollute":
        ok = ok and all(
            d["ok"] is True and d["diverged"] is False
            for d in report["decodes"].values()
            if d["rank"] == n
        )
    counted = checked = False
    if kind == "forge" and attack["reachable"]:
        coeffs = attack["coeffs"]
        payload = [
            sum(a * m[c] for a, m in zip(coeffs, report["messages"])) % q
            for c in range(params["l"])
        ]
        ok = ok and (
            attack["accepted_by_all"] is True
            and all(attack["verifier_accepts"])
            and attack["matches_direct_tag"] is True
            and attack["payload"] == payload
            and attack["packet"][0] == 1
            and attack.get("target", payload) == payload
        )
    elif kind == "pollute":
        ok = ok and bool(attack["records"])
    elif kind == "recover":
        rank, count = _closed_form(
            q, params["l"], params["k"], params["M"], attack["K"], attack["r0"]
        )
        counts = attack["counts"]
        ok = ok and (
            attack["rank"] == attack["predicted_rank"] == rank
            and attack["rank_match"] is True
            and attack["consistent"] is True
            and counts["predicted"] == counts["gauss"] == count
        )
        counted = True
        checked = not attack["brute_skipped"]
        if checked:
            ok = ok and counts["brute"] == count and attack["count_match"] is True
    return Outcome(ok, counted, checked)


def check(cell: Cell, output) -> Outcome:
    if cell.kind == "scenario":
        return _check_report(output)
    if len(output.rows) != 1:
        return Outcome(False, False, False)
    return _check_row(output.rows[0])
