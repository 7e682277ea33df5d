"""Scenario loading, report generation, sweeps and the console entry point."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncauth import Field, SourceKey, tag
from ncauth.cli import (
    ConfigError,
    SweepResult,
    SweepRow,
    keygen_report,
    lemma_sweep,
    load_scenario,
    main,
    render_sweep,
    run_scenario,
)


def butterfly_doc(**attack):
    doc = {
        "version": 1,
        "seed": 11,
        "params": {"q": 2, "l": 3, "k": 3, "M": 2, "V": 6, "n": 2},
        "topology": "butterfly",
    }
    if attack:
        doc["attack"] = attack
    return doc


POLLUTE = {"type": "pollute", "node": "m", "edge": "e4", "coeffs": [0, 1]}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUMMARY = {"rows": 1, "checked": 1, "skipped": 0, "mismatches": 0, "h_exceeds_bound": 0}


def forge_coeffs(*coeffs):
    return {"type": "forge", "coeffs": list(coeffs)}


def inline_topology(**fields):
    """A valid inline two-hop topology over F_2, with `fields` overridden."""
    top = {
        "version": 1,
        "q": 2,
        "source": "s",
        "nodes": ["s", "a", "t"],
        "edges": [
            {"id": "e1", "tail": "s", "head": "a"},
            {"id": "e2", "tail": "s", "head": "a"},
            {"id": "e3", "tail": "a", "head": "t"},
        ],
        "kernels": {"a": [[1], [1]]},
        "verifiers": {"a": 0},
        "sinks": ["t"],
    }
    top.update(fields)
    return top


def int_sink_topology():
    """inline_topology with its sink t written as the integer 3 wherever it is named."""
    top = inline_topology(nodes=["s", "a", 3], sinks=[3])
    top["edges"][2]["head"] = 3
    return top


def int_edge_id_topology():
    top = inline_topology()
    top["edges"][0]["id"] = 7
    return top


def cyclic_topology():
    """inline_topology with an edge from t back to a, so a and t form a cycle."""
    top = inline_topology(kernels={"a": [[1], [1], [1]], "t": [[1]]})
    top["edges"].append({"id": "e4", "tail": "t", "head": "a"})
    return top


# Malformed container types: each once escaped load_scenario as a TypeError.
BAD_CONTAINERS = [
    pytest.param(lambda d: d["params"].update(public_points=5), "params.public_points",
                 id="public_points-int"),
    pytest.param(lambda d: d.update(attack={"type": "forge", "coeffs": 5}), "attack.coeffs",
                 id="forge-coeffs-int"),
    pytest.param(lambda d: d.update(attack={"type": "forge", "coeffs": ["x", 1]}),
                 "attack.coeffs", id="forge-coeffs-str"),
    pytest.param(lambda d: d.update(attack={"type": []}), "attack.type", id="attack-type-list"),
    pytest.param(lambda d: d.update(adversaries=5), "adversaries", id="adversaries-int"),
    # a top-level field is named by its key alone, as every later check of it names it
    pytest.param(lambda d: d.pop("params"), "params", id="params-missing"),
    pytest.param(lambda d: d.update(verifiers=[]), "verifiers", id="verifiers-list"),
    pytest.param(lambda d: d.update(messages=5), "messages", id="messages-int"),
    pytest.param(lambda d: d.update(verifiers={"m": None}), "verifiers.m", id="verifier-seat-null"),
    # a topology field's type is named exactly; what only Network or Field refuses is `topology`
    *(
        pytest.param(lambda d, f=f, v=v: d.update(topology=inline_topology(**{f: v})), field,
                     id=f"topology-{label}")
        for f, v, label, field in [
            ("edges", 5, "edges-int", "topology.edges"),
            ("nodes", 5, "nodes-int", "topology.nodes"),
            ("sinks", 5, "sinks-int", "topology.sinks"),
            ("kernels", 5, "kernels-int", "topology.kernels"),
            ("verifiers", 5, "verifiers-int", "topology.verifiers"),
            ("verifiers", {"a": True}, "verifiers-bool", "topology"),
            ("nodes", None, "nodes-null", "topology.nodes"),
            ("sinks", None, "sinks-null", "topology.sinks"),
            ("sinks", ["t", "t"], "sinks-repeated", "topology"),
            ("kernels", [1], "kernels-list", "topology.kernels"),
            ("verifiers", [1], "verifiers-list", "topology.verifiers"),
            ("kernels", {"a": 5}, "kernel-int", "topology.kernels.a"),
            ("kernels", {"a": [5]}, "kernel-row-int", "topology.kernels.a"),
            ("q", None, "q-null", "topology.q"),
            ("q", 2**61 - 1, "q-huge-prime", "topology"),
        ]
    ),
    pytest.param(  # b -> s gives the source an in-edge; b needs no kernel
        lambda d: d.update(topology=inline_topology(
            nodes=["s", "a", "t", "b"],
            edges=[*inline_topology()["edges"], {"id": "e4", "tail": "b", "head": "s"}],
        )),
        "topology", id="topology-source-in-edge",
    ),
]

POINTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]]  # five of butterfly's six seats

# Malformed field elements, flags and versions: each was once silently accepted.
BAD_VALUES = [
    # True == 1.0 == 1, so only the type tells these versions apart
    pytest.param(lambda d: d.update(version=True), "version", id="version-bool"),
    pytest.param(lambda d: d.update(version=1.0), "version", id="version-float"),
    pytest.param(lambda d: d.update(topology=inline_topology(version=True)), "topology.version",
                 id="topology-version-bool"),
    # names are strings: these ran as sink "3" and edge "7"
    pytest.param(lambda d: d.update(topology=int_sink_topology()), "topology.nodes",
                 id="topology-sink-int"),
    pytest.param(lambda d: d.update(topology=int_edge_id_topology()), "topology.edges[0].id",
                 id="topology-edge-id-int"),
    pytest.param(lambda d: d.update(topology=cyclic_topology()), "topology", id="topology-cycle"),
    pytest.param(lambda d: d.update(messages=["101", "011"]), "messages[0]", id="messages-str"),
    pytest.param(lambda d: d.update(messages=[True, 1]), "messages[0]", id="messages-bool"),
    pytest.param(lambda d: d.update(messages=[["1", "0", "1"], 1]), "messages[0]",
                 id="messages-str-coords"),
    pytest.param(lambda d: d.update(messages=[[1.0, 0, 0], 1]), "messages[0]",
                 id="messages-float-coords"),
    pytest.param(lambda d: d.update(messages=[1, [1.5, 0, 0]]), "messages[1]",
                 id="messages-fractional-coord"),
    pytest.param(lambda d: d.update(messages=[1, [True, 0, 0]]), "messages[1]",
                 id="messages-bool-coord"),
    pytest.param(lambda d: d["params"].update(public_points=POINTS + ["111"]),
                 "params.public_points[5]", id="public_points-str"),
    pytest.param(lambda d: d["params"].update(public_points=[True] + POINTS[1:] + [[1, 1, 1]]),
                 "params.public_points[0]", id="public_points-bool"),
    pytest.param(lambda d: d.update(attack={"type": "forge", "target": "010"}), "attack.target",
                 id="target-str"),
    pytest.param(lambda d: d.update(attack={"type": "forge", "target": True}), "attack.target",
                 id="target-bool"),
    pytest.param(lambda d: d["params"].update(M=1, allow_excess_messages="false"),
                 "params.allow_excess_messages", id="allow_excess-str"),
    pytest.param(lambda d: d["params"].update(allow_excess_messages=0),
                 "params.allow_excess_messages", id="allow_excess-int"),
    # out of [0, q) yet summing to 1 mod q = 3
    pytest.param(lambda d: (d["params"].update(q=3), d.update(attack=forge_coeffs(-1, 2))),
                 "attack.coeffs", id="forge-coeffs-negative"),
    pytest.param(lambda d: (d["params"].update(q=3), d.update(attack=forge_coeffs(4, 0))),
                 "attack.coeffs", id="forge-coeffs-above-q"),
    pytest.param(
        lambda d: (d["params"].update(q=3), d.update(attack={**POLLUTE, "coeffs": [-1, 2]})),
        "attack.coeffs", id="pollute-coeffs-negative",
    ),
]


def test_honest_run_accepts_and_decodes():
    report = run_scenario(butterfly_doc())
    assert report["report_version"] == 1
    assert report["flat_layout"] == "v1:header|payload|tag"
    assert all(all(edges.values()) for edges in report["accepts"].values())
    assert report["non_informative"] == []
    for sink in ("t1", "t2"):
        d = report["decodes"][sink]
        assert d["ok"] and d["rank"] == 2 and d["diverged"] is False
        assert d["payloads"] == report["messages"]
    assert report["attack"] == {"type": "none"}


def test_reports_are_byte_reproducible():
    a = json.dumps(run_scenario(butterfly_doc()), sort_keys=True)
    b = json.dumps(run_scenario(butterfly_doc()), sort_keys=True)
    assert a == b
    c = json.dumps(run_scenario(butterfly_doc(), seed=12), sort_keys=True)
    assert a != c
    # a report's scenario echo alone re-runs to the same bytes, n > M included
    excess = butterfly_doc(**POLLUTE)
    excess["params"].update(M=1, allow_excess_messages=True)
    for doc, seed in [(butterfly_doc(), None), (butterfly_doc(), 12), (excess, None),
                      (recover_doc(), 3)]:
        report = run_scenario(doc, seed=seed)
        again = run_scenario(report["scenario"])
        assert json.dumps(again, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_seed_override_is_echoed():
    sc = load_scenario(butterfly_doc(), seed=99)
    assert sc.seed == 99 and sc.raw["seed"] == 99


def test_pollute_report():
    found = False
    for seed in range(6):
        report = run_scenario(butterfly_doc(**POLLUTE), seed=seed)
        atk = report["attack"]
        assert atk["node"] == "m" and atk["edge"] == "e4"
        assert all(all(edges.values()) for edges in report["accepts"].values())
        (record,) = atk["records"]
        assert record["coeffs"] == [0, 1]
        if record["changed"]:
            assert atk["any_divergence"] is True
            for sink in ("t1", "t2"):
                assert report["decodes"][sink]["diverged"] is True
            found = True
        else:
            assert atk["any_divergence"] is False
    assert found


def test_forge_explicit_coeffs():
    report = run_scenario(butterfly_doc(type="forge", coeffs=[0, 1]))
    atk = report["attack"]
    assert atk["reachable"] is True
    assert atk["coeffs"] == [0, 1]
    assert atk["payload"] == report["messages"][1]
    assert atk["accepted_by_all"] is True
    assert atk["verifier_accepts"] == [True] * 6
    assert atk["matches_direct_tag"] is True
    assert atk["packet"][0] == 1  # forged header


def test_forge_target_reachable_and_not():
    doc = butterfly_doc(type="forge", target=[0, 1, 0])
    doc["messages"] = [[1, 0, 0], [0, 1, 0]]
    report = run_scenario(doc)
    atk = report["attack"]
    assert atk["reachable"] is True
    assert atk["payload"] == [0, 1, 0]
    assert atk["matches_direct_tag"] is True

    doc["attack"] = {"type": "forge", "target": [1, 1, 1]}
    report = run_scenario(doc)
    atk = report["attack"]
    assert atk["reachable"] is False
    assert "packet" not in atk


def test_forge_random_coeffs_sum_to_one():
    report = run_scenario(butterfly_doc(type="forge"))
    assert sum(report["attack"]["coeffs"]) % 2 == 1


def test_forge_coalition_decode_flag():
    doc = butterfly_doc(type="forge", coeffs=[1, 0])
    doc["adversaries"] = ["m"]
    assert run_scenario(doc)["attack"]["coalition_can_decode"] is True
    doc["adversaries"] = ["u1"]  # one in-edge: rank 1 < n
    assert run_scenario(doc)["attack"]["coalition_can_decode"] is False


def recover_doc():
    return {
        "version": 1,
        "seed": 5,
        "params": {"q": 3, "l": 1, "k": 3, "M": 1, "V": 2, "n": 1},
        "topology": "line",
        "adversaries": ["v1", "v2"],
        "attack": {"type": "recover"},
    }


def test_recover_report_counts():
    report = run_scenario(recover_doc())
    atk = report["attack"]
    assert atk["coalition"] == ["v1", "v2"]
    assert atk["K"] == 2 and atk["h_total"] == 2 and atk["r0"] == 1
    assert atk["rank_match"] is True and atk["consistent"] is True
    counts = atk["counts"]
    assert counts["predicted"] == counts["gauss"] == counts["brute"] == 3
    assert atk["count_match"] is True and atk["brute_skipped"] is False
    assert atk["condition_held"] is False  # two taps exceed the tag bound M=1


def test_recover_coalition_of_k_interpolates_the_secret():
    doc = butterfly_doc(type="recover")
    doc["adversaries"] = ["u1", "u2", "m"]  # K = k = 3
    atk = run_scenario(doc, guard=1 << 27)["attack"]  # 8^9 = 2^27 candidates
    assert atk["counts"] == {"predicted": 1, "gauss": 1, "brute": 1}
    assert atk["rank_match"] is True and atk["count_match"] is True


def test_recover_from_the_source_sees_no_rows():
    # the source has no in-edges: its view is a 0 x n kernel matrix and pins nothing
    doc = butterfly_doc(type="recover")
    doc["adversaries"] = ["s"]
    atk = run_scenario(doc, guard=1 << 27)["attack"]
    assert (atk["K"], atk["h_total"], atk["r0"], atk["rank"], atk["predicted_rank"]) == (0,) * 5
    everything = 2 ** (3 * (2 + 1) * 3)  # q^(l(M+1)k): every secret matrix
    assert atk["counts"] == {"predicted": everything, "gauss": everything, "brute": everything}
    assert atk["consistent"] is atk["rank_match"] is atk["count_match"] is True
    assert atk["condition_held"] is True


def test_recover_guard_marks_brute_skipped():
    report = run_scenario(recover_doc(), guard=2)
    atk = report["attack"]
    assert atk["brute_skipped"] is True
    assert atk["counts"]["brute"] is None and atk["count_match"] is None
    assert atk["consistent"] is True  # elimination still ran


@pytest.mark.parametrize("q,l", [(65521, 1), (257, 2)], ids=["gf65521", "gf257_2"])
def test_scenarios_over_wide_slots_and_the_polynomial_path(q, l):
    # F_65521 packs 17-bit slots with l = 1; GF(257^2) multiplies as polynomials
    honest = butterfly_doc()
    honest["params"].update(q=q, l=l)
    report = run_scenario(honest)
    assert all(all(edges.values()) for edges in report["accepts"].values())
    for sink in ("t1", "t2"):
        d = report["decodes"][sink]
        assert d["ok"] and d["rank"] == 2 and d["payloads"] == report["messages"]

    forged = butterfly_doc(type="forge")
    forged["params"].update(q=q, l=l)
    report = run_scenario(forged)
    atk = report["attack"]
    assert atk["accepted_by_all"] is True and atk["matches_direct_tag"] is True
    mixed = [sum(a * m[c] for a, m in zip(atk["coeffs"], report["messages"])) for c in range(l)]
    assert atk["payload"] == [v % q for v in mixed]

    doc = recover_doc()
    doc["params"].update(q=q, l=l)
    atk = run_scenario(doc)["attack"]
    assert atk["consistent"] is True and atk["rank_match"] is True
    assert atk["rank"] == atk["predicted_rank"] == 3 * atk["r0"] + 2 * (2 - atk["r0"])
    assert atk["counts"]["gauss"] == atk["counts"]["predicted"] == q ** (l * (2 - atk["r0"]))
    assert atk["brute_skipped"] is True  # q^(6l) candidates


@pytest.mark.parametrize(
    "mutate,field",
    [
        # every case carries its id, so adding a case renames none; the first
        # cases keep the ids pytest once derived from their lambdas
        pytest.param(lambda d: d.update(bogus=1), "scenario", id="<lambda>-scenario"),
        pytest.param(lambda d: d.update(version=2), "version", id="<lambda>-version"),
        pytest.param(lambda d: d["params"].pop("q"), "params.q", id="<lambda>-params.q"),
        pytest.param(lambda d: d["params"].update(q=6), "params", id="<lambda>-params0"),
        pytest.param(lambda d: d["params"].update(extra=1), "params", id="<lambda>-params1"),
        pytest.param(lambda d: d.update(topology="ring"), "topology", id="<lambda>-topology0"),
        pytest.param(lambda d: d.update(topology=7), "topology", id="<lambda>-topology1"),
        pytest.param(lambda d: d["params"].update(n=1), "params.n", id="<lambda>-params.n"),
        pytest.param(lambda d: d.update(verifiers={"u1": 9}), "verifiers", id="<lambda>-verifiers"),
        pytest.param(lambda d: d.update(verifiers={"u1": 6}), "verifiers", id="verifier-seat-V"),
        pytest.param(
            lambda d: d.update(verifiers={"m": -1}), "verifiers", id="verifier-seat-negative"
        ),
        pytest.param(
            lambda d: d.update(verifiers={"ghost": 0}), "verifiers", id="verifier-unknown-node"
        ),
        pytest.param(lambda d: d.update(messages=[[1, 0, 0]]), "messages", id="<lambda>-messages"),
        pytest.param(
            lambda d: d.update(messages=[[1, 0], [0, 1]]), "messages[0]", id="<lambda>-messages[0]"
        ),
        pytest.param(lambda d: d.update(seed="x"), "seed", id="<lambda>-seed"),
        pytest.param(lambda d: d.update(seed=True), "seed", id="bool-seed"),
        pytest.param(lambda d: d["params"].update(k=True), "params.k", id="bool-params.k"),
        pytest.param(
            lambda d: d.update(adversaries=["ghost"]), "adversaries", id="<lambda>-adversaries0"
        ),
        pytest.param(
            lambda d: d.update(adversaries=["u1", "u1"]), "adversaries", id="adversaries-duplicate"
        ),
        pytest.param(lambda d: d.update(attack=["forge"]), "attack", id="attack-not-object"),
        pytest.param(
            lambda d: d.update(attack={"type": "warp"}), "attack.type", id="<lambda>-attack.type"
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "forge", "coeffs": [1, 1]}),
            "attack.coeffs",
            id="<lambda>-attack.coeffs0",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "forge", "coeffs": [1]}),
            "attack.coeffs",
            id="<lambda>-attack.coeffs1",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "forge", "coeffs": [0, 1], "target": 1}),
            "attack",
            id="<lambda>-attack0",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "forge", "node": "m"}), "attack", id="<lambda>-attack1"
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "pollute", "node": "s", "coeffs": [1]}),
            "attack.node",
            id="<lambda>-attack.node",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "pollute", "node": "ghost", "coeffs": [1]}),
            "attack.node",
            id="pollute-unknown-node",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "pollute", "node": "m", "edge": "e1", "coeffs": [0, 1]}),
            "attack.edge",
            id="<lambda>-attack.edge",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "pollute", "node": "m", "coeffs": [1, 1]}),
            "attack.coeffs",
            id="<lambda>-attack.coeffs2",
        ),
        pytest.param(
            lambda d: d.update(attack={"type": "recover"}), "adversaries", id="<lambda>-adversaries1"
        ),
        pytest.param(
            lambda d: d.update(verifiers={"u1": 0, "u2": 0}), "verifiers", id="verifiers-shared-seat"
        ),
        pytest.param(
            lambda d: d["params"].update(public_points=[[1, 0, 0]] * 6),
            "params",
            id="params-equal-points",
        ),
        pytest.param(lambda d: d["params"].update(k=1), "params", id="params-k-below-2"),
        *BAD_CONTAINERS,
        *BAD_VALUES,
    ],
)
def test_config_errors_name_the_offending_field(mutate, field):
    doc = butterfly_doc()
    doc["seed"] = 1
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        load_scenario(doc)
    assert str(err.value).startswith(field + ":"), str(err.value)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.update(bogus=1), "scenario: unknown fields ['bogus']"),
        (lambda d: d["params"].update(extra=1), "params: unknown fields ['extra']"),
        (
            lambda d: d.update(attack={"type": "forge", "node": "m"}),
            "attack: unknown fields ['node'] for type 'forge'",
        ),
    ],
    ids=["scenario", "params", "attack"],
)
def test_unknown_fields_are_listed(mutate, message):
    doc = butterfly_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        load_scenario(doc)
    assert str(err.value) == message


def test_point_shortage_names_the_nonzero_point_count():
    doc = butterfly_doc()
    doc["params"]["V"] = 8  # F_8 has 7 nonzero points
    with pytest.raises(ConfigError) as err:
        load_scenario(doc)
    assert str(err.value) == "params.V: needs 8 distinct nonzero points but the field has 7"


def test_recover_adversary_without_seat(tmp_path, capsys):
    # any set of nodes is a coalition; K counts the keys its seated members pool
    doc = recover_doc()
    doc["verifiers"] = {"v1": 0}
    atk = run_scenario(doc)["attack"]
    assert (atk["K"], atk["h_total"], atk["rank"], atk["predicted_rank"]) == (1, 2, 4, 4)
    assert atk["counts"] == {"predicted": 9, "gauss": 9, "brute": 9}
    doc["verifiers"] = {}  # keyless relays: q^(l(M+1-r0)k) = 3^3 secrets
    assert main(["recover", "--config", write_config(tmp_path, doc)]) == 0
    atk = json.loads(capsys.readouterr().out)["attack"]
    assert (atk["K"], atk["h_total"], atk["rank"], atk["predicted_rank"]) == (0, 2, 3, 3)
    assert atk["counts"] == {"predicted": 27, "gauss": 27, "brute": 27}


BUTTERFLY_NON_SOURCE = ("u1", "u2", "m", "w", "t1", "t2")


@pytest.mark.parametrize("q, l", [(7, 1), (2, 3), (3, 2)], ids=["GF7", "GF8", "GF9"])
def test_recover_counts_under_partial_seatings(q, l):
    # every butterfly coalition of one or two nodes, each under a random
    # seating of up to V = 4 nodes, so members with and without keys mix
    rng = random.Random(f"seatings:{q}^{l}")
    keyless_checked = 0
    for k, M in itertools.product((2, 3), (1, 2)):
        params = {"q": q, "l": l, "k": k, "M": M, "V": 4, "n": 2, "allow_excess_messages": True}
        for size in (1, 2):
            for coalition in itertools.combinations(BUTTERFLY_NON_SOURCE, size):
                seated = rng.randint(0, 4)
                seats = dict(
                    zip(rng.sample(BUTTERFLY_NON_SOURCE, seated), rng.sample(range(4), seated))
                )
                doc = {
                    "version": 1,
                    "seed": rng.getrandbits(16),
                    "params": params,
                    "topology": "butterfly",
                    "verifiers": seats,
                    "adversaries": list(coalition),
                    "attack": {"type": "recover"},
                }
                atk = run_scenario(doc, guard=1 << 20)["attack"]
                assert atk["K"] == sum(a in seats for a in coalition)
                assert atk["rank_match"] is True and atk["consistent"] is True
                counts = atk["counts"]
                assert counts["predicted"] == counts["gauss"]
                if not atk["brute_skipped"]:
                    assert counts["gauss"] == counts["brute"]
                    keyless_checked += atk["K"] == 0
    assert keyless_checked > 0


def test_inline_topology_helper_is_valid():
    doc = butterfly_doc()
    doc["topology"] = inline_topology()
    assert load_scenario(doc).network.sinks == ("t",)


def test_sink_without_in_edges_reports_reason():
    # the source itself listed as a sink observes nothing, so nothing is solved
    doc = butterfly_doc()
    doc["topology"] = inline_topology(sinks=["s", "t"])
    decodes = run_scenario(doc)["decodes"]
    assert decodes["s"] == {
        "ok": False,
        "rank": 0,
        "reason": "sink has no incoming edges",
        "payloads": None,
        "diverged": None,
    }
    assert decodes["t"]["ok"] is False and decodes["t"]["reason"] == "insufficient rank"


def test_inline_topology_q_mismatch():
    doc = butterfly_doc()
    doc["topology"] = {
        "version": 1,
        "q": 3,
        "source": "s",
        "nodes": ["s", "a"],
        "edges": [{"id": "e1", "tail": "s", "head": "a"}],
        "kernels": {},
        "verifiers": {"a": 0},
        "sinks": [],
    }
    with pytest.raises(ConfigError, match="topology.q"):
        load_scenario(doc)


def test_unsafe_flag_allows_excess_messages():
    # params.allow_excess_messages is the one switch, so the echo records it
    doc = butterfly_doc()
    doc["params"].update(M=1)
    with pytest.raises(ConfigError, match="n=2 exceeds M=1"):
        load_scenario(doc)
    doc["params"]["allow_excess_messages"] = True
    sc = load_scenario(doc)
    assert sc.params.n == 2
    assert sc.raw["params"]["allow_excess_messages"] is True


def test_reports_are_plain_json():
    # the benchmark compares report values with lists: a tuple left in a report would differ
    for path in sorted(CONFIGS.glob("*.json")):
        doc = json.loads(path.read_text())
        for report in (run_scenario(doc), keygen_report(doc)):
            assert json.loads(json.dumps(report)) == report, path.name


def test_reports_do_not_depend_on_the_hash_seed():
    config = str(CONFIGS / "line_recover.json")
    outputs = set()
    for hash_seed in ("1", "12345"):
        res = subprocess.run(
            [sys.executable, "-m", "ncauth", "recover", "--config", config],
            capture_output=True, text=True, timeout=120, check=False,
            env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"),
                 "PYTHONHASHSEED": hash_seed},
        )
        assert res.returncode == 0, res.stderr
        outputs.add(res.stdout)
    assert len(outputs) == 1


def test_keygen_report_is_deterministic():
    a = keygen_report(butterfly_doc())
    b = keygen_report(butterfly_doc())
    assert a == b
    assert len(a["source_key"]) == 3  # M+1 rows
    assert all(len(row) == 3 for row in a["source_key"])  # k columns
    assert len(a["verifier_keys"]) == 6
    assert all(len(vk["evals"]) == 3 for vk in a["verifier_keys"])


def test_keygen_report_holds_the_key_the_scenario_tags_with():
    path = Path(__file__).resolve().parent.parent / "configs" / "forge_target.json"
    doc = json.loads(path.read_text())
    keys, report = keygen_report(doc), run_scenario(doc)
    field = Field(keys["params"]["q"], keys["params"]["l"])
    assert list(field.modulus) == keys["modulus"]
    skey = SourceKey(tuple(tuple(map(field, poly)) for poly in keys["source_key"]))
    atk = report["attack"]
    assert list(tag(skey, field(atk["payload"])).flat) == atk["packet"]


def test_lemma_sweep_small():
    result = lemma_sweep((2,), (1, 2), (2,), (1,), (1,), reps=2, seed=1)
    assert result.summary["rows"] == 4
    assert result.summary["mismatches"] == 0
    assert result.summary["checked"] == 4
    text = render_sweep(result)
    assert text.splitlines()[0].startswith("q\tl\tk")
    assert "mismatches=0" in text.splitlines()[-1]


def test_sweep_columns_show_their_fields():
    def shown(**values):
        row = SweepRow(**{**{f.name: f.name for f in dataclasses.fields(SweepRow)}, **values})
        header, cells, _ = render_sweep(SweepResult((row,), SUMMARY)).splitlines()
        return dict(zip(header.split("\t"), cells.split("\t")))

    assert list(shown().items()) == list({  # in column order
        "q": "q", "l": "l", "k": "k", "M": "M", "K": "K", "n": "n", "edges": "edge_counts",
        "h_total": "h_total", "r0": "r0", "rank": "rank", "pred_rank": "predicted_rank",
        "rank_ok": "rank_match", "consistent": "consistent", "predicted": "predicted",
        "gauss": "gauss", "brute": "brute", "count_ok": "count_match",
        "h_le_M": "condition_held", "skipped": "skipped",
    }.items())
    assert shown(edge_counts=(3, 0, 1))["edges"] == "3,0,1"
    assert shown(edge_counts=())["edges"] == "-"
    assert shown(brute=None)["brute"] == "-"


def test_lemma_sweep_empty_ranges(capsys):
    empty = "# rows=0 checked=0 skipped=0 mismatches=0 h_exceeds_bound=0"
    for result in (lemma_sweep((), (1,), (2,), (1,), (1,)),
                   lemma_sweep((2,), (1,), (2,), (1,), (1,), reps=0)):
        assert result.rows == () and result.summary["rows"] == 0
        assert render_sweep(result).splitlines()[-1] == empty
    argv = ["lemma-sweep", "--q", "2", "--l", "1", "--k", "2", "--M", "1", "--K", "1"]
    assert main(argv + ["--reps", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == empty


@pytest.mark.parametrize("bad", [True, 2.0, "1", None])
@pytest.mark.parametrize("arg", ["qs", "ls", "ks", "Ms", "Ks", "reps", "seed"])
def test_lemma_sweep_refuses_non_int_arguments(arg, bad):
    # seed=True used to sweep seed 1's rows, and Ms=[1.5] failed one way
    # under Python 3.11 and another under 3.12
    args = {"qs": (2,), "ls": (1,), "ks": (2,), "Ms": (1,), "Ks": (1,), "reps": 1, "seed": 0}
    args[arg] = bad if arg in ("reps", "seed") else (bad,)
    name = arg if arg in ("reps", "seed") else arg[0]
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
        lemma_sweep(**args)


def test_lemma_sweep_skips_out_of_scope_combinations():
    # K=2 needs at least two nonzero points, so F_2 yields nothing
    result = lemma_sweep((2,), (1,), (2,), (1,), (2,), reps=3, seed=0)
    assert result.summary["rows"] == 0
    result = lemma_sweep((2,), (1,), (2,), (1,), (1,), reps=1, seed=0, guard=1)
    assert result.summary["skipped"] == 1
    assert result.rows[0].brute is None and result.rows[0].count_match is None


@pytest.mark.parametrize("family", ["fan", "line"])
def test_lemma_sweep_checks_coalitions_of_k_or_more(family):
    result = lemma_sweep((2, 3), (1, 2), (2, 3), (1, 2), (1, 2, 3, 4), reps=1, seed=7,
                         guard=1 << 36, family=family)
    assert result.summary["checked"] == result.summary["rows"] > 0
    assert result.summary["mismatches"] == 0
    pinned = [r for r in result.rows if r.K >= r.k]
    assert pinned and all(r.predicted == r.gauss == r.brute == 1 for r in pinned)


def test_lemma_sweep_line_family():
    result = lemma_sweep((3,), (1,), (3,), (1, 2), (2,), reps=2, seed=4, family="line")
    assert result.summary["mismatches"] == 0
    assert all(r.n == 1 for r in result.rows)
    with pytest.raises(ValueError):
        lemma_sweep((2,), (1,), (2,), (1,), (1,), family="ring")


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_simulate_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, butterfly_doc())
    assert main(["simulate", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report_version"] == 1
    assert report["decodes"]["t1"]["ok"] is True


def test_main_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, butterfly_doc(**POLLUTE))
    out = tmp_path / "report.json"
    assert main(["pollute", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["attack"]["type"] == "pollute"


def test_a_pollution_run_leaves_the_shared_butterfly_honest(capsys):
    # both configs get the one shared butterfly; polluting it first changes
    # not a byte of the honest report that follows in the same process
    polluted, honest = (json.loads((CONFIGS / f"{name}.json").read_text())
                        for name in ("butterfly_pollute", "butterfly_honest"))
    assert load_scenario(polluted).network is load_scenario(honest).network
    assert main(["pollute", "--config", str(CONFIGS / "butterfly_pollute.json")]) == 0
    assert json.loads(capsys.readouterr().out)["attack"]["type"] == "pollute"
    assert main(["simulate", "--config", str(CONFIGS / "butterfly_honest.json")]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "butterfly_honest.simulate.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_main_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert main(["pollute", "--config", str(CONFIGS / "butterfly_pollute.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def attack_docs():
    """One valid document per attack type."""
    return {
        "none": butterfly_doc(),
        "forge": butterfly_doc(**forge_coeffs(0, 1)),
        "pollute": butterfly_doc(**POLLUTE),
        "recover": recover_doc(),
    }


COMMAND_ATTACKS = {"simulate": "none", "forge": "forge", "pollute": "pollute", "recover": "recover"}


@pytest.mark.parametrize(
    "command,kind",
    [(c, t) for c, own in COMMAND_ATTACKS.items() for t in attack_docs() if t != own],
)
def test_main_subcommand_attack_mismatch(tmp_path, capsys, command, kind):
    cfg = write_config(tmp_path, attack_docs()[kind])
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = COMMAND_ATTACKS[command]
    assert captured.err == f"error: attack.type: subcommand {command!r} expects {expected!r}, got {kind!r}\n"


def test_main_bad_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2
    garbled = tmp_path / "broken.json"
    garbled.write_text("{not json")
    assert main(["simulate", "--config", str(garbled)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b'{"seed": ' + b"7" * 5000 + b"}", b'{"seed": 1}\xff'],
    ids=["nested-too-deep", "int-too-long", "not-utf-8"],
)
def test_main_unparsable_config_names_config(tmp_path, capsys, content):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ([], "scenario: document must be an object"),
        ({**butterfly_doc(), "seed": True}, "seed: must be an integer"),
        ({**butterfly_doc(), "adversaries": 5}, "adversaries: expected list"),
        (
            {**butterfly_doc(), "topology": inline_topology(edges=5)},
            "topology.edges: expected list",
        ),
        (
            {**butterfly_doc(), "params": {**butterfly_doc()["params"], "public_points": 5}},
            "params.public_points: expected list",
        ),
        (
            {**butterfly_doc(), "topology": cyclic_topology()},
            "topology: nodes on or after a cycle: ['a', 't']",
        ),
    ],
    ids=[
        "array", "bool-seed", "adversaries-int", "topology-edges-int", "public_points-int",
        "topology-cycle",
    ],
)
def test_main_malformed_document_exits_2(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_main_pollute_coeffs_outside_field_exit_2(tmp_path, capsys):
    # [4, 0] sums to 1 mod 3 but is not a list of F_3 symbols; it was echoed unreduced
    doc = butterfly_doc(**{**POLLUTE, "coeffs": [4, 0]})
    doc["params"]["q"] = 3
    assert main(["pollute", "--config", write_config(tmp_path, doc)]) == 2
    assert "attack.coeffs: coefficients must lie in [0, 3)" in capsys.readouterr().err


def test_main_config_validation_failure(tmp_path, capsys):
    doc = butterfly_doc()
    doc["params"]["q"] = 9
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg]) == 2
    assert "params" in capsys.readouterr().err


def test_main_recover_and_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, recover_doc())
    assert main(["recover", "--config", cfg, "--seed", "9"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 9
    assert report["attack"]["count_match"] is True


def test_main_guard_only_on_recover(tmp_path, capsys):
    cfg = write_config(tmp_path, recover_doc())
    assert main(["recover", "--config", cfg, "--guard", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["attack"]["brute_skipped"] is True
    with pytest.raises(SystemExit):
        main(["simulate", "--config", write_config(tmp_path, butterfly_doc()), "--guard", "2"])


@pytest.mark.parametrize("command", ["recover", "lemma-sweep"])
def test_main_guard_must_be_nonnegative(tmp_path, capsys, command):
    if command == "recover":
        argv = ["recover", "--config", write_config(tmp_path, recover_doc())]
    else:
        argv = ["lemma-sweep", "--q", "2", "--l", "1", "--k", "2", "--M", "1", "--K", "1"]
    for bad in ("-5", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--guard", bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ncauth {command}: error: argument --guard: expected an integer of at least 0, got {bad!r}"
        )
    assert main(argv + ["--guard", "0"]) == 0


def test_main_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ncauth")


def test_command_surface(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err  # the usage line, then the error
    commands = re.search(r"\{(.*?)\}", err).group(1).split(",")
    assert commands == ["keygen", "simulate", "forge", "pollute", "recover", "lemma-sweep"]
    assert "invalid choice: 'demo'" in err


def test_main_keygen(tmp_path, capsys):
    cfg = write_config(tmp_path, butterfly_doc())
    assert main(["keygen", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["verifier_keys"]) == 6


def test_python_m_ncauth_runs_the_cli():
    # a plain checkout runs the command line as a module, with only src/ on the path
    root = Path(__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-m", "ncauth", "pollute", "--config", str(CONFIGS / "butterfly_pollute.json")],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert res.returncode == 0, res.stderr
    golden = root / "tests" / "golden" / "butterfly_pollute.pollute.json"
    assert res.stdout == golden.read_text(encoding="utf-8")


def test_main_lemma_sweep(capsys):
    rc = main(
        ["lemma-sweep", "--q", "2", "--l", "1", "--k", "2", "--M", "1",
         "--K", "1", "--reps", "2", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("# rows=2")
    assert "mismatches=0" in out
    with pytest.raises(SystemExit) as exc:
        main(["lemma-sweep", "--q", "2,x"])
    assert exc.value.code == 2
    assert "--q: expected comma-separated integers, got '2,x'" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["fan", "line"])
@pytest.mark.parametrize(
    "option,value",
    [("--K", "0"), ("--K", "1,-1"), ("--M", "0"), ("--reps", "-1"), ("--k", "1"), ("--k", "0")],
    ids=["K0", "Kneg", "M0", "reps", "k1", "k0"],
)
def test_main_lemma_sweep_bad_size_names_option(capsys, family, option, value):
    argv = ["lemma-sweep", "--q", "2", "--l", "1", "--k", "2", "--M", "1", "--family", family]
    assert main(argv + [option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option[2:]} must be")


@pytest.mark.parametrize(
    "grid,message",
    [(["--q", "4", "--k", "2", "--K", "3"], "q must be prime, got 4"),
     (["--l", "0", "--k", "2", "--K", "2"], "extension degree must be in [1, 16], got 0")],
    ids=["q4", "l0"],
)
def test_main_lemma_sweep_bad_field_refused_with_no_rows(capsys, grid, message):
    # every field is built before any row, so a bad one is refused before any instance
    assert main(["lemma-sweep"] + grid) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Small integers keep every accepted scenario desk-sized; the documents are
# otherwise any JSON shape.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


def valid_documents():
    docs = [butterfly_doc(), butterfly_doc(**POLLUTE), butterfly_doc(type="forge", coeffs=[0, 1]),
            butterfly_doc(type="forge", target=[0, 1, 0]), recover_doc()]
    inline = butterfly_doc()
    inline["topology"] = inline_topology()
    inline["verifiers"] = {"a": 1}
    return docs + [inline]


def _paths(value, prefix=()):
    """Every path to a value inside nested dicts and lists, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, prefix + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, prefix + (i,))


@st.composite
def json_documents(draw):
    """Arbitrary JSON, or a valid scenario with one value replaced or one key dropped."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = copy.deepcopy(draw(st.sampled_from(valid_documents())))
    path = draw(st.sampled_from([p for p in _paths(doc) if p]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(max_examples=200, deadline=None)
@given(json_documents())
def test_load_scenario_accepts_or_names_the_field(doc):
    try:
        load_scenario(doc)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None)
@given(json_documents(), st.sampled_from(["keygen", "simulate", "forge", "pollute", "recover"]))
def test_main_exit_codes_on_any_document(doc, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--config", path]) in (0, 2)
    finally:
        os.unlink(path)
