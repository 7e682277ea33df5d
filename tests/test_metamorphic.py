"""Metamorphic relations: transformed inputs must give the transformed outputs.

Frobenius conjugation.  sigma(a) = a^q is an automorphism of F_{q^l} that
fixes F_q.  Applying it to every secret coefficient, public point, verifier
evaluation and payload maps each tag to its image, leaves every verdict as
it was, and leaves every rank and key count of a coalition unchanged.

Row space of a view.  A coalition knows the span of what it observed, not
the rows it observed it as: replacing its kernel rows H by T H and its
packets by the same mixes, for an invertible F_q matrix T, leaves r0, the
rank, consistency and every key count unchanged.

Scaling.  A nonzero F_q multiple of a valid packet is valid, and a sum-one
forgery of sum-one forgeries is the forgery of the originals whose
coefficients compose the two.

Re-keying.  What a coalition can learn depends on the instance, not on
the key it was signed under: keying the same parameters, topology and
payloads from another seed leaves every recovery record unchanged.

Names and document order.  Renaming every node and edge of an inline
topology by a bijection, and reordering its nodes, edges, kernels,
verifier seats and sinks and the scenario's adversaries, gives the report
renamed, with the coalition in its new document order.  Each node keeps
the relative order of its in-edges and of its out-edges: the source's
out-edges fix the message indices, and a node's in-edges its kernel rows.
Only the public API is used.
"""

import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncauth import (
    Field,
    ForgerySpec,
    Matrix,
    SourceKey,
    SystemParams,
    VerifierKey,
    analyze_recovery,
    build_recovery_system,
    butterfly,
    coalition_view,
    combine,
    diamond,
    fan,
    forge,
    keygen,
    line,
    run_scenario,
    simulate,
    tag,
    verify,
)
from support import packet, sample_points, symbols, view_of

VERDICT_FIELDS = [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]
# GF(2^2) too, whose 3 nonzero points seat only three butterfly nodes; every
# system here has 6 unknowns, few enough for brute_force_count.
COUNT_FIELDS = [(2, 2), (2, 3), (3, 2)]
SEATS = {"m": 0, "w": 1, "t1": 2}
COALITIONS = [("m",), ("u1", "t2"), ("w", "t1")]  # K = 1, 0 and 2 keys


def sigma(x):
    return x.frob(1)


def sigma_key(key):
    return SourceKey(tuple(tuple(map(sigma, poly)) for poly in key.polys))


def sigma_vkey(vkey):
    return VerifierKey(vkey.index, sigma(vkey.point), tuple(map(sigma, vkey.evals)))


def sigma_packet(p):
    """The packet with sigma applied to its payload and each tag coefficient; c is in F_q."""
    coords = [x for t in (p.m, *p.tag) for x in sigma(t).coeffs]
    return packet(p.field, (p.c, *coords))


def instance(q, l, k, M, V, n, seed):
    """Params, keys and payloads, and their images under sigma."""
    fld = Field(q, l)
    rng = random.Random(seed)
    params = SystemParams(fld, k, M, V, n, sample_points(fld, V, rng))
    skey, vkeys = keygen(params, rng.getrandbits(64))
    messages = [fld.random_element(rng) for _ in range(n)]
    sparams = params._replace(public_points=tuple(map(sigma, params.public_points)))
    conj = (sparams, sigma_key(skey), [sigma_vkey(v) for v in vkeys], list(map(sigma, messages)))
    return (params, skey, vkeys, messages), conj, rng


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VERDICT_FIELDS), st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32))
def test_conjugation_maps_tags_and_keeps_verdicts(ql, k, M, seed):
    q, l = ql
    V = min(4, q**l - 1)
    original, image, rng = instance(q, l, k, M, V, M, seed)
    _, skey, vkeys, messages = original
    _, skey_s, vkeys_s, messages_s = image
    packets = [tag(skey, s) for s in messages]
    for p, s_s in zip(packets, messages_s):
        p_s = tag(skey_s, s_s)
        assert p_s.c == 1
        assert p_s.tag == tuple(map(sigma, p.tag))
        assert p_s == sigma_packet(p)
    mixed = combine(packets, [rng.randrange(q) for _ in packets])
    flat = list(mixed.flat)
    flat[-1] = (flat[-1] + 1) % q  # one tag symbol off: a corrupted packet
    corrupted = packet(mixed.field, flat)
    for p in [*packets, mixed, corrupted]:
        p_s = sigma_packet(p)
        verdicts = [verify(v, p) for v in vkeys]
        assert verdicts == [verify(v, p_s) for v in vkeys_s]
        assert verdicts == [p is not corrupted] * len(vkeys)


@pytest.mark.parametrize("coalition", COALITIONS, ids="+".join)
@pytest.mark.parametrize("ql", COUNT_FIELDS, ids=lambda ql: f"GF({ql[0]}^{ql[1]})")
def test_conjugation_keeps_ranks_and_key_counts(ql, coalition):
    q, l = ql
    net = butterfly(q).with_verifiers(SEATS)
    original, image, _ = instance(q, l, 2, 2, len(SEATS), 2, 17 * q + l)
    counts = []
    for params, skey, vkeys, messages in (original, image):
        view = coalition_view(simulate(net, [tag(skey, s) for s in messages]), coalition)
        keys = [vkeys[SEATS[node]] for node in coalition if node in SEATS]
        res = analyze_recovery(build_recovery_system(params, view, keys, messages))
        assert res.consistent and res.brute is not None
        counts.append((res.K, res.r0, res.rank, res.gauss, res.brute))
    assert counts[0] == counts[1]


def invertible(q, h, rng):
    """A random invertible h x h matrix over F_q, as rows of ints."""
    while True:
        t = [[rng.randrange(q) for _ in range(h)] for _ in range(h)]
        if Matrix(Field(q, 1), t, cols=h).rank() == h:
            return t


def counts(params, view, keys, messages):
    res = analyze_recovery(build_recovery_system(params, view, keys, messages))
    assert res.brute is not None
    return res.K, res.r0, res.rank, res.consistent, res.gauss, res.brute


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(COUNT_FIELDS), st.booleans(), st.integers(0, 2**32))
def test_mixing_a_view_keeps_ranks_and_key_counts(ql, on_fan, seed):
    q, l = ql
    rng = random.Random(seed)
    if on_fan:  # one or two seated fan members, each tapping 1-3 hub outputs
        members = rng.randint(1, 2)
        n = rng.randint(1, 2)
        net = fan(q, n, [rng.randint(1, 3) for _ in range(members)], rng)
        coalition = tuple(f"r{i}" for i in range(members))
        seats = net.verifiers
    else:
        n, net, seats = 2, butterfly(q).with_verifiers(SEATS), SEATS
        coalition = rng.choice(COALITIONS)
    (params, skey, vkeys, messages), _, _ = instance(q, l, 2, 2, len(seats), n, seed)
    view = coalition_view(simulate(net, [tag(skey, s) for s in messages]), coalition)
    keys = [vkeys[seats[node]] for node in coalition if node in seats]
    t = invertible(q, view.h.rows, rng)
    columns = list(zip(*[symbols(q, n, v) for v in view.h.packed]))
    h_rows = [[sum(a * h for a, h in zip(row, col)) % q for col in columns] for row in t]
    mixed = view_of(view.nodes, q, n, h_rows, [combine(view.packets, row) for row in t])
    assert counts(params, mixed, keys, messages) == counts(params, view, keys, messages)


# GF(2) seats one verifier, GF(3) two and GF(4) and GF(9) three, so K >= k = 2
# comes up on all but GF(2); six unknowns, few enough for brute_force_count.
REKEY_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("family", ["fan", "line"])
@pytest.mark.parametrize("ql", REKEY_FIELDS, ids=lambda ql: f"GF({ql[0]}^{ql[1]})")
def test_rekeying_keeps_the_recovery_result(ql, family):
    q, l = ql
    fld = Field(q, l)
    k, M = 2, 2
    rng = random.Random(41 * q + 7 * l + (family == "line"))
    rhs_moved = False
    # every coalition size up to 3, and every count K of seated members in it
    for members in (1, 2, 3):
        for K in range(min(members, fld.order - 1) + 1):
            if family == "line":
                n, net = 1, line(q, hops=members)
                coalition = tuple(f"v{i}" for i in range(1, members + 1))
            else:
                n = rng.randint(1, M)
                net = fan(q, n, [rng.randint(0, 2) for _ in range(members)], rng)
                coalition = tuple(f"r{i}" for i in range(members))
            # K members, drawn at random, are seated; the others hold no key
            seats = {node: i for i, node in enumerate(rng.sample(coalition, K))}
            net = net.with_verifiers(seats)
            V = max(1, len(seats))
            params = SystemParams(fld, k, M, V, n, sample_points(fld, V, rng))
            messages = [fld.random_element(rng) for _ in range(n)]
            results, rhs = [], []
            for seed in (rng.getrandbits(64), rng.getrandbits(64)):
                skey, vkeys = keygen(params, seed)
                view = coalition_view(simulate(net, [tag(skey, s) for s in messages]), coalition)
                keys = [vkeys[seats[node]] for node in coalition if node in seats]
                system = build_recovery_system(params, view, keys, messages)
                results.append(analyze_recovery(system))
                rhs.append(system.rhs)
            assert results[0] == results[1]
            assert results[0].K == K and results[0].brute is not None
            rhs_moved |= rhs[0] != rhs[1]
    assert rhs_moved  # the keys differ, so the systems do


def sum_one(q, count, rng):
    head = [rng.randrange(q) for _ in range(count - 1)]
    return ForgerySpec(q, (*head, (1 - sum(head)) % q))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(VERDICT_FIELDS), st.integers(2, 3), st.integers(1, 3), st.integers(0, 2**32))
def test_multiples_stay_valid_and_forgeries_compose(ql, k, M, seed):
    q, l = ql
    V = min(4, q**l - 1)
    (_, skey, vkeys, messages), _, rng = instance(q, l, k, M, V, M, seed)
    packets = [tag(skey, s) for s in messages]
    for p in [*packets, combine(packets, [rng.randrange(q) for _ in packets])]:
        for a in range(1, q):
            assert all(verify(v, combine([p], [a])) for v in vkeys)
    inner = [sum_one(q, len(packets), rng) for _ in range(3)]
    outer = sum_one(q, len(inner), rng)
    composed = ForgerySpec(
        q, tuple(sum(b * a.coeffs[j] for a, b in zip(inner, outer.coeffs)) % q for j in range(M))
    )
    twice = forge([forge(packets, a) for a in inner], outer)
    assert twice == forge(packets, composed)
    assert all(verify(v, twice) for v in vkeys)


def inline(net):
    """A builtin topology written out as an inline topology document."""
    return {
        "version": 1,
        "q": net.q,
        "source": net.source,
        "nodes": list(net.nodes),
        "edges": [e._asdict() for e in net.edges],
        "kernels": {node: [list(r) for r in rows] for node, rows in net.kernels.items()},
        "verifiers": dict(net.verifiers),
        "sinks": list(net.sinks),
    }


CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "inline_topology.json").read_text()
)
BUTTERFLY = {
    "version": 1,
    "seed": 5,
    "params": {"q": 2, "l": 3, "k": 3, "M": 2, "V": 6, "n": 2},
    "topology": inline(butterfly(2)),
}
DIAMOND = {
    "version": 1,
    "seed": 8,
    "params": {"q": 3, "l": 2, "k": 2, "M": 2, "V": 3, "n": 2},
    "topology": inline(diamond(3)),
}
NAMED_DOCS = {
    "inline": CONFIG,
    "inline-pollute": {**CONFIG, "attack": {"type": "pollute", "node": "b", "edge": "e5",
                                            "coeffs": [3, 3]}},
    "inline-recover": {**CONFIG, "adversaries": ["a", "b"], "attack": {"type": "recover"}},
    "inline-forge": {**CONFIG, "adversaries": ["a"], "attack": {"type": "forge"}},
    "butterfly-pollute": {**BUTTERFLY, "attack": {"type": "pollute", "node": "m", "edge": "e4",
                                                  "coeffs": [0, 1]}},
    "butterfly-recover": {**BUTTERFLY, "adversaries": ["m", "t1"],
                          "attack": {"type": "recover"}},
    "diamond-forge": {**DIAMOND, "adversaries": ["a", "b"],
                      "attack": {"type": "forge", "target": [1, 2]}},
    "diamond-recover": {**DIAMOND, "adversaries": ["s", "a"], "attack": {"type": "recover"}},
}


def edge_order(edges, rng):
    """A random order of `edges` that keeps each node's in-edges and out-edges in order."""
    pending, order = list(edges), []
    while pending:
        ready = [
            e for e in pending
            if next(d for d in pending if d["tail"] == e["tail"]) is e
            and next(d for d in pending if d["head"] == e["head"]) is e
        ]
        order.append(ready[rng.randrange(len(ready))])
        pending.remove(order[-1])
    return order


def rename_and_reorder(doc, rng):
    """The document renamed and reordered, and its node and edge renamings."""
    top = doc["topology"]

    def bijection(names, prefix):
        return dict(zip(names, rng.sample([f"{prefix}{i}" for i in range(len(names))], len(names))))

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    nodes = bijection(top["nodes"], "v")
    edges = bijection([e["id"] for e in top["edges"]], "d")
    new = {
        **doc,
        "topology": {
            **top,
            "source": nodes[top["source"]],
            "nodes": shuffled(nodes[v] for v in top["nodes"]),
            "edges": [
                {"id": edges[e["id"]], "tail": nodes[e["tail"]], "head": nodes[e["head"]]}
                for e in edge_order(top["edges"], rng)
            ],
            "kernels": {nodes[v]: rows for v, rows in shuffled(top["kernels"].items())},
            "verifiers": {nodes[v]: seat for v, seat in shuffled(top["verifiers"].items())},
            "sinks": shuffled(nodes[v] for v in top["sinks"]),
        },
    }
    if "adversaries" in doc:
        new["adversaries"] = shuffled(nodes[v] for v in doc["adversaries"])
    if doc.get("attack", {}).get("type") == "pollute":
        new["attack"] = {**doc["attack"], "node": nodes[doc["attack"]["node"]],
                         "edge": edges[doc["attack"]["edge"]]}
    return new, nodes, edges


def renamed_report(report, doc, nodes, edges):
    """`report` with every name mapped and the echo and coalition taken from `doc`."""
    out = copy.deepcopy(report)
    out["scenario"] = {**doc, "seed": report["seed"]}
    out["accepts"] = {
        nodes[v]: {edges[e]: ok for e, ok in row.items()} for v, row in report["accepts"].items()
    }
    out["non_informative"] = sorted([nodes[v], edges[e]] for v, e in report["non_informative"])
    out["decodes"] = {nodes[s]: d for s, d in report["decodes"].items()}
    attack = out["attack"]
    if attack["type"] == "pollute":
        for rec in [attack, *attack["records"]]:
            rec["node"], rec["edge"] = nodes[rec["node"]], edges[rec["edge"]]
    if "coalition" in attack:
        attack["coalition"] = doc["adversaries"]
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NAMED_DOCS)), st.integers(0, 2**32))
def test_renaming_and_reordering_a_topology_renames_the_report(name, seed):
    doc = NAMED_DOCS[name]
    new, nodes, edges = rename_and_reorder(doc, random.Random(seed))
    assert run_scenario(new) == renamed_report(run_scenario(doc), new, nodes, edges)
