"""Topology validation, kernel recursion, simulation, decode, coalition view."""

import copy
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncauth import (
    CycleError,
    Field,
    Intervention,
    Matrix,
    Network,
    accept_map,
    butterfly,
    coalition_view,
    combine,
    decode,
    diamond,
    fan,
    keygen,
    line,
    simulate,
    tag,
)
from ncauth.cli import network_from_dict, run_scenario
from ncauth.field import mix, packing
from support import make_instance, matmul, packet, rows_of, symbols, view_of

BUTTERFLY_KERNELS = {
    "e1": (1, 0),
    "e2": (0, 1),
    "e3": (1, 0),
    "e4": (1, 0),
    "e5": (0, 1),
    "e6": (0, 1),
    "e7": (1, 1),
    "e8": (1, 1),
    "e9": (1, 1),
}


def scheme_for(net, rng, l=3, k=3, M=2):
    """Params/keys sized for a given topology (enough seats and messages)."""
    seats = len(net.verifiers)
    params, skey, vkeys, messages, packets = make_instance(
        rng, net.q, l, k, M, V=max(seats, 1), n=net.n
    )
    return params, skey, vkeys, messages, packets


def honest_kernels(net):
    """The global kernels `simulate` reports for `net`, on placeholder packets, as symbols."""
    flow = simulate(net, [packet(Field(net.q, 1), (1, 0, 0))] * net.n)
    return {e: symbols(net.q, net.n, v) for e, v in flow.kernels.items()}


def test_butterfly_global_kernels_hand_computed():
    assert honest_kernels(butterfly(2)) == BUTTERFLY_KERNELS


def test_line_and_diamond_kernels():
    gk = honest_kernels(line(3, hops=3))
    assert all(v == (1,) for v in gk.values())
    gk2 = honest_kernels(diamond(5))
    assert gk2["e3"] == (1, 0) and gk2["e4"] == (0, 1)
    with pytest.raises(ValueError, match="^hops must be at least 1, got 0$"):
        line(3, hops=0)


def test_zero_kernel_propagates_zero():
    net = Network(
        2,
        "s",
        ("s", "a", "t"),
        [("e1", "s", "a"), ("e2", "a", "t")],
        {"a": [[0]]},
        {},
        ("t",),
    )
    assert honest_kernels(net)["e2"] == (0,)
    # a node with out-edges and no in-edges, other than the source, emits zeros
    net = Network(2, "s", ("s", "a", "t"), [("e1", "s", "t"), ("e2", "a", "t")], {})
    flow = simulate(net, [packet(Field(2, 1), (1, 1, 0))])
    assert flow.kernels["e2"] == 0 and flow.packets["e2"].flat == (0, 0, 0)
    # at out-degree 2, both out-edges carry the zero packet (source width) and the zero kernel
    net = Network(
        2,
        "s",
        ("s", "a", "t"),
        [("e1", "s", "t"), ("e2", "s", "t"), ("e3", "a", "t"), ("e4", "a", "t")],
        {},
    )
    source = packet(Field(2, 1), (1, 1, 0, 1, 1))
    flow = simulate(net, [source, source])
    for e in ("e3", "e4"):
        assert flow.kernels[e] == 0 and flow.packets[e].flat == (0,) * 5
    assert flow.packets["e1"] == flow.packets["e2"] == source


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Network(
            2,
            "s",
            ("s", "a", "b"),
            [("e1", "s", "a"), ("e2", "a", "b"), ("e3", "b", "a")],
            {"a": [[1], [1]], "b": [[1]]},
        )


@st.composite
def shuffled_dags(draw):
    """(nodes, edges) of a random DAG: edges run forward in a hidden rank, both lists shuffled."""
    ranked = ["s"] + [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    forward = st.tuples(st.integers(0, len(ranked) - 1), st.integers(0, len(ranked) - 1)).filter(
        lambda p: p[0] < p[1]
    )
    pairs = [(0, 1)] + draw(st.lists(forward, max_size=20))  # parallel edges allowed
    edges = draw(st.permutations([(f"e{i}", ranked[a], ranked[b]) for i, (a, b) in enumerate(pairs)]))
    return draw(st.permutations(ranked)), edges


@settings(max_examples=100, deadline=None)
@given(shuffled_dags())
def test_topological_order_places_every_tail_before_its_head(dag):
    nodes, edges = dag
    ins = {n: sum(e[2] == n for e in edges) for n in nodes}
    outs = {n: sum(e[1] == n for e in edges) for n in nodes}
    kernels = {n: [[1] * outs[n]] * ins[n] for n in nodes if ins[n] and outs[n]}
    order = Network(2, "s", nodes, edges, kernels).topo_order
    assert sorted(order) == sorted(nodes)  # every node exactly once
    place = {n: i for i, n in enumerate(order)}
    assert all(place[tail] < place[head] for _, tail, head in edges)


@pytest.mark.parametrize(
    "nodes,edges,kernels,stuck",
    [
        (("s", "a"), [("e1", "s", "a"), ("e2", "a", "a")], {"a": [[1], [1]]}, ["a"]),
        (  # reached from the source, with a node downstream of it
            ("s", "t", "a", "b"),
            [("e1", "s", "a"), ("e2", "a", "b"), ("e3", "b", "a"), ("e4", "b", "t")],
            {"a": [[1], [1]], "b": [[1, 1]]},
            ["t", "a", "b"],
        ),
        (
            ("s", "t", "a", "b", "c"),
            [("e1", "s", "t"), ("e2", "a", "b"), ("e3", "b", "c"), ("e4", "c", "a")],
            {"a": [[1]], "b": [[1]], "c": [[1]]},
            ["a", "b", "c"],
        ),
    ],
    ids=["self-loop", "two-cycle", "cycle-unreachable-from-source"],
)
def test_cycles_raise_cycle_error_naming_their_nodes(nodes, edges, kernels, stuck):
    with pytest.raises(CycleError, match=re.escape(f"nodes on or after a cycle: {stuck}")):
        Network(2, "s", nodes, edges, kernels)


def test_network_validation_errors():
    with pytest.raises(ValueError):
        Network(4, "s", ("s", "t"), [("e1", "s", "t")], {})  # q not prime
    with pytest.raises(ValueError):
        Network(2, "s", ("s", "t"), [("e1", "t", "s")], {})  # source has in-edge
    with pytest.raises(ValueError):
        Network(2, "s", ("s", "t"), [("e1", "s", "x")], {})  # unknown node
    with pytest.raises(ValueError):
        Network(2, "s", ("s", "a", "t"), [("e1", "s", "a"), ("e2", "a", "t")], {})  # no kernel
    with pytest.raises(ValueError):
        Network(
            2, "s", ("s", "a", "t"),
            [("e1", "s", "a"), ("e2", "a", "t")],
            {"a": [[2]]},  # entry out of range
        )
    with pytest.raises(ValueError):
        butterfly(2).with_verifiers({"t1": 0, "t2": 0})  # shared seat
    with pytest.raises(ValueError):
        butterfly(2).with_verifiers({"t1": True})  # a bool is not a seat index
    # non-integers are refused, not converted through int()
    edges = [("e1", "s", "a"), ("e2", "a", "t")]
    for q, entry in (("7", 1), (7.0, 1), (True, 1), (7, 1.9), (7, True), (7, "1")):
        with pytest.raises(ValueError):
            Network(q, "s", ("s", "a", "t"), edges, {"a": [[entry]]})
    # one refusal per override of a valid one-hop network, named by its message
    one_hop = [("e1", "s", "t")]
    refused = [
        ("duplicate node names", dict(nodes=("s", "s", "t"))),
        ("unknown source", dict(source="x")),
        ("duplicate edge ids", dict(edges=one_hop * 2)),
        ("at least one outgoing", dict(edges=[])),
        ("kernel for unknown node", dict(kernels={"x": [[1]]})),
        ("must be 1x1", dict(nodes=("s", "a", "t"), edges=edges, kernels={"a": [[1, 1]]})),
        ("source must not have incoming",
         dict(nodes=("s", "t", "a"), edges=[*one_hop, ("e2", "a", "s")])),
        ("verifier seat on unknown node", dict(verifiers={"x": 0})),
        ("verifier index of 't' must be at least 0, got -1", dict(verifiers={"t": -1})),
        ("unknown sink", dict(sinks=("x",))),
        ("duplicate sink nodes", dict(sinks=("t", "t"))),
    ]
    for match, override in refused:
        args = dict(q=2, source="s", nodes=("s", "t"), edges=one_hop, kernels={}) | override
        with pytest.raises(ValueError, match=match):
            Network(**args)


def test_seat_override_keeps_the_rest_of_the_network():
    for net in (butterfly(2), diamond(3), line(5, hops=3)):
        seats = dict(zip(net.verifiers, reversed(net.verifiers.values())))
        moved = net.with_verifiers(seats)
        assert moved.verifiers == seats
        for attr in ("q", "source", "nodes", "edges", "kernels", "sinks", "topo_order"):
            assert getattr(moved, attr) == getattr(net, attr), attr
    # a top-level `verifiers` that restates butterfly's seats changes no decode or check
    doc = {"version": 1, "seed": 11, "topology": "butterfly",
           "params": {"q": 2, "l": 3, "k": 3, "M": 2, "V": 6, "n": 2}}
    plain = run_scenario(doc)
    seated = run_scenario({**doc, "verifiers": dict(butterfly(2).verifiers)})
    assert seated["decodes"] == plain["decodes"] and len(plain["decodes"]) == 2
    assert seated["accepts"] == plain["accepts"]


def test_honest_flow_matches_global_kernels():
    # oracle: flat edge value must equal f_e applied to the stacked sources
    rng = random.Random(31)
    for net in (butterfly(2), diamond(3), line(5, hops=3)):
        params, skey, vkeys, messages, packets = scheme_for(net, rng)
        flow = simulate(net, packets)
        base = Field(net.q, 1)
        x = Matrix(base, [p.flat for p in packets], cols=len(packets[0].flat))
        for e, f in flow.kernels.items():
            fe = Matrix(base, [symbols(net.q, net.n, f)], cols=net.n)
            expect = rows_of(matmul(fe, x))[0]
            assert tuple(v.coeffs[0] for v in expect) == flow.packets[e].flat


def test_identity_substitution_changes_nothing():
    rng = random.Random(7)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    honest = simulate(net, packets)
    same = simulate(net, packets, [Intervention("m", "e4", (1, 0))])
    assert same.packets == honest.packets
    assert same.log[0].changed is False


def test_substitution_validation():
    rng = random.Random(8)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    with pytest.raises(ValueError):
        simulate(net, packets, [Intervention("m", "e4", (1, 1))])  # sum 0 mod 2
    with pytest.raises(ValueError):
        simulate(net, packets, [Intervention("m", "e3", (0, 1))])  # not an in-edge
    with pytest.raises(ValueError):
        simulate(net, packets, [Intervention("nope", "e4", (0, 1))])
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        simulate(net, packets, [Intervention("m", "e4", (-1, 2))])  # sums to 1 mod 2


def test_polluted_butterfly_accepts_everywhere_but_decodes_wrong():
    rng = random.Random(11)
    diverged = 0
    for trial in range(10):
        net = butterfly(2)
        params, skey, vkeys, messages, packets = scheme_for(net, rng)
        flow = simulate(net, packets, [Intervention("m", "e4", (0, 1))])
        keys_by_node = {node: vkeys[i] for node, i in net.verifiers.items()}
        accepts = accept_map(flow, keys_by_node)
        assert all(all(edges.values()) for edges in accepts.values())
        changed = flow.log[0].changed
        for sink in net.sinks:
            res = decode(coalition_view(flow, [sink]))
            assert res.ok
            if res.payloads != tuple(messages):
                diverged += 1
                assert changed  # only a real substitution may corrupt decoding
    assert diverged > 0


def test_accept_map_refuses_a_node_outside_the_network():
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, random.Random(11))
    flow = simulate(net, packets)
    # used to raise a bare KeyError from Network.in_edges
    with pytest.raises(ValueError, match="unknown node 'nope'"):
        accept_map(flow, {"t1": vkeys[4], "nope": vkeys[0]})


def test_decode_honest_and_rank_deficient():
    rng = random.Random(3)
    net = diamond(3)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    flow = simulate(net, packets)
    res = decode(coalition_view(flow, ["t"]))
    assert res.ok and res.rank == 2
    assert res.payloads == tuple(messages)
    assert res.packets == tuple(packets)

    crippled = Network(
        3,
        "s",
        ("s", "a", "t"),
        [("e1", "s", "a"), ("e2", "s", "a"), ("e3", "a", "t")],
        {"a": [[0], [0]]},
        {},
        ("t",),
    )
    params2, skey2, vkeys2, messages2, packets2 = scheme_for(crippled, rng)
    res2 = decode(coalition_view(simulate(crippled, packets2), ["t"]))
    assert not res2.ok and res2.rank == 0 and res2.reason == "insufficient rank"
    with pytest.raises(ValueError):
        coalition_view(flow, ["zz"])


def test_decode_reports_inconsistent_observations():
    # c swaps its view of e5 for e6, so t sees e7 = 2*p2 under kernel (1, 1)
    net = Network(
        3, "s", ("s", "a", "b", "c", "t"),
        [("e1", "s", "a"), ("e2", "s", "b"), ("e3", "a", "t"), ("e4", "b", "t"),
         ("e5", "a", "c"), ("e6", "b", "c"), ("e7", "c", "t")],
        {"a": [[1, 1]], "b": [[1, 1]], "c": [[1], [1]]}, {}, ("t",),
    )
    params, skey, vkeys, messages, packets = make_instance(random.Random(0), 3, 2, 2, 2, V=1, n=2)
    assert packets[0] != packets[1]
    honest = decode(coalition_view(simulate(net, packets), ["t"]))
    assert honest.ok and honest.rank == 2 and honest.packets == tuple(packets)
    flow = simulate(net, packets, [Intervention("c", "e5", (0, 1))])
    res = decode(coalition_view(flow, ["t"]))
    assert not res.ok and res.rank == 2 and res.reason == "observations are inconsistent"
    assert res.packets is None and res.payloads is None


def test_coalition_view_rows_and_packets():
    rng = random.Random(21)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    flow = simulate(net, packets)
    view = coalition_view(flow, ("m", "t1"))
    rows = [BUTTERFLY_KERNELS[e] for e in ("e4", "e5", "e3", "e8")]
    assert (view.h.rows, view.h.cols) == (4, 2)
    assert [symbols(2, 2, v) for v in view.h.packed] == rows
    assert view.h == Matrix(Field(2, 1), rows)
    assert view.packets[0] == flow.packets["e4"]
    assert Matrix(Field(2, 1), rows).rank() == decode(view).rank == 2
    # a hand-built view's kernel entries mean their residues mod q: -1 is 1 and 2 is 0
    shifted = [tuple(a - 2 if a else 2 for a in h) for h in rows]
    assert decode(view_of(view.nodes, 2, 2, shifted, view.packets)) == decode(view)
    with pytest.raises(ValueError):
        coalition_view(flow, ())
    with pytest.raises(ValueError):
        coalition_view(flow, ("m", "m"))


def test_a_view_built_twice_hashes_alike():
    rng = random.Random(22)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    flow = simulate(net, packets)
    for nodes in (["m"], ["t1", "m"], ["s"]):
        a, b = coalition_view(flow, nodes), coalition_view(simulate(net, packets), nodes)
        assert a == b and hash(a) == hash(b)
        assert {a, b} == {a}
    source = coalition_view(flow, ["s"])  # no in-edges: a 0 x n kernel matrix
    assert (source.h.rows, source.h.cols, source.packets) == (0, 2, ())
    assert decode(source).reason == "sink has no incoming edges"


def test_decode_rank_is_the_rank_of_the_observed_kernels():
    # any set of nodes decodes like a sink: its rank is that of its kernel rows
    rng = random.Random(23)
    for _ in range(40):
        q, n = rng.choice((2, 3, 5)), rng.randint(1, 3)
        net = fan(q, n, [rng.randint(0, 3) for _ in range(rng.randint(1, 3))], rng)
        params, skey, vkeys, messages, packets = scheme_for(net, rng, l=2, M=3)
        flow = simulate(net, packets)
        candidates = ["hub", *net.verifiers]
        nodes = rng.sample(candidates, rng.randint(1, len(candidates)))
        view = coalition_view(flow, nodes)
        res = decode(view)
        rows = [symbols(q, n, v) for v in view.h.packed]
        assert res.rank == Matrix(Field(q, 1), rows, cols=n).rank()
        assert res.ok == (res.rank == n)
        if res.ok:
            assert res.payloads == tuple(messages)


def test_interventions_affect_only_the_intervened_view():
    rng = random.Random(14)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    flow = simulate(net, packets, [Intervention("m", "e4", (0, 1))])
    # e4's packet is the one delivered to m; the packet u1 emitted on it is in the record
    assert flow.log[0].honest == packets[0]
    assert flow.packets["e4"] == flow.packets["e5"] == packets[1]
    assert flow.packets["e3"] == packets[0]  # u1's other output is upstream, untouched


@pytest.mark.parametrize(
    "interventions",
    [
        [Intervention("m", "e4", (0, 1)), Intervention("m", "e5", (2, 2))],
        [Intervention("m", "e4", (0, 1)), Intervention("m", "e4", (2, 2))],
        [Intervention("m", "e4", (2, 2)), Intervention("w", "e7", (1,))],
    ],
    ids=["two-edges-at-one-node", "one-edge-twice", "node-and-downstream-node"],
)
def test_multiple_interventions(interventions):
    # oracle: replay the butterfly's m and w by hand with combine, from the honest flow
    rng = random.Random(33)
    net = butterfly(3)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    honest = simulate(net, packets).packets
    expect, records = dict(honest), []
    for node, mixes in (("m", [("e7", ("e4", "e5"))]), ("w", [("e8", ("e7",)), ("e9", ("e7",))])):
        ins = net.in_edges(node)
        arrived = [expect[d] for d in ins]  # every substitute at a node mixes these
        for iv in (iv for iv in interventions if iv.node == node):
            injected = combine(arrived, iv.coeffs)
            sent = arrived[ins.index(iv.edge)]  # what the tail emitted
            records.append((node, iv.edge, iv.coeffs, sent, injected))
            expect[iv.edge] = injected
        for out, used in mixes:
            expect[out] = combine([expect[d] for d in used], [1] * len(used))

    flow = simulate(net, packets, interventions)
    assert [tuple(r) for r in flow.log] == records
    assert flow.packets == expect
    assert all(r.changed for r in flow.log if r.node == "m")
    for r in flow.log:  # at m the record holds the honest value, at w the polluted e7
        assert r.honest == (honest if r.node == "m" else flow.packets)[r.edge]
    assert flow.packets["e7"] != honest["e7"]


def test_substitution_taints_exactly_the_downstream_closure():
    # an edge is tainted when its packet is not its honest kernel applied to the sources
    rng = random.Random(14)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    assert packets[0] != packets[1]
    pk, sources = packing(Field(2, 1), packets[0].size), [p.packed for p in packets]

    def tainted(coeffs):
        flow = simulate(net, packets, [Intervention("m", "e4", coeffs)])
        honest = {e: mix(pk, sources, symbols(2, 2, f)) for e, f in flow.kernels.items()}
        return {e for e, p in flow.packets.items() if p.packed != honest[e]}

    assert tainted((0, 1)) == {"e4", "e7", "e8", "e9"}
    assert tainted((1, 0)) == set()


def test_fan_topology_shape():
    rng = random.Random(5)
    net = fan(3, 2, (2, 0, 1), rng)
    assert net.n == 2
    assert net.in_edges("r0") == ("o0_0", "o0_1")
    assert net.in_edges("r1") == ()
    assert net.in_edges("r2") == ("o2_0",)
    assert net.verifiers == {"r0": 0, "r1": 1, "r2": 2}
    gk = honest_kernels(net)
    assert all(len(v) == 2 for v in gk.values())
    # the hub mixes the unit message edges, so its c-th out-edge's global kernel is column c
    columns = [(2, 1), (1, 2), (2, 2)]
    assert [tuple(row[c] for row in net.kernels["hub"]) for c in range(3)] == columns
    assert [gk[e] for e in net.out_edges("hub")] == columns


@pytest.mark.parametrize("edge_counts", [(1.9, 0.5), (True, 1), (2, "1"), (2, None)])
def test_fan_refuses_non_integer_edge_counts(edge_counts):
    # (1.9, 0.5) used to become one edge for r0 and none for r1
    with pytest.raises(ValueError, match="integers"):
        fan(3, 2, edge_counts, random.Random(5))


@pytest.mark.parametrize("n", [True, 2.0, "1", None])
def test_fan_refuses_a_non_int_message_count(n):
    # True used to build one message edge, and 2.0 failed with a TypeError
    with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
        fan(2, n, (1, 1), random.Random(5))


def test_builtin_networks_are_built_once_per_shape():
    assert butterfly(2) is butterfly(2) and diamond(5) is diamond(5)
    assert line(3, 2) is line(3, hops=2) is line(3)
    assert butterfly(2) is not butterfly(3) and line(3, 2) is not line(3, 3)
    # drawn or inline networks are built anew on every call
    assert fan(3, 2, (1, 1), random.Random(5)) is not fan(3, 2, (1, 1), random.Random(5))
    doc = {"version": 1, "q": 2, "source": "s", "nodes": ["s", "t"],
           "edges": [{"id": "e1", "tail": "s", "head": "t"}], "kernels": {}}
    assert network_from_dict(doc) is not network_from_dict(doc)


NON_INT_SHAPES = {
    "butterfly(2.0)": (butterfly, (2.0,), "q must be prime, got 2.0"),
    "butterfly(True)": (butterfly, (True,), "q must be prime, got True"),
    "diamond(5.0)": (diamond, (5.0,), "q must be prime, got 5.0"),
    "line(2.0, 2)": (line, (2.0, 2), "q must be prime, got 2.0"),
    "line(2, True)": (line, (2, True), "hops must be an int, got True"),
    "line(2, 2.0)": (line, (2, 2.0), "hops must be an int, got 2.0"),
    "line(2, '2')": (line, (2, "2"), "hops must be an int, got '2'"),
    "line(2, '1')": (line, (2, "1"), "hops must be an int, got '1'"),
    "line(2, None)": (line, (2, None), "hops must be an int, got None"),
}
# a verifier seat is a shape too: diamond's sink seated at a value that is not an int
NON_INT_SHAPES |= {
    f"diamond(5) seat {bad!r}": (
        lambda seat: diamond(5).with_verifiers({"t": seat}), (bad,),
        f"verifier index of 't' must be an int, got {bad!r}",
    )
    for bad in (True, 2.0, "1", None)
}


@pytest.mark.parametrize("call", sorted(NON_INT_SHAPES))
def test_builtin_networks_refuse_non_int_shapes(call):
    butterfly(2), diamond(5), line(2, 2), line(2, 1)  # fill the shared networks first
    # a float or bool hashes like the int it equals, yet never gets a shared network
    factory, args, match = NON_INT_SHAPES[call]
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        factory(*args)


def test_shared_networks_are_read_only():
    net = butterfly(2)
    with pytest.raises(TypeError):
        net.kernels["m"] = ((1,), (0,))
    with pytest.raises(TypeError):
        net.verifiers["t1"] = 9
    with pytest.raises(TypeError):
        del net.verifiers["t1"]
    assert all(type(rows) is tuple and all(type(r) is tuple for r in rows)
               for rows in net.kernels.values())
    assert all(type(getattr(net, a)) is tuple for a in ("nodes", "edges", "sinks", "topo_order"))
    # no attribute, old or new, can be set or deleted on any network
    names = ("q", "source", "nodes", "edges", "kernels", "verifiers", "sinks", "topo_order", "new")
    built = (net, fan(3, 2, (2, 1), random.Random(41)), net.with_verifiers({"t1": 0}),
             pickle.loads(pickle.dumps(net)))
    for other in built:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(other, name, ("t1",))
            with pytest.raises(AttributeError):
                delattr(other, name)
    assert butterfly(2).sinks == ("t1", "t2") and butterfly(2).source == "s"
    assert honest_kernels(butterfly(2)) == BUTTERFLY_KERNELS


def test_with_verifiers_leaves_the_shared_network_alone():
    net = butterfly(2)
    seats = dict(net.verifiers)
    moved = net.with_verifiers({"t1": 0, "t2": 1})
    assert moved is not net and dict(moved.verifiers) == {"t1": 0, "t2": 1}
    assert butterfly(2) is net and dict(net.verifiers) == seats
    with pytest.raises(TypeError):
        moved.verifiers["t1"] = 2


def test_copied_networks_simulate_the_same_flow():
    rng = random.Random(40)
    for net in (butterfly(3), line(3, 3), diamond(3), fan(3, 2, (2, 1), rng)):
        packets = scheme_for(net, rng)[4]
        flow = simulate(net, packets)
        for dup in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert dup is not net
            assert dict(dup.kernels) == dict(net.kernels) and dict(dup.verifiers) == dict(net.verifiers)
            for attr in ("q", "source", "nodes", "edges", "sinks", "topo_order"):
                assert getattr(dup, attr) == getattr(net, attr), attr
            again = simulate(dup, packets)
            assert again.kernels == flow.kernels and again.packets == flow.packets


def test_topology_document_roundtrip():
    doc = {
        "version": 1,
        "q": 2,
        "source": "s",
        "nodes": ["s", "a", "t"],
        "edges": [
            {"id": "e1", "tail": "s", "head": "a"},
            {"id": "e2", "tail": "a", "head": "t"},
        ],
        "kernels": {"a": [[1]]},
        "verifiers": {"a": 0},
        "sinks": ["t"],
    }
    net = network_from_dict(doc)
    assert net.n == 1 and net.sinks == ("t",)
    assert network_from_dict(json.loads(json.dumps(doc))).edges == net.edges

    bad = dict(doc, extra=1)
    with pytest.raises(ValueError, match="unknown fields"):
        network_from_dict(bad)
    with pytest.raises(ValueError, match="version"):
        network_from_dict(dict(doc, version=2))
    missing = dict(doc)
    del missing["edges"]
    with pytest.raises(ValueError, match="edges"):
        network_from_dict(missing)
    bad_edge = dict(doc, edges=[{"id": "e1", "tail": "s", "head": "a", "w": 9}])
    with pytest.raises(ValueError, match="edges"):
        network_from_dict(bad_edge)


def test_simulate_input_validation():
    rng = random.Random(1)
    net = diamond(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    with pytest.raises(ValueError):
        simulate(net, packets[:1])
    wrong_field = make_instance(rng, 3, 1, 2, 2, V=1, n=2)[4]
    with pytest.raises(ValueError):
        simulate(net, wrong_field)
    mixed = [packet(Field(2, 1), (1, 0, 0)), packet(Field(2, 1), (1, 0, 0, 0))]
    with pytest.raises(ValueError, match="disagree on field or tag length"):
        simulate(net, mixed)
    with pytest.raises(ValueError, match="needs 2 coefficients, got 1"):
        simulate(net, packets, [Intervention("t", "e3", (1,))])
