"""Topology validation, kernel recursion, simulation, decode, coalition view."""

import json
import random

import pytest

from ncauth import (
    CoalitionView,
    CycleError,
    Field,
    Intervention,
    Matrix,
    Network,
    TaggedPacket,
    accept_map,
    butterfly,
    coalition_view,
    combine,
    decode,
    diamond,
    fan,
    keygen,
    line,
    network_from_dict,
    simulate,
    tag,
)
from support import make_instance, matmul

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
    """The global kernels `simulate` reports for `net`, on placeholder packets."""
    return simulate(net, [TaggedPacket(Field(net.q, 1), (1, 0, 0))] * net.n).kernels


def test_butterfly_global_kernels_hand_computed():
    assert honest_kernels(butterfly(2)) == BUTTERFLY_KERNELS


def test_line_and_diamond_kernels():
    gk = honest_kernels(line(3, hops=3))
    assert all(v == (1,) for v in gk.values())
    gk2 = honest_kernels(diamond(5))
    assert gk2["e3"] == (1, 0) and gk2["e4"] == (0, 1)


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


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Network(
            2,
            "s",
            ("s", "a", "b"),
            [("e1", "s", "a"), ("e2", "a", "b"), ("e3", "b", "a")],
            {"a": [[1], [1]], "b": [[1]]},
        )


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
        butterfly(2, verifiers={"t1": 0, "t2": 0})  # shared seat
    with pytest.raises(ValueError):
        butterfly(2, verifiers={"t1": True})  # a bool is not a seat index
    # non-integers are refused, not converted through int()
    edges = [("e1", "s", "a"), ("e2", "a", "t")]
    for q, entry in (("7", 1), (7.0, 1), (True, 1), (7, 1.9), (7, True), (7, "1")):
        with pytest.raises(ValueError):
            Network(q, "s", ("s", "a", "t"), edges, {"a": [[entry]]})


def test_honest_flow_matches_global_kernels():
    # oracle: flat edge value must equal f_e applied to the stacked sources
    rng = random.Random(31)
    for net in (butterfly(2), diamond(3), line(5, hops=3)):
        params, skey, vkeys, messages, packets = scheme_for(net, rng)
        flow = simulate(net, packets)
        base = Field(net.q, 1)
        x = Matrix(base, [p.flat for p in packets], cols=len(packets[0].flat))
        for e, f in flow.kernels.items():
            fe = Matrix(base, [f], cols=net.n)
            expect = matmul(fe, x).data[0]
            assert tuple(v.coeffs[0] for v in expect) == flow.edge_packets[e].flat


def test_identity_substitution_changes_nothing():
    rng = random.Random(7)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    honest = simulate(net, packets)
    same = simulate(net, packets, [Intervention("m", "e4", (1, 0))])
    assert same.edge_packets == honest.edge_packets
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
    assert view.row_counts == (2, 2) and view.h_total == 4
    assert view.h_rows == (
        BUTTERFLY_KERNELS["e4"],
        BUTTERFLY_KERNELS["e5"],
        BUTTERFLY_KERNELS["e3"],
        BUTTERFLY_KERNELS["e8"],
    )
    assert view.packets[0] == flow.received["m"][0]
    assert Matrix(Field(2, 1), view.h_rows).rank() == decode(view).rank == 2
    # a hand-built view's kernel entries mean their residues mod q: -1 is 1 and 2 is 0
    shifted = tuple(tuple(a - 2 if a else 2 for a in h) for h in view.h_rows)
    assert decode(CoalitionView(view.nodes, view.row_counts, shifted, view.packets)) == decode(view)
    with pytest.raises(ValueError):
        coalition_view(flow, ())
    with pytest.raises(ValueError):
        coalition_view(flow, ("m", "m"))


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
        assert res.rank == Matrix(Field(q, 1), view.h_rows, cols=n).rank()
        assert res.ok == (res.rank == n)
        if res.ok:
            assert res.payloads == tuple(messages)


def test_interventions_affect_only_the_intervened_view():
    rng = random.Random(14)
    net = butterfly(2)
    params, skey, vkeys, messages, packets = scheme_for(net, rng)
    flow = simulate(net, packets, [Intervention("m", "e4", (0, 1))])
    # emitted value on e4 stays honest; only m's received copy changes
    assert flow.edge_packets["e4"] == packets[0]
    assert flow.received["m"][0] == flow.received["m"][1] == packets[1]


def test_fan_topology_shape():
    rng = random.Random(5)
    net = fan(3, 2, (2, 0, 1), rng)
    assert net.n == 2
    assert net.in_edges("r0") == ("o0_0", "o0_1")
    assert net.in_edges("r1") == ()
    assert net.in_edges("r2") == ("o2_0",)
    assert net.verifiers == {"r0": 0, "r1": 1, "r2": 2}
    assert all(len(v) == 2 for v in honest_kernels(net).values())


@pytest.mark.parametrize("edge_counts", [(1.9, 0.5), (True, 1), (2, "1"), (2, None)])
def test_fan_refuses_non_integer_edge_counts(edge_counts):
    # (1.9, 0.5) used to become one edge for r0 and none for r1
    with pytest.raises(ValueError, match="integers"):
        fan(3, 2, edge_counts, random.Random(5))


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
