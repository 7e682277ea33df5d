"""Single-source multicast simulation for linear network coding on DAGs.

The source's n outgoing edges are the virtual message edges: edge i carries
source packet i and the i-th unit global kernel.  Every other node emits,
on each outgoing edge, the F_q-linear combination of its incoming traffic
given by the matching column of its local kernel matrix.  The honest
global kernels follow the same recursion over unit vectors, mixed in the
same pass, so absent interference the flat value on edge e is exactly f_e
applied to the stacked source packets.  Both are packed F_q vectors mixed
by `mix`, and both stay packed: at the end each edge's vector is wrapped
into a packet and its kernel kept as the packed int it was mixed as.

Adversarial substitutions model a relay that replaces its own view of one
incoming edge by a coefficient-sum-one combination of all its inputs;
downstream nodes process the altered value, upstream traffic is
untouched.  A flow holds one packet per edge, the one delivered to
the edge's head: on a substituted edge that is the substitute, and the
packet its tail emitted is kept in the intervention record.

Decoding works on what any set of nodes observed on their in-edges (a
`CoalitionView`): a sink decodes its one-node view, and a coalition of
relays decodes its pooled view with the same routine.

A `Network` is read-only by construction: no attribute can be set after
``__init__``, its sequences are tuples, its `kernels` and `verifiers`
read-only mappings, and `with_verifiers` builds a new one.  So the built-in
topologies (`butterfly`, `diamond`, `line`) are each built on first use and
shared, one network per (q, shape) cached by ``functools.lru_cache(typed=True)``,
as a ``Field`` is one object per (q, l); `fan` draws its kernels, so it
builds a new one per call.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from graphlib import CycleError
from types import MappingProxyType

from .field import Field, packing
from .linalg import Matrix, solve
from .scheme import ForgerySpec, TaggedPacket, VerifierKey, _agree, mix, verify


Edge = namedtuple("Edge", "id tail head")


class Network:
    """A validated, read-only coding topology: DAG, local kernels, verifier seats, sinks.

    `topo_order` is one deterministic Kahn pass; a cycle raises ``graphlib.CycleError``.
    No attribute can be set after construction, and `kernels` and `verifiers`
    are read-only mappings, so a network can be shared.
    """

    __slots__ = ("q", "source", "nodes", "edges", "kernels", "verifiers", "sinks", "topo_order",
                 "_in", "_out")

    def __init__(self, q, source, nodes, edges, kernels, verifiers=None, sinks=()):
        Field(q, 1)  # kernels live in F_q: q must be a prime up to the field bound
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names")
        if source not in nodes:
            raise ValueError(f"unknown source node {source!r}")

        edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        for e in edges:
            if e.tail not in nodes or e.head not in nodes:
                raise ValueError(f"edge {e.id!r} references unknown node")
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")

        ins, outs = {n: [] for n in nodes}, {n: [] for n in nodes}
        for e in edges:
            outs[e.tail].append(e.id)
            ins[e.head].append(e.id)
        ins = {n: tuple(v) for n, v in ins.items()}
        outs = {n: tuple(v) for n, v in outs.items()}

        if ins[source]:
            raise ValueError("source must not have incoming edges")
        if not outs[source]:
            raise ValueError("source needs at least one outgoing message edge")

        waiting = {n: len(v) for n, v in ins.items()}
        head = {e.id: e.head for e in edges}
        order = [n for n in nodes if not waiting[n]]
        for node in order:  # Kahn (1962): grows as nodes become ready, from document order
            for h in map(head.get, outs[node]):
                waiting[h] -= 1
                if not waiting[h]:
                    order.append(h)
        if len(order) < len(nodes):
            raise CycleError(f"nodes on or after a cycle: {[n for n in nodes if waiting[n]]}")

        checked: dict[str, tuple[tuple[int, ...], ...]] = {}
        for node, rows in dict(kernels or {}).items():
            if node not in nodes:
                raise ValueError(f"kernel for unknown node {node!r}")
            rows = tuple(tuple(r) for r in rows)
            want_r, want_c = len(ins[node]), len(outs[node])
            if len(rows) != want_r or any(len(r) != want_c for r in rows):
                raise ValueError(
                    f"kernel of {node!r} must be {want_r}x{want_c} (in-degree x out-degree)"
                )
            if any(type(v) is not int or not 0 <= v < q for r in rows for v in r):
                raise ValueError(f"kernel entries of {node!r} must be integers in [0, {q})")
            checked[node] = rows
        for node in nodes:
            if node == source or not outs[node]:
                continue
            if ins[node] and node not in checked:
                raise ValueError(f"missing kernel for relay node {node!r}")

        verifiers = dict(verifiers or {})
        for node, idx in verifiers.items():
            if node not in nodes:
                raise ValueError(f"verifier seat on unknown node {node!r}")
            if type(idx) is not int or idx < 0:
                raise ValueError(f"verifier index of {node!r} must be a nonnegative int")
        if len(set(verifiers.values())) != len(verifiers):
            raise ValueError("two nodes share one verifier index")

        sinks = tuple(sinks)
        if len(set(sinks)) != len(sinks):
            raise ValueError("duplicate sink nodes")
        for s in sinks:
            if s not in nodes:
                raise ValueError(f"unknown sink node {s!r}")

        values = (q, source, nodes, edges, MappingProxyType(checked), MappingProxyType(verifiers),
                  sinks, tuple(order), ins, outs)
        for name, value in zip(Network.__slots__, values):  # each slot is set once, here
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a Network is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        """Number of source messages = source out-degree."""
        return len(self._out[self.source])

    def in_edges(self, node: str) -> tuple[str, ...]:
        return self._in[node]

    def out_edges(self, node: str) -> tuple[str, ...]:
        return self._out[node]

    def with_verifiers(self, verifiers) -> "Network":
        """A new network with these seats; this one is left as it is."""
        return Network(
            self.q, self.source, self.nodes, self.edges, self.kernels, verifiers, self.sinks
        )

    def __reduce__(self):
        # copies and unpickled networks are rebuilt, and checked again, from their parts
        return Network, (
            self.q, self.source, self.nodes, self.edges,
            dict(self.kernels), dict(self.verifiers), self.sinks,
        )


Intervention = namedtuple("Intervention", "node edge coeffs")
Intervention.__doc__ = "Replace `node`'s view of incoming `edge` by a sum-one mix of its inputs."


class InterventionRecord(
    namedtuple("InterventionRecord", "node edge coeffs honest injected")
):
    """An applied `Intervention` and the packets its tail emitted and its head received."""

    __slots__ = ()

    @property
    def changed(self) -> bool:
        return self.honest != self.injected


FlowState = namedtuple("FlowState", "network kernels packets log")
FlowState.__doc__ = """One run: per edge, its honest global kernel and its delivered packet.

`kernels[e]` is e's global kernel, n F_q symbols packed, and `packets[e]`
the packet delivered to e's head.  A substituted edge's packet is the
substitute; the one its tail emitted is its record's `honest` in `log`.
"""


def simulate(net: Network, packets, interventions=()) -> FlowState:
    """Run the coding network on `packets`, applying any substitutions.

    The packets are checked once, on entry.  The run mixes their packed
    vectors with `mix`, beside the packed kernels, and wraps each edge's
    vector and each substitution's two vectors into packets, unpacking none.
    """
    packets = list(packets)
    if len(packets) != net.n:
        raise ValueError(f"need {net.n} source packets, got {len(packets)}")
    fld, pk, sources = _agree(packets)
    if fld.q != net.q:
        raise ValueError(f"packet symbols mod {fld.q} but network kernels mod {net.q}")

    by_node: dict[str, list[Intervention]] = {}
    for iv in interventions:
        if iv.node not in net.nodes:
            raise ValueError(f"intervention at unknown node {iv.node!r}")
        ins = net.in_edges(iv.node)
        if iv.edge not in ins:
            raise ValueError(f"edge {iv.edge!r} does not enter node {iv.node!r}")
        if len(iv.coeffs) != len(ins):
            raise ValueError(
                f"intervention at {iv.node!r} needs {len(ins)} coefficients, got {len(iv.coeffs)}"
            )
        ForgerySpec(net.q, iv.coeffs)  # a substitution mixes with sum-one coefficients
        by_node.setdefault(iv.node, []).append(iv)

    kpk = packing(pk.field, net.n)  # kernels: n symbols over the same F_q
    vectors = dict(zip(net.out_edges(net.source), sources))
    kernels = {e: 1 << kpk.ew * i for i, e in enumerate(vectors)}
    log: list[InterventionRecord] = []
    def wrap(v):
        return TaggedPacket._from_reduced(fld, v, pk.size)
    for node in net.topo_order:
        if node == net.source:
            continue
        ins = net.in_edges(node)
        honest = [vectors[d] for d in ins]
        for iv in by_node.get(node, ()):  # every substitute mixes the inputs as they arrived
            sent, sub = honest[ins.index(iv.edge)], mix(pk, honest, iv.coeffs)
            log.append(InterventionRecord(node, iv.edge, tuple(iv.coeffs), wrap(sent), wrap(sub)))
            vectors[iv.edge] = sub
        current = [vectors[d] for d in ins] if node in by_node else honest
        in_kernels = [kernels[d] for d in ins]
        kern = net.kernels.get(node, ())
        for c, e in enumerate(net.out_edges(node)):
            col = [row[c] for row in kern]
            vectors[e], kernels[e] = mix(pk, current, col), mix(kpk, in_kernels, col)
    return FlowState(net, kernels, {e: wrap(v) for e, v in vectors.items()}, tuple(log))


DecodeResult = namedtuple("DecodeResult", "ok rank packets payloads reason", defaults=(None,))


CoalitionView = namedtuple("CoalitionView", "nodes h packets")
CoalitionView.__doc__ = """What a set of nodes observed on their in-edges, stacked in edge order.

`h` is the F_q ``Matrix`` of the observed global kernels, one row per
in-edge and n columns, beside the `packets` delivered on those edges.
"""


def decode(view: CoalitionView) -> DecodeResult:
    """Solve a view's observations for the source packets; failure is reported, not raised.

    One solve of F X = Y, the view's kernel matrix F beside the observed flat
    packets Y, gives the rank (pivots among F's n columns), consistency and,
    at full rank, the source packets.  F is solved as it is, and packets
    are F_q vectors in the packed layout of a ``Matrix`` row, so their rows
    are taken as they are and the solved rows become packets without
    unpacking.  A sink decodes `coalition_view(flow, [sink])`; a coalition
    decodes its own view the same way.
    """
    h = view.h
    if not h.rows:
        return DecodeResult(False, 0, None, None, "sink has no incoming edges")
    fld, size = view.packets[0].field, view.packets[0].size
    rank, x = solve(h, Matrix._from_packed(h.field, [p.packed for p in view.packets], size))
    if rank < h.cols:
        return DecodeResult(False, rank, None, None, "insufficient rank")
    if x is None:
        return DecodeResult(False, rank, None, None, "observations are inconsistent")
    pkts = tuple(TaggedPacket._from_reduced(fld, v, size) for v in x.packed)
    return DecodeResult(True, rank, pkts, tuple(p.m for p in pkts))


def coalition_view(flow: FlowState, coalition) -> CoalitionView:
    coalition = tuple(coalition)
    if not coalition:
        raise ValueError("empty coalition")
    if len(set(coalition)) != len(coalition):
        raise ValueError("duplicate coalition node")
    net = flow.network
    for node in coalition:
        if node not in net.nodes:
            raise ValueError(f"unknown coalition node {node!r}")
    edges = [e for node in coalition for e in net.in_edges(node)]
    h = Matrix._from_packed(Field(net.q, 1), [flow.kernels[e] for e in edges], net.n)
    return CoalitionView(coalition, h, tuple(flow.packets[e] for e in edges))


def accept_map(flow: FlowState, keys_by_node: dict[str, VerifierKey]):
    """Per-verifier, per-incoming-edge verification outcomes."""
    net = flow.network
    out: dict[str, dict[str, bool]] = {}
    for node in sorted(keys_by_node):
        if node not in net.nodes:
            raise ValueError(f"unknown node {node!r}")
        vkey = keys_by_node[node]
        out[node] = {e: verify(vkey, flow.packets[e]) for e in net.in_edges(node)}
    return out


# ---------------------------------------------------------------------------
# built-in topologies


def butterfly(q: int) -> Network:
    """The two-message crossover network; its middle edge mixes both messages.

    One shared, read-only network per q, built on first use.
    """
    return _butterfly(q)


def line(q: int, hops: int = 2) -> Network:
    """One message relayed along a chain of `hops` unit-weight nodes.

    One shared, read-only network per (q, hops), built on first use.
    """
    if type(hops) is not int:
        raise ValueError(f"hops must be an int, got {hops!r}")
    if hops < 1:
        raise ValueError("line needs at least one hop")
    return _line(q, hops)


def diamond(q: int) -> Network:
    """Two disjoint unit-weight paths meeting at one sink.

    One shared, read-only network per q, built on first use.
    """
    return _diamond(q)


# Each built-in is built once per shape and never evicted.  Typed keys keep a
# float or bool, which hashes like the int it equals, from an int's network:
# it reaches `Network`, which refuses it.
@functools.lru_cache(maxsize=None, typed=True)
def _butterfly(q):
    edges = [
        ("e1", "s", "u1"),
        ("e2", "s", "u2"),
        ("e3", "u1", "t1"),
        ("e4", "u1", "m"),
        ("e5", "u2", "m"),
        ("e6", "u2", "t2"),
        ("e7", "m", "w"),
        ("e8", "w", "t1"),
        ("e9", "w", "t2"),
    ]
    kernels = {
        "u1": [[1, 1]],
        "u2": [[1, 1]],
        "m": [[1], [1]],
        "w": [[1, 1]],
    }
    verifiers = {"u1": 0, "u2": 1, "m": 2, "w": 3, "t1": 4, "t2": 5}
    return Network(
        q, "s", ("s", "u1", "u2", "m", "w", "t1", "t2"), edges, kernels, verifiers, ("t1", "t2")
    )


@functools.lru_cache(maxsize=None, typed=True)
def _line(q, hops):
    nodes = ["s"] + [f"v{i}" for i in range(1, hops + 1)]
    edges = [(f"e{i}", nodes[i], nodes[i + 1]) for i in range(hops)]
    kernels = {f"v{i}": [[1]] for i in range(1, hops)}
    verifiers = {f"v{i}": i - 1 for i in range(1, hops + 1)}
    return Network(q, "s", nodes, edges, kernels, verifiers, (nodes[-1],))


@functools.lru_cache(maxsize=None, typed=True)
def _diamond(q):
    edges = [("e1", "s", "a"), ("e2", "s", "b"), ("e3", "a", "t"), ("e4", "b", "t")]
    kernels = {"a": [[1]], "b": [[1]]}
    verifiers = {"a": 0, "b": 1, "t": 2}
    return Network(q, "s", ("s", "a", "b", "t"), edges, kernels, verifiers, ("t",))


def fan(q: int, n: int, edge_counts, rng: random.Random) -> Network:
    """Source feeds one mixing hub; member node i taps edge_counts[i] hub outputs.

    Hub kernel entries are drawn uniformly from rng, so member i observes
    edge_counts[i] random combinations of the n messages.  Each call builds
    a new network: its kernels are drawn, so it is never shared.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    edge_counts = tuple(edge_counts)
    if not edge_counts or any(type(c) is not int or c < 0 for c in edge_counts):
        raise ValueError("edge_counts must be nonnegative integers and nonempty")
    members = [f"r{i}" for i in range(len(edge_counts))]
    nodes = ["s", "hub"] + members
    edges = [(f"m{j}", "s", "hub") for j in range(n)]
    for i, cnt in enumerate(edge_counts):
        edges += [(f"o{i}_{j}", "hub", members[i]) for j in range(cnt)]
    total = sum(edge_counts)
    kernels = {}
    if total:
        kernels["hub"] = [[rng.randrange(q) for _ in range(total)] for _ in range(n)]
    verifiers = {m: i for i, m in enumerate(members)}
    return Network(q, "s", nodes, edges, kernels, verifiers, ())
