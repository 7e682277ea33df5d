"""Single-source multicast simulation for linear network coding on DAGs.

The source's n outgoing edges are the virtual message edges: edge i carries
source packet i and the i-th unit global kernel.  Every other node emits,
on each outgoing edge, the F_q-linear combination of its incoming traffic
given by the matching column of its local kernel matrix.  The honest
global kernels follow the same recursion over unit vectors, mixed in the
same pass, so absent interference the flat value on edge e is exactly f_e
applied to the stacked source packets.

Adversarial substitutions model a relay that replaces its own view of one
incoming edge by a coefficient-sum-one combination of all its inputs;
downstream nodes process the altered value, upstream traffic is
untouched.  A flow holds one packet per edge, the one delivered to
the edge's head: on a substituted edge that is the substitute, and the
value its tail emitted is kept in the intervention record.

Decoding works on what any set of nodes observed on their in-edges (a
`CoalitionView`): a sink decodes its one-node view, and a coalition of
relays decodes its pooled view with the same routine.
"""

from __future__ import annotations

import random
from collections import namedtuple
from graphlib import CycleError

from .field import Field, packing
from .linalg import Matrix, solve
from .scheme import ForgerySpec, TaggedPacket, VerifierKey, combine, mix, verify


Edge = namedtuple("Edge", "id tail head")


class Network:
    """A validated coding topology: DAG, local kernels, verifier seats, sinks.

    `topo_order` is one deterministic Kahn pass; a cycle raises ``graphlib.CycleError``.
    """

    def __init__(self, q, source, nodes, edges, kernels, verifiers=None, sinks=()):
        Field(q, 1)  # kernels live in F_q: q must be a prime up to the field bound
        self.q = q
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        self.source = source
        if self.source not in self.nodes:
            raise ValueError(f"unknown source node {self.source!r}")

        parsed = []
        for e in edges:
            e = Edge(*e) if not isinstance(e, Edge) else e
            if e.tail not in self.nodes or e.head not in self.nodes:
                raise ValueError(f"edge {e.id!r} references unknown node")
            parsed.append(e)
        self.edges = tuple(parsed)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")

        self._in: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            self._out[e.tail].append(e.id)
            self._in[e.head].append(e.id)

        if self._in[self.source]:
            raise ValueError("source must not have incoming edges")
        if not self._out[self.source]:
            raise ValueError("source needs at least one outgoing message edge")

        waiting = {n: len(ins) for n, ins in self._in.items()}
        head = {e.id: e.head for e in self.edges}
        order = [n for n in self.nodes if not waiting[n]]
        for node in order:  # Kahn (1962): grows as nodes become ready, from document order
            for h in map(head.get, self._out[node]):
                waiting[h] -= 1
                if not waiting[h]:
                    order.append(h)
        if len(order) < len(self.nodes):
            raise CycleError(f"nodes on or after a cycle: {[n for n in self.nodes if waiting[n]]}")
        self.topo_order = tuple(order)

        self.kernels: dict[str, tuple[tuple[int, ...], ...]] = {}
        kernels = dict(kernels or {})
        for node, rows in kernels.items():
            if node not in self.nodes:
                raise ValueError(f"kernel for unknown node {node!r}")
            rows = tuple(tuple(r) for r in rows)
            want_r, want_c = len(self._in[node]), len(self._out[node])
            if len(rows) != want_r or any(len(r) != want_c for r in rows):
                raise ValueError(
                    f"kernel of {node!r} must be {want_r}x{want_c} (in-degree x out-degree)"
                )
            if any(type(v) is not int or not 0 <= v < self.q for r in rows for v in r):
                raise ValueError(f"kernel entries of {node!r} must be integers in [0, {self.q})")
            self.kernels[node] = rows
        for node in self.nodes:
            if node == self.source or not self._out[node]:
                continue
            if self._in[node] and node not in self.kernels:
                raise ValueError(f"missing kernel for relay node {node!r}")

        verifiers = dict(verifiers or {})
        for node, idx in verifiers.items():
            if node not in self.nodes:
                raise ValueError(f"verifier seat on unknown node {node!r}")
            if type(idx) is not int or idx < 0:
                raise ValueError(f"verifier index of {node!r} must be a nonnegative int")
        if len(set(verifiers.values())) != len(verifiers):
            raise ValueError("two nodes share one verifier index")
        self.verifiers = verifiers

        self.sinks = tuple(sinks)
        for s in self.sinks:
            if s not in self.nodes:
                raise ValueError(f"unknown sink node {s!r}")

    @property
    def n(self) -> int:
        """Number of source messages = source out-degree."""
        return len(self._out[self.source])

    def in_edges(self, node: str) -> tuple[str, ...]:
        return tuple(self._in[node])

    def out_edges(self, node: str) -> tuple[str, ...]:
        return tuple(self._out[node])

    def with_verifiers(self, verifiers) -> "Network":
        return Network(
            self.q, self.source, self.nodes, self.edges, self.kernels, verifiers, self.sinks
        )


Intervention = namedtuple("Intervention", "node edge coeffs")
Intervention.__doc__ = "Replace `node`'s view of incoming `edge` by a sum-one mix of its inputs."


class InterventionRecord(
    namedtuple("InterventionRecord", "node edge coeffs honest injected")
):
    """An applied `Intervention` and the flat values its tail emitted and its head received."""

    __slots__ = ()

    @property
    def changed(self) -> bool:
        return self.honest != self.injected


FlowState = namedtuple("FlowState", "network kernels packets log")
FlowState.__doc__ = """One run: per edge, its honest global kernel and its delivered packet.

`packets[e]` is the packet delivered to e's head.  A substituted edge's
packet is the substitute; what its tail emitted is the `honest` value of
the edge's `InterventionRecord` in `log`.
"""


def simulate(net: Network, packets, interventions=()) -> FlowState:
    """Run the coding network on `packets`, applying any substitutions."""
    packets = list(packets)
    if len(packets) != net.n:
        raise ValueError(f"need {net.n} source packets, got {len(packets)}")
    fld = packets[0].field
    width = len(packets[0].flat)
    if any(p.field is not fld or len(p.flat) != width for p in packets):
        raise ValueError("source packets disagree on field or tag length")
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

    n, q = net.n, net.q
    values: dict[str, TaggedPacket] = {}
    kernels: dict[str, tuple[int, ...]] = {}
    log: list[InterventionRecord] = []

    for i, (e, p) in enumerate(zip(net.out_edges(net.source), packets)):
        values[e] = p
        kernels[e] = tuple(int(t == i) for t in range(n))
    for node in net.topo_order:
        if node == net.source:
            continue
        ins = net.in_edges(node)
        honest = [values[d] for d in ins]
        for iv in by_node.get(node, ()):
            injected = combine(honest, iv.coeffs)
            idx = ins.index(iv.edge)
            log.append(
                InterventionRecord(node, iv.edge, tuple(iv.coeffs), honest[idx].flat, injected.flat)
            )
            values[iv.edge] = injected
        current = [values[d] for d in ins]
        kern = net.kernels.get(node, ())
        for c, e in enumerate(net.out_edges(node)):
            if current:
                col = [kern[r][c] for r in range(len(ins))]
                values[e] = combine(current, col)
                kernels[e] = mix(q, [kernels[d] for d in ins], col)
            else:
                values[e] = TaggedPacket._from_reduced(fld, (0,) * width)
                kernels[e] = (0,) * n
    return FlowState(net, kernels, values, tuple(log))


DecodeResult = namedtuple("DecodeResult", "ok rank packets payloads reason", defaults=(None,))


class CoalitionView(namedtuple("CoalitionView", "nodes h_rows packets")):
    """What a set of nodes observed on their in-edges: kernels and packets, stacked."""

    __slots__ = ()

    @property
    def h_total(self) -> int:
        return len(self.h_rows)


def decode(view: CoalitionView) -> DecodeResult:
    """Solve a view's observations for the source packets; failure is reported, not raised.

    One solve of F X = Y, the observed kernel rows F beside the observed flat
    packets Y, gives the rank (pivots among F's n columns), consistency and,
    at full rank, the source packets.  Packets are F_q symbols, packed as
    they are: over F_q a packed entry is the symbol itself.  A sink decodes
    `coalition_view(flow, [sink])`; a coalition decodes its own view the
    same way.
    """
    if not view.h_rows:
        return DecodeResult(False, 0, None, None, "sink has no incoming edges")
    n = len(view.h_rows[0])
    fld = view.packets[0].field
    width = len(view.packets[0].flat)
    base = Field(fld.q, 1)
    packet_pk = packing(base, width)
    coeff = Matrix(base, view.h_rows, cols=n)  # reduces kernel entries mod q
    observed = Matrix._from_packed(base, [packet_pk.pack(p.flat) for p in view.packets], width)
    rank, x = solve(coeff, observed)
    if rank < n:
        return DecodeResult(False, rank, None, None, "insufficient rank")
    if x is None:
        return DecodeResult(False, rank, None, None, "observations are inconsistent")
    pkts = tuple(TaggedPacket._from_reduced(fld, tuple(packet_pk.entries(v))) for v in x.packed)
    return DecodeResult(True, rank, pkts, tuple(p.m for p in pkts))


def coalition_view(flow: FlowState, coalition) -> CoalitionView:
    coalition = tuple(coalition)
    if not coalition:
        raise ValueError("empty coalition")
    if len(set(coalition)) != len(coalition):
        raise ValueError("duplicate coalition node")
    net = flow.network
    rows, pkts = [], []
    for node in coalition:
        if node not in net.nodes:
            raise ValueError(f"unknown coalition node {node!r}")
        for e in net.in_edges(node):
            rows.append(flow.kernels[e])
            pkts.append(flow.packets[e])
    return CoalitionView(coalition, tuple(rows), tuple(pkts))


def accept_map(flow: FlowState, keys_by_node: dict[str, VerifierKey]):
    """Per-verifier, per-incoming-edge verification outcomes."""
    net = flow.network
    out: dict[str, dict[str, bool]] = {}
    for node in sorted(keys_by_node):
        vkey = keys_by_node[node]
        out[node] = {e: verify(vkey, flow.packets[e]) for e in net.in_edges(node)}
    return out


# ---------------------------------------------------------------------------
# built-in topologies


def butterfly(q: int) -> Network:
    """The two-message crossover network; its middle edge mixes both messages."""
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


def line(q: int, hops: int = 2) -> Network:
    """One message relayed along a chain of `hops` unit-weight nodes."""
    if hops < 1:
        raise ValueError("line needs at least one hop")
    nodes = ["s"] + [f"v{i}" for i in range(1, hops + 1)]
    edges = [(f"e{i}", nodes[i], nodes[i + 1]) for i in range(hops)]
    kernels = {f"v{i}": [[1]] for i in range(1, hops)}
    verifiers = {f"v{i}": i - 1 for i in range(1, hops + 1)}
    return Network(q, "s", nodes, edges, kernels, verifiers, (nodes[-1],))


def diamond(q: int) -> Network:
    """Two disjoint unit-weight paths meeting at one sink."""
    edges = [("e1", "s", "a"), ("e2", "s", "b"), ("e3", "a", "t"), ("e4", "b", "t")]
    kernels = {"a": [[1]], "b": [[1]]}
    verifiers = {"a": 0, "b": 1, "t": 2}
    return Network(q, "s", ("s", "a", "b", "t"), edges, kernels, verifiers, ("t",))


def fan(q: int, n: int, edge_counts, rng: random.Random) -> Network:
    """Source feeds one mixing hub; member node i taps edge_counts[i] hub outputs.

    Hub kernel entries are drawn uniformly from rng, so member i observes
    edge_counts[i] random combinations of the n messages.
    """
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
