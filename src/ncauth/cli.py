"""Scenario and topology documents, scenario runner, sweeps and the command line.

A scenario document binds field parameters, a topology, payloads and an
optional attack into one experiment.  One set of helpers parses it and its
inline topology, naming the offending field; names must be strings.  All
randomness is derived from the scenario seed through named substreams, and
reports are emitted as sorted-key JSON, so rerunning a scenario
byte-reproduces its report.  ``argparse`` and ``json`` serve only the
command line, and ``dataclasses`` only the sweep row; each is imported on
first use, so ``import ncauth`` loads none of them.
"""

from __future__ import annotations

import functools
import random
import sys
from collections import namedtuple

from .attacks import (
    BRUTE_FORCE_GUARD,
    RecoveryResult,
    analyze_recovery,
    build_recovery_system,
    forge,
    solve_target_coeffs,
)
from .field import Field, Fel, _check_int
from .netsim import (
    Edge,
    Intervention,
    Network,
    accept_map,
    butterfly,
    coalition_view,
    decode,
    diamond,
    fan,
    line,
    simulate,
)
from .scheme import FLAT_LAYOUT, ForgerySpec, SystemParams, TaggedPacket, keygen, tag, verify

SCHEMA_VERSION = 1
TOPOLOGY_VERSION = 1
REPORT_VERSION = 1

_SCENARIO_KEYS = {"version", "seed", "params", "topology", "verifiers", "messages", "adversaries", "attack"}
_PARAM_KEYS = {"q", "l", "k", "M", "V", "n", "public_points", "allow_excess_messages"}
_TOPOLOGY_KEYS = {"version", "q", "source", "nodes", "edges", "kernels", "verifiers", "sinks"}
_EDGE_KEYS = ("id", "tail", "head")
# attack.type -> (the subcommand that runs it, its help, its document keys)
_ATTACKS = {
    "none": ("simulate", "run a scenario without any attack", {"type"}),
    "forge": ("forge", "run a scenario with a forgery attack", {"type", "coeffs", "target"}),
    "pollute": (
        "pollute", "run a scenario with an in-network substitution", {"type", "node", "edge", "coeffs"}
    ),
    "recover": ("recover", "run a coalition key-recovery analysis", {"type"}),
}
_BUILTIN_TOPOLOGIES = {"butterfly": butterfly, "line": line, "diamond": diamond}


class ConfigError(ValueError):
    """A scenario document failed validation; `field` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _substream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


def _is(value, kind) -> bool:
    """isinstance for a JSON value: Python's bool is an int, JSON's true is not."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _named(where, make, *args):
    """make(*args), its ValueError refused as a ConfigError that names `where`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _known(doc, keys, where, suffix=""):
    """Refuse the fields of `doc` outside `keys`, sorted, naming `where`."""
    unknown = set(doc) - keys
    if unknown:
        raise ConfigError(where, f"unknown fields {sorted(unknown)}{suffix}")


def _check_document(doc, where, keys, version_field, version):
    """An object with no unknown fields and the integer `version`."""
    if not isinstance(doc, dict):
        raise ConfigError(where, "document must be an object")
    _known(doc, keys, where)
    found = doc.get("version")
    if not _is(found, int) or found != version:  # True and 1.0 equal 1
        raise ConfigError(version_field, f"expected {version}, got {found!r}")


def _require(doc, key, kind, where=""):
    """doc[key] of type `kind`; a top-level field (no `where`) is named by its key alone."""
    name = f"{where}.{key}" if where else key
    if key not in doc:
        raise ConfigError(name, "missing")
    if not _is(doc[key], kind):
        raise ConfigError(name, f"expected {kind.__name__}")
    return doc[key]


def _require_list(doc, key, kind, where="") -> tuple:
    """A list of integers (kind int) or of names (kind str)."""
    values = _require(doc, key, list, where)
    if not all(_is(v, kind) for v in values):
        noun = "integers" if kind is int else "strings"
        raise ConfigError(f"{where}.{key}" if where else key, f"expected a list of {noun}")
    return tuple(values)


def _require_sum_one(adoc, q: int, count: int) -> ForgerySpec:
    """attack.coeffs: `count` integers in [0, q) that sum to 1 mod q."""
    coeffs = _require_list(adoc, "coeffs", int, "attack")
    if len(coeffs) != count:
        raise ConfigError("attack.coeffs", f"expected {count} coefficients")
    return _named("attack.coeffs", ForgerySpec, q, coeffs)


def network_from_dict(doc: dict) -> Network:
    """Check an inline topology's fields and build it; `Network`'s refusals name `topology`."""
    _check_document(doc, "topology", _TOPOLOGY_KEYS, "topology.version", TOPOLOGY_VERSION)
    q = _require(doc, "q", int, "topology")
    source = _require(doc, "source", str, "topology")
    nodes = _require_list(doc, "nodes", str, "topology")
    edges = []
    for i, edoc in enumerate(_require(doc, "edges", list, "topology")):
        where = f"topology.edges[{i}]"
        if not isinstance(edoc, dict) or set(edoc) != set(_EDGE_KEYS):
            raise ConfigError(where, "must have exactly id/tail/head")
        edges.append(Edge(*(_require(edoc, key, str, where) for key in _EDGE_KEYS)))
    kernels = _require(doc, "kernels", dict, "topology") if "kernels" in doc else {}
    for node, rows in kernels.items():
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ConfigError(f"topology.kernels.{node}", "expected a list of rows")
    verifiers = _require(doc, "verifiers", dict, "topology") if "verifiers" in doc else {}
    sinks = _require_list(doc, "sinks", str, "topology") if "sinks" in doc else ()
    return _named("topology", Network, q, source, nodes, edges, kernels, verifiers, sinks)


def _sample_points(field: Field, count: int, rng: random.Random, where: str):
    if field.order - 1 < count:
        raise ConfigError(
            where, f"needs {count} distinct nonzero points but the field has {field.order - 1}"
        )
    pts: list[Fel] = []
    seen = set()
    while len(pts) < count:
        x = field.random_element(rng)
        if x.is_zero() or x in seen:
            continue
        seen.add(x)
        pts.append(x)
    return tuple(pts)


def _sum_one_coeffs(q: int, count: int, rng: random.Random) -> tuple[int, ...]:
    head = [rng.randrange(q) for _ in range(count - 1)]
    return tuple(head + [(1 - sum(head)) % q])


Scenario = namedtuple("Scenario", "raw seed params network messages adversaries attack_type attack")
Scenario.__doc__ = """A validated scenario document and every object it binds.

`attack` is what `attack_type` runs on: a `ForgerySpec` or a target element
for forge, an `Intervention` for pollute, None otherwise.
"""


def load_scenario(doc: dict, seed: int | None = None) -> Scenario:
    """Validate a scenario document and bind every object it references."""
    _check_document(doc, "scenario", _SCENARIO_KEYS, "version", SCHEMA_VERSION)
    eff_seed = seed if seed is not None else doc.get("seed", 0)
    if not _is(eff_seed, int):
        raise ConfigError("seed", "must be an integer")

    pdoc = _require(doc, "params", dict)
    _known(pdoc, _PARAM_KEYS, "params")
    q = _require(pdoc, "q", int, "params")
    l = _require(pdoc, "l", int, "params")
    field = _named("params", Field, q, l)
    k = _require(pdoc, "k", int, "params")
    m_count = _require(pdoc, "M", int, "params")
    v_count = _require(pdoc, "V", int, "params")
    n_count = _require(pdoc, "n", int, "params")
    allow_excess = False
    if "allow_excess_messages" in pdoc:
        allow_excess = _require(pdoc, "allow_excess_messages", bool, "params")

    if "public_points" in pdoc:
        pts = tuple(
            _named(f"params.public_points[{i}]", field, p)
            for i, p in enumerate(_require(pdoc, "public_points", list, "params"))
        )
    else:
        pts = _sample_points(field, v_count, _substream(eff_seed, "points"), "params.V")
    params = _named("params", SystemParams, field, k, m_count, v_count, n_count, pts, allow_excess)

    top = doc.get("topology")
    if isinstance(top, str):
        if top not in _BUILTIN_TOPOLOGIES:
            raise ConfigError("topology", f"unknown builtin {top!r}")
        net = _BUILTIN_TOPOLOGIES[top](q)
    elif isinstance(top, dict):
        net = network_from_dict(top)
        if net.q != q:
            raise ConfigError("topology.q", f"kernel modulus {net.q} but params.q is {q}")
    else:
        raise ConfigError("topology", "must be a builtin name or an inline document")
    if "verifiers" in doc:
        vmap = _require(doc, "verifiers", dict)
        for node, idx in vmap.items():
            if not _is(idx, int):
                raise ConfigError(f"verifiers.{node}", "seat must be an integer")
        net = _named("verifiers", net.with_verifiers, vmap)
    for node, idx in net.verifiers.items():
        if idx >= params.V:
            raise ConfigError("verifiers", f"node {node!r} wants seat {idx} but V={params.V}")
    if net.n != params.n:
        raise ConfigError("params.n", f"must equal the source out-degree ({net.n})")

    if "messages" in doc:
        raw_msgs = _require(doc, "messages", list)
        if len(raw_msgs) != params.n:
            raise ConfigError("messages", f"expected {params.n} payloads, got {len(raw_msgs)}")
        messages = tuple(_named(f"messages[{i}]", field, s) for i, s in enumerate(raw_msgs))
    else:
        rng = _substream(eff_seed, "messages")
        messages = tuple(field.random_element(rng) for _ in range(params.n))

    adversaries = _require_list(doc, "adversaries", str) if "adversaries" in doc else ()
    for a in adversaries:
        if a not in net.nodes:
            raise ConfigError("adversaries", f"unknown node {a!r}")
    if len(set(adversaries)) != len(adversaries):
        raise ConfigError("adversaries", "duplicate node")

    adoc = doc.get("attack", {"type": "none"})
    if not isinstance(adoc, dict):
        raise ConfigError("attack", "must be an object")
    kind = adoc.get("type", "none")
    if not isinstance(kind, str) or kind not in _ATTACKS:
        raise ConfigError("attack.type", f"unknown attack {kind!r}")
    _known(adoc, _ATTACKS[kind][2], "attack", f" for type {kind!r}")
    attack = None
    if kind == "forge":
        if "coeffs" in adoc and "target" in adoc:
            raise ConfigError("attack", "give either coeffs or target, not both")
        if "coeffs" in adoc:
            attack = _require_sum_one(adoc, q, params.n)
        elif "target" in adoc:
            attack = _named("attack.target", field, adoc["target"])
        else:
            attack = ForgerySpec(q, _sum_one_coeffs(q, params.n, _substream(eff_seed, "forge")))
    elif kind == "pollute":
        node = _require(adoc, "node", str, "attack")
        if node not in net.nodes:
            raise ConfigError("attack.node", f"unknown node {node!r}")
        ins = net.in_edges(node)
        if not ins:
            raise ConfigError("attack.node", f"node {node!r} has no incoming edges")
        edge = _require(adoc, "edge", str, "attack") if "edge" in adoc else ins[0]
        if edge not in ins:
            raise ConfigError("attack.edge", f"edge {edge!r} does not enter {node!r}")
        attack = Intervention(node, edge, _require_sum_one(adoc, q, len(ins)).coeffs)
    elif kind == "recover":
        if not adversaries:
            raise ConfigError("adversaries", "recover needs at least one adversary node")

    echo = {**doc, "seed": eff_seed}
    return Scenario(echo, eff_seed, params, net, messages, adversaries, kind, attack)


def run_scenario(doc: dict, seed: int | None = None, guard: int = BRUTE_FORCE_GUARD) -> dict:
    """Execute one scenario end to end and return its report document."""
    return _run(load_scenario(doc, seed=seed), guard)


def _keys(sc: Scenario):
    """The scenario's source key and verifier keys, drawn from its `keys` substream."""
    return keygen(sc.params, _substream(sc.seed, "keys").getrandbits(64))


def _plain(value):
    """The one JSON form of a report value.

    An element becomes its coordinate list, a packet its flat symbols, any
    other record (a packet is one too) the object of its fields, and a tuple
    or list a list, recursively.  Anything else passes through.  Sequences
    are tested first, so ints never reach ``hasattr``.
    """
    if isinstance(value, (list, tuple)):
        if isinstance(value, TaggedPacket):
            return list(value.flat)
        if hasattr(value, "_asdict"):
            return {name: _plain(v) for name, v in value._asdict().items()}
        return [_plain(v) for v in value]
    if isinstance(value, Fel):
        return list(value.coeffs)
    return value


def _run(sc: Scenario, guard: int) -> dict:
    _check_int("guard", guard, 0)
    params, net, kind = sc.params, sc.network, sc.attack_type
    skey, vkeys = _keys(sc)
    packets = [tag(skey, s) for s in sc.messages]
    flow = simulate(net, packets, [sc.attack] if kind == "pollute" else [])

    keys_by_node = {node: vkeys[idx] for node, idx in net.verifiers.items()}
    accepts = accept_map(flow, keys_by_node)
    non_informative = sorted(
        [node, e]
        for node in keys_by_node
        for e in net.in_edges(node)
        if flow.packets[e].is_zero()
    )

    decodes = {}
    for sink in net.sinks:
        res = decode(coalition_view(flow, [sink]))
        decodes[sink] = {
            "ok": res.ok,
            "rank": res.rank,
            "reason": res.reason,
            "payloads": _plain(res.payloads) if res.ok else None,
            "diverged": (res.payloads != sc.messages) if res.ok else None,
        }

    report = {
        "report_version": REPORT_VERSION,
        "flat_layout": FLAT_LAYOUT,
        "seed": sc.seed,
        "scenario": sc.raw,
        "modulus": _plain(params.field.modulus),
        "public_points": _plain(params.public_points),
        "messages": _plain(sc.messages),
        "accepts": accepts,
        "non_informative": non_informative,
        "decodes": decodes,
        "attack": {"type": kind},
    }
    out = report["attack"]

    if kind == "forge":
        spec = sc.attack
        if isinstance(spec, Fel):
            out["target"] = _plain(spec)
            spec = solve_target_coeffs(sc.messages, spec)
        out["reachable"] = spec is not None
        if spec is not None:
            forged = forge(packets, spec)
            accepts_vec = [verify(vk, forged) for vk in vkeys]
            out.update(
                coeffs=list(spec.coeffs),
                payload=_plain(forged.m),
                packet=_plain(forged),
                verifier_accepts=accepts_vec,
                accepted_by_all=all(accepts_vec),
                matches_direct_tag=forged == tag(skey, forged.m),
            )
        if sc.adversaries:
            view = coalition_view(flow, sc.adversaries)
            out["coalition_can_decode"] = decode(view).rank >= net.n
    elif kind == "pollute":
        out.update(
            node=sc.attack.node,
            edge=sc.attack.edge,
            coeffs=list(sc.attack.coeffs),
            records=[{**_plain(r), "changed": r.changed} for r in flow.log],
            any_divergence=any(d["ok"] and d["diverged"] for d in decodes.values()),
        )
    elif kind == "recover":
        res = _recover(params, flow, vkeys, sc.adversaries, sc.messages, guard)
        out.update(
            coalition=list(sc.adversaries),
            K=res.K,
            r0=res.r0,
            h_total=res.h_total,
            rank=res.rank,
            predicted_rank=res.predicted_rank,
            rank_match=res.rank_match,
            consistent=res.consistent,
            counts={"predicted": res.predicted, "gauss": res.gauss, "brute": res.brute},
            brute_skipped=res.skipped,
            count_match=res.count_match,
            condition_held=res.condition_held,
        )
    return report


def _recover(params, flow, vkeys, coalition, messages, guard):
    """The coalition's view and its seated members' keys, counted three ways."""
    seats = flow.network.verifiers
    keys = [vkeys[seats[a]] for a in coalition if a in seats]
    system = build_recovery_system(params, coalition_view(flow, coalition), keys, messages)
    return analyze_recovery(system, guard)


def keygen_report(doc: dict, seed: int | None = None) -> dict:
    """Generate and dump one key generation (lab tool: secrets included)."""
    sc = load_scenario(doc, seed=seed)
    skey, vkeys = _keys(sc)
    return {
        "report_version": REPORT_VERSION,
        "seed": sc.seed,
        "modulus": _plain(sc.params.field.modulus),
        "params": {
            "q": sc.params.field.q,
            "l": sc.params.field.l,
            "k": sc.params.k,
            "M": sc.params.M,
            "V": sc.params.V,
            "n": sc.params.n,
        },
        "source_key": _plain([[skey.field.coeffs(c) for c in poly] for poly in skey.polys]),
        "verifier_keys": _plain(vkeys),
    }


# ---------------------------------------------------------------------------
# sweep over coalition-count instances


# The one dataclass: the benchmark digests every sweep row with dataclasses.asdict.
# It is built on first use, so that `import ncauth` does not load dataclasses.
@functools.cache
def _sweep_row():
    import dataclasses

    return dataclasses.make_dataclass(
        "SweepRow",
        [*RecoveryResult._fields, "edge_counts", "seed"],
        frozen=True,
        namespace={
            "__module__": __name__,
            "__doc__": "One sweep instance: its recovery result, the members' edge counts and its index.",
        },
    )


def __getattr__(name):  # PEP 562: the module's SweepRow, built on first access
    if name != "SweepRow":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = row = _sweep_row()
    return row


SweepResult = namedtuple("SweepResult", "rows summary")


def lemma_sweep(
    qs,
    ls,
    ks,
    Ms,
    Ks,
    reps: int = 2,
    seed: int = 0,
    guard: int = BRUTE_FORCE_GUARD,
    family: str = "fan",
) -> SweepResult:
    """Check predicted key counts against elimination and brute force.

    Instances with more candidate keys than `guard` are marked skipped
    rather than failing the sweep.  Every coalition size has a closed form,
    since a k x K Vandermonde matrix has rank min(K, k); sizes beyond the
    field's nonzero point count are not generated.
    """
    if family not in ("fan", "line"):
        raise ValueError(f"unknown topology family {family!r}")
    # a bool or float is refused, not converted: True would sweep seed 1's rows
    for name, values, least in (("q", qs, None), ("l", ls, None), ("k", ks, 2), ("M", Ms, 1),
                                ("K", Ks, 1), ("reps", [reps], 0), ("seed", [seed], None),
                                ("guard", [guard], 0)):
        for v in values:
            _check_int(name, v, least)
    fields = [Field(q, l) for q in qs for l in ls]  # refused here even if no row would use it
    rows = []
    idx = 0
    for field in fields:
        for k in ks:
            for m_count in Ms:
                for coalition_size in Ks:
                    if field.order - 1 < coalition_size:
                        continue
                    for _ in range(reps):
                        rows.append(
                            _sweep_instance(
                                field, k, m_count, coalition_size, seed, idx, guard, family
                            )
                        )
                        idx += 1
    checked = [r for r in rows if not r.skipped]
    mismatches = sum(
        1 for r in checked if r.count_match is not True or not r.rank_match or not r.consistent
    )
    summary = {
        "rows": len(rows),
        "checked": len(checked),
        "skipped": len(rows) - len(checked),
        "mismatches": mismatches,
        "h_exceeds_bound": sum(1 for r in checked if not r.condition_held),
    }
    return SweepResult(tuple(rows), summary)


def _sweep_instance(field, k, m_count, coalition_size, master_seed, idx, guard, family):
    rng = _substream(master_seed, f"sweep:{idx}")
    q = field.q
    if family == "line":
        n = 1
        edge_counts = (1,) * coalition_size
        net = line(q, hops=coalition_size)
        coalition = tuple(f"v{i}" for i in range(1, coalition_size + 1))
    else:
        n = rng.randint(1, m_count)
        edge_counts = tuple(rng.randint(0, 3) for _ in range(coalition_size))
        net = fan(q, n, edge_counts, rng)
        coalition = tuple(f"r{i}" for i in range(coalition_size))
    points = _sample_points(field, coalition_size, rng, "sweep")
    params = SystemParams(field, k, m_count, coalition_size, n, points)
    messages = [field.random_element(rng) for _ in range(n)]
    if n >= 2 and rng.random() < 0.3:
        messages[-1] = messages[0]  # exercise repeated payloads
    skey, vkeys = keygen(params, rng.getrandbits(64))
    flow = simulate(net, [tag(skey, s) for s in messages])
    res = _recover(params, flow, vkeys, coalition, messages, guard)
    return _sweep_row()(*res, edge_counts, idx)


# Each sweep TSV column, in order: its header and the SweepRow field it shows.
_SWEEP_COLUMNS = {
    "q": "q", "l": "l", "k": "k", "M": "M", "K": "K", "n": "n", "edges": "edge_counts",
    "h_total": "h_total", "r0": "r0", "rank": "rank", "pred_rank": "predicted_rank",
    "rank_ok": "rank_match", "consistent": "consistent", "predicted": "predicted", "gauss": "gauss",
    "brute": "brute", "count_ok": "count_match", "h_le_M": "condition_held", "skipped": "skipped",
}


def _cell(value) -> str:
    """A TSV cell: None and an empty tuple print '-', a tuple prints comma-joined."""
    if isinstance(value, tuple):
        value = ",".join(map(str, value))
    return "-" if value is None or value == "" else str(value)


def render_sweep(result: SweepResult) -> str:
    lines = ["\t".join(_SWEEP_COLUMNS)]
    for r in result.rows:
        lines.append("\t".join(_cell(getattr(r, name)) for name in _SWEEP_COLUMNS.values()))
    s = result.summary
    lines.append(
        f"# rows={s['rows']} checked={s['checked']} skipped={s['skipped']} "
        f"mismatches={s['mismatches']} h_exceeds_bound={s['h_exceeds_bound']}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


def _dump(report: dict) -> str:
    import json
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _load_config(path: str) -> dict:
    import json  # bound before the try, so that its except clause can name JSONDecodeError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nesting too deep, an int too long, bad UTF-8
        raise ConfigError("config", f"unreadable JSON: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    def int_list(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(v) for v in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc

    parser = argparse.ArgumentParser(
        prog="ncauth",
        description="Authentication-tagged network coding lab: simulate, attack, count keys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON document")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        return p

    scenario_command("keygen", "generate and dump keys for a scenario")
    for kind, (name, help_text, _) in _ATTACKS.items():
        p = scenario_command(name, help_text)
        p.set_defaults(attack_type=kind)
        if kind == "recover":
            p.add_argument("--guard", type=int, default=BRUTE_FORCE_GUARD,
                           help="brute-force candidate budget")

    sweep = sub.add_parser("lemma-sweep", help="sweep instances and check key-count formulas")
    sweep.add_argument("--q", type=int_list, default=(2, 3))
    sweep.add_argument("--l", type=int_list, default=(1, 2))
    sweep.add_argument("--k", type=int_list, default=(2, 3))
    sweep.add_argument("--M", type=int_list, default=(1, 2))
    sweep.add_argument("--K", type=int_list, default=(1, 2))
    sweep.add_argument("--reps", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--guard", type=int, default=BRUTE_FORCE_GUARD)
    sweep.add_argument("--family", choices=("fan", "line"), default="fan")
    sweep.add_argument("--out", default=None)
    return parser


def _dispatch(args) -> str:
    if args.command == "lemma-sweep":
        result = lemma_sweep(
            args.q, args.l, args.k, args.M, args.K,
            reps=args.reps, seed=args.seed, guard=args.guard, family=args.family,
        )
        return render_sweep(result)
    doc = _load_config(args.config)
    if args.command == "keygen":
        return _dump(keygen_report(doc, seed=args.seed))
    sc = load_scenario(doc, seed=args.seed)
    if sc.attack_type != args.attack_type:
        raise ConfigError(
            "attack.type",
            f"subcommand {args.command!r} expects {args.attack_type!r}, got {sc.attack_type!r}",
        )
    return _dump(_run(sc, getattr(args, "guard", BRUTE_FORCE_GUARD)))  # only recover takes --guard


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _dispatch(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
