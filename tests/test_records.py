"""Value semantics of the records the program passes around: equal fields, equal records."""

import copy
import dataclasses
import pickle

import pytest

from ncauth import (
    CoalitionView,
    DecodeResult,
    Edge,
    Field,
    FlowState,
    ForgerySpec,
    Intervention,
    InterventionRecord,
    RecoveryResult,
    RecoverySystem,
    Scenario,
    SweepResult,
    SweepRow,
    SystemParams,
    TaggedPacket,
    VerifierKey,
    analyze_recovery,
    build_recovery_system,
    butterfly,
    coalition_view,
    decode,
    keygen,
    lemma_sweep,
    simulate,
    tag,
)
from support import element, packet, source_key

F = Field(3, 2)
POINTS = ((1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2))
PARAMS = SystemParams(F, 2, 2, 6, 2, POINTS)
SKEY, VKEYS = keygen(PARAMS, seed=7)
MESSAGES = [F((1, 2)), F((2, 0))]
PACKETS = [tag(SKEY, s) for s in MESSAGES]
NET = butterfly(3)
FLOW = simulate(NET, PACKETS)
VIEW = coalition_view(FLOW, ["m"])


# record -> builder of one instance with fixed fields; each call builds a new one
BUILDERS = {
    "SystemParams": lambda: SystemParams(F, 2, 2, 6, 2, POINTS),
    "SourceKey": lambda: source_key([[element(F, c) for c in poly] for poly in SKEY.polys]),
    "VerifierKey": lambda: VerifierKey(0, VKEYS[0].point, tuple(VKEYS[0].evals)),
    "TaggedPacket": lambda: packet(F, PACKETS[0].flat),
    "ForgerySpec": lambda: ForgerySpec(3, (2, 2)),
    "Edge": lambda: Edge("e1", "s", "u1"),
    "Intervention": lambda: Intervention("m", "e4", (2, 2)),
    "InterventionRecord": lambda: InterventionRecord(
        "m", "e4", (2, 2), packet(F, PACKETS[0].flat), packet(F, PACKETS[1].flat)
    ),
    "FlowState": lambda: FlowState(NET, dict(FLOW.kernels), dict(FLOW.packets), ()),
    "DecodeResult": lambda: decode(VIEW),
    "CoalitionView": lambda: coalition_view(FLOW, ["m"]),
    "RecoverySystem": lambda: build_recovery_system(PARAMS, VIEW, VKEYS[2:3], MESSAGES),
    "RecoveryMeta": lambda: build_recovery_system(PARAMS, VIEW, VKEYS[2:3], MESSAGES).meta,
    "RecoveryResult": lambda: analyze_recovery(
        build_recovery_system(PARAMS, VIEW, VKEYS[2:3], MESSAGES)
    ),
    "Scenario": lambda: Scenario({"seed": 0}, 0, PARAMS, NET, tuple(MESSAGES), (), "none", None),
    "SweepResult": lambda: lemma_sweep([2], [1], [2], [1], [1], reps=1),
}
# records holding a dict, as their dataclasses did, hash nothing
UNHASHABLE = {"FlowState", "Scenario", "SweepResult"}


def test_every_record_is_covered():
    assert len(BUILDERS) == 16
    assert {type(build()).__name__ for build in BUILDERS.values()} == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_records_are_immutable_values(name):
    a, b = BUILDERS[name](), BUILDERS[name]()  # built apart: equal by value
    assert a is not b and a == b and not a != b
    assert a == tuple(a)  # a tuple of the same values is equal too
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b
    text = repr(a)
    assert text.startswith(f"{name}(")
    assert all(f"{field}=" in text for field in a._fields)


def test_sweep_row_is_the_recovery_result_plus_two_columns():
    row = lemma_sweep([2], [1], [2], [1], [1], reps=1).rows[0]
    names = tuple(f.name for f in dataclasses.fields(SweepRow))
    assert names == RecoveryResult._fields + ("edge_counts", "seed")  # the digest's order
    assert SweepRow.__module__ == "ncauth.cli"
    assert copy.copy(row) == copy.deepcopy(row) == pickle.loads(pickle.dumps(row)) == row
    assert hash(pickle.loads(pickle.dumps(row))) == hash(row)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.seed = 1
    assert row.seed == 0


def test_packet_views_are_read_only():
    p = PACKETS[1]
    checked, unchecked = packet(F, p.flat), TaggedPacket._from_reduced(F, p.packed, p.size)
    assert checked == unchecked
    assert (checked.m, checked.tag) == (unchecked.m, unchecked.tag) == (MESSAGES[1], PACKETS[1].tag)
    assert not hasattr(checked, "__dict__")
    with pytest.raises(AttributeError):
        checked.m = MESSAGES[0]
    with pytest.raises(AttributeError):
        checked.flat = p.flat
    with pytest.raises(AttributeError):
        checked.note = "a new attribute"
    assert checked.m == MESSAGES[1]


@pytest.mark.parametrize(
    "record, change, message",
    [
        (PARAMS, {"k": 1}, "k must be at least 2"),
        (PARAMS, {"allow_excess_messages": "no"}, "allow_excess_messages must be a bool, got 'no'"),
        (SKEY, {"polys": ((1,), (1,))}, "k must be at least 2"),
        (PACKETS[0], {"size": 2}, "flat packet must have"),
        (ForgerySpec(3, (2, 2)), {"coeffs": (1, 1)}, "must sum to 1 mod q"),
        (ForgerySpec(3, (2, 2)), {"q": 4}, "q must be prime, got 4"),
    ],
    ids=["SystemParams", "SystemParams-excess", "SourceKey", "TaggedPacket", "ForgerySpec",
         "ForgerySpec-q"],
)
def test_replace_checks_what_the_constructor_checks(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    assert record._replace() == record


@pytest.mark.parametrize(
    "q, message",
    [
        (4, "q must be prime, got 4"),
        (2.0, "q must be prime, got 2.0"),
        (True, "q must be prime, got True"),
        (65537, "q exceeds supported bound 2^16: 65537"),
    ],
)
def test_forgery_spec_refuses_a_q_that_no_field_has(q, message):
    with pytest.raises(ValueError) as info:
        ForgerySpec(q, (1,))
    assert str(info.value) == message


def test_forgery_spec_holds_its_coefficients_as_a_tuple():
    spec = ForgerySpec(3, [2, 2])
    assert type(spec.coeffs) is tuple
    assert spec == ForgerySpec(3, (2, 2))
    assert hash(spec) == hash(ForgerySpec(3, (2, 2)))
