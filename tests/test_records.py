"""Value semantics of the records the program passes around: equal fields, equal records."""

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
    RecoverySystem,
    Scenario,
    SourceKey,
    SweepResult,
    SystemParams,
    TaggedPacket,
    VerifierKey,
    build_recovery_system,
    butterfly,
    coalition_view,
    decode,
    keygen,
    lemma_sweep,
    simulate,
    tag,
)

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
    "SourceKey": lambda: SourceKey(tuple(SKEY.polys)),
    "VerifierKey": lambda: VerifierKey(0, VKEYS[0].point, tuple(VKEYS[0].evals)),
    "TaggedPacket": lambda: TaggedPacket(F, list(PACKETS[0].flat)),
    "ForgerySpec": lambda: ForgerySpec(3, (2, 2)),
    "Edge": lambda: Edge("e1", "s", "u1"),
    "Intervention": lambda: Intervention("m", "e4", (2, 2)),
    "InterventionRecord": lambda: InterventionRecord("m", "e4", (2, 2), (1, 0), (0, 1)),
    "FlowState": lambda: FlowState(NET, dict(FLOW.kernels), dict(FLOW.packets), ()),
    "DecodeResult": lambda: decode(VIEW),
    "CoalitionView": lambda: coalition_view(FLOW, ["m"]),
    "RecoverySystem": lambda: build_recovery_system(PARAMS, VIEW, VKEYS[2:3], MESSAGES),
    "Scenario": lambda: Scenario({"seed": 0}, 0, PARAMS, NET, tuple(MESSAGES), (), "none", None),
    "SweepResult": lambda: lemma_sweep([2], [1], [2], [1], [1], reps=1),
}
# records holding a dict or a Matrix, as their dataclasses did, hash nothing
UNHASHABLE = {"FlowState", "RecoverySystem", "Scenario", "SweepResult"}


def test_every_record_is_covered():
    assert len(BUILDERS) == 14
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


def test_packet_views_are_cached_and_read_only():
    flat = PACKETS[1].flat
    checked, unchecked = TaggedPacket(F, flat), TaggedPacket._from_reduced(F, flat)
    assert checked == unchecked
    assert (checked.m, checked.tag) == (unchecked.m, unchecked.tag) == (MESSAGES[1], PACKETS[1].tag)
    assert checked.m is checked.m  # built once
    with pytest.raises(AttributeError):
        checked.m = MESSAGES[0]
    assert checked.m == MESSAGES[1]


@pytest.mark.parametrize(
    "record, change, message",
    [
        (PARAMS, {"k": 1}, "k must be at least 2"),
        (PACKETS[0], {"flat": (1, 0)}, "flat packet must have"),
        (ForgerySpec(3, (2, 2)), {"coeffs": (1, 1)}, "must sum to 1 mod q"),
    ],
    ids=["SystemParams", "TaggedPacket", "ForgerySpec"],
)
def test_replace_checks_what_the_constructor_checks(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    assert record._replace() == record
