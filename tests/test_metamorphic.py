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
coefficients compose the two.  Only the public API is used.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncauth import (
    Field,
    ForgerySpec,
    Matrix,
    SourceKey,
    SystemParams,
    TaggedPacket,
    VerifierKey,
    analyze_recovery,
    build_recovery_system,
    butterfly,
    coalition_view,
    combine,
    fan,
    forge,
    keygen,
    simulate,
    tag,
    verify,
)
from support import sample_points

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
    return TaggedPacket(p.field, (p.c, *coords))


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
    corrupted = TaggedPacket(mixed.field, flat)
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
    t = invertible(q, view.h_total, rng)
    columns = list(zip(*view.h_rows))
    h_rows = tuple(tuple(sum(a * h for a, h in zip(row, col)) % q for col in columns) for row in t)
    mixed = view._replace(h_rows=h_rows, packets=tuple(combine(view.packets, row) for row in t))
    assert counts(params, mixed, keys, messages) == counts(params, view, keys, messages)


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
