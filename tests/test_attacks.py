"""Forgery construction/steering and coalition recovery counting."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncauth.attacks
import ncauth.field
import ncauth.linalg
from ncauth import (
    Field,
    ForgerySpec,
    GuardError,
    Intervention,
    Matrix,
    RecoverySystem,
    SystemParams,
    analyze_recovery,
    brute_force_count,
    build_recovery_system,
    butterfly,
    coalition_view,
    combine,
    decode,
    diamond,
    fan,
    forge,
    gauss_count,
    keygen,
    lemma_sweep,
    line,
    predicted_count,
    predicted_rank,
    simulate,
    solve,
    solve_target_coeffs,
    tag,
    verify,
)
from ncauth.cli import network_from_dict
from support import (
    count_lower_bound,
    element,
    elements,
    identity,
    make_instance,
    matmul,
    max_flow,
    packet,
    random_matrix,
    reference_brute_force_count,
    reference_r0,
    rows_of,
    sample_points,
    transpose,
    view_of,
)


def test_forgery_spec_validation():
    ForgerySpec(3, (2, 2))
    with pytest.raises(ValueError, match="at least one coefficient"):
        ForgerySpec(3, ())
    with pytest.raises(ValueError):
        ForgerySpec(3, (3, 1))
    with pytest.raises(ValueError):
        ForgerySpec(2, (1, 1))  # sums to 0


def test_forge_identity_and_input_checks():
    rng = random.Random(2)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 2, 2, 2, n=2)
    assert forge(packets[:1], ForgerySpec(3, (1,))) == packets[0]
    with pytest.raises(ValueError):
        forge(packets, ForgerySpec(3, (1,)))
    with pytest.raises(ValueError):
        forge(packets, ForgerySpec(2, (1, 0)))
    stale = combine(packets, (1, 1))  # header 2, not a fresh packet
    with pytest.raises(ValueError):
        forge([stale, packets[1]], ForgerySpec(3, (2, 2)))


@pytest.mark.parametrize("q,l,n", [(2, 2, 3), (3, 1, 2)])
def test_every_sum_one_combination_forges_exactly(q, l, n):
    rng = random.Random(100 + q)
    params, skey, vkeys, messages, packets = make_instance(rng, q, l, 2, n, V=2, n=n)
    fld = params.field
    for coeffs in itertools.product(range(q), repeat=n):
        if sum(coeffs) % q != 1:
            continue
        forged = forge(packets, ForgerySpec(q, coeffs))
        assert forged.c == 1
        mixed = sum(
            (fld(a) * s for a, s in zip(coeffs, messages)), fld.zero
        )
        assert forged.m == mixed
        assert forged == tag(skey, mixed)  # byte-for-byte a fresh packet
        assert all(verify(vk, forged) for vk in vkeys)


def test_solve_target_reaches_observed_payload():
    rng = random.Random(9)
    params, skey, vkeys, messages, packets = make_instance(rng, 5, 2, 2, 3, n=3)
    fld = params.field
    spec = solve_target_coeffs(messages, messages[1])
    assert spec is not None
    mixed = sum((fld(a) * s for a, s in zip(spec.coeffs, messages)), fld.zero)
    assert mixed == messages[1]


def test_solve_target_single_message():
    fld = Field(3, 1)
    s = fld(2)
    assert solve_target_coeffs([s], s) == ForgerySpec(3, (1,))
    assert solve_target_coeffs([s], fld(1)) is None
    with pytest.raises(ValueError):
        solve_target_coeffs([], s)


def test_solve_target_spanning_messages_reach_everything():
    fld = Field(2, 2)
    messages = [fld.zero, fld((1, 0)), fld((0, 1))]
    for target in elements(fld):
        spec = solve_target_coeffs(messages, target)
        assert spec is not None
        mixed = sum(
            (fld(a) * s for a, s in zip(spec.coeffs, messages)), fld.zero
        )
        assert mixed == target


def reference_target_coeffs(messages, target):
    """Forgery steering one coordinate row at a time, read through each element."""
    fld, n = target.field, len(messages)
    base = Field(fld.q, 1)
    rows = [[1] * n] + [[s.coeffs[c] for s in messages] for c in range(fld.l)]
    rhs = [[1]] + [[target.coeffs[c]] for c in range(fld.l)]
    _, x = solve(Matrix(base, rows, cols=n), Matrix(base, rhs, cols=1))
    return None if x is None else ForgerySpec(fld.q, tuple(r[0].coeffs[0] for r in rows_of(x)))


@pytest.mark.parametrize("q, l", [(2, 16), (3, 5)])
def test_solve_target_steers_over_wide_fields(q, l):
    fld = Field(q, l)
    rng = random.Random(40 + q)
    # payloads whose last coordinate is 0: every sum-one mix of them keeps it 0
    messages = [fld(fld.random_element(rng).coeffs[:-1] + (0,)) for _ in range(4)]
    coeffs = [rng.randrange(q) for _ in range(3)]
    coeffs.append((1 - sum(coeffs)) % q)
    target = sum((fld(a) * s for a, s in zip(coeffs, messages)), fld.zero)
    spec = solve_target_coeffs(messages, target)
    assert spec == reference_target_coeffs(messages, target)
    assert sum((fld(a) * s for a, s in zip(spec.coeffs, messages)), fld.zero) == target
    outside = target + fld((0,) * (l - 1) + (1,))
    assert solve_target_coeffs(messages, outside) is None
    assert reference_target_coeffs(messages, outside) is None


def _column_major_secret(skey):
    vec = []
    for j in range(len(skey.polys[0])):
        for t in range(len(skey.polys)):
            vec.append(element(skey.field, skey.polys[t][j]))
    return vec


def hand_instance():
    """Smallest possible coalition: F_2, k=2, M=1, one member at point 1."""
    fld = Field(2, 1)
    params = SystemParams(fld, k=2, M=1, V=1, n=1, public_points=(1,))
    skey, vkeys = keygen(params, seed=5)
    messages = [fld.one]
    packets = [tag(skey, messages[0])]
    view = view_of(("v0",), 2, 1, [(1,)], packets[:1])
    return params, skey, vkeys, messages, packets, view


def test_recovery_hand_example_matrix():
    params, skey, vkeys, messages, packets, view = hand_instance()
    system = build_recovery_system(params, view, vkeys, messages)
    meta = system.meta
    assert (meta.r0, meta.h_total, meta.K) == (1, 1, 1)

    def ints(m):
        return [[v.coeffs[0] for v in row] for row in rows_of(m)]

    # two observation rows (one per secret column), then the member's key rows
    assert ints(system.coeff) == [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    pkt = packets[0]
    vk = vkeys[0]
    assert ints(system.rhs) == [
        [pkt.tag[0].coeffs[0]],
        [pkt.tag[1].coeffs[0]],
        [vk.evals[0].coeffs[0]],
        [vk.evals[1].coeffs[0]],
    ]
    assert system.coeff.rank() == 3
    assert predicted_rank(meta) == 3
    assert predicted_count(meta) == 2
    assert gauss_count(system) == (True, 2, 3)
    assert brute_force_count(system) == 2


def test_recovery_without_observations_counts_keyspace():
    params, skey, vkeys, messages, packets, _ = hand_instance()
    view = view_of(("v0",), 2, 1, (), ())
    system = build_recovery_system(params, view, vkeys, messages)
    assert system.meta.r0 == 0
    assert predicted_rank(system.meta) == 2
    assert predicted_count(system.meta) == 4
    assert gauss_count(system) == (True, 4, 2)
    assert brute_force_count(system) == 4


def test_an_empty_view_must_span_the_payloads():
    # no rows to measure, yet the width of a 0 x n view is still n
    params, skey, vkeys, messages, packets, _ = hand_instance()
    for n in (0, 2):
        with pytest.raises(ValueError, match="observation width disagrees"):
            build_recovery_system(params, view_of(("v0",), 2, n, (), ()), vkeys, messages)
    empty = view_of(("v0",), 2, 1, (), ())
    assert build_recovery_system(params, empty, vkeys, messages).meta.h_total == 0


def test_true_key_satisfies_the_system():
    rng = random.Random(77)
    for _ in range(5):
        params, skey, vkeys, messages, packets = make_instance(rng, 3, 1, 3, 2, V=2)
        coeffs = [rng.randrange(3) for _ in messages]
        view = view_of(("a", "b"), 3, len(messages), [coeffs], [combine(packets, coeffs)])
        system = build_recovery_system(params, view, vkeys[:2], messages)
        secret = _column_major_secret(skey)
        for row, (want,) in zip(rows_of(system.coeff), rows_of(system.rhs), strict=True):
            acc = params.field.zero
            for c, v in enumerate(row):
                acc = acc + v * secret[c]
            assert acc == want


def test_full_mixing_rank_pins_the_key():
    # two messages with independent power rows + identity observations: r0 = M+1
    fld = Field(3, 1)
    params = SystemParams(
        fld, k=2, M=1, V=1, n=2, public_points=(1,), allow_excess_messages=True
    )
    skey, vkeys = keygen(params, seed=3)
    messages = [fld(1), fld(2)]
    packets = [tag(skey, s) for s in messages]
    view = view_of(("v0",), 3, 2, ((1, 0), (0, 1)), packets)
    system = build_recovery_system(params, view, vkeys, messages)
    assert system.meta.r0 == 2
    assert predicted_count(system.meta) == 1
    assert gauss_count(system) == (True, 1, 4)
    assert brute_force_count(system) == 1
    # a hand-built view's kernel entries mean their residues mod q
    unreduced = view_of(("v0",), 3, 2, ((4, -3), (3, -2)), packets)
    assert build_recovery_system(params, unreduced, vkeys, messages) == system


@pytest.mark.parametrize("family", ["fan", "line"])
@pytest.mark.parametrize("q,l,k,M", [(2, 2, 2, 1), (2, 2, 2, 2), (5, 1, 2, 1)])
def test_coalitions_of_k_or_more_pin_the_secret(family, q, l, k, M):
    # K key points of a degree < k polynomial interpolate it once K >= k
    rng = random.Random(q * 100 + l * 10 + M)
    for K in (k, k + 1):
        if family == "line":
            n, net, coalition = 1, line(q, hops=K), [f"v{i}" for i in range(1, K + 1)]
        else:
            n = rng.randint(1, M)
            net = fan(q, n, [rng.randint(0, 2) for _ in range(K)], rng)
            coalition = [f"r{i}" for i in range(K)]
        params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M, V=K, n=n)
        view = coalition_view(simulate(net, packets), coalition)
        system = build_recovery_system(params, view, vkeys, messages)
        ok, cnt, rank = gauss_count(system)
        assert ok and system.meta.K == K
        assert predicted_count(system.meta) == cnt == 1
        assert brute_force_count(system) == reference_brute_force_count(system) == 1
        assert rank == predicted_rank(system.meta) == (M + 1) * k


def test_build_recovery_system_input_checks():
    params, skey, vkeys, messages, packets, view = hand_instance()
    keyless = analyze_recovery(build_recovery_system(params, view, [], messages))
    assert (keyless.K, keyless.rank, keyless.predicted_rank) == (0, 2, 2)  # r0 * k
    assert keyless.predicted == keyless.gauss == keyless.brute == 4  # q^(l(M+1-r0)k)
    with pytest.raises(ValueError):
        build_recovery_system(params, view, vkeys, messages + messages)
    short = view_of(("v0",), 2, 1, [(1,)], ())
    with pytest.raises(ValueError):
        build_recovery_system(params, short, vkeys, messages)
    one_coeff_tag = view_of(("v0",), 2, 1, [(1,)], [packet(params.field, (1, 1, 0))])
    with pytest.raises(ValueError, match="tag length disagrees with k"):
        build_recovery_system(params, one_coeff_tag, vkeys, messages)
    # a packet, kernel matrix or key over another field of the same shape is refused, not misread
    other = Field(3, 1)
    foreign = packet(other, packets[0].flat)
    for foreign_view in (
        view_of(("v0",), 2, 1, [(1,)], [foreign]),
        view_of(("v0",), 3, 1, [(1,)], packets[:1]),
    ):
        with pytest.raises(ValueError, match="element belongs to a different field"):
            build_recovery_system(params, foreign_view, vkeys, messages)
    o_params = SystemParams(other, k=2, M=1, V=1, n=1, public_points=(1,))
    _, o_vkeys = keygen(o_params, seed=5)
    for keys in (o_vkeys, [vkeys[0]._replace(evals=o_vkeys[0].evals)]):
        with pytest.raises(ValueError, match="element belongs to a different field"):
            build_recovery_system(params, view, keys, messages)
    # keys of another M over the same field, or cut short, are refused, not read as this secret's
    _, wide = keygen(params._replace(M=3, n=1), seed=5)
    for keys in (wide, [vkeys[0]._replace(evals=vkeys[0].evals[:1])]):
        with pytest.raises(ValueError, match=r"must hold M \+ 1 = 2 values"):
            build_recovery_system(params, view, keys, messages)


def test_counts_agree_on_random_instances():
    rng = random.Random(4242)
    shapes = [
        (2, 1, 2, 1),
        (2, 1, 2, 2),
        (2, 1, 3, 1),
        (2, 1, 3, 2),
        (2, 2, 2, 1),
        (2, 2, 2, 2),
        (2, 3, 2, 1),
        (3, 1, 2, 1),
        (3, 1, 2, 2),
        (3, 1, 3, 1),
        (3, 2, 2, 1),
        (5, 1, 2, 1),
        (5, 1, 2, 2),
        (2, 2, 3, 1),
        (7, 1, 2, 1),
    ]
    for q, l, k, M in shapes:
        K = rng.randint(1, min(k - 1, q**l - 1))
        params, skey, vkeys, messages, packets = make_instance(
            rng, q, l, k, M, V=max(K, 1)
        )
        if rng.random() < 0.4 and len(messages) > 1:
            messages[-1] = messages[0]  # repeated payload lowers r0
            packets[-1] = packets[0]
        rows, pkts = [], []
        for _ in range(K):
            for _ in range(rng.randint(0, 2)):
                h = tuple(rng.randrange(q) for _ in messages)
                rows.append(h)
                pkts.append(combine(packets, h))
        view = view_of([f"v{i}" for i in range(K)], q, len(messages), rows, pkts)
        system = build_recovery_system(params, view, vkeys[:K], messages)
        ok, cnt, rank = gauss_count(system)
        assert ok, (q, l, k, M)
        assert cnt == predicted_count(system.meta)
        assert rank == system.coeff.rank() == predicted_rank(system.meta)
        assert brute_force_count(system) == cnt


def test_recovery_through_simulated_network():
    rng = random.Random(60)
    net = fan(2, 2, (1, 2, 0), rng)
    params, skey, vkeys, messages, packets = make_instance(
        rng, 2, 2, 3, 2, V=3, n=2
    )
    flow = simulate(net, packets)
    view = coalition_view(flow, ("r0", "r1"))
    system = build_recovery_system(params, view, vkeys[:2], messages)
    ok, cnt, _ = gauss_count(system)
    assert ok
    assert cnt == predicted_count(system.meta) == brute_force_count(system)


def test_pollution_invalidates_stale_kernel_bookkeeping():
    # after an upstream substitution the honest kernel rows no longer describe
    # the delivered packets, so the naive system turns inconsistent; rows
    # recovered from the actual traffic restore consistency and the count law
    rng = random.Random(61)
    net = fan(2, 2, (2, 1), rng)
    params, skey, vkeys, messages, packets = make_instance(rng, 2, 2, 3, 2, V=2, n=2)
    flow = simulate(net, packets, [Intervention("hub", net.in_edges("hub")[0], (0, 1))])
    view = coalition_view(flow, ("r0",))
    system = build_recovery_system(params, view, vkeys[:1], messages)
    ok, _, _ = gauss_count(system)
    assert not ok

    base = Field(2, 1)
    width = len(packets[0].flat)
    x_t = transpose(Matrix(base, [p.flat for p in packets], cols=width))
    true_rows = []
    for pkt in view.packets:
        _, h = solve(x_t, Matrix(base, [[v] for v in pkt.flat], cols=1))
        assert h is not None
        true_rows.append(tuple(x.coeffs[0] for (x,) in rows_of(h)))
    fixed = view_of(view.nodes, 2, view.h.cols, true_rows, view.packets)
    system2 = build_recovery_system(params, fixed, vkeys[:1], messages)
    ok2, cnt2, _ = gauss_count(system2)
    assert ok2 and cnt2 == predicted_count(system2.meta)


def test_brute_force_guard():
    params, skey, vkeys, messages, packets, view = hand_instance()
    system = build_recovery_system(params, view, vkeys, messages)
    with pytest.raises(GuardError):
        brute_force_count(system, guard=8)  # 2^4 candidates > 8


def test_analyze_recovery_compares_three_counts():
    params, skey, vkeys, messages, packets, view = hand_instance()
    system = build_recovery_system(params, view, vkeys, messages)
    res = analyze_recovery(system)
    meta = system.meta._asdict()
    assert {name: getattr(res, name) for name in meta} == meta  # the shape fields, flat
    assert res.candidates == 16
    assert (res.consistent, res.rank, res.predicted_rank) == (True, 3, 3)
    assert (res.predicted, res.gauss, res.brute) == (2, 2, 2)
    assert res.rank_match and res.count_match is True and not res.skipped
    refused = analyze_recovery(system, guard=8)  # the counter's guard decides the skip
    assert refused.brute is None and refused.skipped and refused.count_match is None
    assert (refused.consistent, refused.gauss, refused.rank) == (True, 2, 3)
    # r0 = 0 predicts rank 2 and count 4 against the system's 3 and 2
    wrong = system._replace(meta=system.meta._replace(r0=0))
    off = analyze_recovery(wrong)
    assert (off.predicted_rank, off.predicted) == (2, 4) and (off.rank, off.gauss) == (3, 2)
    assert not off.rank_match and off.count_match is False


# (q, l) -> most unknowns the reference enumeration is given; F_257 carries
# coordinates that need more than one byte each
ORACLE_FIELDS = {
    (2, 1): 11, (2, 2): 5, (2, 3): 3,
    (3, 1): 7, (3, 2): 3, (3, 3): 2,
    (5, 1): 5, (5, 2): 2, (5, 3): 1,
    (257, 1): 1,
}


@st.composite
def small_systems(draw):
    """A random system over a small field, its rhs planted, free or contradictory."""
    q, l = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    fld = Field(q, l)
    unknowns = draw(st.integers(0, ORACLE_FIELDS[q, l]))
    element = st.tuples(*[st.integers(0, q - 1)] * l).map(fld)
    rows = draw(st.lists(st.lists(element, min_size=unknowns, max_size=unknowns), max_size=4))
    mode = draw(st.sampled_from(["planted", "free", "contradictory"]))
    if mode == "planted":
        x = draw(st.lists(element, min_size=unknowns, max_size=unknowns))
        rhs = [sum((a * v for a, v in zip(row, x)), fld.zero) for row in rows]
    else:
        rhs = draw(st.lists(element, min_size=len(rows), max_size=len(rows)))
    if mode == "contradictory":
        rows.append([fld.zero] * unknowns)
        rhs.append(draw(element.filter(bool)))
    system = RecoverySystem(
        Matrix(fld, rows, cols=unknowns), Matrix(fld, [[b] for b in rhs], cols=1), meta=None
    )
    return system, mode


@settings(max_examples=100, deadline=None)
@given(small_systems())
def test_brute_force_matches_reference_enumeration(case):
    system, mode = case
    count = brute_force_count(system)
    assert count == reference_brute_force_count(system)
    consistent, gcount, rank = gauss_count(system)
    assert (consistent, gcount) == (count > 0, count)
    assert rank == system.coeff.rank()
    if mode == "planted":
        assert count >= 1
    elif mode == "contradictory":
        assert count == 0


# (q, l) for the r0 closed form: l up to 4, so that M < l comes up at every M
R0_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


@st.composite
def r0_cases(draw):
    """Params, a fan or line coalition's view with up to 3 keys, and its payloads.

    Fan payloads may repeat and may number M + 1 or M + 2 (under
    allow_excess_messages): only n >= M + 2 makes the min in r0's closed form bind.
    """
    q, l = draw(st.sampled_from(R0_FIELDS))
    fld, M = Field(q, l), draw(st.integers(1, 5) | st.integers(1, l))  # M < l often
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    members = draw(st.integers(1, min(3, fld.order - 1)))
    if draw(st.booleans()):
        n, net, coalition = 1, line(q, hops=members), [f"v{i}" for i in range(1, members + 1)]
    else:
        n = draw(st.one_of(st.just(M + 2), st.integers(1, M + 2)))
        net = fan(q, n, draw(st.lists(st.integers(0, 3), min_size=members, max_size=members)), rng)
        coalition = [f"r{i}" for i in range(members)]
    messages = [fld.random_element(rng) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        messages[-1] = messages[0]
    points = sample_points(fld, members, rng)
    params = SystemParams(fld, 2, M, members, n, points, allow_excess_messages=n > M)
    skey, vkeys = keygen(params, rng.getrandbits(64))
    flow = simulate(net, [tag(skey, s) for s in messages])
    keys = vkeys[: draw(st.integers(0, members))]
    return params, coalition_view(flow, coalition), keys, messages


@settings(max_examples=300, deadline=None)
@given(r0_cases())
def test_r0_matches_its_closed_form(case):
    params, view, keys, messages = case
    system = build_recovery_system(params, view, keys, messages)
    assert system.meta.r0 == reference_r0(view, messages, params.M)


def _system(fld, rows, rhs, cols=None):
    """The system rows x = rhs; `cols` is needed only when there are no rows."""
    cols = len(rows[0]) if rows else cols
    return RecoverySystem(
        Matrix(fld, rows, cols=cols), Matrix(fld, [[b] for b in rhs], cols=1), meta=None
    )


def test_brute_force_wide_prime_coordinates():
    # 2^16 candidates each: too many for the reference, small for elimination
    fld = Field(257, 1)
    assert brute_force_count(_system(fld, [[1, 1]], [256])) == 257
    assert brute_force_count(_system(fld, [[256, 1]], [0])) == 257
    assert brute_force_count(_system(fld, [[256]], [1])) == 1
    assert brute_force_count(_system(fld, [[1, 0], [0, 1]], [256, 255])) == 1
    assert brute_force_count(_system(fld, [[1, 0], [1, 0]], [256, 0])) == 0
    ext = Field(257, 2)
    assert brute_force_count(_system(ext, [[ext((3, 200))]], [ext((256, 255))])) == 1


# Fields of both brute-force paths: F_2 levels as lists, odd q as lanes of
# 64-bit words.  A row takes l w bits of a lane (w = 3 over GF(3) and
# GF(9), 4 over GF(5) and GF(7)), so up to 33 rows span lanes of 1, 2 and
# 3 words; unknowns are capped at 2^14 candidates.
LANE_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]
LANE_CANDIDATES = 1 << 14


@st.composite
def lane_systems(draw):
    """A system of up to 33 rows spanned by one or two random rows, its rhs planted or random."""
    q, l = draw(st.sampled_from(LANE_FIELDS))
    fld = Field(q, l)
    most = max(u for u in range(15) if fld.order**u <= LANE_CANDIDATES)
    unknowns = draw(st.integers(0, most))
    element = st.tuples(*[st.integers(0, q - 1)] * l).map(fld)
    vector = st.lists(element, min_size=unknowns, max_size=unknowns)
    basis = draw(st.lists(vector, min_size=1, max_size=2))  # rank <= 2: counts above 1 come up
    rows = []
    for _ in range(draw(st.integers(0, 33))):
        ms = draw(st.lists(element, min_size=len(basis), max_size=len(basis)))
        rows.append([sum((m * b[j] for m, b in zip(ms, basis)), fld.zero) for j in range(unknowns)])
    if draw(st.booleans()):
        x = draw(vector)
        rhs = [sum((a * v for a, v in zip(row, x)), fld.zero) for row in rows]
    else:
        rhs = draw(st.lists(element, min_size=len(rows), max_size=len(rows)))
    return _system(fld, rows, rhs, unknowns)


@settings(max_examples=150, deadline=None)
@given(lane_systems())
def test_brute_force_matches_elimination_across_lane_widths(system):
    count = brute_force_count(system)
    consistent, gcount, _ = gauss_count(system)
    assert (consistent, gcount) == (count > 0, count)
    candidates = system.coeff.field.order**system.coeff.cols
    if candidates * max(1, system.coeff.rows) <= 4096:  # the reference checks row by row
        assert count == reference_brute_force_count(system)


@pytest.mark.parametrize(
    "q,l,rows,words",
    [(5, 1, 16, 1), (7, 1, 16, 1), (11, 1, 13, 2), (5, 1, 17, 2), (3, 2, 21, 2), (3, 2, 22, 3)],
    ids=["64-bit", "64-bit-q7", "65-bit", "68-bit", "126-bit", "132-bit"],
)
def test_brute_force_at_lane_word_edges(q, l, rows, words):
    # 64 bits fill one word, top slot included; one bit more takes a second
    fld = Field(q, l)
    assert -(-fld.w * l * rows // 64) == words
    cols = 4 if fld.order < 11 else 3
    for seed in range(4):
        rng = random.Random(q * rows + seed)
        base = rows_of(random_matrix(fld, 2, cols, rng))  # each row a multiple of one of two
        scales = [fld.random_element(rng) for _ in range(rows)]
        coeff = Matrix(fld, [[c * v for v in base[i % 2]] for i, c in enumerate(scales)], cols=cols)
        planted = matmul(coeff, random_matrix(fld, cols, 1, rng))
        for rhs in (planted, random_matrix(fld, rows, 1, rng)):
            system = RecoverySystem(coeff, rhs, meta=None)
            assert brute_force_count(system) == gauss_count(system)[1]
        assert gauss_count(RecoverySystem(coeff, planted, None))[1] > 1


def test_brute_force_degenerate_shapes():
    for q, l in LANE_FIELDS:
        fld = Field(q, l)
        one, x = fld.one, fld.random_element(random.Random(q + l)) or fld.one
        # no rows: every candidate solves the empty system
        assert brute_force_count(_system(fld, [], [], cols=3)) == fld.order**3
        # no unknowns: the one empty candidate solves a zero rhs only
        assert brute_force_count(_system(fld, [[]] * 2, [fld.zero] * 2, cols=0)) == 1
        assert brute_force_count(_system(fld, [[]] * 2, [fld.zero, one], cols=0)) == 0
        # one unknown over F_q: the first half has no column, its table the one sum 0
        assert brute_force_count(_system(fld, [[x], [x + x]], [x, x + x])) == 1
        assert brute_force_count(_system(fld, [[x], [fld.zero]], [x, one])) == 0
        assert brute_force_count(_system(fld, [[fld.zero]], [fld.zero])) == fld.order


@pytest.mark.parametrize(
    "q,rows,rhs,count",
    [
        (65521, [[3]], [5], 1),
        (65521, [[0]], [0], 65521),
        (65521, [[0]], [1], 0),
        (251, [[1, 2, 3], [0, 1, 5]], [7, 9], 251),
        (251, [[1, 1, 1]], [1], 251**2),
        (251, [[0, 0, 0]], [0], 251**3),
    ],
)
def test_brute_force_work_stays_linear_in_q(q, rows, rhs, count):
    # one level of 65521 blocks, or 251^2 sums in one half: joining a
    # level's q blocks one by one into a growing int costs time quadratic
    # in q; each case takes 2-20 ms, and the bound leaves 50 times that
    system = _system(Field(q, 1), rows, rhs)
    start = time.perf_counter()
    assert brute_force_count(system) == gauss_count(system)[1] == count
    assert time.perf_counter() - start < 1.0


INDEPENDENCE_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]


def test_brute_force_calls_nothing_of_elimination(monkeypatch):
    # every elimination entry point raises; brute force still counts as before
    rng = random.Random(49)
    systems = []
    for q, l in INDEPENDENCE_FIELDS:
        fld = Field(q, l)
        for rows, cols in ((3, 2), (2, 3), (4, 4)):
            if fld.order**cols > 1 << 16:
                cols = 2
            a = random_matrix(fld, rows, cols, rng)
            a = Matrix(fld, [*rows_of(a), rows_of(a)[0]], cols=cols)  # a repeated row
            planted = matmul(a, random_matrix(fld, cols, 1, rng))
            for rhs in (planted, random_matrix(fld, rows + 1, 1, rng)):
                systems.append(RecoverySystem(a, rhs, meta=None))
    before = [brute_force_count(system) for system in systems]
    assert before == [gauss_count(system)[1] for system in systems]
    assert any(c == 0 for c in before) and any(c > 1 for c in before)

    def refuse(*args, **kwargs):
        raise AssertionError("brute force reached elimination")

    for owner, name in [
        (ncauth.linalg.Matrix, "_eliminate"),
        (ncauth.linalg, "solve"),
        (ncauth.linalg, "rank_and_consistency"),
        (ncauth.attacks, "solve"),
        (ncauth.attacks, "rank_and_consistency"),
        (ncauth.field.Packing, "pivot_form"),
        (ncauth.field.Packing, "add_mul"),
        (ncauth.field._BytePacking, "pivot_form"),
        (ncauth.field._BytePacking, "add_mul"),
        (ncauth.field._TernaryPacking, "pivot_form"),
        (ncauth.field._TernaryPacking, "add_mul"),
        (ncauth.field, "_byte_tables"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(AssertionError, match="reached elimination"):
        systems[0].coeff.rank()  # the patch takes
    assert [brute_force_count(system) for system in systems] == before


# The largest systems the default sweep enumerates: 18 base unknowns over
# GF(4) (k=3, M=2) and 12 over GF(9) (k=2, M=2).  A keyless view leaves every
# secret column free of the others, so both halves' sums repeat, and a
# repeated observation row with a shifted rhs makes the system contradictory.
@pytest.mark.parametrize("q,l,k,M", [(2, 2, 3, 2), (3, 2, 2, 2)], ids=["gf4-18", "gf9-12"])
@pytest.mark.parametrize("K", [0, 1])
def test_brute_force_at_the_largest_checked_shapes(q, l, k, M, K):
    rng = random.Random(24 + K)
    params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M, V=1, n=M)
    h_rows = ((1,) + (0,) * (M - 1), tuple(rng.randrange(q) for _ in range(M)))
    view = view_of(("v0",), q, M, h_rows, [combine(packets, h) for h in h_rows])
    system = build_recovery_system(params, view, vkeys[:K], messages)
    assert l * system.coeff.cols == (18 if q == 2 else 12)
    consistent, gcount, _ = gauss_count(system)
    assert consistent and brute_force_count(system) == gcount == predicted_count(system.meta) > 1

    fld = params.field
    coeff_rows, rhs_rows = rows_of(system.coeff), rows_of(system.rhs)
    coeff = Matrix(fld, [*coeff_rows, coeff_rows[0]], cols=system.coeff.cols)
    rhs = Matrix(fld, [*rhs_rows, [rhs_rows[0][0] + fld.one]], cols=1)
    contradictory = RecoverySystem(coeff, rhs, system.meta)
    assert brute_force_count(contradictory) == gauss_count(contradictory)[1] == 0


def test_gauss_count_identity_and_degenerate():
    F = Field(2, 2)
    b = Matrix(F, [[F.one], [F.zero], [F((1, 1))]], cols=1)

    def count(coeff, rhs):
        return gauss_count(RecoverySystem(coeff, rhs, meta=None))

    assert count(identity(F, 3), b) == (True, 1, 3)
    zero = Matrix(F, [[0] * 4] * 3)
    assert count(zero, Matrix(F, [[0]] * 3)) == (True, 4**4, 0)
    assert count(zero, b) == (False, 0, 0)
    assert count(Matrix(F, [], cols=5), Matrix(F, [], cols=1)) == (True, 4**5, 0)
    # rank 2 of 4 unknowns, rows a, b, a + b: a consistent rhs leaves 2 free
    # unknowns, and rhs (0, 0, 1) puts the one pivot beyond coeff's columns in the rhs
    rng = random.Random(5)
    for G in (Field(2, 8), Field(3, 5)):
        a, b = rows_of(random_matrix(G, 2, 4, rng))
        coeff = Matrix(G, [a, b, [x + y for x, y in zip(a, b)]], cols=4)
        x = random_matrix(G, 4, 1, rng)
        assert count(coeff, matmul(coeff, x)) == (True, G.order**2, 2)
        assert count(coeff, Matrix(G, [[0], [0], [1]], cols=1)) == (False, 0, 2)


def test_gauss_count_matches_enumeration_oracle():
    rng = random.Random(77)
    for q, l in [(2, 1), (3, 1), (2, 2)]:
        F = Field(q, l)
        for _ in range(25):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(F, rows, cols, rng)
            system = RecoverySystem(a, random_matrix(F, rows, 1, rng), meta=None)
            consistent, count, rank = gauss_count(system)
            brute = reference_brute_force_count(system)
            assert count == brute
            assert consistent == (brute > 0)
            assert rank == a.rank()


def test_h_condition_boundaries():
    # the coalition's edges may number at most M = 3
    fld = Field(2, 1)
    params = SystemParams(fld, k=2, M=3, V=1, n=1, public_points=(1,))
    skey, vkeys = keygen(params, seed=5)
    messages = [fld.one]
    packet = tag(skey, messages[0])

    def held(h_total):
        view = view_of(("v0",), 2, 1, [(1,)] * h_total, [packet] * h_total)
        return build_recovery_system(params, view, vkeys, messages).meta.condition_held

    assert held(3) is True
    assert held(4) is False


# ---------------------------------------------------------------------------
# max-flow bounds: what a coalition can learn is read off the graph


def _coalitions(net):
    """Every set of 1-3 non-source nodes, in node order."""
    others = [v for v in net.nodes if v != net.source]
    return [c for size in (1, 2, 3) for c in itertools.combinations(others, size)]


def test_max_flow_matches_networkx():
    import networkx as nx  # a test oracle only: the package stays stdlib
    rng = random.Random(25)
    nets = [butterfly(2), diamond(3), line(2, 3)]
    nets += [fan(2, rng.randint(1, 3), [rng.randint(0, 3) for _ in range(3)], rng) for _ in range(8)]
    compared = 0
    for net in nets:
        for coalition in _coalitions(net):
            g = nx.DiGraph()
            for e in net.edges:  # the coalition contracted to one node, its out-edges dropped
                if e.tail in coalition:
                    continue
                head = "\0sink" if e.head in coalition else e.head
                cap = g.get_edge_data(e.tail, head, {"capacity": 0})["capacity"]
                g.add_edge(e.tail, head, capacity=cap + 1)
            want = nx.maximum_flow_value(g, net.source, "\0sink") if "\0sink" in g else 0
            assert max_flow(net, coalition) == want, (net.nodes, coalition)
            compared += 1
    assert compared > 100


@pytest.mark.parametrize("q,l", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_coalition_knowledge_is_bounded_by_its_max_flow(q, l):
    """Decode rank <= min(n, mincut), r0 <= min(mincut, 1+l, M+1), and the count bound.

    Every coalition of 1-3 non-source nodes of the built-ins, with no keys
    and with as many as the field seats.  Random codes may fall short of
    the bounds, so none is asserted to be met.
    """
    k, M = 3, 2
    rng = random.Random(q * 10 + l)
    for net in (butterfly(q), diamond(q), line(q, 3)):
        for coalition in _coalitions(net):
            mincut = max_flow(net, coalition)
            assert mincut <= net.n
            seated = min(len(coalition), q**l - 1)
            params, skey, vkeys, messages, packets = make_instance(
                rng, q, l, k, M, V=seated, n=net.n
            )
            view = coalition_view(simulate(net, packets), coalition)
            assert decode(view).rank <= min(net.n, mincut)
            for K in (0, seated):
                res = analyze_recovery(build_recovery_system(params, view, vkeys[:K], messages))
                assert res.r0 <= min(mincut, 1 + l, M + 1), (net.nodes, coalition)
                bound = count_lower_bound(q, l, k, M, K, mincut)
                assert res.gauss >= bound and res.predicted >= bound
                assert res.brute is None or res.brute >= bound


@st.composite
def layered_topologies(draw, q):
    """An inline topology document over F_q: 1-3 source edges, then 2-4 layers of 1-3 nodes.

    Every source edge ends in the first layer, and each first-layer node
    gets one.  A node of a later layer takes 1-3 edges from nodes of earlier
    layers, parallel edges allowed.  Every relay's kernel entries are drawn
    from [0, q), zero included, so relays may lose rank.
    """
    n = draw(st.integers(1, 3))
    layers = [[f"a{i}" for i in range(draw(st.integers(1, n)))]]
    for d in range(1, draw(st.integers(2, 4))):
        layers.append([f"{'abcd'[d]}{i}" for i in range(draw(st.integers(1, 3)))])
    ends = [layers[0][i] if i < len(layers[0]) else draw(st.sampled_from(layers[0]))
            for i in range(n)]
    pairs = [("s", head) for head in ends]
    for d in range(1, len(layers)):
        earlier = [v for layer in layers[:d] for v in layer]
        for head in layers[d]:
            pairs += [(draw(st.sampled_from(earlier)), head) for _ in range(draw(st.integers(1, 3)))]
    nodes = ["s"] + [v for layer in layers for v in layer]
    degree = {v: ([t for t, _ in pairs].count(v), [h for _, h in pairs].count(v)) for v in nodes}
    entry = st.integers(0, q - 1)
    kernels = {
        v: [[draw(entry) for _ in range(outs)] for _ in range(ins)]
        for v, (outs, ins) in degree.items() if v != "s" and outs
    }
    edges = [{"id": f"e{i}", "tail": t, "head": h} for i, (t, h) in enumerate(pairs)]
    return {"version": 1, "q": q, "source": "s", "nodes": nodes, "edges": edges,
            "kernels": kernels, "sinks": layers[-1]}


@pytest.mark.parametrize("q,l", [(2, 1), (2, 2), (3, 1)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_drawn_dags_obey_max_flow_bounds(q, l, data):
    """The max-flow bounds on drawn layered DAGs, for every coalition of 1-2 non-source nodes.

    Decode rank <= min(n, mincut), r0 <= min(mincut, 1+l, M+1), and the
    count lower bound, with no keys and with as many as the field seats.
    Random kernels may fall short of every bound, so none is asserted to be met.
    """
    net = network_from_dict(data.draw(layered_topologies(q)))
    fld, k, M = Field(q, l), 2, 2
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    seats = min(2, fld.order - 1)
    params = SystemParams(fld, k, M, seats, net.n, sample_points(fld, seats, rng),
                          allow_excess_messages=True)
    skey, vkeys = keygen(params, rng.getrandbits(64))
    messages = [fld.random_element(rng) for _ in range(net.n)]
    flow = simulate(net, [tag(skey, s) for s in messages])
    others = [v for v in net.nodes if v != net.source]
    for coalition in (c for size in (1, 2) for c in itertools.combinations(others, size)):
        mincut = max_flow(net, coalition)
        assert mincut <= net.n
        view = coalition_view(flow, coalition)
        assert decode(view).rank <= min(net.n, mincut)
        for K in (0, min(len(coalition), seats)):
            res = analyze_recovery(build_recovery_system(params, view, vkeys[:K], messages))
            assert res.r0 <= min(mincut, 1 + l, M + 1), (net.edges, coalition)
            bound = count_lower_bound(q, l, k, M, K, mincut)
            assert res.gauss >= bound and res.predicted >= bound
            assert res.brute is None or res.brute >= bound


def test_sweep_fan_rows_obey_max_flow_bounds():
    # the acceptance sweep's rows; a fan's max-flow does not depend on its drawn kernels
    result = lemma_sweep(qs=(2, 3), ls=(1, 2), ks=(2, 3), Ms=(1, 2), Ks=(1, 2, 3), reps=3, seed=7)
    assert len(result.rows) > 100
    for row in result.rows:
        net = fan(row.q, row.n, row.edge_counts, random.Random(0))
        mincut = max_flow(net, [f"r{i}" for i in range(row.K)])
        assert mincut <= min(row.n, sum(row.edge_counts))
        assert row.r0 <= min(mincut, 1 + row.l, row.M + 1), row
        bound = count_lower_bound(row.q, row.l, row.k, row.M, row.K, mincut)
        assert row.gauss >= bound and row.predicted >= bound
        assert row.brute is None or row.brute >= bound
