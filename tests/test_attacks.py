"""Forgery construction/steering and coalition recovery counting."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncauth import (
    CoalitionView,
    Field,
    ForgerySpec,
    GuardError,
    Intervention,
    Matrix,
    RecoverySystem,
    SystemParams,
    TaggedPacket,
    analyze_recovery,
    brute_force_count,
    build_recovery_system,
    coalition_view,
    combine,
    fan,
    forge,
    gauss_count,
    keygen,
    line,
    predicted_count,
    predicted_rank,
    simulate,
    solve,
    solve_target_coeffs,
    tag,
    verify,
)
from support import (
    elements,
    identity,
    make_instance,
    matmul,
    random_matrix,
    reference_brute_force_count,
    sample_points,
    transpose,
)


def test_forgery_spec_validation():
    ForgerySpec(3, (2, 2))
    with pytest.raises(ValueError):
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


def _column_major_secret(skey):
    vec = []
    for j in range(skey.k):
        for t in range(skey.M + 1):
            vec.append(skey.polys[t][j])
    return vec


def hand_instance():
    """Smallest possible coalition: F_2, k=2, M=1, one member at point 1."""
    fld = Field(2, 1)
    params = SystemParams(fld, k=2, M=1, V=1, n=1, public_points=(1,))
    skey, vkeys = keygen(params, seed=5)
    messages = [fld.one]
    packets = [tag(skey, messages[0])]
    view = CoalitionView(("v0",), ((1,),), (packets[0],))
    return params, skey, vkeys, messages, packets, view


def test_recovery_hand_example_matrix():
    params, skey, vkeys, messages, packets, view = hand_instance()
    system = build_recovery_system(params, view, vkeys, messages)
    meta = system.meta
    assert (meta.r0, meta.h_total, meta.K) == (1, 1, 1)

    def ints(m):
        return [[v.coeffs[0] for v in row] for row in m.data]

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
    view = CoalitionView(("v0",), (), ())
    system = build_recovery_system(params, view, vkeys, messages)
    assert system.meta.r0 == 0
    assert predicted_rank(system.meta) == 2
    assert predicted_count(system.meta) == 4
    assert gauss_count(system) == (True, 4, 2)
    assert brute_force_count(system) == 4


def test_true_key_satisfies_the_system():
    rng = random.Random(77)
    for _ in range(5):
        params, skey, vkeys, messages, packets = make_instance(rng, 3, 1, 3, 2, V=2)
        coeffs = [rng.randrange(3) for _ in messages]
        view = CoalitionView(
            ("a", "b"),
            (tuple(coeffs),),
            (combine(packets, coeffs),),
        )
        system = build_recovery_system(params, view, vkeys[:2], messages)
        secret = _column_major_secret(skey)
        for row, (want,) in zip(system.coeff.data, system.rhs.data, strict=True):
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
    view = CoalitionView(("v0",), ((1, 0), (0, 1)), tuple(packets))
    system = build_recovery_system(params, view, vkeys, messages)
    assert system.meta.r0 == 2
    assert predicted_count(system.meta) == 1
    assert gauss_count(system) == (True, 1, 4)
    assert brute_force_count(system) == 1
    # a hand-built view's kernel entries mean their residues mod q
    unreduced = CoalitionView(("v0",), ((4, -3), (3, -2)), tuple(packets))
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
    short = CoalitionView(("v0",), ((1,),), ())
    with pytest.raises(ValueError):
        build_recovery_system(params, short, vkeys, messages)
    one_coeff_tag = CoalitionView(("v0",), ((1,),), (TaggedPacket(params.field, (1, 1, 0)),))
    with pytest.raises(ValueError, match="tag length disagrees with k"):
        build_recovery_system(params, one_coeff_tag, vkeys, messages)


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
        view = CoalitionView(tuple(f"v{i}" for i in range(K)), tuple(rows), tuple(pkts))
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
        true_rows.append(tuple(x.coeffs[0] for (x,) in h.data))
    fixed = CoalitionView(view.nodes, tuple(true_rows), view.packets)
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
    meta = vars(system.meta)
    assert {name: getattr(res, name) for name in meta} == meta  # the shape fields, flat
    assert res.candidates == 16
    assert (res.consistent, res.rank, res.predicted_rank) == (True, 3, 3)
    assert (res.predicted, res.gauss, res.brute) == (2, 2, 2)
    assert res.rank_match and res.count_match is True and not res.skipped
    refused = analyze_recovery(system, guard=8)  # the counter's guard decides the skip
    assert refused.brute is None and refused.skipped and refused.count_match is None
    assert (refused.consistent, refused.gauss, refused.rank) == (True, 2, 3)
    # r0 = 0 predicts rank 2 and count 4 against the system's 3 and 2
    wrong = system._replace(meta=dataclasses.replace(system.meta, r0=0))
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


def test_brute_force_wide_prime_coordinates():
    # 2^16 candidates each: too many for the reference, small for elimination
    fld = Field(257, 1)

    def system(rows, rhs, f=fld):
        return RecoverySystem(
            Matrix(f, rows, cols=len(rows[0])), Matrix(f, [[b] for b in rhs], cols=1), meta=None
        )

    assert brute_force_count(system([[1, 1]], [256])) == 257
    assert brute_force_count(system([[256, 1]], [0])) == 257
    assert brute_force_count(system([[256]], [1])) == 1
    assert brute_force_count(system([[1, 0], [0, 1]], [256, 255])) == 1
    assert brute_force_count(system([[1, 0], [1, 0]], [256, 0])) == 0
    ext = Field(257, 2)
    assert brute_force_count(system([[ext((3, 200))]], [ext((256, 255))], ext)) == 1


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
    view = CoalitionView(("v0",), h_rows, tuple(combine(packets, h) for h in h_rows))
    system = build_recovery_system(params, view, vkeys[:K], messages)
    assert l * system.coeff.cols == (18 if q == 2 else 12)
    consistent, gcount, _ = gauss_count(system)
    assert consistent and brute_force_count(system) == gcount == predicted_count(system.meta) > 1

    fld = params.field
    coeff = Matrix(fld, [*system.coeff.data, system.coeff.data[0]], cols=system.coeff.cols)
    rhs = Matrix(fld, [*system.rhs.data, [system.rhs.data[0][0] + fld.one]], cols=1)
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
        a, b = random_matrix(G, 2, 4, rng).data
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
        view = CoalitionView(("v0",), ((1,),) * h_total, (packet,) * h_total)
        return build_recovery_system(params, view, vkeys, messages).meta.condition_held

    assert held(3) is True
    assert held(4) is False
