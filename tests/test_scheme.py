"""Key generation, tagging, verification and packet combination."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncauth import (
    Fel,
    Field,
    ForgerySpec,
    Matrix,
    SourceKey,
    SystemParams,
    TaggedPacket,
    accept_map,
    butterfly,
    combine,
    forge,
    keygen,
    moore_matrix,
    residual,
    simulate,
    tag,
    verify,
)
from ncauth.field import packing
from ncauth.scheme import mix
from support import (
    make_instance,
    matmul,
    packet,
    reference_evals,
    reference_mix,
    reference_residual,
    reference_tag,
    rows_of,
    sample_points,
    sum_one_coeffs,
    vandermonde,
)

# One field per arithmetic class: integers mod q, log tables over F_2 and
# over odd q, and polynomials (257^2 is above the table bound).
SCHEME_FIELDS = [(5, 1), (2, 8), (3, 5), (257, 2)]


def test_params_validation():
    F = Field(5, 1)
    pts = (F(1), F(2))
    SystemParams(F, 2, 2, 2, 2, pts)
    with pytest.raises(ValueError):
        SystemParams(F, 1, 2, 2, 2, pts)  # k too small
    for M, V, n, name in ((0, 2, 1, "M"), (2, 0, 1, "V"), (2, 2, 0, "n")):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            SystemParams(F, 2, M, V, n, pts)
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 2, 3, pts)  # n > M
    SystemParams(F, 2, 2, 2, 3, pts, allow_excess_messages=True)
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 2, 2, (F(1), F(1)))  # duplicate point
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 2, 2, (F(0), F(2)))  # zero point
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 3, 2, pts)  # V mismatch


@pytest.mark.parametrize("name", ["k", "M", "V", "n"])
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_params_refuse_sizes_that_are_not_ints(name, bad):
    F = Field(5, 1)
    sizes = {"k": 2, "M": 2, "V": 2, "n": 2, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
        SystemParams(F, sizes["k"], sizes["M"], sizes["V"], sizes["n"], (F(1), F(2)))


def test_keygen_deterministic():
    rng = random.Random(0)
    F = Field(3, 2)
    params = SystemParams(F, 3, 2, 2, 1, sample_points(F, 2, rng))
    k1, v1 = keygen(params, 123)
    k2, v2 = keygen(params, 123)
    k3, _ = keygen(params, 124)
    assert k1 == k2 and v1 == v2
    assert k1 != k3


# (q, l, k, M, seed) -> the secret codes, row by row, and verifier 1's eval
# codes at the points x and 1 + x, as drawn by one random_element call per
# key coefficient
KEY_STREAM = {
    (2, 3, 3, 2, 5): ([[3, 1, 4], [5, 0, 6], [2, 4, 0]], [3, 1, 3]),
    (2, 8, 4, 3, 11): (
        [[39, 99, 128, 51], [183, 104, 224, 217], [2, 147, 205, 8], [59, 112, 37, 88]],
        [97, 221, 229, 48],
    ),
    (2, 16, 3, 2, 29): (
        [[54390, 46949, 62807], [35530, 24960, 50208], [30138, 10979, 21317]],
        [54737, 44264, 48335],
    ),
    (3, 5, 4, 2, 3): (
        [[4240, 1162, 8770, 8832], [1098, 5136, 130, 4162], [8849, 5257, 8, 5185]],
        [5257, 576, 8273],
    ),
    (5, 2, 2, 4, 17): ([[52, 34], [18, 36], [0, 49], [35, 36], [19, 4]], [4, 4, 19, 16, 2]),
    (257, 2, 3, 3, 101): (
        [
            [187491, 24815, 115821],
            [254099, 172140, 37088],
            [100482, 46162, 191715],
            [246882, 125094, 221390],
        ],
        [165065, 30771, 225517, 143543],
    ),
}


@pytest.mark.parametrize("case", sorted(KEY_STREAM))
def test_keygen_draws_a_frozen_stream(case):
    # every key, golden and digest rests on this draw order
    q, l, k, M, seed = case
    F = Field(q, l)
    points = (F([0, 1] + [0] * (l - 2)), F([1, 1] + [0] * (l - 2)))
    skey, vkeys = keygen(SystemParams(F, k, M, 2, 1, points), seed)
    polys, evals = KEY_STREAM[case]
    assert [[c.code for c in poly] for poly in skey.polys] == polys
    assert [e.code for e in vkeys[1].evals] == evals


def test_keygen_evals_match_matrix_route():
    # independent route: evals columns must equal key-matrix @ Vandermonde
    rng = random.Random(17)
    for q, l, k, M in [(2, 1, 2, 1), (3, 1, 3, 2), (2, 2, 2, 2), (5, 1, 4, 3)]:
        params, skey, vkeys, _, _ = make_instance(rng, q, l, k, M)
        vand = vandermonde(params.field, [vk.point for vk in vkeys], k)
        expected = matmul(Matrix(params.field, skey.polys), vand)
        assert list(zip(*rows_of(expected))) == [vk.evals for vk in vkeys]


def test_keygen_hand_example():
    # F_2, k=2, M=1, key rows P_0 = 1+x, P_1 = x; at point 1: P_0(1)=0, P_1(1)=1
    F = Field(2, 1)
    key = SourceKey(rows_of(Matrix(F, [[1, 1], [0, 1]])))
    params = SystemParams(F, 2, 1, 1, 1, (F.one,))
    from ncauth.scheme import poly_eval

    evals = tuple(poly_eval(F, [c.code for c in key.polys[t]], F.one.code) for t in range(2))
    assert evals == (F.zero.code, F.one.code)


def test_tag_hand_examples():
    F = Field(2, 1)
    key = SourceKey(rows_of(Matrix(F, [[1, 1], [0, 1]])))  # P_0 = 1+x, P_1 = x
    p = tag(key, F.one)  # T = P_0 + 1*P_1 = 1 + 2x = 1
    assert p.c == 1 and p.m == F.one
    assert p.tag == (F.one, F.zero)
    p0 = tag(key, F.zero)  # payload zero: tag is P_0 itself
    assert p0.tag == (F.one, F.one)

    zero_key = SourceKey(rows_of(Matrix(F, [[0, 0], [0, 0]])))
    assert all(t.is_zero() for t in tag(zero_key, F.one).tag)


def test_honest_packets_verify_everywhere():
    rng = random.Random(23)
    for q, l, k, M in [(2, 1, 2, 1), (3, 2, 3, 2), (5, 1, 2, 3), (2, 3, 4, 2)]:
        params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M)
        for p in packets:
            assert all(verify(vk, p) for vk in vkeys)


def test_zero_packet_verifies_but_flags_zero():
    F = Field(3, 2)
    rng = random.Random(5)
    params, skey, vkeys, _, _ = make_instance(rng, 3, 2, 2, 2)
    z = packet(F, (0,) * (1 + F.l * (1 + params.k)))
    assert z.is_zero() and z.c == 0 and z.m.is_zero() and all(t.is_zero() for t in z.tag)
    assert all(verify(vk, z) for vk in vkeys)


def test_single_symbol_corruption_mostly_rejected():
    # flipping one flat symbol should fail verification with rate >= 1 - 1/q^l
    rng = random.Random(99)
    for q, l in [(2, 1), (3, 1), (2, 2)]:
        F = Field(q, l)
        trials, rejected = 0, 0
        for _ in range(150):
            params, skey, vkeys, messages, packets = make_instance(rng, q, l, 3, 2, V=1, n=1)
            flat = list(packets[0].flat)
            pos = rng.randrange(len(flat))
            delta = rng.randrange(1, q)
            flat[pos] = (flat[pos] + delta) % q
            corrupted = packet(F, flat)
            trials += 1
            rejected += 0 if verify(vkeys[0], corrupted) else 1
        bound = 1 - 1 / F.order
        assert rejected / trials >= bound - 0.08


def test_combine_structural_equals_flat_route():
    # oracle: the structural route, each part scaled and summed in F_{q^l}
    rng = random.Random(41)
    for q, l, k, M in [(2, 1, 2, 1), (3, 2, 3, 2), (5, 1, 4, 3)]:
        F = Field(q, l)
        params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M, n=M)
        coeffs = [rng.randrange(q) for _ in packets]
        mixed = combine(packets, coeffs)
        scaled = [(F(a), p) for a, p in zip(coeffs, packets)]
        assert mixed.c == sum(a * p.c for a, p in zip(coeffs, packets)) % q
        assert mixed.m == sum((w * p.m for w, p in scaled), F.zero)
        assert mixed.tag == tuple(
            sum((w * p.tag[j] for w, p in scaled), F.zero) for j in range(k)
        )


def test_combine_identity_and_validation():
    rng = random.Random(2)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 1, 2, 2, n=2)
    assert combine(packets, [1, 0]) == packets[0]
    z = combine(packets, [0, 0])
    assert z.is_zero() or z.m.is_zero()  # zero coefficients kill the payload
    with pytest.raises(ValueError):
        combine(packets, [1])
    with pytest.raises(ValueError, match="cannot combine zero packets"):
        combine([], [])
    other = make_instance(rng, 3, 1, 3, 2, n=1)[4][0]  # one more tag coefficient
    with pytest.raises(ValueError, match="disagree on field or tag length"):
        combine([packets[0], other], [1, 0])


@pytest.mark.parametrize("coeffs", [[1.5, 0], [True, 0], [1, "0"], [1, None]])
def test_combine_refuses_non_integer_coefficients(coeffs):
    # 1.5 used to be truncated to 1, so the mix equalled combine(packets, [1, 0])
    rng = random.Random(2)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 1, 2, 2, n=2)
    with pytest.raises(ValueError, match="integers"):
        combine(packets, coeffs)


@pytest.mark.parametrize("q,coeffs", [(2, (1.0,)), (3, (True, 0)), (5, (0.5, 0.5))])
def test_forgery_spec_refuses_non_integer_coefficients(q, coeffs):
    # each sums to 1 mod q, so the spec was built and only combine refused it later
    with pytest.raises(ValueError, match="coefficients must be integers"):
        ForgerySpec(q, coeffs)


def test_any_linear_combination_verifies():
    rng = random.Random(71)
    for _ in range(30):
        q, l, k, M = rng.choice([(2, 1, 2, 1), (3, 2, 3, 2), (5, 1, 2, 3)])
        params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M)
        coeffs = [rng.randrange(q) for _ in packets]
        mixed = combine(packets, coeffs)
        assert all(verify(vk, mixed) for vk in vkeys)


def test_residual_is_linear_in_the_packet():
    rng = random.Random(83)
    F = Field(3, 2)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 2, 3, 2, n=2)
    a, b = rng.randrange(3), rng.randrange(3)
    mixed = combine(packets, [a, b])
    for vk in vkeys:
        lhs = residual(vk, mixed)
        rhs = F(a) * residual(vk, packets[0]) + F(b) * residual(vk, packets[1])
        assert lhs == rhs


def test_flat_roundtrip_and_length_check():
    rng = random.Random(11)
    F = Field(3, 2)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 2, 3, 2)
    for p in packets:
        flat = p.flat
        assert len(flat) == 1 + F.l + params.k * F.l
        assert flat == (p.c, *p.m.coeffs, *(c for t in p.tag for c in t.coeffs))
        assert packet(F, flat) == p
    flat = packets[0].flat
    for bad in (flat[:-1], flat[: 1 + F.l], flat[:1] + (3,) + flat[2:], flat[:1] + (-1,) + flat[2:]):
        with pytest.raises(ValueError):
            packet(F, bad)
    # a True or 1.0 symbol has no packed form: the packed vector itself is refused
    for bad in (True, float(packets[0].packed)):
        with pytest.raises(ValueError, match="must be an int"):
            TaggedPacket(F, bad, len(flat))


# (q, l) for the packed layout: one-bit slots, and small and wide odd-q slots
LAYOUT_FIELDS = [(q, l) for q in (2, 3, 5, 257) for l in (1, 2, 3)]


@st.composite
def symbol_packets(draw):
    """A field and 1 to 3 lists of F_q symbols of one packet length, k <= 3."""
    q, l = draw(st.sampled_from(LAYOUT_FIELDS))
    size = 1 + l * (1 + draw(st.integers(1, 3)))
    symbol = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    flat = st.lists(symbol, min_size=size, max_size=size)
    return Field(q, l), draw(st.lists(flat, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(symbol_packets())
def test_packed_layout_round_trips(case):
    fld, flats = case
    l = fld.l
    for flat in flats:
        p = packet(fld, flat)
        assert p.flat == tuple(flat) and p.size == len(flat)
        assert TaggedPacket(fld, p.packed, p.size) == TaggedPacket._make(p) == p
        assert p.c == flat[0] and p.m == fld(flat[1 : 1 + l])
        assert p.tag == tuple(fld(flat[i : i + l]) for i in range(1 + l, len(flat), l))
        assert p.is_zero() is not any(flat)


@settings(max_examples=100, deadline=None)
@given(symbol_packets(), st.data())
def test_mix_matches_the_symbol_oracle(case, data):
    fld, flats = case
    q, w = fld.q, fld.w
    special = st.sampled_from([0, q - 1, q, q + 1, 3 * q, -1])  # zero, and coefficients >= q
    coeff = st.one_of(special, st.integers(0, 4 * q))
    coeffs = data.draw(st.lists(coeff, min_size=len(flats), max_size=len(flats)))
    pk = packing(Field(q, 1), len(flats[0]))
    vectors = [packet(fld, f).packed for f in flats]
    mixed = mix(pk, vectors, coeffs)
    assert TaggedPacket(fld, mixed, pk.size).flat == reference_mix(q, flats, coeffs)
    # the same vectors above the header, as entries of F_{q^l}: the recovery rows' packing
    wide = packing(fld, (pk.size - 1) // fld.l)
    assert mix(wide, [v >> w for v in vectors], coeffs) == mixed >> w
    assert mix(pk, vectors, [q * a for a in coeffs]) == 0  # every coefficient reduces to 0


@pytest.mark.parametrize(
    "q, l, packed, size, message",
    [
        (3, 2, 0, 4, "flat packet must have"),  # not 1 + l(1 + k)
        (3, 2, 0, 3, "flat packet must have"),  # k = 0
        (3, 2, 0, 5.0, "flat packet must have"),
        (3, 2, 3, 5, r"symbols must be ints in \[0, 3\)"),  # header slot = q
        (3, 2, 7 << 12, 5, r"symbols must be ints in \[0, 3\)"),  # last slot all ones
        (3, 2, 1 << 15, 5, r"must be an int in \[0, 2\^15\)"),  # a bit past the width
        (2, 1, 1 << 3, 3, r"must be an int in \[0, 2\^3\)"),
        (3, 2, -1, 5, "must be an int in"),
        (3, 2, True, 5, "must be an int in"),
        (3, 2, 1.0, 5, "must be an int in"),
        (3, 2, "1", 5, "must be an int in"),
    ],
    ids=["count", "no-tag", "float-size", "slot", "top-slot", "width", "width-f2", "negative",
         "bool", "float", "str"],
)
def test_packed_packet_refusals(q, l, packed, size, message):
    with pytest.raises(ValueError, match=message):
        TaggedPacket(Field(q, l), packed, size)


def test_moore_matrix_examples_and_rank():
    F = Field(2, 1)
    m = moore_matrix(F, [F.zero], 1)
    assert m.rows == 1 and m.cols == 2
    assert rows_of(m)[0] == (F.one, F.zero)
    m2 = moore_matrix(F, [F.zero, F.one], 1)
    assert m2.rank() == 2
    rng = random.Random(19)
    G = Field(3, 2)
    for _ in range(20):
        n, M = rng.randint(1, 4), rng.randint(1, 3)
        msgs = [G.random_element(rng) for _ in range(n)]
        mm = moore_matrix(G, msgs, M)
        assert mm.rows == n and mm.cols == M + 1
        assert mm.rank() <= min(n, M + 1)


def test_tag_coefficients_affine_identity():
    rng = random.Random(37)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 2, 3, 2, n=2)
    F = params.field
    s, s2 = messages
    assert tag(skey, F.zero).tag == skey.polys[0]  # payload zero: the tag is P_0
    # L(s + s') - L(s) - L(s') == -P_0 coefficient (the affine part cancels once)
    both, one, two = tag(skey, s + s2).tag, tag(skey, s).tag, tag(skey, s2).tag
    for j in range(params.k):
        assert both[j] - one[j] - two[j] == F.zero - skey.polys[0][j]


def test_header_out_of_range_rejected():
    F = Field(2, 1)
    with pytest.raises(ValueError):
        packet(F, (2, 1, 1))


def test_verify_refuses_a_packet_over_another_field():
    rng = random.Random(29)
    _, _, vkeys, _, _ = make_instance(rng, 2, 8, 3, 2, V=1, n=1)
    _, _, _, _, packets = make_instance(rng, 3, 5, 3, 2, V=1, n=1)
    with pytest.raises(ValueError, match="mixed-field arithmetic"):
        verify(vkeys[0], packets[0])
    with pytest.raises(ValueError, match="mixed-field arithmetic"):
        residual(vkeys[0], packets[0])


@st.composite
def scheme_instances(draw):
    """A scheme instance over one of SCHEME_FIELDS, and the rng that drew it."""
    q, l = draw(st.sampled_from(SCHEME_FIELDS))
    k, M = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return make_instance(rng, q, l, k, M), rng


@settings(max_examples=100, deadline=None)
@given(scheme_instances())
def test_scheme_on_codes_matches_element_reference(case):
    (params, skey, vkeys, messages, packets), rng = case
    fld, k = params.field, params.k
    q, l = fld.q, fld.l
    assert [vk.evals for vk in vkeys] == [reference_evals(skey, vk.point) for vk in vkeys]
    assert packets == [reference_tag(skey, s) for s in messages]
    mixed = combine(packets, [rng.randrange(q) for _ in packets])
    forged = forge(packets, ForgerySpec(q, sum_one_coeffs(q, len(packets), rng)))
    noise = packet(fld, [rng.randrange(q) for _ in range(1 + l * (1 + k))])
    # one tag coordinate moved: the residual is a nonzero multiple of a power of x_i
    flat = list(packets[0].flat)
    pos = 1 + l * (1 + rng.randrange(k)) + rng.randrange(l)
    flat[pos] = (flat[pos] + rng.randrange(1, q)) % q
    corrupt = packet(fld, flat)
    for vk in vkeys:
        for p in (*packets, mixed, forged, noise, corrupt):
            want = reference_residual(vk, p)
            assert residual(vk, p) == want
            assert verify(vk, p) is want.is_zero()
        assert not verify(vk, corrupt)


@pytest.mark.parametrize("q,l", [(7, 1), (2, 8), (3, 5), (257, 2)])  # six seats: GF(5) is too small
def test_keys_tags_and_checks_make_no_element_arithmetic(q, l, monkeypatch):
    # the per-node hot path runs on codes: an element sum, difference,
    # product or Frobenius map inside it raises
    fld = Field(q, l)
    net = butterfly(q)
    rng = random.Random(q * l)
    params = SystemParams(fld, 3, 2, 6, 2, sample_points(fld, 6, rng))
    messages = [fld.random_element(rng) for _ in range(2)]

    def refuse(*args):
        raise AssertionError("element arithmetic on the hot path")

    for name in ("__add__", "__sub__", "__mul__", "frob"):
        monkeypatch.setattr(Fel, name, refuse)
    skey, vkeys = keygen(params, 11)
    packets = [tag(skey, s) for s in messages]
    assert all(verify(vk, p) for vk in vkeys for p in packets)
    flow = simulate(net, packets)
    accepts = accept_map(flow, {node: vkeys[i] for node, i in net.verifiers.items()})
    assert accepts and all(all(edges.values()) for edges in accepts.values())
