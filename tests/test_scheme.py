"""Key generation, tagging, verification and packet combination."""

import random

import pytest

from ncauth import (
    Field,
    Matrix,
    SourceKey,
    SystemParams,
    TaggedPacket,
    combine,
    keygen,
    moore_matrix,
    residual,
    tag,
    verify,
)
from support import make_instance, matmul, sample_points, sum_one_coeffs, vandermonde


def test_params_validation():
    F = Field(5, 1)
    pts = (F(1), F(2))
    SystemParams(F, 2, 2, 2, 2, pts)
    with pytest.raises(ValueError):
        SystemParams(F, 1, 2, 2, 2, pts)  # k too small
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 2, 3, pts)  # n > M
    SystemParams(F, 2, 2, 2, 3, pts, allow_excess_messages=True)
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 2, 2, (F(1), F(1)))  # duplicate point
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 2, 2, (F(0), F(2)))  # zero point
    with pytest.raises(ValueError):
        SystemParams(F, 2, 2, 3, 2, pts)  # V mismatch


def test_keygen_deterministic():
    rng = random.Random(0)
    F = Field(3, 2)
    params = SystemParams(F, 3, 2, 2, 1, sample_points(F, 2, rng))
    k1, v1 = keygen(params, 123)
    k2, v2 = keygen(params, 123)
    k3, _ = keygen(params, 124)
    assert k1 == k2 and v1 == v2
    assert k1 != k3


def test_keygen_evals_match_matrix_route():
    # independent route: evals columns must equal key-matrix @ Vandermonde
    rng = random.Random(17)
    for q, l, k, M in [(2, 1, 2, 1), (3, 1, 3, 2), (2, 2, 2, 2), (5, 1, 4, 3)]:
        params, skey, vkeys, _, _ = make_instance(rng, q, l, k, M)
        vand = vandermonde(params.field, [vk.point for vk in vkeys], k)
        expected = matmul(Matrix(params.field, skey.polys), vand)
        assert list(zip(*expected.data)) == [vk.evals for vk in vkeys]


def test_keygen_hand_example():
    # F_2, k=2, M=1, key rows P_0 = 1+x, P_1 = x; at point 1: P_0(1)=0, P_1(1)=1
    F = Field(2, 1)
    key = SourceKey(Matrix(F, [[1, 1], [0, 1]]).data)
    params = SystemParams(F, 2, 1, 1, 1, (F.one,))
    from ncauth.scheme import poly_eval

    evals = tuple(poly_eval(key.polys[t], F.one) for t in range(2))
    assert evals == (F.zero, F.one)


def test_tag_hand_examples():
    F = Field(2, 1)
    key = SourceKey(Matrix(F, [[1, 1], [0, 1]]).data)  # P_0 = 1+x, P_1 = x
    p = tag(key, F.one)  # T = P_0 + 1*P_1 = 1 + 2x = 1
    assert p.c == 1 and p.m == F.one
    assert p.tag == (F.one, F.zero)
    p0 = tag(key, F.zero)  # payload zero: tag is P_0 itself
    assert p0.tag == (F.one, F.one)

    zero_key = SourceKey(Matrix(F, [[0, 0], [0, 0]]).data)
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
    z = TaggedPacket(F, (0,) * (1 + F.l * (1 + params.k)))
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
            corrupted = TaggedPacket(F, flat)
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
    with pytest.raises(ValueError):
        combine([], [])


@pytest.mark.parametrize("coeffs", [[1.5, 0], [True, 0], [1, "0"], [1, None]])
def test_combine_refuses_non_integer_coefficients(coeffs):
    # 1.5 used to be truncated to 1, so the mix equalled combine(packets, [1, 0])
    rng = random.Random(2)
    params, skey, vkeys, messages, packets = make_instance(rng, 3, 1, 2, 2, n=2)
    with pytest.raises(ValueError, match="integers"):
        combine(packets, coeffs)


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
        assert TaggedPacket(F, list(flat)) == p
    flat = packets[0].flat
    for bad in (flat[:-1], flat[: 1 + F.l], flat[:1] + (3,) + flat[2:],
                flat[:1] + (-1,) + flat[2:], (True,) + flat[1:], flat[:1] + (1.0,) + flat[2:]):
        with pytest.raises(ValueError):
            TaggedPacket(F, bad)


def test_moore_matrix_examples_and_rank():
    F = Field(2, 1)
    m = moore_matrix(F, [F.zero], 1)
    assert m.rows == 1 and m.cols == 2
    assert m.data[0] == (F.one, F.zero)
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
        TaggedPacket(F, (2, 1, 1))
