"""Field construction, arithmetic, Frobenius and the vector view."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from ncauth import Fel, Field, GuardError, Matrix, SystemParams, TaggedPacket, keygen, tag
from ncauth.field import TABLE_ORDER, Packing, _is_irreducible, _TableField, is_prime, packing
from support import ORACLE_FIELDS, element_strategy, elements

# The oracle fields plus both sides of the table bound: GF(3^10) and GF(251^2)
# use log tables, GF(257^2) and GF(5^7) polynomial arithmetic.
ARITH_FIELDS = ORACLE_FIELDS + [(3, 5), (3, 10), (251, 2), (5, 7)]
# Every field with log tables of order at most 2^10, small enough to check whole.
SMALL_TABLE_FIELDS = [
    (q, l) for q in range(2, 32) if is_prime(q) for l in range(2, 11) if q**l <= 1 << 10
]


def brute_smallest_irreducible(q, l):
    """Oracle: scan monic degree-l polys in low-first lex order, keep the
    first with no monic divisor of degree 1..l-1 (full factor scan)."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
        return out

    def monic(deg):
        for low in itertools.product(range(q), repeat=deg):
            yield list(low) + [1]

    for low in itertools.product(range(q), repeat=l):
        cand = list(low) + [1]
        reducible = False
        for d1 in range(1, l):
            d2 = l - d1
            for f in monic(d1):
                for g in monic(d2):
                    if poly_mul(f, g) == cand:
                        reducible = True
                        break
                if reducible:
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("q,l", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_modulus_matches_factorization_oracle(q, l):
    assert Field(q, l).modulus == brute_smallest_irreducible(q, l)


def test_modulus_frozen_values():
    assert Field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert Field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert Field(2, 1).modulus == (0, 1)  # degree 1: plain F_q


def test_large_prime_quadratic_modulus():
    # x^2 + b x + c is irreducible over F_p (p odd) iff b^2 - 4c is a non-residue
    p = 65521
    F = Field(p, 2)
    assert _is_irreducible(F.modulus, p)

    def irreducible(c, b):
        return pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1

    c, b, _ = F.modulus
    assert irreducible(c, b)
    # and it is the first: candidates with constant term 0 are divisible by
    # x, and every other candidate before it (constant term slowest, then
    # the x coefficient) has a root
    assert not any(irreducible(c0, b0) for c0 in range(1, c) for b0 in range(p))
    assert not any(irreducible(c, b0) for b0 in range(b))


def test_context_determinism_and_equality():
    assert Field(3, 2) is Field(3, 2)
    assert Field(3, 2) != Field(3, 1)


@pytest.mark.parametrize("q,l", [(2, 1), (65521, 1), (2, 8), (3, 5), (257, 2)])
def test_copies_of_a_field_are_the_field(q, l):
    F = Field(q, l)
    assert copy.copy(F) is F and copy.deepcopy(F) is F
    assert pickle.loads(pickle.dumps(F)) is F
    rng = random.Random(f"copy/{q}/{l}")
    x = F.random_element(rng)
    m = Matrix(F, [[F.random_element(rng) for _ in range(3)] for _ in range(2)])
    p = tag(keygen(SystemParams(F, 2, 2, 1, 2, (1,)), 7)[0], x)
    for obj in (x, m, p):
        for dup in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert dup == obj and dup.field is F


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        Field(4, 2)  # not prime
    with pytest.raises(ValueError):
        Field(0, 1)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 17)
    with pytest.raises(ValueError):
        Field(65537, 1)  # above the prime bound
    with pytest.raises(ValueError, match="bound"):
        Field(2**61 - 1, 1)  # refused before any trial division


@pytest.mark.parametrize("q,l", [(2, True), (2.0, 1), (True, 1), (2, 1.0)])
def test_non_int_parameters_rejected(q, l):
    # each hashes equal to (2, 1), which must not answer for it
    Field(2, 1)
    with pytest.raises(ValueError):
        Field(q, l)


def test_f4_multiplication_table_entry():
    F = Field(2, 2)
    w = F((0, 1))
    assert w * w == F((1, 1))
    assert w * w * w == F.one  # multiplicative order 3
    assert w + w == F.zero


def test_f3_inverse_exhaustive_oracle():
    F = Field(3, 1)
    two = F(2)
    matches = [b for b in elements(F) if (two * b) == F.one]
    assert matches == [two.inv()] == [F(2)]


@st.composite
def nonzero_elements(draw):
    q, l = draw(st.sampled_from(ORACLE_FIELDS))
    fld = Field(q, l)
    return draw(element_strategy(fld).filter(bool))


@settings(max_examples=200, deadline=None)
@given(nonzero_elements())
def test_inverse_matches_fermat(x):
    fld = x.field
    assert x.inv().coeffs == support.reference_pow(fld, x.coeffs, fld.order - 2)
    assert x * x.inv() == fld.one


@st.composite
def element_pairs(draw):
    q, l = draw(st.sampled_from(ARITH_FIELDS))
    fld = Field(q, l)
    elem = element_strategy(fld)
    return draw(elem), draw(elem)


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_arithmetic_matches_reference(args):
    a, b = args
    fld = a.field
    q, x, y = fld.q, a.coeffs, b.coeffs
    assert (a + b).coeffs == tuple((u + v) % q for u, v in zip(x, y))
    assert (a - b).coeffs == tuple((u - v) % q for u, v in zip(x, y))
    assert (fld.zero - a).coeffs == tuple(-u % q for u in x)
    assert (a * b).coeffs == support.reference_mul(fld, x, y)
    if a:
        assert a.inv().coeffs == support.reference_inv(fld, x)
    for i in range(fld.l):
        assert a.frob(i).coeffs == support.reference_pow(fld, x, q**i)


@pytest.mark.parametrize(
    "q,l,tables",
    [(7, 1, False), (65521, 1, False), (2, 2, True), (3, 10, True), (251, 2, True),
     (2, 16, True), (257, 2, False), (5, 7, False), (65521, 2, False)],
)
def test_table_bound(q, l, tables):
    # log tables exactly for 1 < l and q^l <= TABLE_ORDER
    assert (1 < l and q**l <= TABLE_ORDER) is tables
    assert isinstance(Field(q, l), _TableField) is tables


@pytest.mark.parametrize("q,l", SMALL_TABLE_FIELDS)
def test_log_tables_exhaustive(q, l):
    F = Field(q, l)
    n = F.order - 1
    exp, log, zech = F.exp, F.log, F.zech
    assert len(exp) == 2 * n and exp[n:] == exp[:n]
    assert sorted(exp[:n]) == list(range(1, F.order))  # the generator is primitive
    assert all(log[exp[i]] == i for i in range(n))
    coeffs = {}
    for c in itertools.product(range(q), repeat=l):
        x = F(c)
        assert x.coeffs == c
        coeffs[x.code] = c
    assert sorted(coeffs) == list(range(F.order))
    if q == 2:
        assert zech is None
        return
    code = {c: k for k, c in coeffs.items()}
    for k in range(n):
        c = coeffs[exp[k]]
        one_plus = code[((c[0] + 1) % q, *c[1:])]  # 1 + g^k, added on coordinates
        if one_plus:
            assert exp[zech[k]] == one_plus
        else:
            assert k == n // 2 and zech[k] == -1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(5, 1).zero.inv()


def test_field_axioms_randomized():
    rng = random.Random(101)
    for q, l in [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2)]:
        F = Field(q, l)
        for _ in range(200):
            a, b, c = (F.random_element(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            assert a + F.zero == a and a * F.one == a
            assert a - a == F.zero
            if not a.is_zero():
                assert a * a.inv() == F.one


def test_frobenius_is_additive_multiplicative_and_fixes_base():
    rng = random.Random(55)
    for q, l in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        F = Field(q, l)
        for _ in range(100):
            a, b = F.random_element(rng), F.random_element(rng)
            i = rng.randrange(0, 2 * l)
            assert (a + b).frob(i) == a.frob(i) + b.frob(i)
            assert (a * b).frob(i) == a.frob(i) * b.frob(i)
            assert a.frob(l) == a  # order divides l
            assert a.frob(i).coeffs == support.reference_pow(F, a.coeffs, q**i)
        for c in range(q):
            assert F(c).frob(1) == F(c)


def test_f4_frobenius_frozen_value():
    F = Field(2, 2)
    w = F((0, 1))
    assert w.frob(1) == F((1, 1))


def test_vector_iso_roundtrip_and_linearity():
    rng = random.Random(9)
    F = Field(3, 2)
    for _ in range(100):
        a, b = F.random_element(rng), F.random_element(rng)
        assert F(a.coeffs) == a and F(list(a.coeffs)) == a
        s = rng.randrange(3)
        lhs = (F(s) * a + b).coeffs
        rhs = tuple((s * x + y) % 3 for x, y in zip(a.coeffs, b.coeffs))
        assert lhs == rhs
    assert F.zero.coeffs == (0, 0)
    assert F((1, 1)).coeffs == (1, 1)
    with pytest.raises(ValueError):
        F((1, 2, 0))


def test_enumeration_order_and_count():
    F2 = Field(2, 1)
    assert elements(F2) == [F2.zero, F2.one]
    F4 = Field(2, 2)
    els = elements(F4)
    assert len(els) == 4 and els[0] == F4.zero
    assert len(set(els)) == 4
    F9 = Field(3, 2)
    assert len(set(elements(F9))) == 9


def test_enumeration_guard(monkeypatch):
    monkeypatch.setattr(support, "ENUMERATION_GUARD", 8)
    with pytest.raises(GuardError):
        elements(Field(3, 2))


def test_mixed_field_arithmetic_rejected():
    a = Field(2, 2).one
    b = Field(3, 2).one
    with pytest.raises(ValueError):
        a + b


def test_element_coercion():
    F = Field(3, 2)
    assert F(2) == F(5) == F((2, 0))  # ints are reduced mod q
    assert F(F.one) is F.one
    with pytest.raises(ValueError):
        F((1, 2, 0))
    with pytest.raises(ValueError):
        F(Field(2, 2).one)


@pytest.mark.parametrize(
    "value", ["101", ["1", "0", "1"], (1.5, 0, 0), [True, 0, 0], True, 1.5, None, {1: 0, 0: 1}]
)
def test_coercion_refuses_non_integers(value):
    # each used to be converted through int(), truncating floats and reading bools
    F = Field(2, 3)
    with pytest.raises(ValueError):
        F(value)
    with pytest.raises(ValueError):
        Matrix(F, [[value]])


def test_field_call_is_the_one_element_constructor():
    F = Field(3, 2)
    with pytest.raises(TypeError):
        Fel(F, (5, 0))
    assert F((5, 0)) == F((2, 0))  # coordinates are reduced mod q
    for bad in [(0, 0, 1), (True, 0)]:
        with pytest.raises(ValueError):
            F(bad)
    # a packet's element views read symbols its constructor has checked
    rng = random.Random(7)
    for q, l in [(3, 2), (2, 8), (5, 1)]:
        fld = Field(q, l)
        pkt = TaggedPacket(fld, [1] + [rng.randrange(q) for _ in range(3 * l)])
        flat = pkt.flat
        assert pkt.m == fld(flat[1 : 1 + l])
        assert pkt.tag == (fld(flat[1 + l : 1 + 2 * l]), fld(flat[1 + 2 * l :]))


def test_degree_one_field_is_plain_prime_field():
    F = Field(7, 1)
    a, b = F(3), F(5)
    assert (a * b).coeffs == (1,)
    assert (a + b).coeffs == (1,)
    assert a.frob(4) == a
    assert a.inv() * a == F.one


# The binary fields up to the largest table field, and odd q on both table
# paths and the prime path at the bound: every packed layout in use.
PACKING_FIELDS = [(2, 1), (2, 3), (2, 8), (2, 16), (3, 5), (257, 2), (65521, 1)]


@st.composite
def packed_operands(draw):
    """A Packing, two vectors, an element, a nonzero base-field scalar and an int to coerce."""
    q, l = draw(st.sampled_from(PACKING_FIELDS))
    fld = Field(q, l)
    size = draw(st.integers(1, 6))
    vector = st.lists(element_strategy(fld), min_size=size, max_size=size)
    pk = draw(st.sampled_from([packing(fld, size), Packing(fld, size)]))
    scalar, n = draw(st.integers(1, q - 1)), draw(st.integers(-(1 << 17), 1 << 17))
    return pk, draw(vector), draw(vector), draw(element_strategy(fld)), scalar, n


@settings(max_examples=200, deadline=None)
@given(packed_operands())
def test_packing_ops_match_element_arithmetic(args):
    pk, u, v, a, c, n = args
    fld = pk.field
    # x, the class of the polynomial x modulo the modulus (-m_0 when l = 1)
    x = fld([0, 1] + [0] * (fld.l - 2)) if fld.l > 1 else fld(-fld.modulus[0])
    entries = [pk.coerce(e) for e in u]
    pu, pv = pk.pack(entries), pk.pack([pk.coerce(e) for e in v])
    assert pk.entries(pu) == entries
    assert [pk.entry(pu, j) for j in range(len(u))] == entries
    assert [bool(e) for e in entries] == [bool(e) for e in u]
    assert pk.unpack(pu) == tuple(u)
    assert list(map(pk.element, entries)) == u
    assert pk.element(pk.coerce(n)) == fld(n)
    assert pk.unpack(pk.add(pu, pv)) == tuple(s + t for s, t in zip(u, v))
    assert [pk.element(pk.neg(e)) for e in entries] == [fld.zero - e for e in u]
    assert pk.unpack(pk.scale(c, pu)) == tuple(fld(c) * e for e in u)
    assert pk.unpack(pk.times_x(pu)) == tuple(x * e for e in u)
    powers = pk.x_powers(pu)
    x_pows = [fld(support.reference_pow(fld, x.coeffs, t)) for t in range(fld.l)]
    assert [pk.unpack(p) for p in powers] == [tuple(xt * e for e in u) for xt in x_pows]
    assert pk.unpack(pk.add_mul(pv, pk.coerce(a), powers)) == tuple(
        t + a * s for s, t in zip(u, v)
    )


@pytest.mark.parametrize("l", [1, 3, 8, 16])
@pytest.mark.parametrize("size", [1, 5, 42])
def test_binary_packing_is_one_bit_per_coordinate(l, size):
    fld = Field(2, l)
    assert fld.w == 1
    ones = fld([1] * l)  # every coordinate set: the widest element
    for pk in (packing(fld, size), Packing(fld, size)):
        assert pk.ew == l
        assert pk.pack([pk.coerce(ones)] * size) == (1 << (size * l)) - 1
