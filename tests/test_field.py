"""Field construction, arithmetic, Frobenius and the vector view."""

import copy
import itertools
import operator
from array import array
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from ncauth import Fel, Field, GuardError, Matrix, SystemParams, keygen, tag
from ncauth.field import (
    MAX_DEGREE,
    TABLE_ORDER,
    Packing,
    _byte_tables,
    _BytePacking,
    _is_irreducible,
    _PolyField,
    _TableField,
    is_prime,
    packing,
)
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


def test_is_prime_matches_naive_oracle():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in [*range(-2, 4097), 65519, 65521, 65536, 65537]:
        assert is_prime(n) == naive(n), n


@pytest.mark.parametrize("q,l", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_modulus_matches_factorization_oracle(q, l):
    assert Field(q, l).modulus == brute_smallest_irreducible(q, l)


# Every modulus a field has been built with, low degree first: the codes of
# its elements, and so every report, depend on it.
FROZEN_MODULI = {
    (2, 1): (0, 1),  # degree 1: plain F_q
    (65521, 1): (0, 1),
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (2, 3): (1, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (5, 2): (1, 1, 1),
    (5, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (251, 2): (1, 0, 1),
    (257, 2): (1, 1, 1),
    (65521, 2): (1, 15, 1),
}


def test_modulus_frozen_values():
    for (q, l), modulus in FROZEN_MODULI.items():
        assert Field(q, l).modulus == modulus, (q, l)


def has_monic_divisor(poly, q):
    """Oracle: the monic poly (low degree first) has a monic divisor of degree 1..n/2."""
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(q), repeat=d):
            div = (*low, 1)
            rem = list(poly)
            for i in range(n, d - 1, -1):  # long division: clear the x^i term
                c = rem[i]
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - c * div[j]) % q
            if not any(rem[:d]):
                return True
    return False


@pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (5, 3)])
def test_is_irreducible_matches_trial_division(q, top):
    for n in range(1, top + 1):
        for low in itertools.product(range(q), repeat=n):
            poly = (*low, 1)
            assert _is_irreducible(poly, q) is not has_monic_divisor(poly, q), poly


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


@pytest.mark.parametrize("l", [1, 2, 5])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 251, 257, 65521])
def test_random_element_draws_the_randrange_stream(q, l):
    # keys, payloads, reports and digests all rest on this stream; 7, 11,
    # 13 and 17 (w = 4, 5, 5, 6) are the edge of the block read
    F = Field(q, l)
    ours, theirs = random.Random(f"stream/{q}/{l}"), random.Random(f"stream/{q}/{l}")
    drawn = [F.random_element(ours) for _ in range(300)]
    assert drawn == [F([theirs.randrange(q) for _ in range(l)]) for _ in range(300)]
    assert ours.getstate() == theirs.getstate()


class CountingRandom(random.Random):
    """A generator that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 251, 257, 65521])
def test_block_draws_are_random_element_draws(q):
    # q <= 13 reads blocks of Mersenne Twister words, q >= 17 falls back to
    # random_element itself; both must give random_element's codes
    refills = 0
    for l in (1, 2, 3, 5):
        F = Field(q, l)
        for count in range(1, 65):
            for seed in range(4):
                ours = CountingRandom(seed * 1000 + count)
                theirs = random.Random(seed * 1000 + count)
                codes = F._random_codes(ours, count)
                assert codes == [F.random_element(theirs).code for _ in range(count)]
                if q > 13:
                    assert ours.getstate() == theirs.getstate()
                else:
                    refills += ours.calls - 1
    # q.bit_length() bits hold more than q values, so every q rejects some
    # draws, and some first blocks run short
    assert (refills > 0) == (q <= 13)


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
    "q,l",
    [(65521, 2), (257, 2), (251, 2), (3, 10), (3, 5), (2, 16), (2, 1), (3, 1), (65521, 1)],
)
def test_sum_and_difference_at_slot_extremes(q, l):
    # a carry-free packed slot is tightest where coordinates reach q - 1,
    # which random draws seldom combine: every coordinate from these four
    F = Field(q, l)
    edge = [0, 1, q // 2, q - 1]
    coords = [(c,) * l for c in edge]
    coords += [tuple(edge[(t + k) % 4] for t in range(l)) for k in range(4)]
    for x, y in itertools.product(coords, repeat=2):
        a, b = F(list(x)), F(list(y))
        assert (a + b).coeffs == tuple((u + v) % q for u, v in zip(x, y))
        assert (a - b).coeffs == tuple((u - v) % q for u, v in zip(x, y))


@pytest.mark.parametrize("q,l", [(2, 1), (3, 1), (65521, 1), (2, 8), (3, 5), (257, 2)])
def test_every_field_sums_by_one_packed_entry(q, l):
    # one sum and difference on every path, prime fields included
    F = Field(q, l)
    pk = packing(F, 1)
    assert F.add is pk.add and F.sub is pk.sub


def test_packing_keeps_one_instance_per_size():
    # more sizes than a bounded cache holds: the field's own packing stays the one handed out
    F = Field(3, 1)
    for size in range(1, 301):
        packing(F, size)
    assert F.add is packing(F, 1).add


@pytest.mark.parametrize(
    "q,l,tables",
    [(7, 1, False), (65521, 1, False), (2, 2, True), (3, 10, True), (251, 2, True),
     (2, 16, True), (257, 2, False), (5, 7, False), (65521, 2, False)],
)
def test_table_bound(q, l, tables):
    # log tables exactly for 1 < l and q^l <= TABLE_ORDER
    assert (1 < l and q**l <= TABLE_ORDER) is tables
    assert isinstance(Field(q, l), _TableField) is tables


def test_binary_tables_stay_dense_arrays():
    # a dict log over F_2 would cost megabytes per field: only odd q needs one
    F = Field(2, 16)
    n = F.order - 1
    for table, size in ((F.log, n + 1), (F.exp, 2 * n)):
        assert type(table) is array and table.typecode == "H" and len(table) == size


@pytest.mark.parametrize("q,l", SMALL_TABLE_FIELDS)
def test_log_tables_exhaustive(q, l):
    F = Field(q, l)
    n = F.order - 1
    exp, log = F.exp, F.log
    assert len(exp) == 2 * n and exp[n:] == exp[:n]
    assert all(log[exp[i]] == i for i in range(n))
    coeffs = {}
    for c in itertools.product(range(q), repeat=l):
        x = F(c)
        assert x.coeffs == c
        coeffs[x.code] = c
    assert len(coeffs) == F.order and coeffs[0] == (0,) * l  # distinct codes, zero's is 0
    assert sorted(exp[:n]) == sorted(coeffs.keys() - {0})  # the generator is primitive
    # 1 + g^k and g^k - 1 for every k, against the sum on coordinates
    code = {c: k for k, c in coeffs.items()}
    for k in range(n):
        c = coeffs[exp[k]]
        assert F.add(1, exp[k]) == code[((c[0] + 1) % q, *c[1:])]
        assert F.sub(exp[k], 1) == code[((c[0] - 1) % q, *c[1:])]


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(5, 1).zero.inv()


@pytest.mark.parametrize("q,l", [(3, MAX_DEGREE), (65521, MAX_DEGREE)])
def test_inverse_at_the_bounds_of_the_polynomial_path(q, l):
    # the largest degree, and there the largest prime: a^(q^l - 2) is one
    # power of a 256-bit exponent over GF(65521^16)
    F = Field(q, l)
    assert type(F) is _PolyField
    rng = random.Random(q * l)
    x_poly = F([0, 1] + [0] * (l - 2))
    for x in [F.random_element(rng) for _ in range(6)] + [F.one, F.zero - F.one, x_poly]:
        assert x and x * x.inv() == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inv()


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
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed-field arithmetic"):
            op(a, b)
    # a non-element operand gets NotImplemented, so Python raises TypeError
    for other in (1, 2, 1.0):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)


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
    for args in [(F, (5, 0)), ()]:
        with pytest.raises(TypeError):
            Fel(*args)
    assert F((5, 0)) == F((2, 0))  # coordinates are reduced mod q
    for bad in [(0, 0, 1), (True, 0)]:
        with pytest.raises(ValueError):
            F(bad)
    # a packet's element views read symbols its constructor has checked
    rng = random.Random(7)
    for q, l in [(3, 2), (2, 8), (5, 1)]:
        fld = Field(q, l)
        pkt = support.packet(fld, [1] + [rng.randrange(q) for _ in range(3 * l)])
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
    with pytest.raises(ValueError, match="nonnegative"):
        a.frob(-1)


@pytest.mark.parametrize(
    "q,l",
    [(5, 1), (65521, 1), (2, 8), (2, 16), (3, 5), (3, 10), (251, 2), (257, 2), (65521, 2)],
)
def test_code_is_the_packed_entry(q, l):
    F = Field(q, l)
    rng = random.Random(1000 * q + l)
    els = [F.zero, F([q - 1] * l)] + [F.random_element(rng) for _ in range(40)]
    one = packing(F, 1)
    for x in els:
        assert x.code == sum(c << (F.w * t) for t, c in enumerate(x.coeffs))
        assert one.pack([x.code]) == x.code and one.entries(x.code) == [x.code]
    assert F.zero.code == 0
    # coordinate t of entry j in slot j*l + t, built from the coordinates alone
    pk = packing(F, len(els))
    v = sum(c << (F.w * (j * l + t)) for j, x in enumerate(els) for t, c in enumerate(x.coeffs))
    assert pk.entries(v) == [x.code for x in els]


# The binary fields up to the largest table field (GF(2^2), GF(2^4) and
# GF(2^8), whose entries tile a byte, among them), and odd q on both table
# paths and the prime path at the bound: every packed layout in use.
PACKING_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (2, 16), (3, 5), (257, 2), (65521, 1)]


@st.composite
def packed_operands(draw):
    """A Packing, two vectors, an element and a nonzero base-field scalar."""
    q, l = draw(st.sampled_from(PACKING_FIELDS))
    fld = Field(q, l)
    size = draw(st.integers(1, 6))
    vector = st.lists(element_strategy(fld), min_size=size, max_size=size)
    pk = draw(st.sampled_from([packing(fld, size), Packing(fld, size)]))
    scalar = draw(st.integers(1, q - 1))
    return pk, draw(vector), draw(vector), draw(element_strategy(fld)), scalar


@settings(max_examples=200, deadline=None)
@given(packed_operands())
def test_packing_ops_match_element_arithmetic(args):
    pk, u, v, a, c = args
    fld = pk.field
    # x, the class of the polynomial x modulo the modulus (-m_0 when l = 1)
    x = fld([0, 1] + [0] * (fld.l - 2)) if fld.l > 1 else fld(-fld.modulus[0])
    def codes(elements):  # a packed entry is its element's code
        return [e.code for e in elements]

    entries = codes(u)
    pu, pv = pk.pack(entries), pk.pack(codes(v))
    assert pk.entries(pu) == entries
    assert [pk.entry(pu, j) for j in range(len(u))] == entries
    assert [bool(e) for e in entries] == [bool(e) for e in u]
    assert pk.entries(pk.add(pu, pv)) == codes(s + t for s, t in zip(u, v))
    assert pk.entries(pk.sub(pu, pv)) == codes(s - t for s, t in zip(u, v))
    assert [pk.sub(0, e) for e in entries] == codes(fld.zero - e for e in u)
    assert pk.entries(pk.scale(c, pu)) == codes(fld(c) * e for e in u)
    powers = pk.x_powers(pu)
    x_pows = [fld(support.reference_pow(fld, x.coeffs, t)) for t in range(fld.l)]
    assert [pk.entries(p) for p in powers] == [codes(xt * e for e in u) for xt in x_pows]
    # elimination's multiple, taken from the pivot form: the chain, or the row's bytes
    got = pk.add_mul(pv, a.code, pk.pivot_form(pu))
    assert pk.entries(got) == codes(t + a * s for s, t in zip(u, v))


# Odd q with l <= 2, and GF(3^5): between them every multiplier coordinate c
# takes 1, q - 1, 1 < c <= q/2 and (q >= 5) q/2 < c < q - 1.
ODD_KERNEL_FIELDS = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (3, 5)]


@pytest.mark.parametrize("q,l", ODD_KERNEL_FIELDS)
def test_add_mul_every_multiplier(q, l, monkeypatch):
    """add_mul(v, a, x_powers(u)) is v + a u entrywise for every a, scaling by at most q/2."""
    fld = Field(q, l)
    rng = random.Random(31 * q + l)
    size = 6
    pk = packing(fld, size)
    scaled = []
    scale = Packing.scale

    def counted(self, c, v):
        scaled.append(c)
        return scale(self, c, v)

    monkeypatch.setattr(Packing, "scale", counted)
    for a in elements(fld):
        u = [fld.random_element(rng) for _ in range(size)]
        v = [fld.random_element(rng) for _ in range(size)]
        powers = pk.x_powers(pk.pack([e.code for e in u]))
        got = pk.add_mul(pk.pack([e.code for e in v]), a.code, powers)
        assert pk.entries(got) == [(t + a * s).code for s, t in zip(u, v)]
    # c = 1 and c = q - 1 add or subtract the power itself: over F_3 nothing is scaled
    assert set(scaled) == set(range(2, q // 2 + 1))


@pytest.mark.parametrize("q,l", [(3, 5), (5, 2), (7, 2), (2, 8)])
def test_x_powers_fold_every_top_coordinate(q, l):
    """x_powers(u)[t] is x^t u entrywise, where u's entries take every top coordinate below q.

    Over q >= 5 a top coordinate such as 3 has two bits set, so two masked
    products of the fold land in one entry.
    """
    fld = Field(q, l)
    rng = random.Random(37 * q + l)
    u = [fld([rng.randrange(q) for _ in range(l - 1)] + [d]) for d in range(q) for _ in range(3)]
    pk = packing(fld, len(u))
    x = fld([0, 1] + [0] * (l - 2))
    powers = pk.x_powers(pk.pack([e.code for e in u]))
    assert len(powers) == l
    xt = fld.one
    for p in powers:
        assert pk.entries(p) == [(xt * e).code for e in u]
        xt = xt * x


@pytest.mark.parametrize("l", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("size", [1, 5, 42])
def test_binary_packing_is_one_bit_per_coordinate(l, size):
    fld = Field(2, l)
    assert fld.w == 1
    ones = fld([1] * l)  # every coordinate set: the widest element
    kind = _BytePacking if l in (2, 4, 8) else Packing  # entries that tile a byte
    for pk in (packing(fld, size), Packing(fld, size)):
        assert type(pk) is kind
        assert pk.ew == l
        assert pk.pack([ones.code] * size) == (1 << (size * l)) - 1


@pytest.mark.parametrize("l", [2, 4, 8])
def test_byte_tables_multiply_every_entry_of_every_byte(l):
    """T[a] takes each of the 256 bytes to its entries times a, for every code a."""
    fld = Field(2, l)
    pk = packing(fld, 8 // l)
    tables = _byte_tables(fld)
    assert len(tables) == fld.order
    for a, table in enumerate(tables):
        assert list(table) == [pk.pack([fld.mul(a, e) for e in pk.entries(b)]) for b in range(256)]
