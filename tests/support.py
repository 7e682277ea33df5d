"""Shared deterministic generators and reference oracles for the test suite."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from ncauth import Field, GuardError, Matrix, SystemParams, keygen, tag
from ncauth.cli import _sample_points, _sum_one_coeffs as sum_one_coeffs

ENUMERATION_GUARD = 1 << 20
# (q, l) pairs the arithmetic oracles cover: small, one-byte-plus and the
# largest supported primes at low degree, and the benchmark's binary fields
ORACLE_FIELDS = [(q, l) for q in (2, 3, 5, 257, 65521) for l in (1, 2, 3)] + [(2, 8), (2, 16)]


def element_strategy(field):
    """Hypothesis strategy for elements of `field`, one draw each.

    Zero, one, -1 and the all-(q-1) element come up often, since they are
    where cancellations and slot overflows hide.
    """
    q, l = field.q, field.l

    def from_code(code):
        return field([code // q**t % q for t in range(l)])

    special = [field.zero, field.one, field.zero - field.one, field([q - 1] * l)]
    return st.one_of(st.sampled_from(special), st.integers(0, field.order - 1).map(from_code))


def reference_mul(field, a, b):
    """Schoolbook product of two coordinate tuples, reduced by the field's modulus."""
    q, l, mod = field.q, field.l, field.modulus
    prod = [0] * (2 * l - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * l - 2, l - 1, -1):  # x^i = x^(i-l) * (x^l - modulus)
        c = prod[i] % q
        for j in range(l):
            prod[i - l + j] -= c * mod[j]
    return tuple(v % q for v in prod[:l])


def reference_pow(field, a, e):
    """a^e for a coordinate tuple, by square-and-multiply on reference_mul."""
    result = (1,) + (0,) * (field.l - 1)
    while e:
        if e & 1:
            result = reference_mul(field, result, a)
        a = reference_mul(field, a, a)
        e >>= 1
    return result


def reference_inv(field, a):
    """Inverse of a nonzero coordinate tuple by extended Euclid over F_q[x].

    r0 = s0 * a and r1 = s1 * a modulo the modulus throughout, one leading
    term at a time, until r1 is a nonzero constant c, so that a * s1 / c = 1.
    """
    q, l = field.q, field.l

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    r0, r1 = list(field.modulus), trim(list(a))
    s0, s1 = [0] * l, [1] + [0] * (l - 1)
    while len(r1) > 1:
        d = len(r0) - len(r1)
        if d < 0:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        c = r0[-1] * pow(r1[-1], q - 2, q) % q
        for i, v in enumerate(r1):
            r0[i + d] = (r0[i + d] - c * v) % q
        for i, v in enumerate(s1):
            if v:
                s0[i + d] = (s0[i + d] - c * v) % q
        trim(r0)
    c = pow(r1[0], q - 2, q)
    return tuple(v * c % q for v in s1)


def elements(field):
    """All q^l elements of `field` in lexicographic coordinate order (zero first)."""
    if field.order > ENUMERATION_GUARD:
        raise GuardError(
            f"field of size {field.order} exceeds enumeration guard {ENUMERATION_GUARD}"
        )
    return [field(c) for c in itertools.product(range(field.q), repeat=field.l)]


def random_matrix(field, rows, cols, rng):
    return Matrix(field, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)])


def sample_points(field, count, rng):
    """`count` distinct nonzero field elements, drawn as scenarios draw them."""
    return _sample_points(field, count, rng, "points")


def identity(field, n):
    return Matrix(field, [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def transpose(m):
    data = m.data
    return Matrix(m.field, [[row[j] for row in data] for j in range(m.cols)], cols=m.rows)


def matmul(a, b):
    """The product a @ b, entry by entry in field arithmetic."""
    if a.field != b.field:
        raise ValueError("mixed-field product")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    zero, bdata = a.field.zero, b.data
    rows = [
        [sum((x * bdata[t][j] for t, x in enumerate(row) if x), zero) for j in range(b.cols)]
        for row in a.data
    ]
    return Matrix(a.field, rows, cols=b.cols)


def vstack(mats):
    """The rows of `mats`, one matrix under the next; equal widths over one field."""
    if not mats:
        raise ValueError("nothing to stack")
    field, cols = mats[0].field, mats[0].cols
    if any(m.field != field or m.cols != cols for m in mats):
        raise ValueError("vstack needs equal widths over one field")
    return Matrix(field, [row for m in mats for row in m.data], cols=cols)


def hstack(mats):
    """The columns of `mats`, one matrix beside the next; equal heights over one field."""
    if not mats:
        raise ValueError("nothing to stack")
    field, height = mats[0].field, mats[0].rows
    if any(m.field != field or m.rows != height for m in mats):
        raise ValueError("hstack needs equal heights over one field")
    cols = sum(m.cols for m in mats)
    return Matrix(field, [sum((m.data[i] for m in mats), ()) for i in range(height)], cols=cols)


def vandermonde(field, points, height):
    """height x len(points) matrix whose column j is (1, x_j, ..., x_j^(height-1)).

    The independent route to verifier keys: evaluating the secret matrix at
    the public points is multiplying it by this matrix.
    """
    pts = [field(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("evaluation points must be distinct")
    if height < 1:
        raise ValueError("height must be positive")
    cols = []
    for x in pts:
        col = [field.one]
        for _ in range(height - 1):
            col.append(col[-1] * x)
        cols.append(col)
    return Matrix(field, [[c[i] for c in cols] for i in range(height)], cols=len(pts))


def make_instance(rng, q, l, k, M, V=None, n=None):
    """One full scheme instance: params, keys, payloads, fresh packets."""
    field = Field(q, l)
    if V is None:
        V = rng.randint(1, min(5, field.order - 1))
    if n is None:
        n = rng.randint(1, M)
    params = SystemParams(field, k, M, V, n, sample_points(field, V, rng))
    skey, vkeys = keygen(params, rng.getrandbits(64))
    messages = [field.random_element(rng) for _ in range(n)]
    packets = [tag(skey, s) for s in messages]
    return params, skey, vkeys, messages, packets


def forgery_instances(count, seed):
    """Deterministic stream of (instance, sum-one coefficients) pairs."""
    rng = random.Random(seed)
    grid = [
        (q, l, k, M)
        for q in (2, 3, 5)
        for l in (1, 2)
        for k in (2, 3, 4)
        for M in (1, 2, 3)
    ]
    out = []
    i = 0
    while len(out) < count:
        q, l, k, M = grid[i % len(grid)]
        i += 1
        params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M)
        coeffs = sum_one_coeffs(q, params.n, rng)
        out.append((params, skey, vkeys, messages, packets, coeffs))
    return out


def reference_brute_force_count(system):
    """Key-count oracle: every candidate in element order, checked row by row.

    The plain enumeration `brute_force_count` must agree with; it shares no
    code with it beyond field arithmetic.
    """
    fld = system.coeff.field
    rows = [
        (tuple((c, v) for c, v in enumerate(row) if v), want)
        for row, (want,) in zip(system.coeff.data, system.rhs.data)
    ]
    zero = fld.zero
    count = 0
    for cand in itertools.product(elements(fld), repeat=system.coeff.cols):
        if all(sum((v * cand[c] for c, v in entries), zero) == want for entries, want in rows):
            count += 1
    return count


def reference_rref(matrix):
    """Row-reduction oracle: Gauss-Jordan on field elements, one entry at a time.

    Leftmost-nonzero pivoting in row order, pivots inverted as a^(order-2)
    by `reference_pow` on coordinates: the reduced form and pivots
    `Matrix.rref` must reproduce exactly.  It shares no code with it beyond
    element products and differences.
    """
    fld = matrix.field
    m = [list(r) for r in matrix.data]
    pivots = []
    r = 0
    for c in range(matrix.cols):
        hit = next((i for i in range(r, matrix.rows) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = fld(reference_pow(fld, m[r][c].coeffs, fld.order - 2))
        m[r] = [e * inv for e in m[r]]
        for i in range(matrix.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == matrix.rows:
            break
    return Matrix(fld, m, cols=matrix.cols), tuple(pivots)
