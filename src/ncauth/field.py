"""Exact arithmetic in F_q (q prime) and its extensions F_{q^l}.

A ``Field`` fixes the prime q, the degree l and a monic irreducible modulus
of degree l over F_q.  The modulus is chosen deterministically as the
lexicographically smallest irreducible candidate, comparing coefficient
tuples low degree first.  ``Field(q, l)`` is one object per (q, l), built
on first use: fields are equal by identity, and copying or unpickling one
returns it unchanged.

An element (``Fel``) is one int, its code c_0 + c_1 q + ... + c_(l-1) q^(l-1),
where c_0, ..., c_(l-1) are its coordinates in the power basis of the
modulus.  ``coeffs`` reads the coordinates back, and that view doubles as
the fixed F_q-linear identification of F_q^l with F_{q^l}.  Arithmetic on
codes takes one of three paths, fixed by (q, l) and held by the field as
its class:

* l = 1: integers mod q.
* 1 < l and q^l <= 2^16 (``TABLE_ORDER``): log and antilog tables over a
  primitive element g, built by the field on first use.  The build takes
  n = q^l - 1 steps g^i -> g^(i+1), each two table lookups on the int
  state (``_log_tables``).  exp[i] is the code of g^i, stored twice over so
  that a sum of two logs needs no reduction, and log inverts it.  A product
  is exp[log a + log b], an inverse exp[n - log a] and the Frobenius map
  a^(q^i) exp[log a * q^i mod n].
  Over F_2 a sum is the XOR of the codes.  In odd characteristic it is one
  Zech logarithm, a + b = a (1 + g^(log b - log a)), where
  zech[k] = log(1 + g^k) and zech[n/2] = -1, since g^(n/2) = -1.
* larger orders: polynomial arithmetic on the coordinates modulo the
  modulus, with an extended-Euclid inverse.

``Packing`` is the one packed layout of vectors over F_{q^l}: a whole
vector in one int, its coordinates in slots of ``Field.w`` bits, so that
adding, negating or scaling it is a few big-int operations whatever its
length.  Over F_2 a slot is one bit, an entry is the element's code and a
sum is an XOR; for odd q a slot has room for a carry-free sum, reduced in
every slot at once.  ``Packing.add`` is the one packed sum.  ``packing``
hands out one shared instance per (field, size).  Matrices hold their rows
in it, and row reduction, the recovery rows and the exhaustive key count
work in it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

MAX_PRIME = 1 << 16
MAX_DEGREE = 16
TABLE_ORDER = 1 << 16  # largest order whose extension fields use log tables


class GuardError(RuntimeError):
    """An operation would exceed a configured resource guard."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# F_q[x]: coefficient lists, low degree first, no trailing zeros


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(num, div, q: int) -> list[int]:
    """Remainder of num by a nonzero div."""
    num = list(num)
    dd = len(div) - 1
    inv_lead = pow(div[-1], q - 2, q)
    terms = [(j - dd, d) for j, d in enumerate(div[:dd]) if d]  # the nonzero lower terms of div
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv_lead % q
        if c:
            for j, d in terms:
                num[i + j] = (num[i + j] - c * d) % q
    return _trim(num[:dd])


def _poly_sub(a, b, q: int) -> list[int]:
    return _trim([(x - y) % q for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _poly_mul(a, b, q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % q for v in out])


def _poly_powmod(base, e: int, mod, q: int) -> list[int]:
    """base^e modulo mod for e >= 1, by left-to-right squaring."""
    base = _poly_rem(base, mod, q)
    result = base
    for bit in bin(e)[3:]:
        result = _poly_rem(_poly_mul(result, result, q), mod, q)
        if bit == "1":
            result = _poly_rem(_poly_mul(result, base, q), mod, q)
    return result


def _poly_gcd(a, b, q: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, q)
    return a


def _poly_inverse(a, mod, q: int) -> list[int]:
    """Inverse of a nonzero a modulo an irreducible mod of degree l.

    Extended Euclid, one leading term at a time: r0 = s0 * a and r1 = s1 * a
    modulo mod throughout, and every s has degree below l.
    """
    l = len(mod) - 1
    r0, r1 = list(mod), _trim(list(a))
    s0, s1 = [0] * l, [1] + [0] * (l - 1)
    while len(r1) > 1:
        d = len(r0) - len(r1)
        if d < 0:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        c = r0[-1] * pow(r1[-1], q - 2, q) % q
        for i, v in enumerate(r1):  # r0 -= c x^d r1
            r0[i + d] = (r0[i + d] - c * v) % q
        for i, v in enumerate(s1):  # s0 -= c x^d s1
            if v:
                s0[i + d] = (s0[i + d] - c * v) % q
        _trim(r0)
    c = pow(r1[0], q - 2, q)  # r1 is a nonzero constant: a * s1 = c
    return [v * c % q for v in s1]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly: tuple[int, ...], q: int) -> bool:
    """Rabin's test (1980) for a monic poly of degree n over F_q.

    poly is irreducible iff x^(q^n) = x modulo poly and, for every prime p
    dividing n, x^(q^(n/p)) - x is coprime to poly.  The coprimality checks
    run as soon as their power is reached, so most reducible candidates
    stop early.
    """
    n = len(poly) - 1
    x = _poly_rem([0, 1], poly, q)
    checks = {n // p for p in _prime_factors(n)}
    h = x  # x^(q^i) modulo poly
    for i in range(1, n + 1):
        h = _poly_powmod(h, q, poly, q)
        if i in checks and len(_poly_gcd(poly, _poly_sub(h, x, q), q)) > 1:
            return False
    return h == x


def _smallest_irreducible(q: int, l: int) -> tuple[int, ...]:
    # For l > 1 a constant term of 0 means x divides the candidate, so the
    # first q^(l-1) candidates in order are skipped without a test.
    first = range(1, q) if l > 1 else range(q)
    for low in itertools.product(first, *[range(q)] * (l - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, q):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {l} over F_{q}")


def _code(coeffs, q: int) -> int:
    """The code of a coordinate sequence, low degree first."""
    code = 0
    for c in reversed(coeffs):
        code = code * q + c
    return code


def _primitive_element(q: int, l: int, modulus) -> int:
    """The smallest code of a primitive element of F_{q^l}.

    g is primitive iff g^(n/p) != 1 for every prime p dividing n = q^l - 1.
    The search starts at x: the constants lie in F_q, whose orders divide
    q - 1 < n.
    """
    n = q**l - 1
    cofactors = [n // p for p in _prime_factors(n)]
    for code in itertools.count(q):
        g = [code // q**t % q for t in range(l)]
        if all(_poly_powmod(g, e, modulus, q) != [1] for e in cofactors):
            return code
    raise AssertionError("unreachable: F_{q^l}^* is cyclic")


def _log_tables(field: Field):
    """(exp, log, zech) of F_{q^l} over its smallest primitive element g.

    exp has 2n entries (exp[n + i] = exp[i]), log[code] is the discrete log
    of a nonzero code, and zech, for odd q only (None over F_2), holds
    log(1 + g^k) with -1 at k = n/2.  Each step g^i -> g^(i+1) is one
    multiplication by g, an F_q-linear map of the coordinates, applied as
    two table lookups, one per half of the coordinates.
    """
    from array import array  # loads a shared library: imported here, on first use, not at set-up

    q, l, modulus = field.q, field.l, field.modulus
    n = q**l - 1
    g = _primitive_element(q, l, modulus)
    cols = [[g // q**t % q for t in range(l)]]  # the coordinates of x^t g, t < l
    for _ in range(l - 1):
        v = _poly_rem([0, *cols[-1]], modulus, q)
        cols.append(v + [0] * (l - len(v)))
    exp = array("H", [0]) * (2 * n)
    log = array("H", [0]) * (n + 1)
    zech = None
    if q == 2:
        # The map is the XOR of the codes x^t g over the set bits t of the
        # code, tabulated one byte of the code at a time.
        lo, hi = [0], [0]
        for t, col in enumerate(cols):
            tab = lo if t < 8 else hi
            xg = _code(col, 2)
            tab += [e ^ xg for e in tab]
        c = 1
        for i in range(n):
            exp[i] = c
            log[c] = i
            c = lo[c & 255] ^ hi[c >> 8]
    else:
        # The state s is g^i packed w bits per coordinate (coordinate t in
        # slot t) under the code of g^(i-1) in the bits from l*w up.  Each
        # half of the slots indexes a table whose entries are that half's
        # share of g^(i+1), packed and reduced, under the code of that half.
        # The two shares add without carries: the codes into the code of
        # g^i, the slots into g^(i+1) with each slot below 2q - 1 < 2^w,
        # which is why the tables are keyed by unreduced slots.  The shares
        # are summed by the Packing of one element, which reduces the slots
        # and leaves the code above them alone.
        w = field.w
        top = w * l
        add = packing(field, 1).add

        h = (l + 1) // 2
        tables = []
        for half in (range(h), range(h, l)):
            keys, vals = [0], [0]
            for j, t in enumerate(half):
                xg = sum(c << (w * r) for r, c in enumerate(cols[t]))
                shares = [0, xg]
                for _ in range(q - 2):
                    shares.append(add(shares[-1], xg))
                # coordinate t equal to d: code d q^t, share d x^t g
                shares = [d * q**t << top | v for d, v in enumerate(shares)]
                keys = [k | d << (w * j) for d in range(2 * q - 1) for k in keys]
                vals = [add(v, shares[d % q]) for d in range(2 * q - 1) for v in vals]
            tables.append(dict(zip(keys, vals)))
        lo, hi = tables
        mask, shift, hmask = (1 << (w * h)) - 1, w * h, (1 << (w * (l - h))) - 1
        s = 1
        for i in range(n):
            s = lo[s & mask] + hi[s >> shift & hmask]
            exp[i] = c = s >> top
            log[c] = i
        # Adding 1 steps coordinate 0 round within each block of q codes, so
        # one_plus[c] = log(1 + c) is log with every block rotated by one.
        # log[0] lands only at c = q - 1, that is g^(n/2) = -1: set apart.
        one_plus = log.tolist()
        for j in range(q):
            one_plus[j::q] = log[(j + 1) % q :: q]
        zech = array("i", [one_plus[c] for c in exp[:n]])
        zech[n // 2] = -1
    exp[n:] = exp[:n]
    return exp, log, zech


# ---------------------------------------------------------------------------
# fields and the arithmetic on their codes

_FIELDS: dict[tuple[int, int], Field] = {}


class Field:
    """F_{q^l}: one object per (q, l), whose class is its arithmetic on codes."""

    __slots__ = ("q", "l", "order", "modulus", "place", "w", "zero", "one")

    def __new__(cls, q: int, l: int):
        # A float or bool hashes equal to an int: only ints may hit the cache.
        if type(q) is int and type(l) is int:
            field = _FIELDS.get((q, l))
            if field is not None:
                return field
        if type(q) is int and q > MAX_PRIME:
            raise ValueError(f"q exceeds supported bound 2^16: {q}")
        if type(q) is not int or not is_prime(q):
            raise ValueError(f"q must be prime, got {q!r}")
        if type(l) is not int or not 1 <= l <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {MAX_DEGREE}], got {l!r}")
        if l == 1:
            kind = _PrimeField
        elif q**l <= TABLE_ORDER:
            kind = _BinaryTableField if q == 2 else _TableField
        else:
            kind = _PolyField
        field = object.__new__(kind)
        field._setup(q, l)
        return _FIELDS.setdefault((q, l), field)

    def _setup(self, q: int, l: int):
        self.q, self.l, self.order = q, l, q**l
        self.modulus = _smallest_irreducible(q, l)  # monic, coefficients low degree first
        self.place = tuple(q**t for t in range(l))
        # bits per coordinate slot of a packed entry (``Packing``): one over
        # F_2, where a sum is an XOR; room for a carry-free sum below 2q otherwise
        self.w = 1 if q == 2 else q.bit_length() + 1
        self.zero = _fel(self, 0)
        self.one = _fel(self, 1)

    def __reduce__(self):
        # copies and unpickled fields are the one object of their (q, l)
        return Field, (self.q, self.l)

    def __repr__(self):
        return f"Field(q={self.q}, l={self.l})"

    def __call__(self, value) -> Fel:
        """Coerce an int (base-field scalar), a list or tuple of l int coordinates, or a Fel.

        Ints are reduced mod q.  A bool or any other type is refused, not
        converted: its type is not int.
        """
        if type(value) is int:
            return _fel(self, value % self.q)
        if isinstance(value, Fel):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if not isinstance(value, (list, tuple)) or any(type(c) is not int for c in value):
            raise ValueError(f"expected an integer or a list of {self.l} integers, got {value!r}")
        if len(value) != self.l:
            raise ValueError(f"expected {self.l} coordinates, got {len(value)}")
        q = self.q
        return _fel(self, self.code([c % q for c in value]))

    def random_element(self, rng: random.Random) -> Fel:
        q, code = self.q, 0
        for p in self.place:  # coordinates drawn low degree first
            code += rng.randrange(q) * p
        return _fel(self, code)

    def code(self, coeffs) -> int:
        return _code(coeffs, self.q)

    def coeffs(self, code: int) -> tuple[int, ...]:
        q = self.q
        return tuple([code // p % q for p in self.place])


class _PrimeField(Field):
    """l = 1: the code is the element of F_q itself."""

    __slots__ = ()

    def coeffs(self, code):
        return (code,)

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return a * b % self.q

    def inv(self, a):
        return pow(a, self.q - 2, self.q)

    def frob(self, a, i):
        return a


class _TableField(Field):
    """1 < l, q^l <= TABLE_ORDER: log, antilog and Zech tables, built on first use."""

    __slots__ = ("n", "half", "exp", "log", "zech")

    def _setup(self, q: int, l: int):
        super()._setup(q, l)
        self.n = self.order - 1
        self.half = self.n // 2

    def __getattr__(self, name):
        # reached only while the table slots are still unset
        if name not in ("exp", "log", "zech"):
            raise AttributeError(name)
        self.exp, self.log, self.zech = _log_tables(self)
        return getattr(self, name)

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self.log
        la = log[a]
        z = self.zech[(log[b] - la) % self.n]
        return self.exp[la + z] if z >= 0 else 0

    def sub(self, a, b):
        if not b:
            return a
        log = self.log
        lb = log[b] + self.half  # the log of -b, below 2n
        if not a:
            return self.exp[lb]
        la = log[a]
        z = self.zech[(lb - la) % self.n]
        return self.exp[la + z] if z >= 0 else 0

    def mul(self, a, b):
        if a and b:
            log = self.log
            return self.exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        return self.exp[self.n - self.log[a]]

    def frob(self, a, i):
        return self.exp[self.log[a] * self.place[i] % self.n] if a else 0


class _BinaryTableField(_TableField):
    """The tables over F_2: a sum, and so a difference, is the XOR of the codes."""

    __slots__ = ()

    def add(self, a, b):
        return a ^ b

    sub = add


class _PolyField(Field):
    """q^l > TABLE_ORDER: polynomials in x modulo the field's modulus, on the coordinates."""

    __slots__ = ()

    def add(self, a, b):
        q = self.q
        return self.code([(x + y) % q for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def sub(self, a, b):
        q = self.q
        return self.code([(x - y) % q for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def mul(self, a, b):
        q = self.q
        return self.code(_poly_rem(_poly_mul(self.coeffs(a), self.coeffs(b), q), self.modulus, q))

    def inv(self, a):
        return self.code(_poly_inverse(self.coeffs(a), self.modulus, self.q))

    def frob(self, a, i):
        return self.code(_poly_powmod(self.coeffs(a), self.q**i, self.modulus, self.q))


class Fel:
    """An element of F_{q^l}, held as its int code; ``Field.__call__`` makes one."""

    __slots__ = ("field", "code")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The l coordinates, low degree first."""
        return self.field.coeffs(self.code)

    def __add__(self, other):
        if not isinstance(other, Fel):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise ValueError("mixed-field arithmetic")
        return _fel(f, f.add(self.code, other.code))

    def __sub__(self, other):
        if not isinstance(other, Fel):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise ValueError("mixed-field arithmetic")
        return _fel(f, f.sub(self.code, other.code))

    def __mul__(self, other):
        if not isinstance(other, Fel):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise ValueError("mixed-field arithmetic")
        return _fel(f, f.mul(self.code, other.code))

    def inv(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        return _fel(f, f.inv(self.code))

    def frob(self, i: int):
        """The i-fold q-power map a -> a^(q^i)."""
        if i < 0:
            raise ValueError("frobenius power must be nonnegative")
        f = self.field
        return _fel(f, f.frob(self.code, i % f.l))  # the map has order l

    def is_zero(self) -> bool:
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def __eq__(self, other):
        return isinstance(other, Fel) and self.code == other.code and self.field is other.field

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return f"Fel{self.coeffs}"

_new = object.__new__


def _fel(field: Field, code: int) -> Fel:
    """The element of `field` with a reduced code."""
    x = _new(Fel)
    x.field = field
    x.code = code
    return x


class Packing:
    """Vectors of `size` elements of F_{q^l}, each vector packed into one int.

    Coordinate t of entry j sits in slot j*l + t, ``Field.w`` bits wide, so
    an element's packed entry is its coordinates w bits apart, and over F_q
    it is the element itself.  ``add`` is the one packed sum.  For odd q a
    slot is q.bit_length() + 1 bits: two reduced vectors add without a carry
    between slots (each slot stays below 2q < 2^w), and the sum reduces
    every slot from [0, 2q) to [0, q) at once: adding 2^(w-1) - q to every
    slot sets a slot's top bit exactly where it reached q, and q is
    subtracted there.  Over F_2 a slot is one bit and a sum is an XOR
    (``_BinaryPacking``, chosen whenever q = 2).  Multiplying by an element
    of F_{q^l} is F_q-linear, so it is a sum of base-field multiples of the
    vector times powers of x (``times_x``).
    """

    __slots__ = ("field", "size", "w", "ew", "add", "_emask", "_low", "_top", "_fold", "_q_entry")

    def __new__(cls, field: Field, size: int):
        return object.__new__(_BinaryPacking if field.q == 2 else cls)

    def __init__(self, field: Field, size: int):
        q, l, w = field.q, field.l, field.w
        ew = w * l  # bits per entry
        ones = (1 << (ew * size)) - 1
        self.field = field
        self.size = size
        self.w = w
        self.ew = ew
        self._emask = (1 << ew) - 1
        # every entry's coordinate l-1, and all its other coordinates
        self._top = (((1 << w) - 1) << (w * (l - 1))) * (ones // self._emask)
        self._low = ones ^ self._top
        # x^l = sum of fold_j x^j modulo the field's modulus
        self._fold = [(j, (-c) % q) for j, c in enumerate(field.modulus[:l]) if c]
        self._q_entry = q * (self._emask // ((1 << w) - 1))  # q in every slot of one entry
        self.add = self._adder(ones // ((1 << w) - 1))

    def _adder(self, unit: int):
        """The packed sum, a closure over its constants; `unit` has 1 in every slot."""
        q, shift = self.field.q, self.w - 1
        adj = ((1 << shift) - q) * unit
        high = (1 << shift) * unit

        def add(u, v):
            """u + v for reduced packed vectors u and v, or for any u + v with slots in [0, 2q)."""
            s = u + v
            return s - ((s + adj & high) >> shift) * q

        return add

    def coerce(self, value) -> int:
        """The packed entry of `value`, coerced as ``Field.__call__`` coerces it."""
        fld = self.field
        if type(value) is int:
            return value % fld.q  # a base-field scalar: coordinate 0 only
        code, q, w = fld(value).code, fld.q, self.w
        entry = 0
        for p in reversed(fld.place):
            entry = entry << w | code // p % q
        return entry

    def pack(self, entries) -> int:
        """The packed vector of a sequence of `size` packed entries."""
        ew = self.ew
        v = 0
        for e in reversed(entries):
            v = v << ew | e
        return v

    def entry(self, v: int, j: int) -> int:
        """Entry j of v as a packed entry; 0 exactly when the entry is zero."""
        return v >> (self.ew * j) & self._emask

    def entries(self, v: int) -> list[int]:
        """The `size` packed entries of v; over F_q these are its symbols."""
        ew, emask = self.ew, self._emask
        return [v >> (ew * j) & emask for j in range(self.size)]

    def element(self, entry: int) -> Fel:
        """The element a packed entry holds."""
        w, slot = self.w, (1 << self.w) - 1
        code = 0
        for p in self.field.place:
            code += (entry & slot) * p
            entry >>= w
        return _fel(self.field, code)

    def unpack(self, v: int) -> tuple[Fel, ...]:
        return tuple(map(self.element, self.entries(v)))

    def scale(self, c: int, v: int) -> int:
        """c * v for a base-field scalar 0 < c < q, by doubling and adding."""
        if c == 1:
            return v
        add = self.add
        acc = v
        for bit in bin(c)[3:]:
            acc = add(acc, acc)
            if bit == "1":
                acc = add(acc, v)
        return acc

    def times_x(self, v: int) -> int:
        """x * v: every coordinate moves up one slot and the top one folds back."""
        w, add = self.w, self.add
        top = (v & self._top) >> (w * (self.field.l - 1))
        out = (v & self._low) << w
        for j, c in self._fold:
            out = add(out, self.scale(c, top) << (w * j))
        return out

    def x_powers(self, v: int) -> list[int]:
        """[v, x v, ..., x^(l-1) v]."""
        out = [v]
        for _ in range(self.field.l - 1):
            out.append(self.times_x(out[-1]))
        return out

    def neg(self, entry: int) -> int:
        """The packed entry of minus the element a packed entry holds."""
        return self.add(self._q_entry, -entry)  # q - c in every slot, in (0, q]

    def add_mul(self, v: int, entry: int, powers) -> int:
        """v + a * u, for a given as its packed entry, where powers = x_powers(u)."""
        w, slot, add, scale = self.w, (1 << self.w) - 1, self.add, self.scale
        for p in powers:
            c = entry & slot
            if c:
                v = add(v, scale(c, p))
            entry >>= w
        return v


class _BinaryPacking(Packing):
    """q = 2: one bit per coordinate, so an entry is the element's code and a sum is an XOR."""

    __slots__ = ("_fold_bits",)

    def __init__(self, field: Field, size: int):
        super().__init__(field, size)
        # the fold of x^l as one multiplier: each entry's top bit, moved to
        # slot 0, times fold_bits < 2^l stays inside its own entry
        self._fold_bits = sum(1 << j for j, _ in self._fold)

    def _adder(self, unit: int):
        return operator.xor

    def coerce(self, value) -> int:
        if type(value) is int:
            return value & 1
        return self.field(value).code

    def element(self, entry: int) -> Fel:
        return _fel(self.field, entry)

    def scale(self, c: int, v: int) -> int:
        return v  # c = 1, the only nonzero scalar

    def times_x(self, v: int) -> int:
        l = self.field.l
        return (v & self._low) << 1 ^ ((v & self._top) >> (l - 1)) * self._fold_bits

    def neg(self, entry: int) -> int:
        return entry

    def add_mul(self, v: int, entry: int, powers) -> int:
        for p in powers:
            if entry & 1:
                v ^= p
            entry >>= 1
        return v


@functools.lru_cache(maxsize=256)
def packing(field: Field, size: int) -> Packing:
    """The Packing of `size` entries over `field`, shared by every caller."""
    return Packing(field, size)
