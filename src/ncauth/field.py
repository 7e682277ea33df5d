"""Exact arithmetic in F_q (q prime) and its extensions F_{q^l}.

A ``Field`` fixes the prime q, the degree l and a monic irreducible modulus
of degree l over F_q.  The modulus is chosen deterministically as the
lexicographically smallest irreducible candidate, comparing coefficient
tuples low degree first, so two contexts built from the same (q, l) agree
element-for-element.  Elements are immutable coefficient vectors in the
power basis of the modulus; that vector view doubles as the fixed
F_q-linear identification of F_q^l with F_{q^l}.  Degree 1 reduces to F_q
itself (the formal modulus is x).

``Packing`` is the one packed layout of vectors over F_{q^l}: a whole
vector in one int, so that adding, negating or scaling it is a few big-int
operations whatever its length.  Row reduction and the exhaustive key count
both work in it.
"""

from __future__ import annotations

import functools
import itertools
import random

MAX_PRIME = 1 << 16
MAX_DEGREE = 16


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
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv_lead % q
        if c:
            for j in range(dd):
                num[i - dd + j] = (num[i - dd + j] - c * div[j]) % q
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


def _is_irreducible(poly: tuple[int, ...], q: int) -> bool:
    """Rabin's test (1980) for a monic poly of degree n over F_q.

    poly is irreducible iff x^(q^n) = x modulo poly and, for every prime p
    dividing n, x^(q^(n/p)) - x is coprime to poly.  The coprimality checks
    run as soon as their power is reached, so most reducible candidates
    stop early.
    """
    n = len(poly) - 1
    x = _poly_rem([0, 1], poly, q)
    checks = {n // p for p in range(2, n + 1) if n % p == 0 and is_prime(p)}
    h = x  # x^(q^i) modulo poly
    for i in range(1, n + 1):
        h = _poly_powmod(h, q, poly, q)
        if i in checks and len(_poly_gcd(poly, _poly_sub(h, x, q), q)) > 1:
            return False
    return h == x


@functools.lru_cache(maxsize=None)
def _smallest_irreducible(q: int, l: int) -> tuple[int, ...]:
    # For l > 1 a constant term of 0 means x divides the candidate, so the
    # first q^(l-1) candidates in order are skipped without a test.
    first = range(1, q) if l > 1 else range(q)
    for low in itertools.product(first, *[range(q)] * (l - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, q):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {l} over F_{q}")


class Field:
    """Arithmetic context for F_{q^l} with a deterministic modulus."""

    __slots__ = ("q", "l", "order", "modulus", "_zero", "_one")

    def __init__(self, q: int, l: int):
        if isinstance(q, int) and q > MAX_PRIME:
            raise ValueError(f"q exceeds supported bound 2^16: {q}")
        if not isinstance(q, int) or not is_prime(q):
            raise ValueError(f"q must be prime, got {q!r}")
        if not isinstance(l, int) or not 1 <= l <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {MAX_DEGREE}], got {l!r}")
        self.q = q
        self.l = l
        self.order = q**l
        self.modulus = _smallest_irreducible(q, l)
        self._zero = Fel(self, (0,) * l)
        self._one = Fel(self, (1,) + (0,) * (l - 1))

    def __eq__(self, other):
        return isinstance(other, Field) and self.q == other.q and self.l == other.l

    def __hash__(self):
        return hash((Field, self.q, self.l))

    def __repr__(self):
        return f"Field(q={self.q}, l={self.l})"

    @property
    def zero(self) -> Fel:
        return self._zero

    @property
    def one(self) -> Fel:
        return self._one

    def __call__(self, value) -> Fel:
        """Coerce an int (base-field scalar), a list or tuple of l int coordinates, or a Fel.

        Ints are reduced mod q.  A bool or any other type is refused, not
        converted: its type is not int.
        """
        if isinstance(value, Fel):
            if value.field is not self and value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if type(value) is int:
            return self.embed(value)
        if not isinstance(value, (list, tuple)) or any(type(c) is not int for c in value):
            raise ValueError(f"expected an integer or a list of {self.l} integers, got {value!r}")
        if len(value) != self.l:
            raise ValueError(f"expected {self.l} coordinates, got {len(value)}")
        return Fel(self, tuple(c % self.q for c in value))

    def embed(self, c: int) -> Fel:
        """Lift a base-field scalar into the extension as a constant."""
        return Fel(self, (c % self.q,) + (0,) * (self.l - 1))

    def random_element(self, rng: random.Random) -> Fel:
        return Fel(self, tuple(rng.randrange(self.q) for _ in range(self.l)))


class Fel:
    """An element of F_{q^l}: a length-l coefficient tuple, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[int, ...]):
        # internal constructor: callers must pass reduced coefficients
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> bool:
        if not isinstance(other, Fel):
            return False
        if self.field != other.field:
            raise ValueError("mixed-field arithmetic")
        return True

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        q = self.field.q
        return Fel(self.field, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        q = self.field.q
        return Fel(self.field, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        q = self.field.q
        return Fel(self.field, tuple((-a) % q for a in self.coeffs))

    def __mul__(self, other):
        if not self._check(other):
            return NotImplemented
        f = self.field
        q, l = f.q, f.l
        a, b = self.coeffs, other.coeffs
        if l == 1:
            return Fel(f, ((a[0] * b[0]) % q,))
        prod = [0] * (2 * l - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        mod = f.modulus
        for i in range(2 * l - 2, l - 1, -1):
            c = prod[i] % q
            if c:
                for j in range(l):
                    prod[i - l + j] -= c * mod[j]
        return Fel(f, tuple(v % q for v in prod[:l]))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent; invert first")
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        if f.l == 1:
            return Fel(f, (pow(self.coeffs[0], f.q - 2, f.q),))
        return Fel(f, tuple(_poly_inverse(self.coeffs, f.modulus, f.q)))

    def __truediv__(self, other):
        if not self._check(other):
            return NotImplemented
        return self * other.inv()

    def frob(self, i: int):
        """The i-fold q-power map a -> a^(q^i)."""
        if i < 0:
            raise ValueError("frobenius power must be nonnegative")
        a = self
        for _ in range(i % self.field.l):  # the map has order dividing l
            a = a**self.field.q
        return a

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Fel)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.field.l, self.coeffs))

    def __repr__(self):
        return f"Fel{self.coeffs}"


class Packing:
    """Vectors of `size` elements of F_{q^l}, each vector packed into one int.

    Coordinate t of entry j sits in slot j*l + t, w = q.bit_length() + 1 bits
    wide.  Two reduced vectors add without a carry between slots (each slot
    stays below 2q < 2^w), and ``mod`` reduces every slot from [0, 2q) to
    [0, q) at once: adding 2^(w-1) - q to every slot sets a slot's top bit
    exactly where it reached q, and q is subtracted there.  Multiplying by
    an element of F_{q^l} is F_q-linear, so it is a sum of base-field
    multiples of the vector times powers of x (``times_x``).
    """

    __slots__ = ("field", "size", "w", "mod", "_ew", "_emask", "_low", "_top", "_fold", "_codes",
                 "_elements")

    def __init__(self, field: Field, size: int):
        q, l = field.q, field.l
        w = q.bit_length() + 1
        ew = w * l  # bits per entry
        ones = (1 << (ew * size)) - 1
        unit = ones // ((1 << w) - 1)  # 1 in every slot
        adj = ((1 << (w - 1)) - q) * unit
        high = (1 << (w - 1)) * unit
        shift = w - 1

        def mod(s):
            return s - ((s + adj & high) >> shift) * q

        self.field = field
        self.size = size
        self.w = w
        self.mod = mod
        self._ew = ew
        self._emask = (1 << ew) - 1
        # every entry's coordinate l-1, and all its other coordinates
        self._top = (((1 << w) - 1) << (w * (l - 1))) * (ones // self._emask)
        self._low = ones ^ self._top
        # x^l = sum of fold_j x^j modulo the field's modulus
        self._fold = [(j, (-c) % q) for j, c in enumerate(field.modulus[:l]) if c]
        self._codes: dict[tuple[int, ...], int] = {}  # coordinates -> packed entry
        self._elements: dict[int, Fel] = {}  # packed entry -> element

    def _code(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code << self.w | c
        self._codes[coeffs] = code
        return code

    def pack(self, elements) -> int:
        """The packed vector of `size` elements."""
        ew, codes = self._ew, self._codes
        v = 0
        for e in reversed(elements):
            code = codes.get(e.coeffs)
            v = v << ew | (self._code(e.coeffs) if code is None else code)
        return v

    def entry(self, v: int, j: int) -> int:
        """Entry j of v as a packed entry; 0 exactly when the entry is zero."""
        return v >> (self._ew * j) & self._emask

    def element(self, code: int) -> Fel:
        """The element a packed entry holds."""
        x = self._elements.get(code)
        if x is None:
            w, slot = self.w, (1 << self.w) - 1
            x = Fel(self.field, tuple(code >> (w * t) & slot for t in range(self.field.l)))
            self._elements[code] = x
        return x

    def unpack(self, v: int) -> tuple[Fel, ...]:
        ew, emask, element = self._ew, self._emask, self.element
        return tuple(element(v >> (ew * j) & emask) for j in range(self.size))

    def scale(self, c: int, v: int) -> int:
        """c * v for a base-field scalar 0 < c < q, by doubling and adding."""
        if c == 1:
            return v
        mod = self.mod
        acc = v
        for bit in bin(c)[3:]:
            acc = mod(acc + acc)
            if bit == "1":
                acc = mod(acc + v)
        return acc

    def times_x(self, v: int) -> int:
        """x * v: every coordinate moves up one slot and the top one folds back."""
        w, mod = self.w, self.mod
        top = (v & self._top) >> (w * (self.field.l - 1))
        out = (v & self._low) << w
        for j, c in self._fold:
            out = mod(out + (self.scale(c, top) << (w * j)))
        return out

    def x_powers(self, v: int) -> list[int]:
        """[v, x v, ..., x^(l-1) v]."""
        out = [v]
        for _ in range(self.field.l - 1):
            out.append(self.times_x(out[-1]))
        return out

    def add_mul(self, v: int, a: Fel, powers) -> int:
        """v + a * u, where powers = x_powers(u)."""
        mod, scale = self.mod, self.scale
        for c, p in zip(a.coeffs, powers):
            if c:
                v = mod(v + scale(c, p))
        return v
