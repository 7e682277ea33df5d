"""Exact arithmetic in F_q (q prime) and its extensions F_{q^l}.

A ``Field`` fixes the prime q, the degree l and a monic irreducible modulus
of degree l over F_q.  The modulus is chosen deterministically as the
lexicographically smallest irreducible candidate, comparing coefficient
tuples low degree first.  ``Field(q, l)`` is one object per (q, l), built
on first use: fields are equal by identity, and copying or unpickling one
returns it unchanged.

An element (``Fel``) is one int, its code: its coordinates c_0, ...,
c_(l-1) in the power basis of the modulus, w = ``Field.w`` bits apart
(c_t in bits [t w, (t+1) w)).  Over F_2 that is c_0 + 2 c_1 + ..., and over
F_q (l = 1) the element itself.  ``coeffs`` reads the coordinates back, and
that view doubles as the fixed F_q-linear identification of F_q^l with
F_{q^l}.  The code is also the element's packed entry (``Packing``), so
elements and packed vectors share one integer form.  Arithmetic on codes
takes one of three paths, fixed by (q, l) and held by the field as its
class.  For every field a sum or difference is the packed sum or
difference of one entry (``Packing``), and the paths differ in the
product, inverse and Frobenius map, and in the two evaluations the
scheme's keys, tags and checks are made of: ``horner``, a polynomial
sum_j c_j x^j at a point, and ``qpoly``, the linearized polynomial
sum_t c_t s^(q^t) at s, each from codes to a code.

* l = 1: integers mod q.  Horner steps on ints, and since s^q = s the
  linearized polynomial is s (sum_t c_t) mod q.
* 1 < l and q^l <= 2^16 (``TABLE_ORDER``): log and antilog tables over a
  primitive element g, built by the field on first use.  The build takes
  n = q^l - 1 steps g^i -> g^(i+1), each two table lookups on the code
  and one packed sum (``_log_tables``).  exp[i] is the code of g^i, stored
  twice over so that a sum of two logs needs no reduction, and log
  inverts it.  A product is exp[log a + log b], an inverse exp[n - log a]
  and the Frobenius map a^(q^i) exp[log a * q^i mod n].  Both evaluations
  run on logs: Horner reads log x once, and the weight s^(q^t) has log
  q^t log s mod n, an int product, so ``qpoly`` makes no Frobenius map.
* larger orders: ``Field``'s own arithmetic, polynomials in the
  coordinates modulo the modulus.  An inverse is Fermat's a^(q^l - 2),
  one modular power, as over the integers mod q.  The Frobenius map is
  linear on the coordinates: each times the image of its power of x,
  images built once per power.  The evaluations take a product per term,
  and a Frobenius map per weight after s.

``Packing`` is the one packed layout of vectors over F_{q^l}: a whole
vector in one int, its entries' codes side by side, so that adding,
subtracting or scaling it is a few big-int operations whatever its length.
Over F_2 a slot is one bit and a sum is an XOR; for odd q a slot has room
for a carry-free sum, reduced in every slot at once.  ``Packing.add`` and
``Packing.sub`` are the one packed sum and difference.  ``packing`` hands
out one shared instance per (field, size), never evicted.  Packets and
matrix rows are held in it, and row reduction, packet mixing, the
recovery rows and the exhaustive key count work in it.  Mixing scales by
base-field scalars only; row reduction alone multiplies a row by an
element of F_{q^l} (``Packing.add_mul``), and two layouts do it their own
way: over F_3 with the chain's and the multiples' reductions inline
(``_TernaryPacking``), and over GF(2^2), GF(2^4) and GF(2^8), whose
entries tile bytes, by byte substitution (``_BytePacking``).
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


def _check_int(name: str, value, least: int | None = None) -> None:
    """The one int rule: refuse a `value` that is not an int (a bool or float too) or is below `least`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


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
    """Ben-Or's test (1981) for a monic poly of degree n over F_q.

    poly is irreducible iff x^(q^i) - x is coprime to poly for every
    i <= n/2: a reducible poly has a factor of degree at most n/2, and
    x^(q^i) - x is the product of the monic irreducibles whose degree
    divides i.  A reducible candidate stops at its smallest factor degree.
    """
    n = len(poly) - 1
    x = h = [0, 1]  # h is x^(q^i) modulo poly; x is reduced whenever n >= 2
    for _ in range(n // 2):
        h = _poly_powmod(h, q, poly, q)
        if len(_poly_gcd(poly, _poly_sub(h, x, q), q)) > 1:
            return False
    return True


def _smallest_irreducible(q: int, l: int) -> tuple[int, ...]:
    if l == 1:
        return (0, 1)  # x
    # A constant term of 0 means x divides the candidate, so the first
    # q^(l-1) candidates in order are skipped without a test.
    for low in itertools.product(range(1, q), *[range(q)] * (l - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, q):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {l} over F_{q}")


def _primitive_element(q: int, l: int, modulus) -> list[int]:
    """The coordinates of the primitive element of F_{q^l} with the smallest code.

    g is primitive iff g^(n/p) != 1 for every prime p dividing n = q^l - 1.
    The search starts at x: the constants lie in F_q, whose orders divide
    q - 1 < n.  It runs through c_0 + c_1 q + ..., which orders the
    coordinate tuples as their codes do.
    """
    n = q**l - 1
    cofactors = [n // p for p in _prime_factors(n)]
    for k in itertools.count(q):
        g = [k // q**t % q for t in range(l)]
        if all(_poly_powmod(g, e, modulus, q) != [1] for e in cofactors):
            return g
    raise AssertionError("unreachable: F_{q^l}^* is cyclic")


def _log_tables(field: Field):
    """(exp, log) of F_{q^l} over its primitive element g of smallest code.

    exp has 2n entries (exp[n + i] = exp[i]) and log[code] is the discrete
    log of a nonzero code.  Over F_2 the codes 1..n are dense, and exp and
    log are arrays; for odd q the codes are sparse, coordinates w bits
    apart, so exp is a list and log a dict.

    Each step g^i -> g^(i+1) is one multiplication by g, an F_q-linear map
    of the coordinates: each half of the code keys a table of that half's
    share of g^(i+1), and the packed sum of one element adds the two.
    """
    from array import array  # loads a shared library: imported here, on first use, not at set-up

    q, l, w = field.q, field.l, field.w
    n = field.order - 1
    pk = packing(field, 1)
    add = pk.add
    cols = pk.x_powers(field.code(_primitive_element(q, l, field.modulus)))  # x^t g, t < l
    h = (l + 1) // 2
    tables = []
    for half in (range(h), range(h, l)):
        keys, vals = [0], [0]
        for j, t in enumerate(half):
            shares = [0, cols[t]]  # d x^t g, the share of coordinate t equal to d
            for _ in range(q - 2):
                shares.append(add(shares[-1], cols[t]))
            keys = [k | d << (w * j) for d in range(q) for k in keys]
            vals = [add(v, shares[d]) for d in range(q) for v in vals]
        tables.append(dict(zip(keys, vals)))
    lo, hi = tables
    mask, shift = (1 << (w * h)) - 1, w * h
    if q == 2:
        exp, log = array("H", [0]) * (2 * n), array("H", [0]) * (n + 1)
    else:
        exp, log = [0] * (2 * n), {}
    c = 1
    for i in range(n):
        exp[i] = c
        log[c] = i
        c = add(lo[c & mask], hi[c >> shift])
    exp[n:] = exp[:n]
    return exp, log


# ---------------------------------------------------------------------------
# fields and the arithmetic on their codes

_FIELDS: dict[tuple[int, int], Field] = {}


class Field:
    """F_{q^l}: one object per (q, l), whose class is its arithmetic on codes (by polynomials, if Field)."""

    __slots__ = ("q", "l", "order", "modulus", "w", "shifts", "zero", "one", "add", "sub")

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
            kind = _TableField
        else:
            kind = Field
        field = object.__new__(kind)
        field._setup(q, l)
        return _FIELDS.setdefault((q, l), field)

    def _setup(self, q: int, l: int):
        self.q, self.l, self.order = q, l, q**l
        self.modulus = _smallest_irreducible(q, l)  # monic, coefficients low degree first
        # bits per coordinate of a code, which is also its packed entry
        # (``Packing``): one over F_2, where a sum is an XOR; room for a
        # carry-free sum below 2q otherwise
        self.w = w = 1 if q == 2 else q.bit_length() + 1
        self.shifts = tuple(w * t for t in range(l))  # where each coordinate of a code starts
        self.zero = _fel(self, 0)
        self.one = _fel(self, 1)
        pk = packing(self, 1)
        self.add, self.sub = pk.add, pk.sub

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
        """An element whose coordinates, low degree first, are ``rng.randrange(q)`` draws.

        Each draw is the one ``randrange`` makes, getrandbits(q.bit_length())
        until a value below q comes up, without its per-call argument checks:
        the same stream, so the same keys and payloads from the same seed.
        This loop defines the stream; ``_random_codes`` reads it in blocks.
        """
        q, code = self.q, 0
        bits, getrandbits = q.bit_length(), rng.getrandbits
        for s in self.shifts:
            r = getrandbits(bits)
            while r >= q:
                r = getrandbits(bits)
            code |= r << s
        return _fel(self, code)

    def _random_codes(self, rng: random.Random, count: int) -> list[int]:
        """The codes of the next `count` ``random_element`` draws from `rng`, read in blocks.

        A block reads words past the last code returned, so `rng` must be
        one nobody reads afterwards: ``scheme.keygen``'s own is the one.
        For q <= 13 a block is N Mersenne Twister words from one
        getrandbits(32 N), which CPython fills from the least significant
        word, and a draw of q.bit_length() <= 4 bits is its word's top
        byte shifted down.  One ``bytes.translate`` (``_draw_table``)
        drops the draws >= q and writes the kept ones as base-2^w digits:
        reversed, they read as the ``Packing`` of all the coordinates.
        Above 13, 2^w is past int's largest base, 36, and the draws are
        ``random_element``'s own.
        """
        q, w = self.q, self.w
        if w > 5:
            return [self.random_element(rng).code for _ in range(count)]
        table, delete = _draw_table(q)
        bits = q.bit_length()
        need = count * self.l
        digits = b""
        while len(digits) < need:
            words = ((need - len(digits)) << bits) // q + 16  # the expected words, and a margin
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            digits += raw[3::4].translate(table, delete)
        return packing(self, count).entries(int(digits[need - 1 :: -1], 1 << w))

    def code(self, coeffs) -> int:
        """The code of l reduced coordinates, low degree first."""
        code, w = 0, self.w
        for c in reversed(coeffs):
            code = code << w | c
        return code

    def coeffs(self, code: int) -> tuple[int, ...]:
        mask = (1 << self.w) - 1
        return tuple([code >> s & mask for s in self.shifts])

    # The arithmetic on codes.  These bodies are the polynomial path, in x
    # modulo the modulus, for every order above TABLE_ORDER; the prime and
    # table paths override all five.  The inverse is a power, a^(q^l - 2)
    # (Fermat, as ``_PrimeField.inv``), one ``_poly_powmod``.  The
    # Frobenius map a -> a^(q^i) is F_q-linear: the sum of each coordinate
    # c_t times the image of x^t (``_frobenius_images``), so the weights of
    # ``qpoly`` cost no power each.  The two evaluations of the scheme take
    # one product per term.

    def mul(self, a: int, b: int) -> int:
        q = self.q
        return self.code(_poly_rem(_poly_mul(self.coeffs(a), self.coeffs(b), q), self.modulus, q))

    def inv(self, a: int) -> int:
        return self.code(_poly_powmod(self.coeffs(a), self.order - 2, self.modulus, self.q))

    def frob(self, a: int, i: int) -> int:
        q, out = self.q, [0] * self.l
        for c, image in zip(self.coeffs(a), _frobenius_images(self, i)):
            if c:
                for u, v in enumerate(image):
                    out[u] += c * v
        return self.code([v % q for v in out])

    def horner(self, coeffs, x: int) -> int:
        """sum_j c_j x^j: the polynomial with coefficients `coeffs`, low to high, at x."""
        add, mul = self.add, self.mul
        acc = 0
        for c in reversed(coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def qpoly(self, coeffs, s: int) -> int:
        """sum_t c_t s^(q^t): the linearized polynomial with coefficients `coeffs` at s."""
        add, mul, frob = self.add, self.mul, self.frob
        acc, w = 0, s
        for t, c in enumerate(coeffs):
            if t:
                w = frob(w, 1)
            acc = add(acc, mul(c, w))
        return acc


class _PrimeField(Field):
    """l = 1: the code is the element of F_q itself, and s^q = s."""

    __slots__ = ()

    def mul(self, a, b):
        return a * b % self.q

    def inv(self, a):
        return pow(a, self.q - 2, self.q)

    def frob(self, a, i):
        return a

    def horner(self, coeffs, x):
        q = self.q
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        return acc

    def qpoly(self, coeffs, s):
        return s * sum(coeffs) % self.q


class _TableField(Field):
    """1 < l, q^l <= TABLE_ORDER: log and antilog tables, built on first use."""

    __slots__ = ("n", "qpow", "exp", "log")

    def _setup(self, q: int, l: int):
        super()._setup(q, l)
        self.n = self.order - 1
        self.qpow = tuple(q**i for i in range(l))  # the Frobenius exponents

    def __getattr__(self, name):
        # reached only while the table slots are still unset
        if name not in ("exp", "log"):
            raise AttributeError(name)
        self.exp, self.log = _log_tables(self)
        return getattr(self, name)

    def mul(self, a, b):
        if a and b:
            log = self.log
            return self.exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        return self.exp[self.n - self.log[a]]

    def frob(self, a, i):
        return self.exp[self.log[a] * self.qpow[i] % self.n] if a else 0

    def horner(self, coeffs, x):
        if not x:
            return coeffs[0] if coeffs else 0
        exp, log, add = self.exp, self.log, self.add
        lx = log[x]
        acc = 0
        for c in reversed(coeffs):
            acc = add(exp[log[acc] + lx], c) if acc else c
        return acc

    def qpoly(self, coeffs, s):
        if not s:
            return 0
        exp, log, add, q, n = self.exp, self.log, self.add, self.q, self.n
        ls = log[s]
        acc = 0
        for c in coeffs:
            if c:
                acc = add(acc, exp[log[c] + ls])
            ls = ls * q % n
        return acc


def _checked(op: str):
    """The Fel operator that runs its field's code operation `op` on two of its elements."""

    def method(self, other):
        if not isinstance(other, Fel):
            return NotImplemented  # so Python raises TypeError
        f = self.field
        if other.field is not f:
            raise ValueError("mixed-field arithmetic")
        return _fel(f, getattr(f, op)(self.code, other.code))

    method.__name__ = f"__{op}__"
    return method


class Fel:
    """An element of F_{q^l}, held as its int code; ``Field.__call__`` makes one."""

    __slots__ = ("field", "code")

    def __new__(cls, *args, **kwargs):
        raise TypeError("Fel is not constructed directly; call its Field, e.g. F(3) or F([1, 2])")

    def __reduce__(self):
        # copies and unpickled elements are rebuilt without __new__, on the one field object
        return _fel, (self.field, self.code)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The l coordinates, low degree first."""
        return self.field.coeffs(self.code)

    __add__ = _checked("add")
    __sub__ = _checked("sub")
    __mul__ = _checked("mul")

    def inv(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        return _fel(f, f.inv(self.code))

    def frob(self, i: int):
        """The i-fold q-power map a -> a^(q^i)."""
        _check_int("frobenius power", i, 0)
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
    an element's packed entry is its code.  ``add`` and ``sub`` are the one
    packed sum and difference; with one entry they are the element sum and
    difference of every field.  For odd q a slot is
    q.bit_length() + 1 bits: two reduced vectors add without a carry between
    slots (each slot stays below 2q < 2^w), and so does u + q - v, and the
    result reduces every slot from [0, 2q) to [0, q) at once: adding
    2^(w-1) - q to every slot sets a slot's top bit exactly where it reached
    q, and q is subtracted there.  Over F_2 a slot is one bit and a sum or
    difference is an XOR.  ``scale`` multiplies by a base-field scalar.
    Multiplying by an element a of F_{q^l} is F_q-linear: a u is the sum of
    c_t x^t u over the coordinates c_t of a.  ``x_powers`` builds the chain
    x^t u by one masked fold per power.  Elimination is the one caller of
    a row multiple: it takes each pivot row's ``pivot_form`` (the chain) and
    ``add_mul`` adds a u from it by one packed add or subtract per nonzero
    coordinate.  Two subclasses, which ``Packing`` hands out by field,
    override just those two methods: over F_3 the same chain and sums with
    every reduction inline (``_TernaryPacking``), and where the entries
    tile bytes a byte substitution (``_BytePacking``).
    """

    __slots__ = (
        "field", "size", "w", "ew", "add", "sub", "_emask", "_low", "_unit0", "_fold", "_folds", "_reduce"
    )

    def __new__(cls, field: Field, size: int):
        if field.q == 3:
            cls = _TernaryPacking
        elif field.q == 2 and field.l in (2, 4, 8):
            cls = _BytePacking
        return object.__new__(cls)

    def __init__(self, field: Field, size: int):
        q, l, w = field.q, field.l, field.w
        ew = w * l  # bits per entry
        ones = (1 << (ew * size)) - 1
        slot = (1 << w) - 1
        self.field = field
        self.size = size
        self.w = w
        self.ew = ew
        self._emask = (1 << ew) - 1
        self._unit0 = ones // self._emask  # 1 in slot 0 of every entry
        top = w * (l - 1)  # where each entry's top coordinate, l-1, starts
        self._low = ones ^ (slot << top) * self._unit0  # every other coordinate
        fold = [(-c) % q for c in field.modulus[:l]]  # x^l
        # the fold of a top coordinate t into t x^l: each entry's whole slot 0,
        # the code of x^l, and where each top coordinate starts
        self._fold = (slot * self._unit0, field.code(fold), top)
        # x_powers' fold terms: (top + b, the code of 2^b x^l) for each bit b
        # of q where that code, reduced modulo the modulus, is nonzero
        folds = ((top + b, field.code([(c << b) % q for c in fold])) for b in range(q.bit_length()))
        self._folds = tuple(f for f in folds if f[1])
        # odd q: the reduction's adj and high, and q, each in every slot
        unit, shift = ones // slot, w - 1
        self._reduce = (((1 << shift) - q) * unit, unit << shift, q * unit)
        self.add, self.sub = self._adder()

    def _adder(self):
        """(add, sub): XORs over F_2, else closures over ``__init__``'s reduction (``_reduce``)."""
        q, shift = self.field.q, self.w - 1
        if q == 2:
            return operator.xor, operator.xor
        adj, high, qs = self._reduce

        def add(u, v):
            """u + v for reduced packed vectors u and v, or for any u + v with slots in [0, 2q)."""
            s = u + v
            return s - ((s + adj & high) >> shift) * q

        def sub(u, v):
            """u - v for reduced packed vectors: u + q - v has every slot in (0, 2q), no borrow."""
            s = u + qs - v
            return s - ((s + adj & high) >> shift) * q

        return add, sub

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

    def scale(self, c: int, v: int) -> int:
        """c * v for a base-field scalar 0 < c < q, by doubling and adding."""
        add = self.add
        acc = v
        for bit in bin(c)[3:]:
            acc = add(acc, acc)
            if bit == "1":
                acc = add(acc, v)
        return acc

    def x_powers(self, v: int) -> list[int]:
        """[v, x v, ..., x^(l-1) v], each power by one masked fold of the last.

        x v moves every coordinate of v up one slot, and each entry's top
        coordinate t comes back as t x^l, the sum over the bits b of t of
        2^b x^l.  Bit b of every t, moved to slot 0 of its entry (masked by
        ``_unit0``), times the code of 2^b x^l writes that code into exactly
        the entries whose t has bit b set: a reduced packed vector, added
        whole.  Over F_2 the one term is b = 0 and the sum an XOR.
        """
        w, low, unit0, folds, add = self.w, self._low, self._unit0, self._folds, self.add
        out = [v]
        for _ in range(self.field.l - 1):
            u = (v & low) << w
            for s, g in folds:
                u = add(u, (v >> s & unit0) * g)
            out.append(u)
            v = u
        return out

    def add_mul(self, v: int, entry: int, powers) -> int:
        """v + a * u, for a given as its packed entry, where powers = x_powers(u).

        Each nonzero coordinate c of a costs one packed add or subtract of
        its power p: c = 1 adds p, c > q/2 subtracts (q - c) p (p itself
        when c = q - 1), and any other c adds c p.  Over F_3 every
        coordinate is 1 or q - 1, so nothing is scaled; over F_2 each is an XOR.
        """
        q, w, add, sub, scale = self.field.q, self.w, self.add, self.sub, self.scale
        slot, half = (1 << w) - 1, q // 2
        for p in powers:
            c = entry & slot
            if c:
                if c > half:
                    v = sub(v, p if c == q - 1 else scale(q - c, p))
                else:
                    v = add(v, p if c == 1 else scale(c, p))
            entry >>= w
        return v

    # a pivot row of ``Matrix._eliminate``: its form, from which ``add_mul`` takes each multiple
    pivot_form = x_powers


_from_bytes = int.from_bytes  # bound once: its lookup was a fifth of a byte-path multiple


class _BytePacking(Packing):
    """q = 2 and l in (2, 4, 8): the entries tile bytes, so a row times a is one byte substitution.

    A pivot's form is its row's bytes, low byte first, with the field's
    tables (``_byte_tables``), where T[a] takes a byte to its entries times
    a; a multiple a u is ``bytes.translate`` of u's bytes through T[a],
    XORed in.  The tables are built on the first pivot over the field, not
    with the packing.  ``x_powers`` stays the chain, for brute force.
    """

    __slots__ = ()

    def pivot_form(self, v: int):
        return v.to_bytes((v.bit_length() + 7) // 8, "little"), _byte_tables(self.field)

    def add_mul(self, v: int, entry: int, form) -> int:
        row, tables = form
        return v ^ _from_bytes(row.translate(tables[entry]), "little")


class _TernaryPacking(Packing):
    """q = 3: elimination's chain and multiples reduce inline, with no call per term.

    A slot is 3 bits, and a sum's reduction is s - ((s + 1 & 4) >> 2) * 3
    in every slot at once: it takes a slot in [3, 7) down by 3.  A pivot's
    form is its x-power chain, each power built from the last by one
    masked product: the entries' top coordinates t <= 2, each in its
    entry's slot 0, times the code g of x^l write t g into every entry,
    whose slots stay below 7 with the low coordinates shifted up.  Two
    reduction steps then bring every slot into [0, 3): over GF(3^4),
    x^4 = 2 + 2 x^2 + 2 x^3 and a slot reaches 6, which one step leaves at
    3.  A multiple adds each nonzero coordinate's power, v + p for 1 and
    v + 3 - p for 2, and reduces once.  ``Packing`` derives the constants
    of both, the reduction's (``_reduce``) and the fold's (``_fold``), as
    for every field.  ``x_powers`` stays the chain of every field, for
    brute force.
    """

    __slots__ = ()

    def pivot_form(self, v: int) -> list[int]:
        adj, high, _ = self._reduce
        slot0, g, top = self._fold
        low = self._low
        out = [v]
        for _ in range(self.field.l - 1):
            s = ((v & low) << 3) + (v >> top & slot0) * g
            s -= ((s + adj & high) >> 2) * 3
            s -= ((s + adj & high) >> 2) * 3
            out.append(s)
            v = s
        return out

    def add_mul(self, v: int, entry: int, powers) -> int:
        adj, high, qs = self._reduce
        for p in powers:
            c = entry & 3
            if c:
                s = v + p if c == 1 else v + qs - p
                v = s - ((s + adj & high) >> 2) * 3
            entry >>= 3
        return v


@functools.cache
def _byte_tables(field: Field) -> tuple[bytes, ...]:
    """T[a] for every code a of F_{2^l}, l in (2, 4, 8): each byte's entries times a.

    T[g], for the field's primitive element g, is built entry by entry, and
    every other power by composition: T[g^(i+1)] is T[g^i] then T[g].
    """
    pk = packing(field, 8 // field.l)  # the entries of one byte
    exp, mul = field.exp, field.mul
    times_g = bytes([pk.pack([mul(exp[1], e) for e in pk.entries(b)]) for b in range(256)])
    tables = [bytes(256)] * (field.n + 1)
    t = bytes(range(256))
    for i in range(field.n):
        tables[exp[i]] = t
        t = t.translate(times_g)
    return tuple(tables)


@functools.cache
def _frobenius_images(field: Field, i: int) -> tuple[tuple[int, ...], ...]:
    """The coordinates of (x^t)^(q^i) for t < l, built once per (field, i) on first use."""
    q, l, mod = field.q, field.l, field.modulus
    xi = _poly_powmod([0, 1], q**i, mod, q)
    images, p = [], [1]
    for _ in range(l):
        images.append(tuple(p) + (0,) * (l - len(p)))
        p = _poly_rem(_poly_mul(p, xi, q), mod, q)
    return tuple(images)


@functools.cache
def _draw_table(q: int) -> tuple[bytes, bytes]:
    """(table, delete) of ``Field._random_codes`` over F_q, q <= 13, built on the first key.

    A top byte B holds the draw r = B >> (8 - q.bit_length()): the table
    takes B to r's digit, and delete holds every B whose r >= q.
    """
    shift = 8 - q.bit_length()
    draws = [byte >> shift for byte in range(256)]
    table = bytes([b"0123456789abcdef"[r] for r in draws])
    return table, bytes([byte for byte, r in enumerate(draws) if r >= q])


@functools.cache
def packing(field: Field, size: int) -> Packing:
    """The Packing of `size` entries over `field`, shared by every caller."""
    return Packing(field, size)
