"""The tagged-packet authentication code and its per-verifier check.

A trusted authority draws M+1 secret polynomials P_0, ..., P_M of degree
less than k over F_{q^l} and fixes V distinct nonzero public points; the
i-th verifier privately holds the point values (P_0(x_i), ..., P_M(x_i)).
A payload s in F_{q^l} ships as the packet [1, s, T] whose tag polynomial

    T(x) = P_0(x) + s P_1(x) + s^q P_2(x) + ... + s^(q^(M-1)) P_M(x)

is checked by verifier i against T(x_i).  The q-power weights are
F_q-linear in s and the header tracks the combination sum, so every
F_q-linear mix of valid packets satisfies the same per-verifier equation;
the attack tooling lives off exactly that.  A packet is its F_q vector
packed into one int, and every such mix is one `mix` of packed vectors.

Keys, tags and checks run on codes through the field's two evaluations:
``Field.horner``, a polynomial at a point (a key value P_t(x_i), and the
tag polynomial at x_i), and ``Field.qpoly``, the linearized polynomial
sum_t c_t s^(q^t) in the payload (a tag coefficient's and a check's
weighted sum).  So neither builds the Moore row (1, s, ..., s^(q^(M-1)));
``moore_matrix`` alone does, on elements, for the recovery system.  The
secret key and a check's residual are codes too; a verifier key is elements.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .field import Fel, Field, Packing, _check_int, _fel, packing
from .linalg import Matrix


def poly_eval(field: Field, coeffs, x: int) -> int:
    """The code of a polynomial at x, given codes: coefficients low to high, and x (Horner)."""
    return field.horner(coeffs, x)


class _Checked:
    """Listed before a namedtuple base: its ``_make``, so its ``_replace``, runs the constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SystemParams(
    _Checked, namedtuple("SystemParams", "field k M V n public_points allow_excess_messages")
):
    """Scheme-wide public parameters.

    k   -- degree bound: secret polynomials have k coefficients each
    M   -- number of payload-weighted polynomials (M+1 secrets in total)
    V   -- number of verifiers, one public point each
    n   -- messages authenticated per generation
    public_points -- the V distinct nonzero points, coerced into the field
    """

    __slots__ = ()

    def __new__(cls, field, k, M, V, n, public_points, allow_excess_messages=False):
        for name, size, least in (("k", k, 2), ("M", M, 1), ("V", V, 1), ("n", n, 1)):
            _check_int(name, size, least)
        if n > M and not allow_excess_messages:
            raise ValueError(f"n={n} exceeds M={M}; pass allow_excess_messages to override")
        pts = tuple(field(p) for p in public_points)
        if len(pts) != V:
            raise ValueError(f"expected {V} public points, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise ValueError("public points must be distinct")
        if any(p.is_zero() for p in pts):
            raise ValueError("public points must be nonzero")
        return tuple.__new__(cls, (field, k, M, V, n, pts, allow_excess_messages))


class SourceKey(_Checked, namedtuple("SourceKey", "field polys")):
    """The secret: polys[t] holds the k coefficient codes of P_t, low degree first.

    Row by row this is the (M+1) x k secret coefficient matrix.  The key is
    only ever evaluated and combined, never reduced, so it is kept as the
    codes the field's evaluations read rather than as a packed ``Matrix``.
    Every code must be reduced, since ``tag`` packs what it computes from
    them unchecked; ``keygen`` builds its own draws without the check.
    """

    __slots__ = ()

    def __new__(cls, field, polys):
        if not isinstance(field, Field):
            raise ValueError(f"field must be a Field, got {field!r}")
        polys = tuple(map(tuple, polys))
        _check_int("M", len(polys) - 1, 1)
        k = len(polys[0])
        if any(len(poly) != k for poly in polys):
            raise ValueError("every secret polynomial must have k coefficients")
        _check_int("k", k, 2)
        q, bits = field.q, field.w * field.l
        for t, poly in enumerate(polys):
            for j, c in enumerate(poly):
                # bool is excluded: its type is a subclass of int, not int
                if type(c) is not int or c < 0 or c >> bits or max(field.coeffs(c)) >= q:
                    raise ValueError(f"P_{t}[{j}] must be a reduced code of {field!r}, got {c!r}")
        return tuple.__new__(cls, (field, polys))


VerifierKey = namedtuple("VerifierKey", "index point evals")
VerifierKey.__doc__ = """Private key of verifier `index`: the secret polynomials at its point.

`evals` is (P_0(x_i), ..., P_M(x_i)).  The field `index` hides ``tuple.index``.
"""


FLAT_LAYOUT = "v1:header|payload|tag"  # the report's name for TaggedPacket's flat layout


class TaggedPacket(_Checked, namedtuple("TaggedPacket", "field packed size")):
    """A packet as its v1 flat vector over F_q, header | payload | tag, packed into one int.

    One header symbol, the payload's l coordinates, then the l coordinates of
    each of the k >= 1 tag coefficients: `size` symbols, w = ``Field.w`` bits
    apart (``Packing``), so the payload and each tag coefficient is a slice
    whose value is its code.  `c`, `m`, `tag` and the tuple `flat` are
    read-only views, and every F_q-linear operation on packets is a `mix`.
    """

    __slots__ = ()

    def __new__(cls, field, packed, size):
        q, l, w = field.q, field.l, field.w
        if type(size) is not int or size < 1 + 2 * l or (size - 1) % l:
            raise ValueError(
                f"flat packet must have 1 + {l}(1 + k) symbols with k >= 1, got {size!r}"
            )
        # bool is excluded: its type is a subclass of int, not int
        if type(packed) is not int or packed < 0 or packed >> w * size:
            raise ValueError(f"packed packet must be an int in [0, 2^{w * size})")
        if max(packing(Field(q, 1), size).entries(packed)) >= q:
            raise ValueError(f"flat packet symbols must be ints in [0, {q})")
        return tuple.__new__(cls, (field, packed, size))

    @classmethod
    def _from_reduced(cls, field: Field, packed: int, size: int) -> "TaggedPacket":
        """The packet of a packed vector of `size` symbols already in [0, q), taken unchecked."""
        return tuple.__new__(cls, (field, packed, size))

    def _codes(self) -> list[int]:
        """The codes of m and of each tag coefficient: the (w l)-bit slices above the header."""
        fld = self.field
        return packing(fld, (self.size - 1) // fld.l).entries(self.packed >> fld.w)

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(packing(Field(self.field.q, 1), self.size).entries(self.packed))

    @property
    def c(self) -> int:
        return self.packed & (1 << self.field.w) - 1

    @property
    def m(self) -> Fel:
        return _fel(self.field, self._codes()[0])

    @property
    def tag(self) -> tuple[Fel, ...]:
        fld = self.field
        return tuple([_fel(fld, code) for code in self._codes()[1:]])

    def is_zero(self) -> bool:
        return not self.packed


def mix(pk: Packing, vectors, coeffs) -> int:
    """sum_i coeffs[i] * vectors[i] for packed vectors of `pk` and int coefficients mod q.

    Every F_q-linear combination in the lab is this one: relay outputs,
    substitutions and forgeries mix packets, the simulator mixes packed global
    kernels, and the recovery system mixes message powers by a view's kernel rows.
    Each nonzero coefficient a, a base-field scalar, is one packed add of v
    (a = 1), subtract of v (a = q - 1) or add of `Packing.scale(a, v)`.
    """
    q, add, sub, scale = pk.field.q, pk.add, pk.sub, pk.scale
    acc = 0
    for a, v in zip(coeffs, vectors):
        a %= q
        if a == 1:
            acc = add(acc, v)
        elif a == q - 1:
            acc = sub(acc, v)
        elif a:
            acc = add(acc, scale(a, v))
    return acc


def keygen(params: SystemParams, seed: int) -> tuple[SourceKey, list[VerifierKey]]:
    """Draw the secret coefficient matrix and derive every verifier's key.

    The (M+1) k coefficients, row by row, are the ``Field.random_element``
    draws of ``random.Random(seed)``, read in blocks: nothing else reads it.
    """
    _check_int("seed", seed)  # True or 1.0 would draw seed 1's key
    fld, k = params.field, params.k
    codes = fld._random_codes(random.Random(seed), (params.M + 1) * k)
    polys = tuple([tuple(codes[i : i + k]) for i in range(0, len(codes), k)])
    vkeys = []
    for i, x in enumerate(params.public_points):
        evals = tuple([_fel(fld, poly_eval(fld, poly, x.code)) for poly in polys])
        vkeys.append(VerifierKey(i, x, evals))
    return tuple.__new__(SourceKey, (fld, polys)), vkeys  # reduced draws, taken unchecked


def tag(key: SourceKey, s: Fel) -> TaggedPacket:
    """Authenticate payload s as a fresh source packet (header 1).

    Tag coefficient j is P_0[j] + qpoly((P_1[j], ..., P_M[j]), s).
    """
    fld = key.field
    s = fld(s).code
    add, qpoly = fld.add, fld.qpoly
    codes = [s]
    for col in zip(*key.polys):  # x^j's coefficients
        codes.append(add(col[0], qpoly(col[1:], s)))
    packed = packing(fld, len(codes)).pack(codes) << fld.w | 1  # the header, 1, in slot 0
    return TaggedPacket._from_reduced(fld, packed, 1 + fld.l * len(codes))


def residual(vkey: VerifierKey, packet: TaggedPacket) -> int:
    """The code of T(x_i) - c*P_0(x_i) - sum_t m^(q^(t-1)) P_t(x_i): 0 iff the check passes.

    Computed on codes sliced from the packed packet: the header c, a
    base-field scalar, is its own code.  The tag polynomial at x_i is one
    Horner evaluation, and the weighted sum c e_0 + qpoly((e_1, ..., e_M), m).
    """
    fld = packet.field
    if vkey.point.field is not fld:
        raise ValueError("mixed-field arithmetic")
    m, *tags = packet._codes()
    e0, *es = [e.code for e in vkey.evals]
    rhs = fld.add(fld.mul(packet.c, e0), fld.qpoly(es, m))
    return fld.sub(poly_eval(fld, tags, vkey.point.code), rhs)


def verify(vkey: VerifierKey, packet: TaggedPacket) -> bool:
    return not residual(vkey, packet)


def _agree(packets) -> tuple[Field, Packing, tuple[int, ...]]:
    """The one field, F_q packing and packed vectors of a nonempty packet list, or a refusal."""
    fields, vectors, sizes = zip(*packets)  # one unpacking per packet, no attribute reads
    fld, size = fields[0], sizes[0]
    if any(f is not fld for f in fields) or any(n != size for n in sizes):
        raise ValueError("packets disagree on field or tag length")
    return fld, packing(Field(fld.q, 1), size), vectors


def combine(packets, coeffs) -> TaggedPacket:
    """F_q-linear combination of packets with integer coefficients mod q."""
    packets = list(packets)
    coeffs = list(coeffs)
    if any(type(a) is not int for a in coeffs):  # bool and float are refused, not converted
        raise ValueError(f"coefficients must be integers, got {coeffs!r}")
    if not packets:
        raise ValueError("cannot combine zero packets")
    if len(packets) != len(coeffs):
        raise ValueError(f"{len(packets)} packets but {len(coeffs)} coefficients")
    fld, pk, vectors = _agree(packets)
    return TaggedPacket._from_reduced(fld, mix(pk, vectors, coeffs), pk.size)


class ForgerySpec(_Checked, namedtuple("ForgerySpec", "q coeffs")):
    """Coefficients a_1..a_n over F_q with sum(a_i) = 1.

    The one check of the rule both attacks rest on: a forger mixes source
    packets, and a polluting relay replaces an incoming vector, with such a
    combination, which the near-linear tag cannot tell from an honest one.
    """

    __slots__ = ()

    def __new__(cls, q, coeffs):
        if not coeffs:
            raise ValueError("a sum-one combination needs at least one coefficient")
        if any(type(a) is not int for a in coeffs):  # bool and float are refused
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        if any(not 0 <= a < q for a in coeffs):
            raise ValueError(f"coefficients must lie in [0, {q})")
        if sum(coeffs) % q != 1:
            raise ValueError("coefficients must sum to 1 mod q")
        return tuple.__new__(cls, (q, coeffs))


def moore_matrix(field: Field, messages, M: int) -> Matrix:
    """n x (M+1) matrix with row j = (1, s_j, s_j^q, ..., s_j^(q^(M-1))).

    The one body that builds Moore rows; tags and checks weigh by ``Field.qpoly``.
    ``Fel.frob`` is read on each call, never bound earlier: a patch on the class counts its maps.
    """
    rows = []
    for s in messages:
        row = [field.one, field(s)]
        while len(row) <= M:
            row.append(row[-1].frob(1))
        rows.append(row[: M + 1])
    return Matrix(field, rows, cols=M + 1)
