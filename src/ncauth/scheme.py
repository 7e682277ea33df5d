"""The tagged-packet authentication code and its per-verifier check.

A trusted authority draws M+1 secret polynomials P_0, ..., P_M of degree
less than k over F_{q^l} and fixes V distinct nonzero public points; the
i-th verifier privately holds the point values (P_0(x_i), ..., P_M(x_i)).
A payload s in F_{q^l} ships as the packet [1, s, T] whose tag polynomial

    T(x) = P_0(x) + s P_1(x) + s^q P_2(x) + ... + s^(q^(M-1)) P_M(x)

is checked by verifier i against T(x_i).  The q-power weights are
F_q-linear in s and the header tracks the combination sum, so every
F_q-linear mix of valid packets satisfies the same per-verifier equation;
the attack tooling lives off exactly that.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .field import Fel, Field, _fel
from .linalg import Matrix


def poly_eval(field: Field, coeffs, x: int) -> int:
    """The code of a polynomial at x, given codes: coefficients low to high, and x (Horner)."""
    add, mul = field.add, field.mul
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, x), c)
    return acc


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
        if k < 2:
            raise ValueError(f"k must be at least 2, got {k}")
        if M < 1:
            raise ValueError(f"M must be at least 1, got {M}")
        if V < 1:
            raise ValueError(f"V must be at least 1, got {V}")
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
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


class SourceKey(namedtuple("SourceKey", "polys")):
    """The secret: polys[t] holds the k coefficients of P_t, low degree first.

    Row by row this is the (M+1) x k secret coefficient matrix.  The key is
    only ever evaluated and combined, never reduced, so it is kept as the
    polynomials' elements rather than as a packed ``Matrix``.
    """

    __slots__ = ()

    @property
    def field(self) -> Field:
        return self.polys[0][0].field

    @property
    def k(self) -> int:
        return len(self.polys[0])

    @property
    def M(self) -> int:
        return len(self.polys) - 1


VerifierKey = namedtuple("VerifierKey", "index point evals")
VerifierKey.__doc__ = """Private key of verifier `index`: the secret polynomials at its point.

`evals` is (P_0(x_i), ..., P_M(x_i)).  The field `index` hides ``tuple.index``.
"""


FLAT_LAYOUT = "v1:header|payload|tag"  # the report's name for TaggedPacket's flat layout


class TaggedPacket(_Checked, namedtuple("TaggedPacket", "field flat")):
    """A packet as its v1 flat vector over F_q: header | payload | tag.

    One header symbol, the payload's l coordinates, then the l coordinates of
    each of the k >= 1 tag coefficients.  `c`, `m` and `tag` are read-only
    views of that vector, built from its reduced symbols on each read, and
    every F_q-linear operation on packets is a `mix` of their flat vectors.
    """

    __slots__ = ()

    def __new__(cls, field, flat):
        flat = tuple(flat)
        q, l = field.q, field.l
        if len(flat) < 1 + 2 * l or (len(flat) - 1) % l:
            raise ValueError(
                f"flat packet must have 1 + {l}(1 + k) symbols with k >= 1, got {len(flat)}"
            )
        # bool is excluded: its type is a subclass of int, not int
        if {*map(type, flat)} != {int} or min(flat) < 0 or max(flat) >= q:
            raise ValueError(f"flat packet symbols must be ints in [0, {q})")
        return tuple.__new__(cls, (field, flat))

    @classmethod
    def _from_reduced(cls, field: Field, flat: tuple[int, ...]) -> "TaggedPacket":
        """The packet of a valid-length tuple of symbols already in [0, q), taken unchecked."""
        return tuple.__new__(cls, (field, flat))

    @property
    def c(self) -> int:
        return self.flat[0]

    @property
    def m(self) -> Fel:
        return _fel(self.field, self.field.code(self.flat[1 : 1 + self.field.l]))

    @property
    def tag(self) -> tuple[Fel, ...]:
        fld, flat, l = self.field, self.flat, self.field.l
        return tuple(_fel(fld, fld.code(flat[i : i + l])) for i in range(1 + l, len(flat), l))

    def is_zero(self) -> bool:
        return not any(self.flat)


def mix(q: int, vectors, coeffs) -> tuple[int, ...]:
    """sum_i coeffs[i] * vectors[i] over F_q, for a nonempty list of equal-length vectors.

    Every F_q-linear combination in the lab is this one: relay outputs,
    substitutions and forgeries mix flat packets, and the simulator mixes
    global kernel vectors in the same pass.
    """
    acc = None
    for a, v in zip(coeffs, vectors):
        a %= q
        if a:
            acc = [a * x for x in v] if acc is None else [s + a * x for s, x in zip(acc, v)]
    if acc is None:
        return (0,) * len(vectors[0])
    return tuple([s % q for s in acc])


def _weights(one, s, frob, M: int) -> list:
    """The Moore row (1, s, s^q, ..., s^(q^(M-1))): the multiplier of each secret polynomial.

    One body for both forms: codes with ``Field.frob`` in tags and checks,
    elements with ``Fel.frob`` in the recovery system's ``moore_matrix``.
    """
    w = [one, s]
    while len(w) <= M:
        w.append(frob(w[-1], 1))
    return w[: M + 1]


def keygen(params: SystemParams, seed: int) -> tuple[SourceKey, list[VerifierKey]]:
    """Draw the secret coefficient matrix and derive every verifier's key."""
    rng = random.Random(seed)
    fld = params.field
    key = SourceKey(
        tuple(tuple(fld.random_element(rng) for _ in range(params.k)) for _ in range(params.M + 1))
    )
    polys = [[c.code for c in poly] for poly in key.polys]
    vkeys = []
    for i, x in enumerate(params.public_points):
        evals = tuple(_fel(fld, poly_eval(fld, poly, x.code)) for poly in polys)
        vkeys.append(VerifierKey(i, x, evals))
    return key, vkeys


def tag(key: SourceKey, s: Fel) -> TaggedPacket:
    """Authenticate payload s as a fresh source packet (header 1)."""
    fld = key.field
    s = fld(s)
    add, mul = fld.add, fld.mul
    weights = _weights(1, s.code, fld.frob, key.M)
    flat = [1, *s.coeffs]
    for j in range(key.k):
        acc = 0
        for w, poly in zip(weights, key.polys):
            acc = add(acc, mul(w, poly[j].code))
        flat += fld.coeffs(acc)
    return TaggedPacket._from_reduced(fld, tuple(flat))


def residual(vkey: VerifierKey, packet: TaggedPacket) -> Fel:
    """T(x_i) - c*P_0(x_i) - sum_t m^(q^(t-1)) P_t(x_i); zero iff the check passes.

    Computed on codes read straight from the packet's flat vector: the header
    c, a base-field scalar, is its own code.
    """
    fld, flat = packet.field, packet.flat
    if vkey.point.field is not fld:
        raise ValueError("mixed-field arithmetic")
    l, code, add, mul = fld.l, fld.code, fld.add, fld.mul
    weights = _weights(1, code(flat[1 : 1 + l]), fld.frob, len(vkey.evals) - 1)
    weights[0] = flat[0]
    rhs = 0
    for w, e in zip(weights, vkey.evals):
        rhs = add(rhs, mul(w, e.code))
    tags = [code(flat[i : i + l]) for i in range(1 + l, len(flat), l)]
    return _fel(fld, fld.sub(poly_eval(fld, tags, vkey.point.code), rhs))


def verify(vkey: VerifierKey, packet: TaggedPacket) -> bool:
    return residual(vkey, packet).is_zero()


def _agree(packets) -> tuple[Field, tuple[tuple[int, ...], ...]]:
    """The one field and the flats of a nonempty packet list, refused unless all match."""
    fields, flats = zip(*packets)  # one unpacking per packet, no attribute reads
    fld, width = fields[0], len(flats[0])
    if any(f is not fld for f in fields) or any(len(v) != width for v in flats):
        raise ValueError("packets disagree on field or tag length")
    return fld, flats


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
    fld, flats = _agree(packets)
    return TaggedPacket._from_reduced(fld, mix(fld.q, flats, coeffs))


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

    ``Fel.frob`` is read on each call, never bound earlier: a patch on the class counts its maps.
    """
    return Matrix(field, [_weights(field.one, field(s), Fel.frob, M) for s in messages], cols=M + 1)
