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
from dataclasses import dataclass
from functools import cached_property

from .field import Fel, Field, _fel
from .linalg import Matrix


def poly_eval(coeffs, x: Fel) -> Fel:
    """Evaluate a polynomial given low-to-high coefficients at x (Horner)."""
    acc = x.field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class SystemParams:
    """Scheme-wide public parameters.

    k   -- degree bound: secret polynomials have k coefficients each
    M   -- number of payload-weighted polynomials (M+1 secrets in total)
    V   -- number of verifiers, one public point each
    n   -- messages authenticated per generation
    """

    field: Field
    k: int
    M: int
    V: int
    n: int
    public_points: tuple[Fel, ...]
    allow_excess_messages: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.M < 1:
            raise ValueError(f"M must be at least 1, got {self.M}")
        if self.V < 1:
            raise ValueError(f"V must be at least 1, got {self.V}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.n > self.M and not self.allow_excess_messages:
            raise ValueError(
                f"n={self.n} exceeds M={self.M}; pass allow_excess_messages to override"
            )
        pts = tuple(self.field(p) for p in self.public_points)
        object.__setattr__(self, "public_points", pts)
        if len(pts) != self.V:
            raise ValueError(f"expected {self.V} public points, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise ValueError("public points must be distinct")
        if any(p.is_zero() for p in pts):
            raise ValueError("public points must be nonzero")


@dataclass(frozen=True)
class SourceKey:
    """The secret: polys[t] holds the k coefficients of P_t, low degree first.

    Row by row this is the (M+1) x k secret coefficient matrix.  The key is
    only ever evaluated and combined, never reduced, so it is kept as the
    polynomials' elements rather than as a packed ``Matrix``.
    """

    polys: tuple[tuple[Fel, ...], ...]

    @property
    def field(self) -> Field:
        return self.polys[0][0].field

    @property
    def k(self) -> int:
        return len(self.polys[0])

    @property
    def M(self) -> int:
        return len(self.polys) - 1


@dataclass(frozen=True)
class VerifierKey:
    """Private key of verifier `index`: the secret polynomials at its point."""

    index: int
    point: Fel
    evals: tuple[Fel, ...]  # (P_0(x_i), ..., P_M(x_i))


@dataclass(frozen=True)
class TaggedPacket:
    """A packet as its v1 flat vector over F_q: header | payload | tag.

    One header symbol, the payload's l coordinates, then the l coordinates of
    each of the k >= 1 tag coefficients.  `c`, `m` and `tag` are read-only
    views of that vector, built once per packet from its checked symbols, and
    every F_q-linear operation on packets is a `mix` of their flat vectors.
    """

    field: Field
    flat: tuple[int, ...]

    def __post_init__(self):
        flat = tuple(self.flat)
        q, l = self.field.q, self.field.l
        if len(flat) < 1 + 2 * l or (len(flat) - 1) % l:
            raise ValueError(
                f"flat packet must have 1 + {l}(1 + k) symbols with k >= 1, got {len(flat)}"
            )
        # bool is excluded: its type is a subclass of int, not int
        if {*map(type, flat)} != {int} or min(flat) < 0 or max(flat) >= q:
            raise ValueError(f"flat packet symbols must be ints in [0, {q})")
        object.__setattr__(self, "flat", flat)

    @property
    def c(self) -> int:
        return self.flat[0]

    @cached_property
    def m(self) -> Fel:
        return _fel(self.field, self.field.code(self.flat[1 : 1 + self.field.l]))

    @cached_property
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


def _tag_weights(M: int, s: Fel) -> list[Fel]:
    """(1, s, s^q, ..., s^(q^(M-1))): the multiplier of each secret polynomial."""
    w = [s.field.one, s]
    while len(w) <= M:
        w.append(w[-1].frob(1))
    return w[: M + 1]


def keygen(params: SystemParams, seed: int) -> tuple[SourceKey, list[VerifierKey]]:
    """Draw the secret coefficient matrix and derive every verifier's key."""
    rng = random.Random(seed)
    fld = params.field
    key = SourceKey(
        tuple(tuple(fld.random_element(rng) for _ in range(params.k)) for _ in range(params.M + 1))
    )
    vkeys = []
    for i, x in enumerate(params.public_points):
        evals = tuple(poly_eval(poly, x) for poly in key.polys)
        vkeys.append(VerifierKey(i, x, evals))
    return key, vkeys


def tag(key: SourceKey, s: Fel) -> TaggedPacket:
    """Authenticate payload s as a fresh source packet (header 1)."""
    fld = key.field
    s = fld(s)
    weights = _tag_weights(key.M, s)
    flat = [1, *s.coeffs]
    for j in range(key.k):
        acc = fld.zero
        for w, poly in zip(weights, key.polys):
            acc = acc + w * poly[j]
        flat += acc.coeffs
    return TaggedPacket(fld, flat)


def residual(vkey: VerifierKey, packet: TaggedPacket) -> Fel:
    """T(x_i) - c*P_0(x_i) - sum_t m^(q^(t-1)) P_t(x_i); zero iff the check passes."""
    weights = _tag_weights(len(vkey.evals) - 1, packet.m)
    weights[0] = packet.field(packet.c)
    rhs = packet.field.zero
    for w, e in zip(weights, vkey.evals):
        rhs = rhs + w * e
    return poly_eval(packet.tag, vkey.point) - rhs


def verify(vkey: VerifierKey, packet: TaggedPacket) -> bool:
    return residual(vkey, packet).is_zero()


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
    fld = packets[0].field
    width = len(packets[0].flat)
    if any(p.field is not fld or len(p.flat) != width for p in packets):
        raise ValueError("packets disagree on field or tag length")
    return TaggedPacket(fld, mix(fld.q, [p.flat for p in packets], coeffs))


@dataclass(frozen=True)
class ForgerySpec:
    """Coefficients a_1..a_n over F_q with sum(a_i) = 1.

    The one check of the rule both attacks rest on: a forger mixes source
    packets, and a polluting relay replaces an incoming vector, with such a
    combination, which the near-linear tag cannot tell from an honest one.
    """

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a sum-one combination needs at least one coefficient")
        if any(not 0 <= a < self.q for a in self.coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.q})")
        if sum(self.coeffs) % self.q != 1:
            raise ValueError("coefficients must sum to 1 mod q")


def moore_matrix(field: Field, messages, M: int) -> Matrix:
    """n x (M+1) matrix with row j = (1, s_j, s_j^q, ..., s_j^(q^(M-1)))."""
    return Matrix(field, [_tag_weights(M, field(s)) for s in messages], cols=M + 1)
