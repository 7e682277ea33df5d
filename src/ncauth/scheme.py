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

from .field import Fel, Field
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
    """Secret (M+1) x k coefficient matrix; row t holds the coefficients of P_t."""

    matrix: Matrix

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def k(self) -> int:
        return self.matrix.cols

    @property
    def M(self) -> int:
        return self.matrix.rows - 1

    def poly(self, t: int) -> tuple[Fel, ...]:
        return self.matrix.row(t)


@dataclass(frozen=True)
class VerifierKey:
    """Private key of verifier `index`: the secret polynomials at its point."""

    index: int
    point: Fel
    evals: tuple[Fel, ...]  # (P_0(x_i), ..., P_M(x_i))


@dataclass(frozen=True)
class TaggedPacket:
    """[header, payload, tag coefficients]; flattens to 1 + l + k*l symbols."""

    c: int
    m: Fel
    tag: tuple[Fel, ...]

    def __post_init__(self):
        q = self.m.field.q
        if not 0 <= self.c < q:
            raise ValueError(f"header must lie in [0, {q}), got {self.c}")
        if not self.tag:
            raise ValueError("empty tag")

    def flatten(self) -> tuple[int, ...]:
        flat = (self.c,) + self.m.coeffs
        for t in self.tag:
            flat += t.coeffs
        return flat

    @classmethod
    def from_flat(cls, field: Field, k: int, flat) -> "TaggedPacket":
        flat = tuple(int(v) for v in flat)
        expect = 1 + field.l * (1 + k)
        if len(flat) != expect:
            raise ValueError(f"flat packet must have {expect} symbols, got {len(flat)}")
        l = field.l
        m = field(flat[1 : 1 + l])
        tag = tuple(field(flat[1 + l + j * l : 1 + l + (j + 1) * l]) for j in range(k))
        return cls(flat[0] % field.q, m, tag)

    def is_zero(self) -> bool:
        return self.c == 0 and self.m.is_zero() and all(t.is_zero() for t in self.tag)


def zero_packet(field: Field, k: int) -> TaggedPacket:
    return TaggedPacket(0, field.zero, (field.zero,) * k)


def _tag_weights(M: int, s: Fel) -> list[Fel]:
    """(1, s, s^q, ..., s^(q^(M-1))): the multiplier of each secret polynomial."""
    w = [s.field.one]
    for t in range(M):
        w.append(s.frob(t))
    return w


def keygen(params: SystemParams, seed: int) -> tuple[SourceKey, list[VerifierKey]]:
    """Draw the secret coefficient matrix and derive every verifier's key."""
    rng = random.Random(seed)
    fld = params.field
    key = SourceKey(
        Matrix(
            fld,
            [[fld.random_element(rng) for _ in range(params.k)] for _ in range(params.M + 1)],
        )
    )
    vkeys = []
    for i, x in enumerate(params.public_points):
        evals = tuple(poly_eval(key.poly(t), x) for t in range(params.M + 1))
        vkeys.append(VerifierKey(i, x, evals))
    return key, vkeys


def tag(key: SourceKey, s: Fel) -> TaggedPacket:
    """Authenticate payload s as a fresh source packet (header 1)."""
    fld = key.field
    weights = _tag_weights(key.M, fld(s))
    coeffs = []
    for j in range(key.k):
        acc = fld.zero
        for t, w in enumerate(weights):
            acc = acc + w * key.matrix[t, j]
        coeffs.append(acc)
    return TaggedPacket(1, fld(s), tuple(coeffs))


def residual(vkey: VerifierKey, packet: TaggedPacket) -> Fel:
    """T(x_i) - c*P_0(x_i) - sum_t m^(q^(t-1)) P_t(x_i); zero iff the check passes."""
    fld = packet.m.field
    lhs = poly_eval(packet.tag, vkey.point)
    rhs = fld.embed(packet.c) * vkey.evals[0]
    for t in range(1, len(vkey.evals)):
        rhs = rhs + packet.m.frob(t - 1) * vkey.evals[t]
    return lhs - rhs


def verify(vkey: VerifierKey, packet: TaggedPacket) -> bool:
    return residual(vkey, packet).is_zero()


def combine(packets, coeffs) -> TaggedPacket:
    """F_q-linear combination of packets with integer coefficients mod q."""
    packets = list(packets)
    coeffs = [int(a) for a in coeffs]
    if not packets:
        raise ValueError("cannot combine zero packets")
    if len(packets) != len(coeffs):
        raise ValueError(f"{len(packets)} packets but {len(coeffs)} coefficients")
    fld = packets[0].m.field
    k = len(packets[0].tag)
    if any(p.m.field != fld or len(p.tag) != k for p in packets):
        raise ValueError("packets disagree on field or tag length")
    q = fld.q
    c = sum(a * p.c for a, p in zip(coeffs, packets)) % q
    m = fld.zero
    tag_acc = [fld.zero] * k
    for a, p in zip(coeffs, packets):
        w = fld.embed(a)
        if w.is_zero():
            continue
        m = m + w * p.m
        for j in range(k):
            tag_acc[j] = tag_acc[j] + w * p.tag[j]
    return TaggedPacket(c, m, tuple(tag_acc))


def moore_matrix(field: Field, messages, M: int) -> Matrix:
    """n x (M+1) matrix with row j = (1, s_j, s_j^q, ..., s_j^(q^(M-1)))."""
    return Matrix(field, [_tag_weights(M, field(s)) for s in messages], cols=M + 1)
