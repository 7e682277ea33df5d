"""Affine-combination forgery and coalition key-recovery analysis.

Two ways to beat the tagged-packet code without touching the secrets:

* forge: any F_q combination of fresh source packets whose coefficients sum
  to one is itself a perfectly formed packet for the combined payload, so it
  passes every verifier while carrying a payload nobody sent.

* recover: nodes that pool their observations and any keys they hold can
  write one linear system for the secret coefficient matrix.  Its solutions
  form an affine subspace whose exact size this module predicts, computes
  by elimination, and (for small instances) confirms by enumeration.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import repeat

from .field import Field, GuardError, packing
from .linalg import Matrix, rank_and_consistency, solve
from .netsim import CoalitionView
from .scheme import ForgerySpec, SystemParams, TaggedPacket, VerifierKey, combine, moore_matrix

BRUTE_FORCE_GUARD = 1 << 24


def forge(packets, spec: ForgerySpec) -> TaggedPacket:
    """Mix fresh source packets into a forged-but-valid packet."""
    packets = list(packets)
    if any(p.c != 1 for p in packets):
        raise ValueError("forgery expects freshly tagged packets (header 1)")
    forged = combine(packets, spec.coeffs)
    if forged.field.q != spec.q:
        raise ValueError("coefficient modulus does not match the packet field")
    return forged


def solve_target_coeffs(messages, target) -> ForgerySpec | None:
    """Sum-one coefficients steering the forged payload to `target`, if any.

    Solves the l+1 base-field constraints (one for the coefficient sum, one
    per coordinate of the payload) for a_1..a_n; returns None when the target
    lies outside the affine span of the observed payloads.
    """
    fld = target.field
    messages = [fld(s) for s in messages]
    if not messages:
        raise ValueError("no payloads to combine")
    base = Field(fld.q, 1)
    n = len(messages)
    rows = [[1] * n]
    rhs = [[1]]
    for c in range(fld.l):
        rows.append([s.coeffs[c] for s in messages])
        rhs.append([target.coeffs[c]])
    _, x = solve(Matrix(base, rows, cols=n), Matrix(base, rhs, cols=1))
    if x is None:
        return None
    return ForgerySpec(fld.q, x.packed)  # over F_q a one-entry packed row is its symbol


# RecoveryMeta, RecoveryResult and SweepRow stay dataclasses: the benchmark
# digests every sweep row with ``dataclasses.asdict`` and its contract test
# reads ``dataclasses.fields(SweepRow)``.  Every other record is a namedtuple.
@dataclass(frozen=True)
class RecoveryMeta:
    """Shape summary of one coalition instance."""

    q: int
    l: int
    k: int
    M: int
    K: int  # keys pooled by the seated members
    n: int
    r0: int  # rank of the stacked per-member H_i x (message power matrix)
    h_total: int  # total incoming edges across the coalition
    condition_held: bool  # whether h_total stays within the tag dimension M


RecoverySystem = namedtuple("RecoverySystem", "coeff rhs meta")
RecoverySystem.__doc__ = "Linear constraints on the k(M+1) secret coefficients, column-major order."


def build_recovery_system(
    params: SystemParams, view: CoalitionView, keys, messages
) -> RecoverySystem:
    """Stack everything a coalition knows into one system in the secrets.

    Unknown order is column-major over the secret matrix: all M+1 entries of
    column j precede those of column j+1.  Each observed edge contributes k
    rows (one per unknown column), equating the member's mixed message powers
    against the observed tag coefficient; each pooled private key contributes
    M+1 rows tying whole columns together through plain powers of its public
    point.  The view may hold nodes without keys.  The true key always
    satisfies the system, so it is consistent for an honest run's observations.
    """
    fld = params.field
    k, M = params.k, params.M
    keys = list(keys)
    messages = [fld(s) for s in messages]
    if view.h_rows and any(len(h) != len(messages) for h in view.h_rows):
        raise ValueError("observation width disagrees with the message count")
    if len(view.packets) != view.h_total:
        raise ValueError("one observed packet per coalition edge required")
    tags = [p.tag for p in view.packets]
    if any(len(t) != k for t in tags):
        raise ValueError("observed tag length disagrees with k")

    # Rows are built packed (``field.Packing``): unknown j(M+1)+t is entry
    # j(M+1)+t, so a row confined to secret column j is shifted by j blocks.
    pk = packing(fld, M + 1)
    coerce, add, scale = pk.coerce, pk.add, pk.scale
    block = pk.ew * (M + 1)
    powers_matrix = moore_matrix(fld, messages, M).packed  # n packed rows of M+1 entries

    mixed_rows = []  # H_i rows times the message power matrix, coalition order
    for h in view.h_rows:
        acc = 0
        for w, srow in zip(h, powers_matrix):
            w %= fld.q  # a kernel entry is an F_q scalar; scale takes 0 < w < q
            if w:
                acc = add(acc, scale(w, srow))
        mixed_rows.append(acc)

    crows, crhs = [], []
    for j in range(k):
        for row, tag in zip(mixed_rows, tags):
            crows.append(row << (block * j))
            crhs.append(coerce(tag[j]))
    for key in keys:
        powers = [fld.one]
        for _ in range(k - 1):
            powers.append(powers[-1] * key.point)
        row = 0  # x_i^j in entry j(M+1), for every j < k
        for j, p in enumerate(powers):
            row |= coerce(p) << (block * j)
        for t in range(M + 1):
            crows.append(row << (pk.ew * t))
            crhs.append(coerce(key.evals[t]))

    r0 = Matrix._from_packed(fld, mixed_rows, M + 1).rank()
    meta = RecoveryMeta(
        q=fld.q,
        l=fld.l,
        k=k,
        M=M,
        K=len(keys),
        n=len(messages),
        r0=r0,
        h_total=view.h_total,
        condition_held=view.h_total <= M,
    )
    return RecoverySystem(
        Matrix._from_packed(fld, crows, k * (M + 1)), Matrix._from_packed(fld, crhs, 1), meta
    )


def predicted_count(meta: RecoveryMeta) -> int:
    """Closed-form number of secret matrices consistent with the coalition view."""
    return meta.q ** (meta.l * (meta.M + 1 - meta.r0) * (meta.k - min(meta.K, meta.k)))


def predicted_rank(meta: RecoveryMeta) -> int:
    """Closed-form rank of the stacked coefficient matrix; a k x K Vandermonde matrix has rank min(K, k)."""
    return meta.r0 * meta.k + (meta.M + 1 - meta.r0) * min(meta.K, meta.k)


def gauss_count(system: RecoverySystem) -> tuple[bool, int, int]:
    """Consistency, solution count and coefficient rank from one forward elimination."""
    coeff = system.coeff
    rank, consistent = rank_and_consistency(coeff, system.rhs)
    if not consistent:
        return False, 0, rank
    return True, coeff.field.order ** (coeff.cols - rank), rank


def brute_force_count(system: RecoverySystem, guard: int = BRUTE_FORCE_GUARD) -> int:
    """Count solutions by enumerating every candidate secret vector.

    Deliberately independent of the elimination path: nothing is pivoted and
    every candidate is counted.  The count meets in the middle
    (Horowitz-Sahni 1974): the F_{q^l} system is expanded into its F_q
    coordinates, the base unknowns are split into halves A and B, and each
    half's per-equation sums are built as one list, a level per column.  A's
    sums are tabulated; every sum of B adds the A-assignments completing it.
    """
    coeff = system.coeff
    fld = coeff.field
    total = fld.order**coeff.cols
    if total > guard:
        raise GuardError(f"{total} candidates exceed the guard of {guard}")
    # Packed by equation, a column over F_{q^l} is l columns over F_q: base
    # unknown i of unknown j (coordinate i of x_j) has column x^i * column j.
    pk, row_pk = packing(fld, coeff.rows), packing(fld, coeff.cols)
    columns = [
        p
        for j in range(coeff.cols)
        for p in pk.x_powers(pk.pack([row_pk.entry(v, j) for v in coeff.packed]))
    ]
    rhs = pk.pack(system.rhs.packed)  # one entry per row
    add = pk.add

    def sums(start, cols):
        """start plus every F_q combination of `cols`, one level per column."""
        level = [start]
        for col in cols:
            nxt, m = level[:], 0
            for _ in range(fld.q - 1):  # the level plus each nonzero multiple of col
                m = add(m, col)
                nxt += map(add, level, repeat(m))
            level = nxt
        return level

    half = len(columns) // 2
    table = Counter(sums(0, columns[:half]))
    # As b runs over every assignment of B so does -b, so the sums
    # rhs - f_B(b) that complete an A-assignment are the sums rhs + f_B(b).
    return sum(map(table.get, sums(rhs, columns[half:]), repeat(0)))


@dataclass(frozen=True)
class RecoveryResult(RecoveryMeta):
    """One coalition instance: its system's shape, its key count and rank three ways, compared.

    `brute` is None, and `count_match` None, when the enumeration's guard
    refused the system.
    """

    candidates: int  # (q^l)^unknowns secret vectors in all
    consistent: bool
    rank: int
    predicted_rank: int
    rank_match: bool
    gauss: int
    predicted: int
    brute: int | None
    skipped: bool
    count_match: bool | None


def analyze_recovery(system: RecoverySystem, guard: int = BRUTE_FORCE_GUARD) -> RecoveryResult:
    """Closed-form, elimination and brute-force key counts of `system`, compared.

    Whether the enumeration runs is decided by `brute_force_count` alone: over
    `guard` candidates it refuses, and the result records no brute count.
    """
    meta = system.meta
    prank, pred = predicted_rank(meta), predicted_count(meta)
    consistent, gcount, rank = gauss_count(system)
    try:
        brute = brute_force_count(system, guard)
    except GuardError:
        brute = None
    return RecoveryResult(
        **vars(meta),
        candidates=system.coeff.field.order ** system.coeff.cols,
        consistent=consistent,
        rank=rank,
        predicted_rank=prank,
        rank_match=rank == prank,
        gauss=gcount,
        predicted=pred,
        brute=brute,
        skipped=brute is None,
        count_match=None if brute is None else pred == gcount == brute,
    )
