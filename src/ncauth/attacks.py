"""Affine-combination forgery and coalition key-recovery analysis.

Two ways to beat the tagged-packet code without touching the secrets:

* forge: any F_q combination of fresh source packets whose coefficients sum
  to one is itself a perfectly formed packet for the combined payload, so it
  passes every verifier while carrying a payload nobody sent.

* recover: verifiers that pool their keys and observations can write one
  linear system for the secret coefficient matrix.  The solution set is an
  affine subspace whose exact size this module predicts, computes by
  elimination, and (for small instances) confirms by exhaustive enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .field import Field, GuardError, packing
from .linalg import Matrix, solve
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


@dataclass(frozen=True)
class RecoveryMeta:
    """Shape summary of one coalition instance."""

    q: int
    l: int
    k: int
    M: int
    K: int
    n: int
    r0: int  # rank of the stacked per-member H_i x (message power matrix)
    h_total: int  # total incoming edges across the coalition

    @property
    def condition_held(self) -> bool:
        """Whether the coalition's total edge count stays within the tag dimension."""
        return self.h_total <= self.M


@dataclass(frozen=True)
class RecoverySystem:
    """Linear constraints on the k(M+1) secret coefficients, column-major order."""

    coeff: Matrix
    rhs: Matrix
    meta: RecoveryMeta


def build_recovery_system(
    params: SystemParams, view: CoalitionView, keys, messages
) -> RecoverySystem:
    """Stack everything a coalition knows into one system in the secrets.

    Unknown order is column-major over the secret matrix: all M+1 entries of
    column j precede those of column j+1.  Each observed edge contributes k
    rows (one per unknown column), equating the member's mixed message powers
    against the observed tag coefficient; each pooled private key contributes
    M+1 rows tying whole columns together through plain powers of its public
    point.  The true key always satisfies the system, so it is consistent by
    construction when the observations come from an honest run.
    """
    fld = params.field
    k, M = params.k, params.M
    keys = list(keys)
    messages = [fld(s) for s in messages]
    if len(view.nodes) != len(keys):
        raise ValueError("need exactly one private key per coalition member")
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
    offset = 0
    for cnt in view.row_counts:
        for j in range(k):
            for r in range(offset, offset + cnt):
                crows.append(mixed_rows[r] << (block * j))
                crhs.append(coerce(tags[r][j]))
        offset += cnt
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
    )
    return RecoverySystem(
        Matrix._from_packed(fld, crows, k * (M + 1)), Matrix._from_packed(fld, crhs, 1), meta
    )


def _check_coalition_bound(meta: RecoveryMeta):
    if meta.K >= meta.k:
        raise ValueError(
            f"closed form needs coalition size below k (K={meta.K}, k={meta.k})"
        )


def predicted_count(meta: RecoveryMeta) -> int:
    """Closed-form number of secret matrices consistent with the coalition view."""
    _check_coalition_bound(meta)
    return meta.q ** (meta.l * (meta.M + 1 - meta.r0) * (meta.k - meta.K))


def predicted_rank(meta: RecoveryMeta) -> int:
    """Closed-form rank of the stacked coefficient matrix."""
    _check_coalition_bound(meta)
    return meta.r0 * meta.k + (meta.M + 1 - meta.r0) * meta.K


def gauss_count(system: RecoverySystem) -> tuple[bool, int, int]:
    """Consistency, solution count and coefficient rank from one elimination."""
    coeff = system.coeff
    rank, x = solve(coeff, system.rhs)
    if x is None:
        return False, 0, rank
    return True, coeff.field.order ** (coeff.cols - rank), rank


def brute_force_count(system: RecoverySystem, guard: int = BRUTE_FORCE_GUARD) -> int:
    """Count solutions by enumerating every candidate secret vector.

    Deliberately independent of the elimination path: nothing is pivoted and
    every candidate is counted.  The count meets in the middle
    (Horowitz-Sahni 1974): the F_{q^l} system is expanded into its F_q
    coordinates, the base unknowns are split into halves A and B, every
    assignment of A is tabulated by its per-equation sums, and every
    assignment of B adds the number of A-assignments that complete it.
    """
    coeff = system.coeff
    fld = coeff.field
    total = fld.order**coeff.cols
    if total > guard:
        raise GuardError(f"{total} candidates exceed the guard of {guard}")
    q = fld.q
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

    def extend(vecs, col):
        """Each vector of `vecs` plus each F_q multiple of `col`, streamed."""
        mult = [0]
        for _ in range(q - 1):
            mult.append(add(mult[-1], col))
        return (add(v, m) for v in vecs for m in mult)

    def sums(start, cols):
        vecs = [start]
        for col in cols:
            vecs = extend(vecs, col)
        return vecs

    half = len(columns) // 2
    table = Counter(sums(0, columns[:half])).get
    # As b runs over every assignment of B so does -b, so the sums
    # rhs - f_B(b) that complete an A-assignment are the sums rhs + f_B(b).
    return sum(table(s, 0) for s in sums(rhs, columns[half:]))


@dataclass(frozen=True)
class RecoveryResult:
    """A recovery system's key count and rank, three ways, and how they compare.

    `brute` is None when the enumeration's guard refused the system.
    """

    meta: RecoveryMeta
    candidates: int  # (q^l)^unknowns secret vectors in all
    consistent: bool
    rank: int
    predicted_rank: int
    gauss: int
    predicted: int
    brute: int | None

    @property
    def skipped(self) -> bool:
        return self.brute is None

    @property
    def rank_match(self) -> bool:
        return self.rank == self.predicted_rank

    @property
    def count_match(self) -> bool | None:
        return None if self.skipped else self.predicted == self.gauss == self.brute


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
    candidates = system.coeff.field.order ** system.coeff.cols
    return RecoveryResult(meta, candidates, consistent, rank, prank, gcount, pred, brute)
