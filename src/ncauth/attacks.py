"""Affine-combination forgery and coalition key-recovery analysis.

Two ways to beat the tagged-packet code without touching the secrets:

* forge: any F_q combination of fresh source packets whose coefficients sum
  to one is itself a perfectly formed packet for the combined payload, so it
  passes every verifier while carrying a payload nobody sent.

* recover: nodes that pool their observations and any keys they hold can
  write one linear system for the secret coefficient matrix.  Its solutions
  form an affine subspace whose exact size this module predicts, computes
  by elimination, and (for small instances) confirms by enumeration.  The
  enumeration meets in the middle and shares no code with elimination; its
  levels of sums are lists over F_2 and lanes of one int over odd q.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial
from itertools import repeat
from operator import xor

from .field import Field, GuardError, _check_int, mix, packing
from .linalg import Matrix, rank_and_consistency, solve
from .netsim import CoalitionView
from .scheme import ForgerySpec, SystemParams, TaggedPacket, combine, moore_matrix

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
    rows = [[1] * n, *zip(*[s.coeffs for s in messages])]  # sum, then one row per coordinate
    rhs = [[1], *([c] for c in target.coeffs)]
    _, x = solve(Matrix(base, rows, cols=n), Matrix(base, rhs, cols=1))
    if x is None:
        return None
    return ForgerySpec(fld.q, x.packed)  # over F_q a one-entry packed row is its symbol


RecoveryMeta = namedtuple("RecoveryMeta", "q l k M K n r0 h_total condition_held")
RecoveryMeta.__doc__ = """Shape summary of one coalition instance.

`K` counts the keys pooled by the seated members, `r0` is the rank of the
stacked per-member H_i times the message power matrix, `h_total` counts the
incoming edges across the coalition, and `condition_held` is whether
`h_total` stays within the tag dimension M.
"""


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
    h = view.h
    if h.cols != len(messages):
        raise ValueError("observation width disagrees with the message count")
    if len(view.packets) != h.rows:
        raise ValueError("one observed packet per coalition edge required")
    if h.field.q != fld.q or any(p.field is not fld for p in view.packets) or any(
        e.field is not fld for key in keys for e in (key.point, *key.evals)
    ):
        raise ValueError("element belongs to a different field")
    tags = [p._codes()[1:] for p in view.packets]  # each tag coefficient's code
    if any(len(t) != k for t in tags):
        raise ValueError("observed tag length disagrees with k")
    if any(len(key.evals) != M + 1 for key in keys):
        raise ValueError(f"a verifier key must hold M + 1 = {M + 1} values")

    # Rows are built packed (``field.Packing``): unknown j(M+1)+t is entry
    # j(M+1)+t, so a row confined to secret column j is shifted by j blocks.
    pk = packing(fld, M + 1)
    block = pk.ew * (M + 1)
    powers_matrix = moore_matrix(fld, messages, M).packed  # n packed rows of M+1 entries
    # H_i rows times the message power matrix, coalition order
    hpk = packing(h.field, h.cols)
    mixed_rows = [mix(pk, powers_matrix, hpk.entries(v)) for v in h.packed]

    crows, crhs = [], []
    for j in range(k):
        for row, tag in zip(mixed_rows, tags):
            crows.append(row << (block * j))
            crhs.append(tag[j])
    for key in keys:
        powers = [fld.one]
        for _ in range(k - 1):
            powers.append(powers[-1] * key.point)
        row = 0  # x_i^j in entry j(M+1), for every j < k
        for j, p in enumerate(powers):
            row |= p.code << (block * j)
        for t in range(M + 1):
            crows.append(row << (pk.ew * t))
            crhs.append(key.evals[t].code)

    r0 = Matrix._from_packed(fld, mixed_rows, M + 1).rank()
    meta = RecoveryMeta(
        q=fld.q,
        l=fld.l,
        k=k,
        M=M,
        K=len(keys),
        n=len(messages),
        r0=r0,
        h_total=h.rows,
        condition_held=h.rows <= M,
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
    half's per-equation sums are built a level per column.  A's sums are
    tabulated; every sum of B adds the A-assignments completing it.  Over
    F_2 a level is a list, extended by one XOR per sum; over odd q it is one
    int of lanes (``_lane_sums``), so a level step is a few big-int operations.
    """
    _check_int("guard", guard, 0)
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
    sums = _xor_sums if fld.q == 2 else partial(_lane_sums, pk)
    half = len(columns) // 2
    table = Counter(sums(0, columns[:half]))
    # As b runs over every assignment of B so does -b, so the sums
    # rhs - f_B(b) that complete an A-assignment are the sums rhs + f_B(b).
    return sum(map(table.get, sums(rhs, columns[half:]), repeat(0)))


def _xor_sums(start: int, cols) -> list[int]:
    """start plus every F_2 combination of `cols`: each level is the last and the last XOR col."""
    level = [start]
    for col in cols:
        level += list(map(xor, level, repeat(col)))
    return level


def _lane_sums(pk, start: int, cols):
    """start plus every F_q combination of `cols`, odd q, as Counter keys.

    A level is one int of lanes, one lane of 64-bit words per sum, packed
    by ``pk``.  The level plus c col, for c = 1 .. q-1, is one add of col
    repeated into every lane and ``pk``'s own reduction (``_reduce``) of
    every slot at once (a slot never carries into the next, nor a lane
    into the next); the next level joins the q blocks as bytes.  A
    finished level splits into its words by one cast, a key per lane: the
    word itself, or the tuple of a lane's words.  The cast reads the
    machine's byte order, and both halves are read alike, so no count
    depends on it.
    """
    q, shift = pk.field.q, pk.w - 1
    words = max(1, -(-pk.ew * pk.size // 64))  # per lane
    size = 8 * words  # bytes per lane
    adj, high, _ = pk._reduce  # a lane is a vector of pk
    one = (1).to_bytes(size, "little")
    data = start.to_bytes(size, "little")
    for col in cols:
        lanes = int.from_bytes(one * (len(data) // size), "little")  # 1 in every lane
        step, a, h = col * lanes, adj * lanes, high * lanes
        s = int.from_bytes(data, "little")
        blocks = [data]
        for _ in range(q - 1):
            s += step
            s -= ((s + a & h) >> shift) * q
            blocks.append(s.to_bytes(len(data), "little"))
        data = b"".join(blocks)
    keys = memoryview(data).cast("Q").tolist()
    return keys if words == 1 else zip(*[keys[i::words] for i in range(words)])


RecoveryResult = namedtuple(
    "RecoveryResult",
    [*RecoveryMeta._fields, "candidates", "consistent", "rank", "predicted_rank", "rank_match",
     "gauss", "predicted", "brute", "skipped", "count_match"],
)
RecoveryResult.__doc__ = """One coalition instance: its shape, its key count and rank three ways, compared.

The fields are `RecoveryMeta`'s, then the counts.  `candidates` is the
(q^l)^unknowns secret vectors in all.  `brute` is None, and `count_match`
None, when the enumeration's guard refused the system.
"""


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
        *meta,
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
