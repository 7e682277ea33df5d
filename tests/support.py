"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import itertools
import random

from ncauth import Field, SystemParams, keygen, tag


def sample_points(field, count, rng):
    """`count` distinct nonzero field elements."""
    pts, seen = [], set()
    if field.order - 1 < count:
        raise ValueError("field too small for that many points")
    while len(pts) < count:
        x = field.random_element(rng)
        if x.is_zero() or x in seen:
            continue
        seen.add(x)
        pts.append(x)
    return tuple(pts)


def sum_one_coeffs(q, count, rng):
    head = [rng.randrange(q) for _ in range(count - 1)]
    return tuple(head + [(1 - sum(head)) % q])


def make_instance(rng, q, l, k, M, V=None, n=None):
    """One full scheme instance: params, keys, payloads, fresh packets."""
    field = Field(q, l)
    if V is None:
        V = rng.randint(1, min(5, field.order - 1))
    if n is None:
        n = rng.randint(1, M)
    params = SystemParams(field, k, M, V, n, sample_points(field, V, rng))
    skey, vkeys = keygen(params, rng.getrandbits(64))
    messages = [field.random_element(rng) for _ in range(n)]
    packets = [tag(skey, s) for s in messages]
    return params, skey, vkeys, messages, packets


def forgery_instances(count, seed):
    """Deterministic stream of (instance, sum-one coefficients) pairs."""
    rng = random.Random(seed)
    grid = [
        (q, l, k, M)
        for q in (2, 3, 5)
        for l in (1, 2)
        for k in (2, 3, 4)
        for M in (1, 2, 3)
    ]
    out = []
    i = 0
    while len(out) < count:
        q, l, k, M = grid[i % len(grid)]
        i += 1
        params, skey, vkeys, messages, packets = make_instance(rng, q, l, k, M)
        coeffs = sum_one_coeffs(q, params.n, rng)
        out.append((params, skey, vkeys, messages, packets, coeffs))
    return out


def reference_brute_force_count(system):
    """Key-count oracle: every candidate in element order, checked row by row.

    The plain enumeration `brute_force_count` must agree with; it shares no
    code with it beyond field arithmetic.
    """
    fld = system.coeff.field
    rows = [
        (tuple((c, v) for c, v in enumerate(row) if v), want)
        for row, (want,) in zip(system.coeff.data, system.rhs.data)
    ]
    zero = fld.zero
    count = 0
    for cand in itertools.product(fld.elements(), repeat=system.coeff.cols):
        if all(sum((v * cand[c] for c, v in entries), zero) == want for entries, want in rows):
            count += 1
    return count
