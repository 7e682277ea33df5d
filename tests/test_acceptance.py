"""Acceptance gate: eight end-to-end checks, one summary line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
summaries; every check is deterministic.
"""

import random
import time

import pytest

from ncauth import (
    Field,
    ForgerySpec,
    Matrix,
    combine,
    forge,
    lemma_sweep,
    residual,
    run_scenario,
    tag,
    verify,
)
from support import element, forgery_instances, make_instance, packet, reference_pow

FIELD_POOL = (
    (2, 1), (3, 1), (5, 1), (7, 1),
    (2, 2), (3, 2), (5, 2),
    (2, 3), (3, 3), (2, 4),
)


@pytest.fixture(scope="module")
def forgery_pool():
    start = time.perf_counter()
    pool = forgery_instances(210, seed=424242)
    forged = []
    for params, skey, vkeys, messages, packets, coeffs in pool:
        forged.append(forge(packets, ForgerySpec(params.field.q, coeffs)))
    return pool, forged, time.perf_counter() - start


def test_criterion_1_forgery_accepted_everywhere(forgery_pool):
    pool, forged, setup = forgery_pool
    start = time.perf_counter()
    accepted = 0
    total = 0
    for (params, skey, vkeys, messages, packets, coeffs), fake in zip(pool, forged):
        for vk in vkeys:
            total += 1
            accepted += verify(vk, fake)
    elapsed = setup + time.perf_counter() - start
    assert len(pool) >= 200
    assert accepted == total  # acceptance rate exactly 1.0
    assert elapsed < 10.0
    print(
        f"\ncriterion 1 PASS: {len(pool)} forged packets, "
        f"{accepted}/{total} verifier checks accepted (rate 1.0) in {elapsed:.2f}s"
    )


def test_criterion_2_forgery_equals_direct_tag(forgery_pool):
    pool, forged, _ = forgery_pool
    for (params, skey, vkeys, messages, packets, coeffs), fake in zip(pool, forged):
        fld = params.field
        mixed = sum((fld(a) * s for a, s in zip(coeffs, messages)), fld.zero)
        assert fake == tag(skey, mixed)
    print(f"criterion 2 PASS: all {len(pool)} forgeries equal the directly tagged packet")


def test_criterion_3_pollution_undetected_but_damaging():
    start = time.perf_counter()
    seeds = range(25)
    changed_cases = 0
    for seed in seeds:
        doc = {
            "version": 1,
            "seed": seed,
            "params": {"q": 2, "l": 3, "k": 3, "M": 2, "V": 6, "n": 2},
            "topology": "butterfly",
            "attack": {"type": "pollute", "node": "m", "edge": "e4", "coeffs": [0, 1]},
        }
        report = run_scenario(doc)
        assert all(all(edges.values()) for edges in report["accepts"].values())
        (record,) = report["attack"]["records"]
        if record["changed"]:
            changed_cases += 1
            assert report["attack"]["any_divergence"] is True
        else:
            assert report["attack"]["any_divergence"] is False
    elapsed = time.perf_counter() - start
    assert len(seeds) >= 20
    assert changed_cases >= 15  # substitution really bites on most draws
    assert elapsed < 5.0
    print(
        f"criterion 3 PASS: {len(seeds)} polluted butterfly runs all accepted; "
        f"{changed_cases} effective substitutions, each diverged a sink ({elapsed:.2f}s)"
    )


@pytest.fixture(scope="module")
def count_sweep():
    start = time.perf_counter()
    result = lemma_sweep(
        qs=(2, 3), ls=(1, 2), ks=(2, 3), Ms=(1, 2), Ks=(1, 2, 3), reps=3, seed=7
    )
    return result, time.perf_counter() - start


def test_criterion_4_key_count_formula(count_sweep):
    result, elapsed = count_sweep
    checked = [r for r in result.rows if not r.skipped]
    assert len(checked) >= 95
    assert any(r.K >= r.k for r in checked)
    assert any(r.K > r.k for r in checked)
    for row in checked:
        assert row.candidates <= 1 << 24
        assert row.consistent
        assert row.brute == row.gauss == row.predicted, row
    assert result.summary["mismatches"] == 0
    assert elapsed < 10.0
    print(
        f"\ncriterion 4 PASS: {len(checked)} instances, "
        f"brute = elimination = formula on every one ({elapsed:.1f}s)"
    )


def test_criterion_5_rank_formula(count_sweep):
    result, _ = count_sweep
    checked = [r for r in result.rows if not r.skipped]
    for row in checked:
        assert row.rank == row.predicted_rank, row
    print(f"criterion 5 PASS: system rank matches r0*k + (M+1-r0)*min(K, k) on all {len(checked)} instances")


def test_criterion_6_no_observation_bound_needed(count_sweep):
    result, _ = count_sweep
    over = [r for r in result.rows if not r.skipped and r.h_total > r.M]
    assert len(over) >= 10
    for row in over:
        assert row.count_match and row.rank_match and row.consistent, row
    print(
        f"criterion 6 PASS: {len(over)} instances with more coalition edges than M "
        "still match the count exactly"
    )


def test_criterion_7_honest_completeness():
    cases = [
        ("butterfly", {"q": 2, "l": 3, "k": 3, "M": 2, "V": 6, "n": 2}),
        ("line", {"q": 3, "l": 1, "k": 3, "M": 1, "V": 2, "n": 1}),
        ("diamond", {"q": 5, "l": 1, "k": 2, "M": 2, "V": 3, "n": 2}),
    ]
    runs = 0
    for topology, p in cases:
        for seed in range(8):
            report = run_scenario(
                {"version": 1, "seed": seed, "params": p, "topology": topology}
            )
            assert all(all(edges.values()) for edges in report["accepts"].values())
            for sink, d in report["decodes"].items():
                assert d["ok"], (topology, seed, sink, d)
                assert d["diverged"] is False
                assert d["payloads"] == report["messages"]
            runs += 1
    print(f"criterion 7 PASS: {runs} honest runs, every verifier accepted, every sink decoded exactly")


def _random_field(rng):
    q, l = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
    return Field(q, l)


def _suite_field_axioms(rng):
    fld = _random_field(rng)
    a, b, c = (fld.random_element(rng) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + fld.zero == a and a * fld.one == a
    assert a + (fld.zero - a) == fld.zero
    if not b.is_zero():
        assert (a * b.inv()) * b == a


def _suite_frobenius_automorphism(rng):
    fld = _random_field(rng)
    a, b = fld.random_element(rng), fld.random_element(rng)
    i = rng.randrange(1, fld.l + 1)
    assert (a + b).frob(i) == a.frob(i) + b.frob(i)
    assert (a * b).frob(i) == a.frob(i) * b.frob(i)
    assert a.frob(fld.l) == a
    assert a.frob(i).coeffs == reference_pow(fld, a.coeffs, fld.q**i)


def _suite_frobenius_fixes_base(rng):
    fld = _random_field(rng)
    c = fld(rng.randrange(fld.q))
    assert c.frob(1) == c
    a = fld.random_element(rng)
    s = rng.randrange(fld.q)
    assert (fld(s) * a).frob(1) == fld(s) * a.frob(1)


def _residual_ctx(rng):
    q, l = FIELD_POOL[rng.randrange(len(FIELD_POOL))]
    k = rng.randint(2, 3)
    M = rng.randint(1, 2)
    return make_instance(rng, q, l, k, M, V=1, n=M)


def _random_packet(rng, fld, k):
    """Random (header, payload, tag) parts and the packet made of them."""
    parts = (rng.randrange(fld.q), fld.random_element(rng),
             tuple(fld.random_element(rng) for _ in range(k)))
    c, m, tags = parts
    return parts, packet(fld, (c, *m.coeffs, *(x for t in tags for x in t.coeffs)))


def _suite_residual_linearity(rng):
    params, skey, vkeys, messages, packets = _residual_ctx(rng)
    fld = params.field
    vk = vkeys[0]
    # arbitrary, not necessarily valid, packets: linearity is structural
    pkts = [_random_packet(rng, fld, params.k)[1] for _ in range(rng.randint(1, 3))]
    coeffs = [rng.randrange(fld.q) for _ in pkts]
    lhs = element(fld, residual(vk, combine(pkts, coeffs)))
    rhs = sum(
        (fld(a) * element(fld, residual(vk, p)) for a, p in zip(coeffs, pkts)), fld.zero
    )
    assert lhs == rhs


def _suite_rref_idempotent(rng):
    fld = _random_field(rng)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = Matrix(
        fld,
        [[fld.random_element(rng) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )
    reduced, pivots = m.rref()
    again, pivots2 = reduced.rref()
    assert again == reduced and pivots == pivots2


def _suite_flat_roundtrip(rng):
    params, skey, vkeys, messages, packets = _residual_ctx(rng)
    fld = params.field
    parts, pkt = _random_packet(rng, fld, params.k)
    assert (pkt.c, pkt.m, pkt.tag) == parts
    assert packet(fld, pkt.flat) == pkt


def test_criterion_8_invariant_suites():
    suites = [
        ("field axioms", _suite_field_axioms),
        ("frobenius automorphism", _suite_frobenius_automorphism),
        ("frobenius fixes base field", _suite_frobenius_fixes_base),
        ("residual linearity", _suite_residual_linearity),
        ("rref idempotence", _suite_rref_idempotent),
        ("flat roundtrip", _suite_flat_roundtrip),
    ]
    start = time.perf_counter()
    for name, suite in suites:
        rng = random.Random(f"acceptance/{name}")
        for _ in range(1000):
            suite(rng)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 8 PASS: {len(suites)} invariant suites x 1000 cases, "
        f"zero failures ({elapsed:.1f}s)"
    )
