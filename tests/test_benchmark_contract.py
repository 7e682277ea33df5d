"""What the benchmark pipeline relies on, checked in the test suite.

``benchmarks/`` drives the program through its public API: report keys,
``SweepRow`` fields, and the ``Fel``/``Matrix`` methods its tracer patches.
Running the first pass of every deck here makes a change that breaks that
contract fail the tests rather than the benchmark run.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from ncauth import Matrix, SweepRow

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def first_pass(workload):
    deck = workloads.build_deck(workload, BENCH_DIR.parent)
    return list(zip(deck, workloads.pass_seeds(workload, SEED, 0, len(deck))))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_pass_outputs_check(workload):
    ops = first_pass(workload)
    assert ops
    for cell, seed in ops:
        output = workloads.execute(cell, seed)
        assert workloads.check(cell, output).ok, cell.label
        assert len(workloads.output_hash(cell, seed, output)) == 32


def test_sweep_row_fields_are_the_digested_record():
    # output_hash digests dataclasses.asdict of each row: a new column changes the digest
    assert {f.name for f in dataclasses.fields(SweepRow)} == {
        "q", "l", "k", "M", "K", "n", "edge_counts", "seed", "candidates", "skipped",
        "h_total", "r0", "rank", "predicted_rank", "rank_match", "consistent", "predicted",
        "gauss", "brute", "count_match", "condition_held",
    }


def test_reported_spans_name_live_functions():
    # a reported name that wraps no function reads 0 forever; only these two may
    rref = Matrix.rref
    with tracing.Tracer() as tracer:
        assert Matrix.rref is not rref  # "linalg.rref" spans Matrix.rref
    dead = set(tracing.REPORTED) - set(tracer.stats)
    assert dead == {"linalg.solve_count", "netsim.compute_global_kernels"}


def test_traced_op():
    cell, seed = first_pass("scenarios")[0]
    tracer = tracing.Tracer()
    with tracer:
        output = tracer.span(tracing.ROOT_SPAN, workloads.execute)(cell, seed)
    assert workloads.check(cell, output).ok
    assert tracer.stats[tracing.ROOT_SPAN][0] == tracer.stats["cli.run_scenario"][0] == 1
    assert tracer.stats["linalg.rref"][0] > 0 and tracer.rref_cells > 0


def test_counted_op():
    cell, seed = first_pass("recover-wide")[0]
    with tracing.FelCounter() as fel:
        output = workloads.execute(cell, seed)
    assert workloads.check(cell, output).ok
    assert all(fel.counts[op] > 0 for op in tracing.FelCounter.OPS)
