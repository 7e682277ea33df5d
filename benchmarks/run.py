"""ncauth benchmark: one closed-loop client, one thread, seeded workloads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload scenarios --seed 1 --seconds 25 --trace 0

The run times every op, checks every output, prints an ``info`` line
(platform, set-up fields, failure and checked ratios, output digest) and, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run gives the per-layer ones.  README.md
lists both and says which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_RUNS = 10  # fresh-interpreter set-up timings, spread over the run; the median is reported
WARM_PASS = -1  # pass index whose seeds the untimed warm-up pass uses
TRACE_SERIES = 4  # the traced run covers its ops four times: plain, untraced, traced, counted


class Series:
    """One series of ops: latencies, outcomes and per-op output hashes.

    Each op is timed in CPU seconds, and a host-speed sample follows it, so
    that its latency is scaled by the samples on either side of it.
    """

    def __init__(self, wl):
        self.wl = wl
        self.ops = []  # (cell, op seed) in run order, for replay
        self.cpu = []  # CPU seconds per op
        self.speed = [calibrate.sample()]  # host-speed samples: one before the ops, one after each
        self.hashes = []  # output hash per op, None where the op raised
        self.failed = 0
        self.counted = 0
        self.checked = 0
        self.errors = []

    @property
    def latencies(self) -> list[float]:
        """Reference seconds per op."""
        return [calibrate.scale(c, a, b) for c, a, b in zip(self.cpu, self.speed, self.speed[1:])]

    def run(self, cell, op_seed, execute=None, expect=None):
        """Run, time and check one op; `expect` is the output hash of an earlier run."""
        execute = execute or self.wl.execute
        self.ops.append((cell, op_seed))
        clock = time.process_time
        start = clock()
        try:
            output = execute(cell, op_seed)
        except Exception:  # an op that raises is a failed op, not a crashed run
            self._timed(clock() - start)
            self.hashes.append(None)
            self._fail(cell, op_seed, traceback.format_exc())
            return
        self._timed(clock() - start)
        self.hashes.append(self.wl.output_hash(cell, op_seed, output))
        try:
            outcome = self.wl.check(cell, output)
        except (KeyError, TypeError, AttributeError, IndexError):
            self._fail(cell, op_seed, "malformed output\n" + traceback.format_exc())
            return
        if not outcome.ok:
            self._fail(cell, op_seed, "output check failed")
        elif expect is not None and self.hashes[-1] != expect:
            self._fail(cell, op_seed, "output differs from the first run of the same input")
        self.counted += outcome.counted
        self.checked += outcome.checked

    def _timed(self, cpu_s):
        self.cpu.append(cpu_s)
        self.speed.append(calibrate.sample())

    def replay(self, first: "Series", execute=None) -> "Series":
        """Run the ops of `first` again; each output must equal the first one."""
        for (cell, op_seed), expect in zip(first.ops, first.hashes):
            self.run(cell, op_seed, execute, expect)
        return self

    def _fail(self, cell, op_seed, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{cell.label} seed={op_seed}: {why}")

    @property
    def attempted(self) -> int:
        return len(self.cpu)


def pass_ops(wl, args, deck, pass_index):
    """(cell, op seed) for one pass over the deck; the workload seed fixes them."""
    return list(zip(deck, wl.pass_seeds(args.workload, args.seed, pass_index, len(deck))))


def run_passes(wl, args, deck, seconds, before_pass=None) -> Series:
    """The whole passes over the deck that `seconds` covers, run, timed and checked.

    The pass count depends on the workload, `seconds` and the deck only, so
    every commit and every host times the same ops.  The loop is closed: each
    op runs, and is checked, before the next starts.  `before_pass(i)` runs
    before pass i.
    """
    series = Series(wl)
    for pass_index in range(wl.passes(args.workload, len(deck), seconds, MIN_OPS)):
        if before_pass is not None:
            before_pass(pass_index)
        for cell, op_seed in pass_ops(wl, args, deck, pass_index):
            series.run(cell, op_seed)
    return series


def warm_up(wl, args, deck) -> Series:
    """One untimed pass, with seeds of its own, so that lazy set-up is done before timing."""
    series = Series(wl)
    for cell, op_seed in pass_ops(wl, args, deck, WARM_PASS):
        series.run(cell, op_seed)
    return series


def digest(series: Series) -> str:
    """sha256 over the output hashes of the series' ops, which the seed and --seconds fix."""
    return "sha256:" + hashlib.sha256(b"".join(h or b"-" for h in series.hashes)).hexdigest()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def run_untraced(args, wl, deck, fields):
    # Set-up is timed in fresh interpreters spread over the run, so that one
    # slow spell on a shared host cannot move all of them.  The first, untimed,
    # writes the bytecode cache, as a user's first run would.
    build = f"import ncauth\nfor q, l in {list(fields)!r}:\n    ncauth.Field(q, l)"
    tracing.fresh_seconds(str(SRC), build)
    wl.warm_fields(fields)
    warm = warm_up(wl, args, deck)
    setup_times = []
    passes = wl.passes(args.workload, len(deck), args.seconds, MIN_OPS)
    setup_at = [k * passes // SETUP_RUNS for k in range(SETUP_RUNS)]  # pass index before each

    def before_pass(i):
        for _ in range(setup_at.count(i)):
            setup_times.append(tracing.fresh_seconds(str(SRC), build))

    timed = run_passes(wl, args, deck, args.seconds, before_pass)
    lat = timed.latencies
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    series = [warm, timed]
    info = {
        "ops": timed.attempted,
        "warm_up_ops": warm.attempted,
        "setup_runs": len(setup_times),
        "fail_ratio": _ratio(sum(r.failed for r in series), sum(r.attempted for r in series)),
        "checked_ratio": _ratio(timed.checked, timed.counted),
        "key_counts": timed.counted,
        "brute_checked": timed.checked,
        "digest": digest(timed),
    }
    return series, metrics, info


def run_traced(args, wl, deck, fields):
    wl.warm_fields(fields)
    metrics = {name: (v, "ns") for name, v in tracing.field_kernels(args.seed).items()}
    metrics["field.new_s"] = (tracing.cold_field_seconds(str(SRC)), "s")
    metrics.update((name, (v, "s")) for name, v in tracing.rref_kernels(args.seed).items())

    # The first ops of a timed run, as many as a quarter of its time covers:
    # untraced, then each op untraced and under spans in turn, so that
    # tracing overhead compares runs made moments apart, then while counting
    # field operations.  Counts repeat exactly.
    plain = run_passes(wl, args, deck, args.seconds / TRACE_SERIES)
    warm, traced = Series(wl), Series(wl)
    tracer = tracing.Tracer()
    traced_execute = tracer.span(tracing.ROOT_SPAN, wl.execute)
    for (cell, op_seed), expect in zip(plain.ops, plain.hashes):
        warm.run(cell, op_seed, expect=expect)
        with tracer:
            traced.run(cell, op_seed, traced_execute, expect)
    with tracing.FelCounter() as fel:
        counted = Series(wl).replay(plain)

    # Spans take wall seconds; scale them by the traced ops' reference/wall ratio.
    to_ref = sum(traced.latencies) / tracer.stats[tracing.ROOT_SPAN][1]
    selfs = {name: s * to_ref for name, s in tracer.self_times().items()}
    for name in tracing.REPORTED:
        metrics[f"{name}.calls"] = (tracer.stats.get(name, (0,))[0], "count")
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    metrics["other.self_s"] = (
        sum(v for k, v in selfs.items() if k not in tracing.REPORTED and k != tracing.ROOT_SPAN),
        "s",
    )
    metrics[f"{tracing.ROOT_SPAN}.self_s"] = (selfs.get(tracing.ROOT_SPAN, 0.0), "s")
    metrics["attacks.brute.candidates"] = (tracer.brute_candidates, "count")
    metrics["attacks.brute.hit_ratio"] = (
        _ratio(tracer.brute_solutions, tracer.brute_candidates), "ratio"
    )
    metrics["attacks.brute.guard_skips"] = (traced.counted - traced.checked, "count")
    metrics["linalg.rref.cells"] = (tracer.rref_cells, "count")
    metrics.update((f"field.{op}.calls", (n, "count")) for op, n in fel.counts.items())
    metrics["ops.samples"] = (traced.attempted, "count")
    metrics["ops.checked_ratio"] = (_ratio(traced.checked, traced.counted), "ratio")
    untraced_s, traced_s = sum(warm.latencies), sum(traced.latencies)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    total_self = sum(selfs.values()) or 1.0
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
    info = {
        "ops": plain.attempted,
        "self_share_top5": {k: v / total_self for k, v in top},
        "digest": digest(plain),
    }
    return [plain, warm, traced, counted], metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = None
    if not (SRC / "ncauth" / "__init__.py").is_file():
        problem = f"no ncauth sources under {SRC}"
    elif not any((ROOT / "configs").glob("*.json")):
        problem = f"no scenario configs under {ROOT / 'configs'}"
    elif args.seconds <= 0:
        problem = "--seconds must be positive"
    if problem is None:
        sys.path.insert(0, str(SRC))
        import workloads as wl

        if args.workload not in wl.WORKLOADS:
            problem = f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}"
    if problem is not None:
        print(f"benchmark error: {problem}", file=sys.stderr)
        return 2

    deck = wl.build_deck(args.workload, ROOT)
    fields = wl.deck_fields(deck)
    runner = run_traced if args.trace else run_untraced
    series_list, metrics, extra = runner(args, wl, deck, fields)
    attempted = sum(s.attempted for s in series_list)
    failed = sum(s.failed for s in series_list)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed",
        "clients": 1,
        "threads": 1,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "setup_fields": [f"GF({q}^{l})" for q, l in fields],
        **extra,
    }
    for series in series_list:
        for line in series.errors:
            print(f"failed op: {line}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
