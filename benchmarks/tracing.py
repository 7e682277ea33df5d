"""Per-layer measurement from outside the program: spans, counters, kernels.

``Tracer`` wraps every public function of the ncauth modules (and
``Matrix.rref``) in a span and rebinds each wrapped name in every ncauth
module, and every module-level dict, that holds it, so calls made through
``from .x import f`` bindings are traced too.  Spans nest on a stack and are
aggregated as they close: per name, the call count, the total time and the
self time (total minus the time covered by child spans).  ``FelCounter``
counts field multiplications, inversions and Frobenius maps on the element
class, without spans.  Both undo their patches on exit; a ``Tracer`` may be
entered again and keeps adding to the same statistics.

The kernel timings run untraced, in reference seconds (see ``calibrate``):
field arithmetic per element size, row reduction per matrix size, and cold
field construction in fresh interpreters.  ``fresh_seconds`` also times the
benchmark's set-up.  Spans take wall seconds; the caller scales them.
"""

from __future__ import annotations

import importlib
import inspect
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = str(Path(__file__).resolve().parent)
MODULES = ("field", "linalg", "scheme", "netsim", "attacks", "cli")

# Spans whose calls and self time are reported by name; every other public
# function is traced too and its self time lands in "other.self_s".
REPORTED = (
    "attacks.brute_force_count",
    "attacks.build_recovery_system",
    "attacks.gauss_count",
    "attacks.forge",
    "attacks.solve_target_coeffs",
    "linalg.rref",
    "linalg.solve",
    "linalg.solve_count",
    "scheme.keygen",
    "scheme.tag",
    "scheme.verify",
    "scheme.combine",
    "scheme.residual",
    "scheme.poly_eval",
    "scheme.moore_matrix",
    "netsim.simulate",
    "netsim.decode",
    "netsim.accept_map",
    "netsim.compute_global_kernels",
    "netsim.coalition_view",
    "netsim.fan",
    "cli.load_scenario",
    "cli.run_scenario",
    "cli.lemma_sweep",
)
ROOT_SPAN = "bench.op"  # one per op; its self time is time spent outside every traced function

KERNEL_FIELDS = ((2, 8), (3, 5), (2, 16))
RREF_SIZES = (16, 32, 64)
COLD_FIELDS = ((2, 16), (251, 3))
COLD_REPEATS = 3  # fresh interpreters per cold-field timing
KERNEL_BUDGET_S = 0.05  # least time per field-kernel sample
KERNEL_REPEATS = 5  # samples per field kernel; the median is reported


def _modules():
    pkg = importlib.import_module("ncauth")
    return pkg, [importlib.import_module(f"ncauth.{m}") for m in MODULES]


class _Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set_attr(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            op, obj, key, old = self._undo.pop()
            op(obj, key, old)


class Tracer:
    """Aggregated nested spans around every public ncauth function."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.brute_candidates = 0
        self.brute_solutions = 0
        self.rref_cells = 0
        self._stack: list[float] = []  # time covered by children, per open span
        self._patches = _Patches()

    def span(self, name, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_brute(self, args, result):
        coeff = args[0].coeff
        self.brute_candidates += coeff.field.order**coeff.cols
        self.brute_solutions += result

    def _observe_rref(self, args, result):
        self.rref_cells += args[0].rows * args[0].cols

    def __enter__(self):
        pkg, mods = _modules()
        wrapped = {}  # original function -> its traced wrapper
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{name}"
                observe = self._observe_brute if qual == "attacks.brute_force_count" else None
                wrapped[obj] = self.span(qual, obj, observe)
        matrix = vars(mods[MODULES.index("linalg")])["Matrix"]
        self._patches.set_attr(
            matrix, "rref", self.span("linalg.rref", matrix.rref, self._observe_rref)
        )
        for mod in [pkg, *mods]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.set_attr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._patches.set_item(obj, key, wrapped[value])
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    def self_times(self) -> dict[str, float]:
        return {name: s[2] for name, s in self.stats.items()}


class FelCounter:
    """Counts Fel multiplications, inversions and Frobenius maps on the class."""

    OPS = ("mul", "inv", "frob")
    _ATTRS = {"mul": "__mul__", "inv": "inv", "frob": "frob"}

    def __init__(self):
        self.counts = dict.fromkeys(self.OPS, 0)
        self._patches = _Patches()

    def __enter__(self):
        fel = importlib.import_module("ncauth.field").Fel
        counts = self.counts
        for op, attr in self._ATTRS.items():
            fn = getattr(fel, attr)

            def counted(*args, _fn=fn, _op=op):
                counts[_op] += 1
                return _fn(*args)

            self._patches.set_attr(fel, attr, counted)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False


# ---------------------------------------------------------------------------
# kernel timings


def _per_call_ns(fn, args_list) -> float:
    """Median over KERNEL_REPEATS of the mean reference ns per call, cycling through args_list."""
    samples = []
    for _ in range(KERNEL_REPEATS):
        calls = 0
        before = calibrate.sample()
        start = time.process_time()
        while True:
            for args in args_list:
                fn(*args)
            calls += len(args_list)
            elapsed = time.process_time() - start
            if elapsed >= KERNEL_BUDGET_S:
                break
        samples.append(calibrate.scale(elapsed, before, calibrate.sample()) / calls * 1e9)
    return statistics.median(samples)


def field_kernels(seed: int) -> dict[str, float]:
    from ncauth.field import Field

    out = {}
    rng = random.Random(f"kernels/{seed}")
    for q, l in KERNEL_FIELDS:
        fld = Field(q, l)
        tag = f"gf{q}_{l}"
        elems = []
        while len(elems) < 32:
            x = fld.random_element(rng)
            if not x.is_zero():
                elems.append(x)
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        out[f"field.mul_ns.{tag}"] = _per_call_ns(lambda a, b: a * b, pairs)
        out[f"field.inv_ns.{tag}"] = _per_call_ns(lambda a: a.inv(), [(x,) for x in elems])
        out[f"field.frob_ns.{tag}"] = _per_call_ns(
            lambda a: a.frob(l - 1), [(x,) for x in elems]
        )
    return out


def rref_kernels(seed: int) -> dict[str, float]:
    from ncauth.field import Field
    from ncauth.linalg import Matrix

    fld = Field(2, 8)
    rng = random.Random(f"rref/{seed}")
    out = {}
    for size in RREF_SIZES:
        mat = Matrix(fld, [[fld.random_element(rng) for _ in range(size)] for _ in range(size)])
        repeats = 3 if size < 64 else 1
        out[f"linalg.rref_s.r{size}"] = statistics.median(
            calibrate.timed(mat.rref) for _ in range(repeats)
        )
    return out


def fresh_seconds(src: str, timed: str, untimed: str = "") -> float:
    """Reference seconds the code `timed` takes in a fresh interpreter with `src` on its path.

    The code `untimed` runs first, outside the timing.  The child imports
    only ``calibrate`` (which imports only ``time``) before `untimed`.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{src!r}, {BENCH_DIR!r}]\n"
        "import calibrate\n"
        f"{untimed}\n"
        "before = calibrate.sample()\n"
        "start = time.process_time()\n"
        f"{timed}\n"
        "cpu = time.process_time() - start\n"
        "print(repr(calibrate.scale(cpu, before, calibrate.sample())))\n"
    )
    res = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(res.stdout.strip())


def cold_field_seconds(src: str) -> float:
    """Median time to construct COLD_FIELDS right after import, in fresh interpreters."""
    build = f"for q, l in {COLD_FIELDS!r}:\n    Field(q, l)"
    return statistics.median(
        fresh_seconds(src, build, "from ncauth.field import Field") for _ in range(COLD_REPEATS)
    )
