"""Host-speed calibration: CPU time scaled to the speed of a reference host.

On a shared host, other tenants change how fast this process runs: on a
2-vCPU Xeon VM the CPU time of one and the same op moved by up to a factor
of two, in spells from a fraction of a second to minutes, and CPU time moves
as much as wall time.  So every timing the benchmark reports is taken in CPU
seconds and scaled by how fast a fixed calibration kernel ran right before
and right after it:

    reference seconds = CPU seconds * REF_KERNEL_S / kernel seconds now

The kernel is plain Python (lists, ints, calls, comprehensions) and uses
nothing from ncauth, so a change to ncauth cannot move it.  This module
imports only ``time``, so that importing it in a fresh interpreter before
a set-up timing preloads nothing that ncauth imports.
"""

from __future__ import annotations

import time

# Kernel seconds on the reference host: the fastest a 2-vCPU Intel Xeon VM
# with Python 3.11.7 ran it.  A reported second is a second on a host that
# runs the kernel this fast.
REF_KERNEL_S = 46e-6
SAMPLES = 9  # kernel runs per speed sample; the median is the sample

_P = 251
_N = 6


def _lcg(n: int, x: int = 1) -> list[int]:
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2**31
        out.append(x >> 16)
    return out


_BASE = tuple(tuple(v % _P for v in _lcg(_N, 1 + i)) for i in range(_N))


def _inv(a: int) -> int:
    return pow(a, _P - 2, _P)


def kernel() -> int:
    """Row-reduce a fixed 6x6 matrix mod 251; returns its rank."""
    m = [list(row) for row in _BASE]
    rank = 0
    for c in range(_N):
        piv = next((i for i in range(rank, _N) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = _inv(m[rank][c])
        m[rank] = [x * inv % _P for x in m[rank]]
        for i in range(_N):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % _P for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def sample() -> float:
    """CPU seconds of one kernel run now: the median of SAMPLES runs."""
    clock = time.process_time
    times = []
    for _ in range(SAMPLES):
        start = clock()
        kernel()
        times.append(clock() - start)
    times.sort()
    return times[SAMPLES // 2]


def scale(cpu_s: float, before: float, after: float) -> float:
    """Reference seconds for `cpu_s` CPU seconds taken between speed samples `before`, `after`."""
    return cpu_s * 2 * REF_KERNEL_S / (before + after)


def timed(fn, *args) -> float:
    """Reference seconds of one call fn(*args)."""
    before = sample()
    start = time.process_time()
    fn(*args)
    cpu = time.process_time() - start
    return scale(cpu, before, sample())
