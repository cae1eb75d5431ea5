"""A fixed pure-Python loop that gauges how fast the host runs right now.

Co-tenants of a shared host slow CPU-bound Python by 1.2x to 3x for seconds
to minutes at a time, so two runs of the same code minutes apart can differ
by more than any useful regression bound.  The benchmark times this loop
beside the workload throughout a run and scales the run's times by the
loop's fastest time (see run.py).  The loop is the benchmark's own code:
no change to the simulator can make it faster or slower.

Its work resembles the simulator's: method calls on small ``__slots__``
objects, attribute reads and writes, a row-buffer-like hit/miss branch, an
integer dict and an integer heap.  It allocates no container objects, and
the garbage collector is off while it runs, so the size of the program's
heap does not change its time.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Loop iterations per sample (about 20 ms on a 2020s server core).
ITERATIONS = 30_000


class _Bank:
    __slots__ = ("row", "hits", "ready")

    def __init__(self) -> None:
        self.row = -1
        self.hits = 0
        self.ready = 0

    def access(self, row: int, now: int) -> int:
        if self.row == row:
            self.hits += 1
            return now + 4
        self.row = row
        self.ready = now + 20
        return self.ready


_BANKS = [_Bank() for _ in range(64)]
_TABLE = dict.fromkeys(range(4096), 0)


def reference_s() -> float:
    """Wall seconds of one pass of the fixed loop."""
    banks, table = _BANKS, _TABLE
    for bank in banks:
        bank.row = -1
        bank.hits = bank.ready = 0
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    enabled = gc.isenabled()
    gc.disable()
    try:
        now = x = 0
        start = time.perf_counter()
        for i in range(ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            now = banks[x & 63].access((x >> 6) & 15, now)
            key = (x >> 10) & 4095
            table[key] = table[key] ^ x
            if i & 1:
                push(heap, now & 0xFFFFF)
            elif heap:
                now += pop(heap) & 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def gauge_s(samples: int = 3) -> float:
    """Median seconds of ``samples`` passes of the loop: the host's speed
    right now, to pair with a timing taken just before or after.  The
    median keeps one interrupted pass from skewing the gauge."""
    return statistics.median(reference_s() for _ in range(samples))


if __name__ == "__main__":
    samples = sorted(reference_s() for _ in range(20))
    print(f"reference loop: fastest {samples[0] * 1e3:.2f} ms, "
          f"median {samples[10] * 1e3:.2f} ms over 20 samples")
