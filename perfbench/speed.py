"""Machine-speed reference: scales a run's wall times to a nominal machine speed.

The 2-core container the benchmark was tuned on runs the same work at
speeds that drift by about ±20 % over minutes (other tenants share the
host; process CPU time drifts with wall time, so this is not
preemption). That drift swamps a 10 % regression. The benchmark
therefore times a fixed piece of pure-Python work — heap pushes and
pops, small-object allocation, dict stores, float arithmetic, the
operations the simulator's inner loop is made of — between the set-up
samples and between the measured iterations of a run, and multiplies
every wall time of the run by ``NOMINAL_S / median(reference samples)``.

One scale per run, from the median of all its samples: the machine also
jitters within seconds, so two samples around a 10 s iteration say little
about the speed during it, while the run's median tracks the slow drift.
The reference work never touches ``repro``, so a change to the program
moves the scaled times exactly as much as the raw ones.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Wall seconds the reference work takes on the machine the bounds were set on.
NOMINAL_S = 0.1


class _Item:
    __slots__ = ("when", "size")

    def __init__(self, when: float, size: int) -> None:
        self.when = when
        self.size = size


def reference_work(n: int = 50_000) -> float:
    """Fixed interpreter-bound work; returns a value so nothing is skipped."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(n):
        item = _Item((i * 7919) % 1000 * 0.001, i & 1500)
        heapq.heappush(heap, (item.when, i, item))
        table[i & 1023] = item
        acc += item.size * 0.5
        if len(heap) > 64:
            acc -= heapq.heappop(heap)[2].when
    return acc


class MachineSpeed:
    """Reference timings taken during a run, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that expresses this run's wall times at nominal machine speed."""
        return NOMINAL_S / statistics.median(self.samples)
