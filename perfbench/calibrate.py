"""Machine-speed calibration with a fixed pure-Python kernel.

On a shared 2-core virtual machine the speed of pure-Python code drifts by a
third over minutes, moving every timing of a run together. The kernel below,
a Dijkstra with per-level draw tuples over the benchmark's own reading of
the network text (so with the program's data sizes, about 8 ms), runs
untimed before every measured query and every set-up. Each timing is scaled
by ``REFERENCE_KERNEL_MS`` over the median of the nine kernel samples around
it, so that times read as milliseconds on a machine where the kernel, run
between queries, takes that long. The kernel does not use the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

# The typical kernel time between queries on the 2-core machine the
# benchmark was built on (Python 3.11.7); it sets the scale of every time.
REFERENCE_KERNEL_MS = 5.4
_WINDOW = 4  # samples on each side of the one taken next to a timing


def adjacency(network_text: str) -> list[list[tuple[int, float, int]]]:
    """(head, weight, level) per tail, read from V, L and E lines."""
    adj: list = []
    levels: dict[str, int] = {}
    for line in network_text.splitlines():
        parts = line.split()
        if parts[0] == "V":
            adj = [[] for _ in range(int(parts[1]))]
        elif parts[0] == "L":
            levels = {item.split(":")[0]: i for i, item in enumerate(parts[1:])}
        elif parts[0] == "E":
            adj[int(parts[1])].append((int(parts[2]), float(parts[3]), levels[parts[4]]))
    return adj


def kernel(adj) -> list[float]:
    """One shortest-path tree from vertex 0, with per-level draw tuples
    (the grid has three levels)."""
    n = len(adj)
    dist = [float("inf")] * n
    draw = [(0.0, 0.0, 0.0)] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        du = draw[u]
        for v, w, lv in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                draw[v] = du[:lv] + (du[lv] + w,) + du[lv + 1 :]
                heapq.heappush(heap, (nd, v))
    return dist


class Calibration:
    def __init__(self, network_text: str) -> None:
        self.reference_s = REFERENCE_KERNEL_MS / 1e3
        self.adj = adjacency(network_text)
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        t0 = perf_counter()
        kernel(self.adj)
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor that brings a timing taken next to sample ``index`` to the
        reference speed."""
        near = self.samples[max(0, index - _WINDOW) : index + _WINDOW + 1]
        return self.reference_s / statistics.median(near)
