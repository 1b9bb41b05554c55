"""A fixed unit of pure-Python work that the benchmark times between jobs.

The machines this benchmark runs on are shared: the speed of one core drifts
by a factor of up to two over minutes, with other tenants' load, and the
drift is the same for every process on it. A job's wall time divided by the
time of this reference, measured right before and right after the job in the
same process, cancels most of that drift; a change to ``lsdr`` moves the
job's time and not the reference's, so it moves the ratio in full.

The reference is shaped like the workloads' hot loops: heap-based shortest
paths over adjacency lists of ``(vertex, weight)`` tuples, as in
``lsdr.graph``, written out here so that no change to the library can
change it. Its graph is fixed: built once from a constant seed.
"""

import heapq
import random
import time

VERTICES = 3000
DEGREE = 3
SOURCES = 80


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(0)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(VERTICES)]
    for u in range(VERTICES):
        for v in rng.sample(range(VERTICES), DEGREE):
            w = rng.random()
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


ADJ = _graph()


def _shortest_paths(source: int) -> float:
    dist = [float("inf")] * VERTICES
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in ADJ[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(dist)


def seconds() -> float:
    """Wall seconds of one pass of the reference work."""
    start = time.perf_counter()
    for source in range(SOURCES):
        _shortest_paths(source)
    return time.perf_counter() - start
