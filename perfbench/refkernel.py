"""Reference kernel: a fixed piece of work that no change to conematch can
speed up or slow down, timed next to every campaign to gauge host speed.

On a shared host, identical work can run up to twice as slow for stretches
of seconds to minutes, and process CPU time slows with it, so neither wall
nor CPU time of a campaign is steady from run to run.  The kernel does, in
about equal parts, the three kinds of work a campaign does: a pure-Python
deferred acceptance with heaps, deques and dict lookups like ``da``; numpy
sorting, gathering and splitting like ``strategy.select_interviews``; and
random reads from a 32 MB table, beyond the L2 cache, since the slowdowns
track memory access speed most closely.  A campaign's wall time divided by
the mean of the kernel timings just before and just after it cancels much
of the host's speed changes.
"""

from __future__ import annotations

import functools
import gc
import heapq
import random
import time
from collections import deque

import numpy as np

SEED = 20240607
PROPOSERS, RECEIVERS, LIST_LEN, CAPACITY = 4000, 400, 12, 5   # the DA part
ROWS, COLS, TOP = 1000, 100, 5          # the selection part
TABLE, READS = 4_000_000, 1_000_000     # the random-read part
CALLS = 3                               # kernel calls per timing


@functools.lru_cache(maxsize=1)
def _inputs():
    rng = np.random.default_rng(SEED)
    draw = random.Random(SEED)
    prefs = [draw.sample(range(RECEIVERS), LIST_LEN) for _ in range(PROPOSERS)]
    ranks = [{} for _ in range(RECEIVERS)]
    for p, lst in enumerate(prefs):
        for t in lst:
            ranks[t][p] = draw.random()
    return (prefs, ranks, rng.random((ROWS, COLS)), rng.random(TABLE),
            rng.integers(0, TABLE, READS))


def _deferred_acceptance(prefs, ranks) -> int:
    pointer = [0] * len(prefs)
    heaps = [[] for _ in ranks]
    queue = deque(range(len(prefs)))
    while queue:
        p = queue.popleft()
        while pointer[p] < len(prefs[p]):
            t = prefs[p][pointer[p]]
            pointer[p] += 1
            rank = ranks[t][p]
            heap = heaps[t]
            if len(heap) < CAPACITY:
                heapq.heappush(heap, (-rank, p))
                break
            if rank < -heap[0][0]:
                queue.append(heapq.heapreplace(heap, (-rank, p))[1])
                break
    return sum(len(h) for h in heaps)


def _select(values) -> int:
    rows, cols = values.shape
    row = np.repeat(np.arange(rows), cols)
    col = np.tile(np.arange(cols), rows)
    order = np.lexsort((col, -values.ravel(), row))
    keep = col < TOP
    picked = col[order][keep]
    resort = np.argsort(row[keep] * np.int64(cols) + picked, kind="stable")
    lists = [chunk.tolist() for chunk in
             np.split(picked[resort], np.arange(TOP, rows * TOP, TOP))]
    return len(lists)


def kernel() -> float:
    prefs, ranks, values, table, reads = _inputs()
    return (_deferred_acceptance(prefs, ranks) + _select(values)
            + float(table[reads].sum()))


def timing() -> float:
    """Wall seconds of ``CALLS`` kernel calls.

    The garbage a campaign leaves is collected first, and the collector is
    off while the kernel runs, so that its time does not depend on how many
    objects the campaign before it left alive.
    """
    _inputs()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALLS):
            kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()
