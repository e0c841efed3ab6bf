"""A fixed reference kernel that measures how fast the host is right now.

On a shared machine the host's speed drifts by tens of percent over
minutes, far more than the changes the benchmark must resolve.  The
timed pass runs this kernel before and after every repetition of a
workload and rescales the repetition's host time to *reference seconds*:
seconds on a host where one kernel run takes ``REFERENCE_S``.  Drift
moves the kernel and the workload alike and cancels; a change to the
program moves only the workload, because the kernel is the benchmark's
own code and uses nothing from the program.

The kernel does the same mix of work as the simulator, in pure Python:
a miniature discrete-event loop (a heap of timestamped events, generator
processes resumed with ``send``, dict updates), plus allocating a ring
of small objects and walking it, so that it also feels the cache and
allocator pressure of the simulator's larger working set.
"""

from __future__ import annotations

import gc
import heapq
import time

#: the kernel's host time on the reference host, by definition
REFERENCE_S = 0.1

_EVENTS = 15_000
_PROCESSES = 64
_RING = 40_000
_WALK = 80_000


class _Event:
    __slots__ = ("time", "seq", "target")

    def __init__(self, time: float, seq: int, target: int):
        self.time = time
        self.seq = seq
        self.target = target

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _process(index: int):
    busy = 0.0
    while True:
        busy += yield index


class _Node:
    __slots__ = ("next", "value")


def _ring_walk() -> int:
    """Allocate a ring of nodes in a fixed scrambled order and walk it."""
    nodes = [_Node() for _ in range(_RING)]
    stride = 7919  # prime, coprime with the ring size: one full cycle
    for i, node in enumerate(nodes):
        node.next = nodes[(i + stride) % _RING]
        node.value = i
    total = 0
    node = nodes[0]
    for _ in range(_WALK):
        node = node.next
        total += node.value
    return total


def _event_loop() -> int:
    processes = [_process(i) for i in range(_PROCESSES)]
    for proc in processes:
        next(proc)
    heap = [_Event(float(i % 97), i, i % _PROCESSES) for i in range(256)]
    heapq.heapify(heap)
    visits = {}
    seq = len(heap)
    for _ in range(_EVENTS):
        event = heapq.heappop(heap)
        processes[event.target].send(event.time)
        visits[event.target] = visits.get(event.target, 0) + 1
        seq += 1
        heapq.heappush(heap, _Event(event.time + (seq % 13) * 0.5, seq,
                                    (event.target * 7 + seq) % _PROCESSES))
    return sum(visits.values())


def kernel() -> int:
    """One fixed run of the reference work; returns a checksum."""
    return _event_loop() + _ring_walk()


def probe() -> float:
    """Host seconds one kernel run takes now."""
    gc.collect()
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
