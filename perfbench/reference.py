"""A fixed reference computation that calibrates host speed.

Run times on a shared VM drift by ±20% over tens of seconds, on every core at
once and in CPU time as well as wall time (see ``NOTES.md``).  ``worker.py``
runs :data:`EVENTS` reference events in slices between its ``advance`` steps,
so the reference shares the workload's time window.  The gated
``wall_per_ref`` divides the workload's wall time by the reference's, and the
gated ``setup_s`` scales the measured set-up time to a host on which the
reference takes :data:`NOMINAL_S`; both cancel most of that drift.

The reference is a miniature discrete-event simulation -- a heap of tuples,
``__slots__`` objects, bound-method calls and modulo arithmetic -- so that it
slows the way the simulator does.  It imports nothing from ``src/``: a
change to the program cannot move it.  Do not change it, or every recorded
``wall_per_ref`` changes with it.
"""

from __future__ import annotations

import heapq
import time

NODES = 512
FANOUT = 8
SEEDS = 2000
HOPS = 200
#: Reference events per workload repeat (0.17-0.4 s on a 2-core x86 VM,
#: depending on how busy its host is).
EVENTS = 300_000
#: Reference wall time of a nominal host; ``setup_s`` is scaled to it.
NOMINAL_S = 0.25


class _Node:
    __slots__ = ("peers", "received")

    def __init__(self) -> None:
        self.peers: list = []
        self.received = 0

    def receive(self, queue: list, now: float, seq: int, hops: int) -> None:
        self.received += 1
        if hops > 0:
            peer = self.peers[(seq + hops) % FANOUT]
            heapq.heappush(queue, (now + 0.001 * (1 + seq % 7), seq, peer, hops - 1))


class Reference:
    """The reference simulation, run in slices; ``elapsed_s`` sums their time."""

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(NODES)]
        for index, node in enumerate(nodes):
            node.peers = [nodes[(index * 31 + k) % NODES] for k in range(FANOUT)]
        # SEEDS * (HOPS + 1) events are available, more than EVENTS.
        self._queue = [(0.0, index, nodes[index % NODES], HOPS) for index in range(SEEDS)]
        heapq.heapify(self._queue)
        self._seq = SEEDS
        self.elapsed_s = 0.0

    def run(self, events: int) -> None:
        queue = self._queue
        seq = self._seq
        start = time.perf_counter()
        for _ in range(events):
            now, _order, node, hops = heapq.heappop(queue)
            seq += 1
            node.receive(queue, now, seq, hops)
        self.elapsed_s += time.perf_counter() - start
        self._seq = seq
