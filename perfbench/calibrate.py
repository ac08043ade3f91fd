"""A fixed pure-Python kernel that measures how fast the host runs right now.

The host is a shared virtual machine: a core slows down by up to 2x while a
neighbour is busy on it, in bursts of seconds and in regimes of minutes.
A :class:`SpeedMeter` times this kernel before, during (every ``period_s``
of process CPU) and after a cell, in the process that runs the cell, and the
benchmark scales the cell's times by the resulting factor -- that is, it
reports times at the host's uncontended speed.  The kernel mimics the
simulator's instruction mix: a heap-driven event loop, attribute access on
slotted objects, dict and list traffic, method calls.  It is part of the
benchmark, not of the program, so no change to the program can move it, and
it touches no simulation state, so sampling inside a cell cannot change the
cell's results.
"""

from __future__ import annotations

import heapq
import signal
import time

#: CPU seconds of one :func:`kernel` run on an uncontended core of the host
#: the benchmark was defined on (Intel Xeon VM, 2 vCPUs, Python 3.11): the
#: fastest of 600 runs.  Only the ratio matters; this fixes the scale so that
#: reported times read as seconds on that core.
REFERENCE_S = 0.00227

#: Event-loop steps per kernel run (about 2.5 ms on the reference core).
ROUNDS = 3000


class _Node:
    __slots__ = ("ident", "queue", "sent", "heard")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.queue: list[int] = []
        self.sent = 0
        self.heard: dict[int, int] = {}

    def tick(self, now: int) -> int:
        if len(self.queue) < 8:
            self.queue.append(now)
        self.sent += 1
        return self.queue.pop(0) if now % 3 == 0 else now


def kernel(rounds: int = ROUNDS) -> int:
    """Deterministic work; returns a checksum so nothing is optimised away."""
    nodes = [_Node(i) for i in range(64)]
    heap = [(i, i) for i in range(64)]
    heapq.heapify(heap)
    checksum = 0
    for _ in range(rounds):
        now, ident = heapq.heappop(heap)
        node = nodes[ident]
        value = node.tick(now)
        peer = (ident * 7 + now) % 64
        nodes[peer].heard[ident] = nodes[peer].heard.get(ident, 0) + 1
        checksum = (checksum + value * 31 + peer) & 0xFFFFFFFF
        heapq.heappush(heap, (now + 1 + (value & 3), ident))
    return checksum


class SpeedMeter:
    """Reference-speed factor of an interval of this process's CPU time.

    :meth:`start` and :meth:`stop` each time one kernel run; in between, a
    ``SIGPROF`` interval timer times one more every ``period_s`` of process
    CPU (``period_s=0`` samples only at the ends).  :meth:`stop` returns the
    CPU-weighted mean of ``REFERENCE_S / s`` over the stretches between
    consecutive samples, ``s`` being the mean of the stretch's two samples.
    :attr:`inside_cpu_s` / :attr:`inside_wall_s` are what the samples taken
    between start and stop cost, for the caller to subtract; :attr:`cpu_s` /
    :attr:`wall_s` what all of them cost.
    """

    def __init__(self, period_s: float = 0.0) -> None:
        self.period_s = period_s
        #: (process clock before, process clock after) of every sample.
        self.points: list[tuple[float, float]] = []
        self.inside_cpu_s = self.inside_wall_s = 0.0
        self.cpu_s = self.wall_s = 0.0

    def _take(self) -> None:
        cpu0, wall0 = time.thread_time(), time.perf_counter()
        kernel()
        cpu1, wall1 = time.thread_time(), time.perf_counter()
        self.points.append((cpu0, cpu1))
        self.cpu_s += cpu1 - cpu0
        self.wall_s += wall1 - wall0

    def _on_timer(self, signum: int, frame: object) -> None:
        cpu, wall = self.cpu_s, self.wall_s
        self._take()
        self.inside_cpu_s += self.cpu_s - cpu
        self.inside_wall_s += self.wall_s - wall

    def start(self) -> None:
        self.points = []
        self.inside_cpu_s = self.inside_wall_s = self.cpu_s = self.wall_s = 0.0
        self._take()
        if self.period_s > 0:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)

    def stop(self) -> float:
        if self.period_s > 0:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self._take()
        weighted = work = 0.0
        for (a0, a1), (b0, b1) in zip(self.points, self.points[1:]):
            stretch = b0 - a1
            weighted += stretch * REFERENCE_S / ((a1 - a0 + b1 - b0) / 2)
            work += stretch
        if work <= 0.0:
            first, last = self.points[0], self.points[-1]
            return REFERENCE_S / ((first[1] - first[0] + last[1] - last[0]) / 2)
        return weighted / work
