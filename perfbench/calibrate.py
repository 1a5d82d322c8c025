"""Machine-speed calibration kernel.

The host this ladder runs on is shared: its speed changes by tens of
percent from one second to the next, and the simulator and any other
pure-Python work slow down together.  Every timed stretch is therefore
short (a slice of at most :data:`SLICE_EVENTS` simulator events) and
bracketed by runs of :func:`kernel`, a fixed discrete-event loop
written here — it shares no code with the simulator, so no change under
``src/`` can move it — and reported as

    wall * REFERENCE_S / mean(kernel before, kernel after)

i.e. in seconds of a host that runs the kernel in ``REFERENCE_S``.
Raw wall time is still reported by the traced run.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Kernel seconds of the host the ladder was calibrated on (2-vCPU
#: x86-64 VM, CPython 3.11), which fixes the scale of every time metric.
REFERENCE_S = 0.05

#: Simulator events per timed slice: about 0.15 s on the reference host,
#: short enough that host speed rarely changes within a slice.
SLICE_EVENTS = 25_000


class _Timer:
    __slots__ = ("due", "left", "acc")

    def __init__(self, due: float, left: int) -> None:
        self.due = due
        self.left = left
        self.acc = 0.0

    def fire(self, loop: "_Loop") -> None:
        self.acc += self.due * 0.5
        if self.left:
            loop.post(self.due + 1e-6 * (self.left % 7 + 1), _Timer(self.due, self.left - 1))


class _Loop:
    def __init__(self) -> None:
        self.heap: list = []
        self.seq = 0
        self.recent: dict = {}

    def post(self, due: float, timer: _Timer) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (due, self.seq, timer))

    def run(self) -> int:
        heap, pop, recent = self.heap, heapq.heappop, self.recent
        fired = 0
        while heap:
            due, _, timer = pop(heap)
            timer.due = due
            timer.fire(self)
            recent[fired & 255] = timer
            fired += 1
        return fired


#: Timer chains and chain length: about 0.05 s on the reference host.
_CHAINS = 16
_LENGTH = 2000


def kernel(repeats: int = 1) -> float:
    """Mean seconds of one fixed event loop now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            loop = _Loop()
            for i in range(_CHAINS):
                loop.post(i * 1e-7, _Timer(0.0, _LENGTH))
            loop.run()
        return (time.perf_counter() - start) / repeats
    finally:
        if enabled:
            gc.enable()
