"""Discrete-event simulation kernel.

One scheduler: a binary heap of ``(time, sequence, ...)`` entries, the
ns-2 design.  A monotonically increasing sequence number breaks ties,
so two events scheduled for the same instant fire in scheduling order
and every run of the same program replays the same event order.

Scheduler entries are uniform 4-tuples.  The first two fields are
always ``(time, sequence)`` — the total order; the unique sequence
number guarantees comparisons never reach the mixed tail fields:

* cancellable events: ``(time, seq, handle, None)`` — the
  :class:`EventHandle` carries the callback and the cancelled flag;
* flat fire-and-forget events: ``(time, seq, callback, args)`` — the
  tuple *is* the event (``args`` is a tuple, never ``None``, so the
  fourth field discriminates the two shapes).

Cancellation is O(1) lazy deletion: :meth:`EventHandle.cancel` flags the
entry and the loop skips it when popped (the standard heapq idiom).
Retransmission timers cancel and re-arm constantly, so this matters.

Flat event records (``post``)
-----------------------------

Most events never cancel: link deliveries, probe samples, application
ticks.  :meth:`Simulator.post` / :meth:`Simulator.post_at` schedule
such fire-and-forget events; under the flat packet core
(``REPRO_PACKET_CORE=flat``, the default — see
:mod:`repro.sim.packet_core`) they are stored as the bare
``(time, seq, callback, args)`` records above: no :class:`EventHandle`,
no free-list traffic, no refcount bookkeeping.  Under the ``object``
oracle core, ``post`` delegates to :meth:`schedule_at` and discards the
handle — byte-for-byte the PR 4 behaviour.  Cancellable events
(:meth:`schedule` / :meth:`schedule_at`) always return a real
:class:`EventHandle` under every core.

Handle pooling
--------------

Every cancellable event costs one :class:`EventHandle` allocation; a
long sweep schedules tens of millions.  Spent handles therefore go back
on a process-wide free list (mirroring
:meth:`repro.sim.packet.Packet.acquire` and ``recycle``) and
:meth:`Simulator.schedule_at` reuses them instead of allocating.
Reclamation is *safe by construction*: after a handle fires or its
cancelled entry is popped, the loop recycles it only when
``sys.getrefcount`` proves the kernel holds the sole remaining
reference.  A handle the caller kept (a pending retransmission timer, a
test asserting on ``cancelled``) is never pooled, so the documented
"``cancel`` after the event fired is a no-op" contract survives pooling
verbatim — a retained handle can never be resurrected under a new event.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.packet_core import default_packet_core

__all__ = [
    "EventHandle",
    "Simulator",
    "handle_pool_size",
    "handle_pool_limit",
    "set_handle_pool_limit",
]

_heappush = heapq.heappush
_heappop = heapq.heappop
_isfinite = math.isfinite
_INF = float("inf")

#: LIFO free list of spent handles, shared by every simulator in the
#: process (simulations are single-threaded; sweeps parallelise across
#: worker *processes*).
_free_list: List["EventHandle"] = []
#: Free-list cap: deeper than any realistic heap's churn, small enough
#: that a burst does not pin memory forever.
_MAX_POOL = 4096


def handle_pool_size() -> int:
    """Handles currently parked on the free list (tests/benchmarks)."""
    return len(_free_list)


def handle_pool_limit() -> int:
    """Current free-list capacity."""
    return _MAX_POOL


def set_handle_pool_limit(limit: int) -> None:
    """Resize the free-list cap (0 disables pooling); trims any excess.

    Exists for the ``repro.perf`` pool-ablation benchmark and for tests;
    simulations never need to touch it.
    """
    if limit < 0:
        raise ValueError(f"pool limit must be >= 0, got {limit}")
    global _MAX_POOL
    _MAX_POOL = limit
    del _free_list[limit:]


class EventHandle:
    """Ticket for a scheduled event; lets the owner cancel it."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(
        self, time: float, callback: Callable[..., None], args: Tuple
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.9f}, {state})"

    @classmethod
    def acquire(
        cls, time: float, callback: Callable[..., None], args: Tuple
    ) -> "EventHandle":
        """A pool-backed handle, field-identical to a fresh one.

        :meth:`Simulator.schedule_at` inlines this logic on its hot path;
        the classmethod exists for benchmarks and any out-of-kernel user.
        """
        if _free_list:
            handle = _free_list.pop()
            handle.time = time
            handle.callback = callback
            handle.args = args
            handle.cancelled = False
            return handle
        return cls(time, callback, args)

    def recycle(self) -> None:
        """Return a spent handle to the free list.

        Callers must guarantee no other reference to the handle exists;
        the kernel itself proves that with ``sys.getrefcount`` before
        recycling (see :meth:`Simulator.run`).
        """
        if len(_free_list) < _MAX_POOL:
            # Drop callback/args so a parked handle pins nothing.
            self.callback = None  # type: ignore[assignment]
            self.args = ()
            _free_list.append(self)


class Simulator:
    """Deterministic discrete-event scheduler with a simulated clock."""

    def __init__(self, packet_core: Optional[str] = None) -> None:
        if packet_core is None:
            packet_core = default_packet_core()
        self.packet_core_impl = packet_core
        self._flat = packet_core == "flat"
        self._now = 0.0
        #: Plain int tie-break counter (an ``itertools.count`` costs a
        #: C call per event; ``+= 1`` on an int is cheaper and rewinds
        #: trivially on :meth:`reset`).  Doubles as the count of every
        #: scheduler push ever made (see :attr:`events_scheduled`).
        self._sequence = 0
        self._events_processed = 0
        self._running = False
        self._stop_requested = False
        self._heap: List[Tuple] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (skipped cancellations excluded)."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Total scheduler pushes ever made — the churn observable the
        timer/link benchmarks report alongside events processed."""
        return self._sequence

    @property
    def pending_events(self) -> int:
        """Scheduler entries outstanding, including cancelled ones."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        # NaN and +inf delays fall through to schedule_at's time guard
        # (NaN compares false against everything, so the check above
        # cannot catch it).
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        The returned :class:`EventHandle` supports :meth:`~EventHandle.cancel`
        under every kernel configuration; events that will never be
        cancelled should prefer :meth:`post_at`.
        """
        if not (self._now <= time < _INF):
            # One chained comparison on the hot path: past times, NaN
            # and +/-inf all fail it and fall to the cold classifier.
            self._raise_bad_time(time)
        if _free_list:
            # Inlined EventHandle.acquire: this is one of the two hottest
            # call sites in the simulator.
            handle = _free_list.pop()
            handle.time = time
            handle.callback = callback
            handle.args = args
            handle.cancelled = False
        else:
            handle = EventHandle(time, callback, args)
        seq = self._sequence
        self._sequence = seq + 1
        _heappush(self._heap, (time, seq, handle, None))
        return handle

    def post(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        if not self._flat:
            # Object oracle core: the exact schedule_at path (one pooled
            # handle, immediately unreferenced), so both cores replay
            # the same allocator and ordering behaviour.
            self.schedule_at(time, callback, *args)
            return
        if not (time < _INF):
            # delay >= 0 guarantees time >= now; only NaN/+inf remain.
            self._raise_bad_time(time)
        seq = self._sequence
        self._sequence = seq + 1
        _heappush(self._heap, (time, seq, callback, args))

    def post_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable.

        Under the flat packet core the event is stored as a bare
        ``(time, seq, callback, args)`` record; under the ``object``
        oracle core it takes the exact :meth:`schedule_at` path.
        """
        if not self._flat:
            self.schedule_at(time, callback, *args)
            return
        if not (self._now <= time < _INF):
            self._raise_bad_time(time)
        seq = self._sequence
        self._sequence = seq + 1
        _heappush(self._heap, (time, seq, callback, args))

    def _raise_bad_time(self, time: float) -> None:
        """Cold path: classify a rejected schedule time."""
        if not _isfinite(time):
            raise ValueError(f"cannot schedule at a non-finite time: t={time}")
        raise ValueError(
            f"cannot schedule into the past: t={time} < now={self._now}"
        )

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Stops when the queue is empty, when the next event lies beyond
        ``until`` (the clock then advances to ``until`` exactly), when a
        callback calls :meth:`stop`, or after ``max_events`` callbacks
        (a runaway guard for tests).  Re-entrant calls are rejected —
        callbacks must schedule, not run.  ``until`` must be finite: a
        NaN bound compares false everywhere and would be ignored, and an
        infinite one would leave the clock at ``inf``; pass ``None`` to
        run until the queue drains.
        """
        if until is not None and not math.isfinite(until):
            raise ValueError(f"until must be finite or None, got {until!r}")
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        self._stop_requested = False
        try:
            budget = max_events if max_events is not None else sys.maxsize
            untilf = until if until is not None else _INF
            self._run_heap(untilf, budget)
            if (
                until is not None
                and self._now < until
                and not self._stop_requested
            ):
                # Fast-forward to `until` only when nothing remains
                # before it.  If the event budget ran out with events
                # still pending at t <= until, jumping the clock ahead
                # would let the next run() pop those events and move
                # time *backwards*.
                next_time = self._next_pending_time()
                if next_time is None or next_time > until:
                    self._now = until
        finally:
            self._running = False

    def _run_heap(self, until: float, budget: int) -> None:
        """Pop and fire events in ``(time, seq)`` order within the bounds."""
        heap = self._heap
        heappop = _heappop
        getrefcount = sys.getrefcount
        pool = _free_list
        while heap and budget and not self._stop_requested:
            entry = heap[0]
            time = entry[0]
            if time > until:
                break
            heappop(heap)
            callback = entry[2]
            args = entry[3]
            if args is not None:
                # Flat fire-and-forget record: nothing to cancel or
                # recycle, the tuple itself is the event.
                self._now = time
                self._events_processed += 1
                budget -= 1
                callback(*args)
                continue
            handle = callback
            # Drop the entry tuple (heappop's return value was already
            # discarded) and the aliasing local so `handle` is the
            # kernel's only reference to an otherwise-unretained handle.
            callback = entry = None
            if handle.cancelled:
                if getrefcount(handle) == 2 and len(pool) < _MAX_POOL:
                    handle.callback = None
                    handle.args = ()
                    pool.append(handle)
                continue
            self._now = time
            self._events_processed += 1
            budget -= 1
            handle.callback(*handle.args)
            # Recycle only when the kernel provably holds the sole
            # reference (the local + getrefcount's argument): a
            # handle retained by its scheduler is left alone, so a
            # late cancel() can never touch a reused object.
            if getrefcount(handle) == 2 and len(pool) < _MAX_POOL:
                handle.callback = None
                handle.args = ()
                pool.append(handle)

    def _next_pending_time(self) -> Optional[float]:
        """Timestamp of the earliest live event (pruning cancelled heads)."""
        getrefcount = sys.getrefcount
        pool = _free_list
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3] is not None:
                return entry[0]
            handle = entry[2]
            if not handle.cancelled:
                return entry[0]
            _heappop(heap)
            entry = None
            if getrefcount(handle) == 2 and len(pool) < _MAX_POOL:
                handle.callback = None  # type: ignore[assignment]
                handle.args = ()
                pool.append(handle)
        return None

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event.

        For workload callbacks that know the experiment is over (e.g. an
        application's last query completed) while unrelated background
        traffic would otherwise keep the event loop busy until ``until``.
        """
        self._stop_requested = True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        The tie-break sequence counter rewinds too: a reset simulator
        schedules events with the same ``(time, sequence)`` keys as a
        freshly constructed one, so an in-process replay is
        indistinguishable from a fresh process.  Pending handles are
        discarded, not pooled — their schedulers may still hold them.
        """
        # Clear in place: a reset() issued from inside a running
        # callback must empty the list the run loop holds a local
        # reference to.
        self._heap.clear()
        self._now = 0.0
        self._events_processed = 0
        self._sequence = 0
