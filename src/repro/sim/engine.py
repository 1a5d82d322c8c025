"""Discrete-event simulation kernel.

Two interchangeable schedulers live behind one :class:`Simulator` API:

* ``"calendar"`` (the default): a bucketed **calendar queue** in the
  style of Brown's classic structure, adapted to the near-uniform event
  horizons simulations produce (link deliveries at ``now + tx + prop``,
  RTO soft deadlines, ticker periods).  Events hash into day buckets by
  ``int(time / width)``; each pending bucket's index sits in a small
  min-heap of *bucket indices*, and the run loop drains one bucket at a
  time — sort once, then walk a cursor down the sorted entries in
  ``(time, sequence)`` order with no per-event heap traffic at all.
  Inserts are O(1) amortised: an append, plus one integer heap push the
  first time a bucket comes into existence.  The bucket width adapts to
  the observed events-per-bucket occupancy (see
  :meth:`Simulator._maybe_resize`), so sparse far-future outliers widen
  the calendar and dense bursts narrow it.
* ``"heap"``: the PR 4 binary heap of ``(time, sequence, ...)`` entries
  (the ns-2 scheduler), retained as the differential oracle.

Both produce the exact same event order: the monotonically increasing
sequence number makes ties deterministic — two events scheduled for the
same instant fire in scheduling order — and the calendar's bucket
partition is monotone in time, so the kernel-matrix differential suite
proves byte-identical traces.  Select with the ``REPRO_EVENT_QUEUE``
environment variable, :func:`set_default_event_queue`, the
:func:`event_queue` context manager, or per instance via the
constructor — exactly the ``REPRO_LINK_MODEL``/``REPRO_TIMER_MODEL``
pattern.

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

import bisect
import heapq
import math
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.kernels import env_default
from repro.sim.packet_core import default_packet_core

__all__ = [
    "EventHandle",
    "Simulator",
    "EVENT_QUEUES",
    "default_event_queue",
    "set_default_event_queue",
    "event_queue",
    "handle_pool_size",
    "handle_pool_limit",
    "set_handle_pool_limit",
]

_heappush = heapq.heappush
_heappop = heapq.heappop
_insort = bisect.insort
_isfinite = math.isfinite
_INF = float("inf")

#: The calendar-queue fast kernel and the binary-heap reference oracle.
EVENT_QUEUES = ("calendar", "heap")

_default_event_queue = env_default("REPRO_EVENT_QUEUE")


def default_event_queue() -> str:
    """The scheduler new simulators use when none is passed explicitly."""
    return _default_event_queue


def set_default_event_queue(impl: str) -> None:
    """Set the process-wide default event-queue implementation."""
    if impl not in EVENT_QUEUES:
        raise ValueError(
            f"unknown event queue {impl!r}; choose from {EVENT_QUEUES}"
        )
    global _default_event_queue
    _default_event_queue = impl


@contextmanager
def event_queue(impl: str) -> Iterator[None]:
    """Temporarily switch the default scheduler (differential tests)."""
    previous = _default_event_queue
    set_default_event_queue(impl)
    try:
        yield
    finally:
        set_default_event_queue(previous)


#: LIFO free list of spent handles, shared by every simulator in the
#: process (simulations are single-threaded; sweeps parallelise across
#: worker *processes*).
_free_list: List["EventHandle"] = []
#: Free-list cap: deeper than any realistic heap's churn, small enough
#: that a burst does not pin memory forever.
_MAX_POOL = 4096

#: Calendar-queue tuning.  The initial day width suits the
#: microsecond-scale horizons datacenter simulations produce; it adapts
#: within one resize window regardless.  Resizing aims for
#: ``_TARGET_OCCUPANCY`` live events per drained bucket and only acts
#: outside the [lo, hi] comfort band, after a full observation window.
#: The target sits on the empirically broad throughput plateau
#: (10-20 events per bucket on the dispatch microbench): low enough
#: that the C ``insort`` a same-bucket reschedule pays stays cheap,
#: high enough that per-bucket overhead (index-heap pop, dict delete,
#: prefix del) amortises to noise.
_INITIAL_WIDTH = 1e-6
_TARGET_OCCUPANCY = 16.0
_OCCUPANCY_LO = 4.0
_OCCUPANCY_HI = 32.0
_RESIZE_WINDOW_BUCKETS = 64
_RESIZE_WINDOW_EVENTS = 4096
#: Rebucketing costs O(pending), so tiny pending sets resize nearly
#: for free — and need to: an ACK-clocked simulation holding two
#: pending events (the next tick and a far RTO deadline) drains one
#: near-empty bucket per event until the calendar widens enough to
#: colocate consecutive ticks.  Only a literally-empty calendar has
#: nothing to learn a width from.
_MIN_PENDING_FOR_RESIZE = 2
_MAX_RESIZE_STEP = 8.0


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

    def __init__(
        self,
        event_queue: Optional[str] = None,
        packet_core: Optional[str] = None,
    ) -> None:
        if event_queue is None:
            event_queue = _default_event_queue
        if event_queue not in EVENT_QUEUES:
            raise ValueError(
                f"unknown event queue {event_queue!r}; "
                f"choose from {EVENT_QUEUES}"
            )
        if packet_core is None:
            packet_core = default_packet_core()
        self.event_queue_impl = event_queue
        self.packet_core_impl = packet_core
        self._flat = packet_core == "flat"
        self._calendar = event_queue == "calendar"
        self._now = 0.0
        #: Plain int tie-break counter (an ``itertools.count`` costs a
        #: C call per event; ``+= 1`` on an int is cheaper and rewinds
        #: trivially on :meth:`reset`).  Doubles as the count of every
        #: scheduler push ever made (see :attr:`events_scheduled`).
        self._sequence = 0
        self._events_processed = 0
        self._running = False
        self._stop_requested = False
        # Heap scheduler state (the oracle).
        self._heap: List[Tuple] = []
        # Calendar scheduler state.  Buckets are keyed by day index
        # ``time * _inv_width // 1.0`` — float floor-division, which
        # beats an ``int()`` truncation by ~40% per schedule and floors
        # identically for the non-negative times the guard admits — and
        # exist exactly while non-empty:
        # creating a bucket pushes its index onto ``_bucket_heap``,
        # draining it empty deletes both.
        self._buckets: Dict[float, List[Tuple]] = {}
        self._bucket_heap: List[float] = []
        self._width = _INITIAL_WIDTH
        self._inv_width = 1.0 / _INITIAL_WIDTH
        self._drained_events = 0
        self._drained_buckets = 0

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
        """Scheduler entries outstanding, including cancelled ones.

        Exact between :meth:`run` calls; a callback reading it *during*
        a calendar run may also count the already-drained prefix of the
        bucket currently being walked.
        """
        if self._calendar:
            return sum(map(len, self._buckets.values()))
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
        if self._calendar:
            idx = time * self._inv_width // 1.0
            buckets = self._buckets
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [(time, seq, handle, None)]
                _heappush(self._bucket_heap, idx)
            else:
                bucket.append((time, seq, handle, None))
        else:
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
        if self._calendar:
            idx = time * self._inv_width // 1.0
            buckets = self._buckets
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [(time, seq, callback, args)]
                _heappush(self._bucket_heap, idx)
            else:
                bucket.append((time, seq, callback, args))
        else:
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
        if self._calendar:
            idx = time * self._inv_width // 1.0
            buckets = self._buckets
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [(time, seq, callback, args)]
                _heappush(self._bucket_heap, idx)
            else:
                bucket.append((time, seq, callback, args))
        else:
            _heappush(self._heap, (time, seq, callback, args))

    def post_at_calendar(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """:meth:`post_at` pre-specialised for the flat calendar kernels.

        Valid only when the simulator was built with the flat packet
        core AND the calendar event queue (the defaults): the per-call
        ``_flat``/``_calendar`` dispatch is constant for a simulator's
        lifetime, so hot callers — the rolling link delivery posts one
        event per packet per hop — bind this variant once instead of
        re-answering the same two questions per packet.
        """
        if not (self._now <= time < _INF):
            self._raise_bad_time(time)
        seq = self._sequence
        self._sequence = seq + 1
        idx = time * self._inv_width // 1.0
        buckets = self._buckets
        bucket = buckets.get(idx)
        if bucket is None:
            buckets[idx] = [(time, seq, callback, args)]
            _heappush(self._bucket_heap, idx)
        else:
            bucket.append((time, seq, callback, args))

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
            if self._calendar:
                self._run_calendar(untilf, budget)
            else:
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
        """The PR 4 binary-heap loop, extended to flat 4-tuple entries."""
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

    def _run_calendar(self, until: float, budget: int) -> None:
        """Bucket-at-a-time calendar drain.

        The current bucket is sorted once, then a cursor walks the
        entries in ``(time, seq)`` order — O(1) each, no heap traffic.
        A callback that schedules back into the bucket being drained is
        detected by the length change and merged by re-sorting the
        (still nearly sorted, so cheap) tail past the cursor.
        """
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        getrefcount = sys.getrefcount
        pool = _free_list
        while bucket_heap and budget and not self._stop_requested:
            idx = bucket_heap[0]
            bucket = buckets[idx]
            if not bucket:
                _heappop(bucket_heap)
                del buckets[idx]
                continue
            # Entries in this bucket satisfy int(t * inv_width) == idx,
            # hence t * inv_width < idx + 1.  If until * inv_width >=
            # idx + 1 then (by monotonicity of the one float multiply)
            # every entry here has t <= until and the per-event bound
            # check can be skipped for the whole bucket; `until` is
            # +inf when the caller gave no bound, eliding naturally.
            check_until = until * self._inv_width < idx + 1
            bucket.sort()
            i = 0
            n = len(bucket)
            beyond_until = False
            while i < n and budget and not self._stop_requested:
                # One UNPACK_SEQUENCE instead of three subscripts; the
                # seq field only exists for ordering, so it lands in a
                # throwaway local.  No `entry` alias survives the
                # unpack, which is what the refcount proof below needs.
                time, _seq, callback, args = bucket[i]
                if check_until and time > until:
                    beyond_until = True
                    break
                i += 1
                if args is not None:
                    self._now = time
                    self._events_processed += 1
                    budget -= 1
                    callback(*args)
                    if len(bucket) != n:
                        # New arrivals landed in the bucket being
                        # drained; restore order past the cursor.  The
                        # overwhelmingly common case is one append (one
                        # self-reschedule per callback): a C bisect
                        # insert into the sorted tail, not a tail copy
                        # and re-sort.
                        if len(bucket) == n + 1:
                            _insort(bucket, bucket.pop(), i)
                        else:
                            rest = bucket[i:]
                            rest.sort()
                            bucket[i:] = rest
                        n = len(bucket)
                    continue
                handle = callback
                # Clear the drained slot (killing the entry tuple) and
                # the aliasing local so the refcount proof below sees
                # only the kernel's `handle` reference.
                bucket[i - 1] = None
                callback = None
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
                if getrefcount(handle) == 2 and len(pool) < _MAX_POOL:
                    handle.callback = None
                    handle.args = ()
                    pool.append(handle)
                if len(bucket) != n:
                    if len(bucket) == n + 1:
                        _insort(bucket, bucket.pop(), i)
                    else:
                        rest = bucket[i:]
                        rest.sort()
                        bucket[i:] = rest
                    n = len(bucket)
            # Remove the drained prefix (cleared slots and fired flat
            # records).  Safe after a mid-drain reset() too: reset
            # cleared this very list in place, so the del is a no-op.
            del bucket[:i]
            self._drained_events += i
            if not bucket and bucket_heap and bucket_heap[0] == idx:
                _heappop(bucket_heap)
                # A callback may have reset() the simulator, replacing
                # the bucket dict; only delete what is still there.
                if buckets.get(idx) is bucket:
                    del buckets[idx]
                self._drained_buckets += 1
                if (
                    self._drained_buckets >= _RESIZE_WINDOW_BUCKETS
                    or self._drained_events >= _RESIZE_WINDOW_EVENTS
                ):
                    self._maybe_resize()
                    # A resize rebuilds the bucket dict and index heap;
                    # re-bind the loop's locals to the live structures.
                    buckets = self._buckets
                    bucket_heap = self._bucket_heap
            if beyond_until:
                break

    def _maybe_resize(self) -> None:
        """Adapt the bucket width to the observed drain occupancy.

        Called between buckets, never mid-drain.  Far-future outliers
        leave a trail of near-empty buckets (occupancy below the band's
        floor) and widen the calendar; bursts that pile hundreds of
        events into one day narrow it.  The step is clamped so one noisy
        window cannot swing the width by more than ``_MAX_RESIZE_STEP``.
        """
        events = self._drained_events
        drained = self._drained_buckets
        self._drained_events = 0
        self._drained_buckets = 0
        if drained == 0:
            return
        occupancy = events / drained
        if _OCCUPANCY_LO <= occupancy <= _OCCUPANCY_HI:
            return
        pending = sum(map(len, self._buckets.values()))
        if pending < _MIN_PENDING_FOR_RESIZE:
            return
        # Occupancy scales with width, so retargeting means scaling the
        # width by target/observed: sparse buckets (low occupancy) widen
        # the calendar, overfull ones narrow it.
        factor = _TARGET_OCCUPANCY / occupancy
        if factor > _MAX_RESIZE_STEP:
            factor = _MAX_RESIZE_STEP
        elif factor < 1.0 / _MAX_RESIZE_STEP:
            factor = 1.0 / _MAX_RESIZE_STEP
        new_width = self._width * factor
        if not (1e-12 <= new_width <= 1e6):
            return
        self._width = new_width
        self._inv_width = 1.0 / new_width
        inv_width = self._inv_width
        rebucketed: Dict[float, List[Tuple]] = {}
        for bucket in self._buckets.values():
            for entry in bucket:
                idx = entry[0] * inv_width // 1.0
                target = rebucketed.get(idx)
                if target is None:
                    rebucketed[idx] = [entry]
                else:
                    target.append(entry)
        self._buckets = rebucketed
        heap = sorted(rebucketed)
        self._bucket_heap = heap  # already sorted == valid min-heap

    def _next_pending_time(self) -> Optional[float]:
        """Timestamp of the earliest live event (pruning cancelled heads)."""
        getrefcount = sys.getrefcount
        pool = _free_list
        if not self._calendar:
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
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        while bucket_heap:
            idx = bucket_heap[0]
            bucket = buckets.get(idx)
            if not bucket:
                _heappop(bucket_heap)
                buckets.pop(idx, None)
                continue
            bucket.sort()
            while bucket:
                entry = bucket[0]
                if entry[3] is not None:
                    return entry[0]
                handle = entry[2]
                if not handle.cancelled:
                    return entry[0]
                del bucket[0]
                entry = None
                if getrefcount(handle) == 2 and len(pool) < _MAX_POOL:
                    handle.callback = None  # type: ignore[assignment]
                    handle.args = ()
                    pool.append(handle)
            _heappop(bucket_heap)
            del buckets[idx]
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
        The calendar width rewinds to its initial value for the same
        reason (it never affects event order, but replay state should
        not depend on history).
        """
        self._heap.clear()
        # Clear bucket lists in place: a reset() issued from inside a
        # running callback must empty the list the drain loop holds a
        # local reference to, exactly like the heap's in-place clear.
        for bucket in self._buckets.values():
            bucket.clear()
        self._buckets = {}
        self._bucket_heap.clear()
        self._width = _INITIAL_WIDTH
        self._inv_width = 1.0 / _INITIAL_WIDTH
        self._drained_events = 0
        self._drained_buckets = 0
        self._now = 0.0
        self._events_processed = 0
        self._sequence = 0
