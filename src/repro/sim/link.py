"""Output interfaces: queue + transmitter + propagation channel.

An :class:`Interface` is one direction of a link as seen from its
sending node: packets handed to :meth:`Interface.send` pass through the
interface's queue discipline, are serialised at the configured bandwidth
(one packet at a time, store-and-forward), then propagate for the fixed
delay and arrive at the peer node.

The transmitter models the usual DES pattern — if idle, a dequeued
packet occupies it for ``size * 8 / bandwidth`` seconds; on completion
the next queued packet (if any) starts immediately.  Queue occupancy
therefore counts *waiting* packets only, not the one on the wire —
consistent with how ns-2's queue length (and hence DCTCP's ``K``) is
measured.

Two interchangeable implementations of that model exist:

* ``"busy-until"`` (the default): an htsim-style busy-until
  transmitter.  The interface tracks ``busy_until`` and, at admission,
  computes the packet's delivery time directly as
  ``max(now, busy_until) + tx_time + prop_delay``.  Deliveries ride one
  *rolling* event per interface: the in-flight packets sit in a FIFO
  and each delivery reschedules the event for the next one, so the heap
  sees one push per packet per hop instead of two.  The dequeue that
  the eager schedule performs at each transmission start is deferred
  and replayed — stamped with its true start time — the moment anyone
  observes the queue (see ``drain_hook`` in
  :class:`~repro.sim.queues.FifoQueue`).

  On any one interface, equivalence with the reference is exact —
  delivery times, CE bits, queue statistics and the order of that
  interface's own deliveries — because every scheduling decision lands
  at the same simulated moment the eager schedule would make it: a
  busy period's first packet schedules the rolling event during the
  very admission call that would have dequeued it eagerly, successors
  are rescheduled while earlier packets of the same chain deliver, and
  deferred dequeues replay strictly *before* the current instant — an
  eager dequeue at time ``t`` runs inside a tx-done event scheduled
  only one serialisation time earlier, which at a tied timestamp fires
  *after* arrivals and samples whose events were scheduled a
  propagation delay (or a full sample interval) before ``t``.

  Across interfaces it is not: the rolling delivery event is scheduled
  at admission, the two-event delivery at tx-done, so their ``(time,
  seq)`` keys differ.  Two deliveries due at the same instant on
  *different* interfaces (say ``leaf1->spine1`` and ``leaf2->spine1``
  both arriving at ``spine1``) may therefore fire in the other order,
  and a multi-switch run can drift apart from that tie onward (the
  dumbbell cells of the differential tests stay byte-identical; a
  small leaf-spine cell parts ways after ~140 deliveries).
* ``"two-event"``: the reference implementation with an explicit
  tx-done event between transmission and propagation.  Kept as the
  oracle the differential tests compare against, and used automatically
  for queues whose semantics act at the dequeue *instant*
  (``mark_on_dequeue`` departure marking, shared buffer pools) where
  deferral would change cross-queue or marker observation order.

Select globally with :func:`set_default_link_model` / the
``REPRO_LINK_MODEL`` environment variable, per interface via the
constructor, or temporarily with the :func:`link_model` context manager.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Optional, TYPE_CHECKING

from repro.sim.kernels import env_default
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

__all__ = [
    "Interface",
    "LINK_MODELS",
    "default_link_model",
    "set_default_link_model",
    "link_model",
]

#: The busy-until fast lane and the eager two-event reference oracle.
LINK_MODELS = ("busy-until", "two-event")

_default_model = env_default("REPRO_LINK_MODEL")


def default_link_model() -> str:
    """The model new interfaces use when none is passed explicitly."""
    return _default_model


def set_default_link_model(model: str) -> None:
    """Set the process-wide default link model."""
    if model not in LINK_MODELS:
        raise ValueError(f"unknown link model {model!r}; choose from {LINK_MODELS}")
    global _default_model
    _default_model = model


@contextmanager
def link_model(model: str):
    """Temporarily switch the default model (differential tests)."""
    previous = _default_model
    set_default_link_model(model)
    try:
        yield
    finally:
        set_default_link_model(previous)


class Interface:
    """One unidirectional sending interface of a node."""

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "prop_delay",
        "queue",
        "name",
        "peer",
        "model",
        "_transmitting",
        "_busy_until",
        "_tx_starts",
        "_in_flight",
        "_draining",
        "_peer_receive",
        "_post_at",
        "_q_plain",
        "_q_fused",
        "packets_delivered",
        "tap",
        "chaos",
    )

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: float,
        prop_delay: float,
        queue: FifoQueue,
        name: str = "",
        model: Optional[str] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be positive, got {bandwidth_bps}")
        if prop_delay < 0:
            raise ValueError(f"prop_delay must be >= 0, got {prop_delay}")
        if model is None:
            model = _default_model
        if model not in LINK_MODELS:
            raise ValueError(
                f"unknown link model {model!r}; choose from {LINK_MODELS}"
            )
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.queue = queue
        self.name = name
        self.peer: Optional["Node"] = None
        #: ``peer.receive`` pre-bound at :meth:`connect`: delivery runs
        #: once per packet per hop, and the attribute load + method bind
        #: are measurable there.
        self._peer_receive = None
        #: ``sim.post_at`` pre-bound: the rolling delivery event is
        #: (re)armed once per packet, and the attribute walk costs on
        #: the hottest lines in the tree.
        self._post_at = sim.post_at
        #: True while ``self.queue`` is an exact fast-datapath
        #: :class:`FifoQueue` — the fused send/drain bodies below may
        #: then manipulate its deque/byte-count/stats directly instead
        #: of paying a method call per packet.  Recomputed whenever the
        #: drain hook is (re)installed, i.e. on the first send and after
        #: every queue swap; subclasses (``TrackedFifoQueue``) and
        #: reference-datapath queues always take the method-call path.
        #: ``_q_fused`` additionally requires arrival marking and no
        #: shared buffer pool — the full precondition of the fused
        #: per-packet body (``mark_on_dequeue``/``pool`` are part of the
        #: queue's configuration, fixed before traffic like the queue
        #: object itself).
        self._q_plain = False
        self._q_fused = False
        self.model = model
        self._transmitting = False
        #: Busy-until state: when the transmitter frees up (-inf = never
        #: used, so a send at t=0 still counts as a strictly idle start),
        #: the FIFO of deferred transmission-start times of packets still
        #: counted as queue occupancy, and the FIFO of in-flight packets
        #: (stamped with ``deliver_at``) the rolling delivery event
        #: works through.
        self._busy_until = float("-inf")
        self._tx_starts: deque = deque()
        self._in_flight: deque = deque()
        self._draining = False
        self.packets_delivered = 0
        #: Optional observer called with (time, packet, interface) at the
        #: instant of delivery; see :class:`repro.sim.packet_log.PacketLogger`.
        self.tap = None
        #: Per-interface fault state installed by
        #: :meth:`repro.sim.chaos.ChaosSchedule.install`; ``None`` on
        #: every untargeted interface.  Installation forces this
        #: interface onto the two-event model *before traffic*, so the
        #: busy-until fast lane above never tests the hook — only the
        #: two-event bodies below carry the (cheap) ``chaos is None``
        #: branches, and a zero-fault schedule perturbs nothing at all.
        self.chaos = None

    def connect(self, peer: "Node") -> None:
        """Attach the receiving node at the far end of the channel."""
        self.peer = peer
        self._peer_receive = peer.receive

    def transmission_time(self, packet: Packet) -> float:
        """Serialisation delay of ``packet`` at this interface's rate."""
        return packet.size_bytes * 8.0 / self.bandwidth_bps

    @property
    def busy(self) -> bool:
        """True while a packet occupies the transmitter.

        At the exact instant a transmission ends the busy-until lane
        answers True, matching what the eager schedule tells callers
        whose events were scheduled before the pending tx-done fires
        (arrivals and samples always are; see the module docstring).
        """
        if self.model == "two-event":
            return self._transmitting
        self._drain()
        return self.sim.now <= self._busy_until

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; False if the queue dropped it.

        The busy-until fast lane is inlined here (it is the hottest
        function in the simulator; a per-packet method call is
        measurable).
        """
        if self.peer is None:
            raise RuntimeError(f"interface {self.name!r} is not connected")
        if self.model == "busy-until":
            queue = self.queue
            if queue.drain_hook is not self._drain:
                # Cold path: first send through this queue object (the
                # hook survives for the queue's lifetime, so this runs
                # once per queue, not once per packet).
                if (queue.mark_on_dequeue or queue.pool is not None) and (
                    not self._tx_starts
                    and not self._in_flight
                    and self.sim.now >= self._busy_until
                ):
                    # Dequeue-instant semantics (departure marking,
                    # shared buffer admission) need the exact eager
                    # schedule; fall back to it while the transmitter is
                    # idle.  Queues are configured/swapped before
                    # traffic, so the downgrade happens on the very
                    # first packet.
                    self.model = "two-event"
                    return self._send_two_event(packet)
                queue.drain_hook = self._drain
                plain = type(queue) is FifoQueue and queue._fast
                self._q_plain = plain
                self._q_fused = (
                    plain
                    and not queue.mark_on_dequeue
                    and queue.pool is None
                )
            # -------- busy-until fast lane: one event per packet ------
            # ``sim._now`` read directly: the ``now`` property costs a
            # descriptor call per packet on the hottest line in the
            # simulator (link and engine are one subsystem).
            now = self.sim._now
            starts = self._tx_starts
            if starts and starts[0] < now:
                # Deferred dequeues must replay before the marking
                # decision inside enqueue() observes the occupancy —
                # only then does it see exactly what the eager schedule
                # would.
                self._drain()
            if self._q_fused:
                # Fused enqueue: the exact fast FifoQueue.enqueue body,
                # inlined — per-packet, the method call plus its
                # re-dispatch on _fast/mark_on_dequeue/pool (all folded
                # into _q_fused above) are pure overhead.  The DCTCP
                # single-threshold rule is additionally inlined to a
                # compare; every other marker keeps its pre-bound call.
                qd = queue._queue
                stats = queue._stats
                size = packet.size_bytes
                k = queue._marker_k
                if k is not None:
                    wants_mark = len(qd) >= k
                elif queue._marker_null:
                    wants_mark = False
                else:
                    wants_mark = queue._marker_should_mark(len(qd))
                if queue._bytes + size > queue.capacity_bytes:
                    stats.dropped += 1
                    packet.recycle()
                    return False
                if wants_mark and packet.ecn_capable:
                    packet.ce = True
                    stats.marked += 1
                stats.enqueued += 1
                stats.bytes_in += size
                prev_busy = self._busy_until
                start = prev_busy if prev_busy > now else now
                # Direct sums keep the float association identical to
                # the reference schedule — (start + tx) + prop, never
                # rebased on ``now`` — so delivery times match the
                # oracle bit for bit.
                tx_end = start + size * 8.0 / self.bandwidth_bps
                self._busy_until = tx_end
                if prev_busy < now:
                    # Strictly idle transmitter: the eager schedule
                    # appends the packet and synchronously dequeues it
                    # again inside send().  Fused, the packet never
                    # touches the deque — only the counters move, by
                    # exactly the amounts the enqueue/dequeue pair
                    # would have moved them.
                    stats.dequeued += 1
                    stats.bytes_out += size
                else:
                    qd.append(packet)
                    queue._bytes += size
                    starts.append(start)
            else:
                if (queue.mark_on_dequeue or queue.pool is not None) and (
                    not starts
                    and not self._in_flight
                    and now >= self._busy_until
                ):
                    # A dequeue-instant queue swapped in mid-busy-period
                    # keeps being re-checked here and downgrades at the
                    # first idle instant, exactly like the cold path
                    # would have.
                    self.model = "two-event"
                    if queue.drain_hook is self._drain:
                        queue.drain_hook = None
                    self._q_fused = False
                    return self._send_two_event(packet)
                if not queue.enqueue(packet):
                    return False
                prev_busy = self._busy_until
                start = prev_busy if prev_busy > now else now
                tx_end = start + packet.size_bytes * 8.0 / self.bandwidth_bps
                self._busy_until = tx_end
                if prev_busy < now:
                    # Strictly idle transmitter: the eager schedule
                    # dequeues synchronously inside send(); do the same.
                    # (All earlier tx starts were < now, so the
                    # pre-drain above replayed them and this packet is
                    # the queue head.)  When prev_busy == now the eager
                    # tx-done is still pending at this instant and the
                    # dequeue stays deferred.
                    queue.dequeue(at_time=now)
                else:
                    starts.append(start)
            packet.deliver_at = tx_end + self.prop_delay
            in_flight = self._in_flight
            in_flight.append(packet)
            if len(in_flight) == 1:
                # The rolling event is (re)armed either here — during
                # the admission call, exactly when the eager schedule
                # arms a busy period's first tx-done — or in
                # _deliver_next while a predecessor delivers.
                self._post_at(packet.deliver_at, self._deliver_next)
            return True
        return self._send_two_event(packet)

    def _drain(self) -> None:
        """Replay deferred dequeues whose transmission has started.

        Strictly before ``now``: an eager dequeue at time ``t`` rides a
        tx-done event scheduled at ``t - tx_time``, which at a tied
        timestamp fires after the arrival/sample events that observe the
        queue here (their events were scheduled at least a propagation
        delay earlier).
        """
        starts = self._tx_starts
        if not starts or self._draining:
            return
        now = self.sim._now
        if starts[0] >= now:
            return
        self._draining = True
        try:
            queue = self.queue
            if (
                self._q_plain
                and not queue.mark_on_dequeue
                and queue.pool is None
            ):
                # Fused replay: the fast FifoQueue.dequeue body with the
                # per-packet method call and its dispatch checks hoisted
                # out of the loop.  ``at_time`` only matters to
                # time-stamping subclasses, which _q_plain excludes.
                qd = queue._queue
                stats = queue._stats
                while starts and starts[0] < now:
                    starts.popleft()
                    if not qd:
                        # The queue was emptied externally (reset); the
                        # deferred schedule is void.
                        starts.clear()
                        break
                    size = qd.popleft().size_bytes
                    queue._bytes -= size
                    stats.dequeued += 1
                    stats.bytes_out += size
            else:
                dequeue = queue.dequeue
                while starts and starts[0] < now:
                    start = starts.popleft()
                    if dequeue(at_time=start) is None:
                        # The queue was emptied externally (reset); the
                        # deferred schedule is void.
                        starts.clear()
                        break
        finally:
            self._draining = False

    # ------------------------------------------------------------------
    # Two-event reference oracle: tx-done + delivery per packet.
    # ------------------------------------------------------------------

    def _send_two_event(self, packet: Packet) -> bool:
        chaos = self.chaos
        if chaos is not None and not chaos.admit(packet, self.sim._now):
            # Consumed by the fault layer (link down, or a seeded loss
            # draw): recycled and counted there, exactly like a queue
            # drop from the caller's point of view.
            return False
        admitted = self.queue.enqueue(packet)
        if admitted and not self._transmitting:
            self._start_next()
        return admitted

    def _start_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        self._transmitting = True
        self.sim.post(self.transmission_time(packet), self._on_tx_done, packet)

    def _on_tx_done(self, packet: Packet) -> None:
        chaos = self.chaos
        if chaos is None:
            self.sim.post(self.prop_delay, self._deliver, packet)
        else:
            # Per-packet propagation jitter from the schedule's seeded
            # stream; the hook returns an absolute delivery instant,
            # clamped so deliveries stay FIFO (a wire with variable
            # delay still never reorders).
            self.sim.post_at(
                chaos.deliver_time_for(self.prop_delay, self.sim._now),
                self._deliver,
                packet,
            )
        self._start_next()

    # ------------------------------------------------------------------
    # Delivery (both models)
    # ------------------------------------------------------------------

    def _deliver_next(self) -> None:
        """Rolling busy-until delivery: hand over the oldest in-flight
        packet, then re-arm for the next one."""
        in_flight = self._in_flight
        packet = in_flight.popleft()
        if in_flight:
            # Re-armed while the predecessor delivers — one heap push
            # per packet, at a moment that precedes (hence orders before)
            # any event the delivery below may schedule at a tied time.
            self._post_at(in_flight[0].deliver_at, self._deliver_next)
        starts = self._tx_starts
        if starts and starts[0] < self.sim._now:
            # This packet's own deferred dequeue (and any earlier one)
            # must land before the peer sees it — its CE bits and the
            # queue statistics are final at this point.  The due check
            # here mirrors _drain's own (saving its call when nothing
            # is due, e.g. at tied timestamps).
            self._drain()
        self.packets_delivered += 1
        if self.tap is not None:
            self.tap(self.sim.now, packet, self)
        self._peer_receive(packet)

    def _deliver(self, packet: Packet) -> None:
        chaos = self.chaos
        if chaos is not None and not chaos.deliver(packet, self.sim._now):
            # The wire was cut under this packet (or an ECN-mangling
            # window rewrote it and then the link dropped): recycled and
            # counted by the hook.
            return
        self.packets_delivered += 1
        if self.tap is not None:
            self.tap(self.sim.now, packet, self)
        assert self._peer_receive is not None
        self._peer_receive(packet)

    def __repr__(self) -> str:
        return (
            f"Interface({self.name!r}, {self.bandwidth_bps/1e9:.3g} Gbps, "
            f"{self.prop_delay*1e6:.1f} us, q={self.queue.len_packets})"
        )
