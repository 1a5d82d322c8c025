"""Packet/event record core selection: flat array-of-structs vs objects.

PR 2/4 removed allocator churn from the hot path with free lists of
boxed objects (``Packet``, ``EventHandle``).  The *flat* core goes one
step further and removes the boxes themselves wherever a record is
write-once/read-once:

* **event records** — fire-and-forget events posted through
  :meth:`repro.sim.engine.Simulator.post` are stored as flat
  ``(time, seq, callback, args)`` tuples instead of ``EventHandle``
  objects, so the scheduler's fast path carries no cancellable object,
  no free-list traffic and no refcount bookkeeping per event (link
  deliveries, probe samples and application ticks — the overwhelming
  majority of all events — never cancel);
* **packet log records** — :class:`repro.sim.packet_log.PacketLogger`
  appends each delivered packet's fields into parallel ``array``/
  ``bytearray`` columns (struct-of-arrays) indexed by record number,
  instead of constructing one frozen dataclass per packet;
  :class:`FlatPacketColumns` below is that store.

The *object* core keeps the exact PR 4 behaviour — every event gets a
pooled ``EventHandle``, every log record is a ``PacketRecord`` — and is
retained as the differential oracle, selected the same way as
``REPRO_LINK_MODEL``/``REPRO_TIMER_MODEL``:

* globally via the ``REPRO_PACKET_CORE`` environment variable
  (``flat`` | ``object``, default ``flat``),
* per process with :func:`set_default_packet_core`,
* temporarily with the :func:`packet_core` context manager
  (differential tests).

Both cores are proven byte-identical — same event order, same
``events_scheduled``/``events_processed`` counters, same log records —
by ``tests/sim/test_packet_core_differential.py``.

A design note on "columns for everything": per-packet *scalar field
access* one packet at a time is not faster through ``array`` columns
than through ``__slots__`` attributes in CPython, so :class:`Packet`
itself keeps its slotted layout under both cores; the flat core applies
columns where records are appended in bulk and read back in bulk (logs,
traces) and flattens the event records the scheduler itself chases.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from typing import Iterator, List, Tuple

from repro.sim.kernels import env_default

__all__ = [
    "PACKET_CORES",
    "default_packet_core",
    "set_default_packet_core",
    "packet_core",
    "FlatPacketColumns",
]

#: The flat array-of-structs core and the boxed-object reference oracle.
PACKET_CORES = ("flat", "object")

_default_core = env_default("REPRO_PACKET_CORE")


def _validate(core: str) -> str:
    if core not in PACKET_CORES:
        raise ValueError(
            f"unknown packet core {core!r}; choose from {PACKET_CORES}"
        )
    return core


def default_packet_core() -> str:
    """The core new simulators/loggers use when none is passed."""
    return _default_core


def set_default_packet_core(core: str) -> None:
    """Set the process-wide default packet core."""
    global _default_core
    _default_core = _validate(core)


@contextmanager
def packet_core(core: str) -> Iterator[None]:
    """Temporarily switch the default core (differential tests)."""
    previous = _default_core
    set_default_packet_core(core)
    try:
        yield
    finally:
        set_default_packet_core(previous)


# Flag bits of one logged packet, packed into a single bytearray column.
FLAG_CE = 1
FLAG_ECE = 2
FLAG_RETRANSMIT = 4
FLAG_ACK = 8


class FlatPacketColumns:
    """Struct-of-arrays store for per-packet log records.

    One append writes the packet's scalar fields into parallel typed
    columns (8-byte floats/ints, one byte of flags); interface names are
    interned once and referenced by integer id.  Readers either scan the
    columns directly (:meth:`row`, :meth:`flag_counts`) or materialise
    boxed records lazily — the column store is the representation, the
    objects are a view.
    """

    __slots__ = (
        "times",
        "flow_ids",
        "seqs",
        "ack_seqs",
        "sizes",
        "flags",
        "iface_ids",
        "_iface_names",
        "_iface_intern",
    )

    def __init__(self) -> None:
        self.times = array("d")
        self.flow_ids = array("q")
        self.seqs = array("q")
        self.ack_seqs = array("q")
        self.sizes = array("q")
        self.flags = bytearray()
        self.iface_ids = array("q")
        self._iface_names: List[str] = []
        self._iface_intern: dict = {}

    def __len__(self) -> int:
        return len(self.times)

    def append(
        self,
        time: float,
        iface_name: str,
        flow_id: int,
        seq: int,
        ack_seq: int,
        size_bytes: int,
        is_ack: bool,
        ce: bool,
        ece: bool,
        retransmit: bool,
    ) -> None:
        iface_id = self._iface_intern.get(iface_name)
        if iface_id is None:
            iface_id = len(self._iface_names)
            self._iface_intern[iface_name] = iface_id
            self._iface_names.append(iface_name)
        self.times.append(time)
        self.flow_ids.append(flow_id)
        self.seqs.append(seq)
        self.ack_seqs.append(ack_seq)
        self.sizes.append(size_bytes)
        self.iface_ids.append(iface_id)
        flags = 0
        if ce:
            flags = FLAG_CE
        if ece:
            flags |= FLAG_ECE
        if retransmit:
            flags |= FLAG_RETRANSMIT
        if is_ack:
            flags |= FLAG_ACK
        self.flags.append(flags)

    def interface_name(self, record_index: int) -> str:
        return self._iface_names[self.iface_ids[record_index]]

    def row(self, i: int) -> Tuple:
        """One record's fields, in :class:`FlatPacketColumns` column
        order (time, interface, flow, seq, ack, size, ack?, ce, ece,
        retransmit)."""
        flags = self.flags[i]
        return (
            self.times[i],
            self._iface_names[self.iface_ids[i]],
            self.flow_ids[i],
            self.seqs[i],
            self.ack_seqs[i],
            self.sizes[i],
            bool(flags & FLAG_ACK),
            bool(flags & FLAG_CE),
            bool(flags & FLAG_ECE),
            bool(flags & FLAG_RETRANSMIT),
        )

    def rows(self) -> Iterator[Tuple]:
        for i in range(len(self.times)):
            yield self.row(i)

    def flag_counts(self) -> Tuple[int, int, int, int]:
        """``(data, ce, ece, retransmits)`` totals from one column scan."""
        data = ce = ece = retx = 0
        for flags in self.flags:
            if not flags & FLAG_ACK:
                data += 1
            if flags & FLAG_CE:
                ce += 1
            if flags & FLAG_ECE:
                ece += 1
            if flags & FLAG_RETRANSMIT:
                retx += 1
        return data, ce, ece, retx
