"""Calibrated benchmarks for the simulation hot path.

Micro to macro, mirroring where the wall clock actually goes:

* :func:`bench_engine` — raw event-loop dispatch (schedule + pop +
  callback), no networking at all.  The headline drives the
  fire-and-forget :meth:`~repro.sim.engine.Simulator.post` lane the
  simulator's own hot paths use; ``api="schedule"`` measures the
  handle-returning lane instead, and :func:`bench_handle_pool` isolates
  the :class:`~repro.sim.engine.EventHandle` free list's share of it;
* :func:`bench_fabric` — one PR 6 leaf-spine campaign cell end to end
  (ECMP fabric, short-flow generators, queue monitors), the macro
  workload with the deepest, most varied event mix;
* :func:`bench_datapath` — the same fabric cell under the fast
  per-packet datapath and the straight-line reference oracle
  (``REPRO_DATAPATH``), interleaved in one process;
* :func:`bench_timer_churn` — the RTO re-arm path a sender executes per
  delivered segment, under the soft-deadline model and the eager
  cancel-per-ACK oracle;
* :func:`bench_link` — a single saturated interface in a closed loop,
  run under both link models in the same process so the busy-until
  speedup is measured against the two-event reference on identical
  hardware and interpreter state;
* :func:`bench_tracked_queue` — the per-event cost of exact queue
  measurement (streaming moments vs chunked trace vs the old
  list-append design, over a no-measurement floor);
* :func:`bench_figures` — representative experiment cells end to end
  (Figure 1 oscillation, a Figures 10-12 sweep cell, an incast point),
  the macro numbers the ROADMAP's "as fast as the hardware allows"
  cares about.

:func:`run_benchmarks` bundles everything into one JSON-serialisable
payload (written to ``BENCH_PR9.json`` by the CLI) — stamped with a
``kernel`` block recording the packet-core, link, timer and datapath
implementations and pool limits the numbers were measured under —
:func:`check_regression` compares two such payloads for the CI smoke
job, and :func:`compare_payloads` renders the judgement-free per-lane
deltas behind ``repro.cli bench --compare``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.sim.engine import (
    Simulator,
    handle_pool_limit,
    handle_pool_size,
    set_handle_pool_limit,
)
from repro.sim.datapath import datapath, default_datapath
from repro.sim.link import Interface, default_link_model, link_model
from repro.sim.packet import Packet, packet_pool_size
from repro.sim.packet_core import default_packet_core
from repro.sim.queues import FifoQueue
from repro.sim.tcp.sender import TcpSender, default_timer_model, timer_model
from repro.sim.trace import TrackedFifoQueue

__all__ = [
    "bench_engine",
    "bench_link",
    "bench_packet_pool",
    "bench_timer_churn",
    "bench_tracked_queue",
    "bench_handle_pool",
    "bench_fabric",
    "bench_datapath",
    "bench_figures",
    "kernel_metadata",
    "run_benchmarks",
    "check_regression",
    "compare_payloads",
    "render_comparison",
]


def kernel_metadata() -> Dict[str, Any]:
    """The kernel configuration a payload's numbers were measured under.

    Stamped into every benchmark payload so two JSON files can be
    compared knowing whether they exercised the same implementations —
    a fast-vs-reference delta is a finding, not a regression.
    """
    from repro.sim.packet import _MAX_POOL as packet_pool_max

    return {
        "packet_core": default_packet_core(),
        "link_model": default_link_model(),
        "timer_model": default_timer_model(),
        "datapath": default_datapath(),
        "handle_pool_limit": handle_pool_limit(),
        "packet_pool_limit": packet_pool_max,
        "python": sys.version.split()[0],
    }


def bench_engine(
    n_events: int = 300_000,
    n_tickers: int = 64,
    repeats: int = 3,
    api: str = "post",
) -> Dict[str, Any]:
    """Pure event-loop throughput: self-rescheduling ticker callbacks.

    ``n_tickers`` concurrent tickers keep the pending set at a realistic
    depth (a dumbbell run holds tens of pending events, not one).  The
    default ``api="post"`` drives the fire-and-forget lane — the pattern
    link delivery, queue sampling and flow launch actually use since
    ISSUE 7 — while ``api="schedule"`` measures the handle-returning
    lane (the RTO-timer pattern, and what :func:`bench_handle_pool`
    toggles the free list under).  Best of
    ``repeats`` timed runs after one warmup, like the other benches —
    a single cold pass under-reads small (quick/CI) sizes by 20-30%.
    """
    if api not in ("post", "schedule"):
        raise ValueError(f"unknown api {api!r}; choose 'post' or 'schedule'")

    def once(budget: int) -> Dict[str, Any]:
        sim = Simulator()
        remaining = budget
        arm = sim.post if api == "post" else sim.schedule

        def tick(period: float) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                arm(period, tick, period)
            else:
                sim.stop()

        for i in range(n_tickers):
            # Irregular periods so pop order actually gets exercised.
            arm(0.0, tick, 1e-6 * (1.0 + i / n_tickers))
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        return {
            "n_events": sim.events_processed,
            "n_tickers": n_tickers,
            "api": api,
            "wall_s": elapsed,
            "events_per_sec": sim.events_processed / elapsed,
        }

    once(max(n_events // 10, n_tickers))  # warmup
    results = [once(n_events) for _ in range(max(repeats, 1))]
    return max(results, key=lambda r: r["events_per_sec"])


def bench_fabric(repeats: int = 4) -> Dict[str, Any]:
    """One leaf-spine campaign cell end to end, under the default kernel.

    The PR 6 fabric workload — ECMP hashing, per-hop queues, short-flow
    generators, 20 us queue sampling — has a very different event mix
    from the micro benches (many distinct callbacks, bursty ties at
    hop boundaries).  Events/sec here is the honest macro
    number: simulator events retired per wall second while doing real
    protocol work.

    The cell spec is pinned (no quick/full split): events/sec for this
    bench is scale-sensitive — topology construction and flow-generator
    setup don't amortize over a shorter cell — so the CI quick run and
    the committed baseline must measure the exact same cell for the
    regression gate to compare like for like.

    Best-of-``repeats`` with a warmup run: the macro lanes run long
    enough (hundreds of ms) that a single noisy-neighbour window on a
    shared vCPU can sink one repeat by 20%+, so the floor of several
    repeats is the honest machine-speed reading.
    """
    from repro.campaign.cells import run_cell
    from repro.campaign.grid import CampaignGrid

    grid = CampaignGrid(
        thresholds=((40.0,),),
        loads=(0.4,),
        fan_ins=(4,),
        scenarios=("buildup",),
        seeds=(1,),
        duration=0.01,
        warmup=0.002,
    )
    params = grid.expand()[0].params

    best: Dict[str, Any] = {}
    run_cell(dict(params, duration=params["duration"] / 4))  # warmup
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = run_cell(params)
        elapsed = time.perf_counter() - start
        events = result["events_processed"]
        if not best or elapsed < best["wall_s"]:
            best = {
                "duration": params["duration"],
                "flows_completed": result["flows_completed"],
                "events_processed": events,
                "wall_s": elapsed,
                "events_per_sec": events / elapsed,
            }
    return best


def bench_datapath(repeats: int = 4) -> Dict[str, Any]:
    """The leaf-spine fabric cell under both per-packet datapaths.

    Same pinned cell as :func:`bench_fabric`, run under the fast lane
    (memoized ECMP routes, fused forward→enqueue path, sender fast
    paths) and the straight-line reference oracle, interleaved in one
    process like :func:`bench_link` so the speedup is read off identical
    interpreter state.  The simulated traffic is byte-identical under
    both lanes (the differential tests enforce it), so events/sec is the
    honest comparison.
    """
    fast: Dict[str, Any] = {}
    reference: Dict[str, Any] = {}
    for _ in range(max(repeats, 1)):
        with datapath("reference"):
            ref_run = bench_fabric(repeats=1)
        with datapath("fast"):
            fast_run = bench_fabric(repeats=1)
        if not reference or ref_run["wall_s"] < reference["wall_s"]:
            reference = ref_run
        if not fast or fast_run["wall_s"] < fast["wall_s"]:
            fast = fast_run
    return {
        "fast": fast,
        "reference": reference,
        "speedup": (
            fast["events_per_sec"] / reference["events_per_sec"]
        ),
    }


class _Blaster:
    """Closed-loop traffic source: every delivery triggers the next send.

    Stands in for the far-end node of the benchmarked interface, keeping
    its queue at a constant depth (``window``) so the transmitter never
    idles — the saturated regime where per-packet event cost dominates.
    A fixed ring of packets recirculates, so fixture allocation cost is
    identical (and negligible) under both link models.
    """

    def __init__(self, iface: Interface, n_packets: int, window: int):
        self.iface = iface
        self.n_packets = n_packets
        self.window = window
        self.sent = 0
        self.received = 0

    def kickoff(self) -> None:
        for i in range(min(self.window, self.n_packets)):
            self.sent += 1
            self.iface.send(
                Packet(flow_id=0, src=0, dst=1, seq=i, size_bytes=1500)
            )

    def receive(self, packet: Packet) -> None:
        self.received += 1
        if self.sent < self.n_packets:
            self.sent += 1
            self.iface.send(packet)


def _bench_link_once(model: str, n_packets: int, window: int) -> Dict[str, Any]:
    with link_model(model):
        sim = Simulator()
        iface = Interface(
            sim,
            bandwidth_bps=10e9,
            prop_delay=25e-6,
            queue=FifoQueue(16e6, name="bench"),
            name="bench",
        )
        blaster = _Blaster(iface, n_packets, window)
        iface.connect(blaster)  # type: ignore[arg-type]  # only .receive is used
        sim.schedule(0.0, blaster.kickoff)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
    return {
        "model": model,
        "n_packets": blaster.received,
        "window": window,
        "wall_s": elapsed,
        "events_processed": sim.events_processed,
        "packets_per_sec": blaster.received / elapsed,
        "events_per_sec": sim.events_processed / elapsed,
    }


def bench_link(
    n_packets: int = 100_000, window: int = 32, repeats: int = 3
) -> Dict[str, Any]:
    """Saturated single-interface throughput under both link models.

    The headline ``speedup`` is simulated packets per wall second,
    busy-until over two-event — the honest metric, since the fast lane's
    point is fewer heap events for the *same* simulated traffic.  Runs
    are interleaved and the best of ``repeats`` kept per model, the
    standard defence against scheduler noise.
    """
    # One throwaway warmup per model so neither benefits from cache
    # warmth ordering.
    _bench_link_once("two-event", n_packets // 10, window)
    _bench_link_once("busy-until", n_packets // 10, window)
    reference: Dict[str, Any] = {}
    fast: Dict[str, Any] = {}
    for _ in range(repeats):
        ref_run = _bench_link_once("two-event", n_packets, window)
        fast_run = _bench_link_once("busy-until", n_packets, window)
        if not reference or ref_run["wall_s"] < reference["wall_s"]:
            reference = ref_run
        if not fast or fast_run["wall_s"] < fast["wall_s"]:
            fast = fast_run
    return {
        "busy_until": fast,
        "two_event": reference,
        "speedup": fast["packets_per_sec"] / reference["packets_per_sec"],
        "event_ratio": (
            reference["events_processed"] / fast["events_processed"]
        ),
    }


def bench_packet_pool(n: int = 200_000) -> Dict[str, Any]:
    """Allocator churn: pooled acquire/recycle vs plain construction."""
    start = time.perf_counter()
    for i in range(n):
        Packet(flow_id=0, src=0, dst=1, seq=i, size_bytes=1500)
    fresh = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(n):
        Packet.acquire(flow_id=0, src=0, dst=1, seq=i, size_bytes=1500).recycle()
    pooled = time.perf_counter() - start
    return {
        "n": n,
        "constructor_s": fresh,
        "pooled_s": pooled,
        "speedup": fresh / pooled,
        "pool_size": packet_pool_size(),
    }


class _StubHost:
    """Minimal host for driving a sender's timer path without a network."""

    node_id = 0

    def send(self, packet: Packet) -> None:  # pragma: no cover - not reached
        pass


def _bench_timer_once(
    model: str, n_acks: int, ack_interval: float
) -> Dict[str, Any]:
    with timer_model(model):
        sim = Simulator()
        sender = TcpSender(sim, _StubHost(), flow_id=0, peer_node_id=1)
        # 64 packets notionally in flight, so _arm_rto always arms; the
        # RTO stays at its 1s initial value (no RTT samples arrive), far
        # beyond the simulated horizon — the timer never actually
        # expires, exactly the steady-state ACK-clocked regime.
        sender.next_seq = 64
        remaining = n_acks

        def ack() -> None:
            nonlocal remaining
            remaining -= 1
            sender._arm_rto()
            if remaining > 0:
                sim.schedule(ack_interval, ack)
            else:
                # Disarm and end the run: with data still "in flight"
                # the RTO would otherwise re-arm itself forever.
                sender._cancel_rto()
                sim.stop()

        sim.schedule(0.0, ack)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
    return {
        "model": model,
        "n_acks": n_acks,
        "wall_s": elapsed,
        "events_processed": sim.events_processed,
        "events_scheduled": sim.events_scheduled,
        "acks_per_sec": n_acks / elapsed,
        "events_per_sec": n_acks / elapsed,
    }


def bench_timer_churn(
    n_acks: int = 200_000, ack_interval: float = 2e-5, repeats: int = 3
) -> Dict[str, Any]:
    """RTO re-arm cost per ACK: soft-deadline model vs the eager oracle.

    Drives the *real* ``TcpSender._arm_rto`` from a self-rescheduling
    ACK tick, the pattern every delivered segment triggers.  The eager
    model pays one cancel + heap push per ACK; the soft-deadline model
    only moves a float.  ``events_per_sec`` counts simulated ACKs per
    wall second — identical simulated work under both models — and
    ``push_ratio`` reports the heap-traffic reduction.
    """
    _bench_timer_once("eager", n_acks // 10, ack_interval)
    _bench_timer_once("soft-deadline", n_acks // 10, ack_interval)
    eager: Dict[str, Any] = {}
    soft: Dict[str, Any] = {}
    for _ in range(repeats):
        eager_run = _bench_timer_once("eager", n_acks, ack_interval)
        soft_run = _bench_timer_once("soft-deadline", n_acks, ack_interval)
        if not eager or eager_run["wall_s"] < eager["wall_s"]:
            eager = eager_run
        if not soft or soft_run["wall_s"] < soft["wall_s"]:
            soft = soft_run
    return {
        "soft_deadline": soft,
        "eager": eager,
        "speedup": soft["events_per_sec"] / eager["events_per_sec"],
        "push_ratio": eager["events_scheduled"] / soft["events_scheduled"],
    }


class _ListTracked(FifoQueue):
    """PR 2's list-based tracked queue, verbatim — the overhead baseline
    the streaming mode is measured against."""

    def __init__(self, sim: Simulator, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sim = sim
        self.event_times: List[float] = [sim.now]
        self.event_lengths: List[int] = [0]

    def enqueue(self, packet) -> bool:
        admitted = super().enqueue(packet)
        self.event_times.append(self._sim.now)
        self.event_lengths.append(len(self._queue))
        return admitted

    def dequeue(self, at_time=None):
        packet = super().dequeue(at_time)
        if packet is not None:
            self.event_times.append(
                self._sim.now if at_time is None else at_time
            )
            self.event_lengths.append(len(self._queue))
        return packet


def _drive_queue(queue: FifoQueue, sim: Simulator, n_pairs: int) -> float:
    """Push/pop ``n_pairs`` packets with the clock advancing per event;
    returns the wall time, including any deferred statistics work."""
    packet = Packet(flow_id=0, src=0, dst=1, seq=0, size_bytes=1500)
    enqueue = queue.enqueue
    dequeue = queue.dequeue
    now = sim._now
    start = time.perf_counter()
    for _ in range(n_pairs):
        now += 1e-6
        sim._now = now
        enqueue(packet)
        now += 1e-6
        sim._now = now
        dequeue()
    return time.perf_counter() - start


def bench_tracked_queue(n_pairs: int = 100_000, repeats: int = 5) -> Dict[str, Any]:
    """Per-event measurement overhead of the tracked-queue variants.

    Each variant serves the identical enqueue/dequeue schedule; the
    plain ``FifoQueue`` run sets the no-measurement floor and the
    reported overheads are wall time above that floor, per event.  The
    tracked timings include the final mean/std reduction — the full cost
    an experiment actually pays.  ``overhead_ratio`` is list-based
    overhead over streaming overhead (the acceptance metric).

    The reported overheads are *differences* of two best-of walls, so
    noise is amplified: a lucky window for the plain floor inflates
    every overhead.  Interleaved best-of-``repeats`` keeps the floor
    and the variants sampling the same machine conditions.
    """

    def plain():
        sim = Simulator()
        return _drive_queue(FifoQueue(16e6, name="bench"), sim, n_pairs)

    def legacy():
        sim = Simulator()
        queue = _ListTracked(sim, 16e6, name="bench")
        wall = _drive_queue(queue, sim, n_pairs)
        start = time.perf_counter()
        from repro.stats import time_weighted_mean, time_weighted_std

        time_weighted_mean(queue.event_times, queue.event_lengths)
        time_weighted_std(queue.event_times, queue.event_lengths)
        return wall + (time.perf_counter() - start)

    def full():
        sim = Simulator()
        queue = TrackedFifoQueue(sim, 16e6, name="bench", record="full")
        wall = _drive_queue(queue, sim, n_pairs)
        start = time.perf_counter()
        queue.time_weighted_mean()
        queue.time_weighted_std()
        return wall + (time.perf_counter() - start)

    def streaming():
        sim = Simulator()
        queue = TrackedFifoQueue(sim, 16e6, name="bench", record="streaming")
        wall = _drive_queue(queue, sim, n_pairs)
        start = time.perf_counter()
        queue.time_weighted_mean()
        queue.time_weighted_std()
        return wall + (time.perf_counter() - start)

    variants = {
        "plain": plain,
        "list_tracked": legacy,
        "full": full,
        "streaming": streaming,
    }
    walls: Dict[str, float] = {}
    for fn in variants.values():
        fn()  # warmup
    for _ in range(repeats):
        for name, fn in variants.items():
            wall = fn()
            if name not in walls or wall < walls[name]:
                walls[name] = wall

    n_events = 2 * n_pairs
    floor = walls["plain"]

    def per_event_ns(name: str) -> float:
        return (walls[name] - floor) / n_events * 1e9

    result: Dict[str, Any] = {
        "n_events": n_events,
        "plain_ns_per_event": floor / n_events * 1e9,
        "list_overhead_ns": per_event_ns("list_tracked"),
        "full_overhead_ns": per_event_ns("full"),
        "streaming_overhead_ns": per_event_ns("streaming"),
    }
    result["overhead_ratio"] = (
        result["list_overhead_ns"] / result["streaming_overhead_ns"]
    )
    return result


def bench_handle_pool(n_events: int = 200_000) -> Dict[str, Any]:
    """Event-loop throughput with the handle free list on vs off.

    Measured on the ``schedule`` lane — the ``post`` lane never
    allocates an :class:`EventHandle`, so the free list is invisible
    there by construction.
    """
    limit = handle_pool_limit()
    try:
        # bench_engine warms up and takes best-of internally.
        set_handle_pool_limit(0)
        disabled = bench_engine(n_events=n_events, api="schedule")
        set_handle_pool_limit(limit)
        enabled = bench_engine(n_events=n_events, api="schedule")
    finally:
        set_handle_pool_limit(limit)
    return {
        "enabled": enabled,
        "disabled": disabled,
        "speedup": enabled["events_per_sec"] / disabled["events_per_sec"],
        "pool_size": handle_pool_size(),
    }


def bench_figures(quick: bool = True) -> Dict[str, Any]:
    """Wall time of representative experiment cells, end to end."""
    from repro.exec.cases import Case, execute_case

    duration = 0.004 if quick else 0.02
    cells = {
        "fig01_oscillation": Case(
            "repro.experiments.fig01_oscillation",
            "bench",
            {
                "protocol": "dctcp-sim",
                "n_flows": 2,
                "sim_duration": duration,
                "warmup": duration / 4,
                "sample_interval": 20e-6,
            },
        ),
        "queue_sweep": Case(
            "repro.experiments.queue_sweep",
            "bench",
            {
                "protocol": "dctcp-sim",
                "n_flows": 10 if quick else 30,
                "sim_duration": duration,
                "warmup": duration / 4,
                "sample_interval": 20e-6,
                "bandwidth_bps": 10e9,
                "rtt": 100e-6,
            },
        ),
        "fig14_incast": Case(
            "repro.experiments.fig14_incast",
            "bench",
            {
                "protocol": "dctcp-testbed",
                "n_flows": 6,
                "n_queries": 1 if quick else 5,
                "response_bytes": 64 * 1024,
                "bandwidth_bps": 1e9,
            },
        ),
    }
    results: Dict[str, Any] = {}
    for name, case in cells.items():
        start = time.perf_counter()
        execute_case(case)
        results[name] = {"wall_s": time.perf_counter() - start}
    return results


def run_benchmarks(quick: bool = False) -> Dict[str, Any]:
    """The full suite; ``quick`` shrinks sizes for the CI smoke job."""
    scale = 10 if quick else 1
    payload: Dict[str, Any] = {
        "schema": "repro-bench-v3",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "kernel": kernel_metadata(),
        "engine": bench_engine(n_events=300_000 // scale),
        "link": bench_link(n_packets=100_000 // scale),
        "packet_pool": bench_packet_pool(n=200_000 // scale),
        "handle_pool": bench_handle_pool(n_events=200_000 // scale),
        "timer_churn": bench_timer_churn(n_acks=200_000 // scale),
        "tracked_queue": bench_tracked_queue(n_pairs=100_000 // scale),
        "fabric": bench_fabric(),
        "datapath": bench_datapath(),
        "figures": bench_figures(quick=quick),
    }
    return payload


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.30,
) -> Optional[str]:
    """None if ``current`` holds up against ``baseline``, else a reason.

    Five gates are enforced (the CI contract): engine events/sec, the
    leaf-spine fabric cell's
    events/sec and the fast-datapath fabric events/sec (all
    higher-is-better), timer-churn soft-deadline ACKs/sec
    (higher-is-better) and the tracked queue's streaming overhead per
    event (lower-is-better).  Gates whose keys the baseline payload
    predates are skipped, so a new benchmark can land in the same PR
    that first records it.  Everything else in the payload is
    trajectory data.
    """
    cur = current["engine"]["events_per_sec"]
    base = baseline["engine"]["events_per_sec"]
    floor = base * (1.0 - tolerance)
    if cur < floor:
        return (
            f"engine events/sec regressed: {cur:,.0f} < {floor:,.0f} "
            f"(baseline {base:,.0f}, tolerance {tolerance:.0%})"
        )

    if "fabric" in baseline and "fabric" in current:
        cur = current["fabric"]["events_per_sec"]
        base = baseline["fabric"]["events_per_sec"]
        floor = base * (1.0 - tolerance)
        if cur < floor:
            return (
                f"fabric-cell events/sec regressed: {cur:,.0f} < "
                f"{floor:,.0f} (baseline {base:,.0f}, "
                f"tolerance {tolerance:.0%})"
            )

    if "datapath" in baseline and "datapath" in current:
        cur = current["datapath"]["fast"]["events_per_sec"]
        base = baseline["datapath"]["fast"]["events_per_sec"]
        floor = base * (1.0 - tolerance)
        if cur < floor:
            return (
                f"fast-datapath events/sec regressed: {cur:,.0f} < "
                f"{floor:,.0f} (baseline {base:,.0f}, "
                f"tolerance {tolerance:.0%})"
            )

    if "timer_churn" in baseline and "timer_churn" in current:
        cur = current["timer_churn"]["soft_deadline"]["events_per_sec"]
        base = baseline["timer_churn"]["soft_deadline"]["events_per_sec"]
        floor = base * (1.0 - tolerance)
        if cur < floor:
            return (
                f"timer-churn events/sec regressed: {cur:,.0f} < "
                f"{floor:,.0f} (baseline {base:,.0f}, "
                f"tolerance {tolerance:.0%})"
            )

    if "tracked_queue" in baseline and "tracked_queue" in current:
        cur = current["tracked_queue"]["streaming_overhead_ns"]
        base = baseline["tracked_queue"]["streaming_overhead_ns"]
        ceiling = base * (1.0 + tolerance)
        if cur > ceiling:
            return (
                f"tracked-queue streaming overhead regressed: "
                f"{cur:,.0f}ns/event > {ceiling:,.0f}ns/event "
                f"(baseline {base:,.0f}ns, tolerance {tolerance:.0%})"
            )
    return None


#: Lanes :func:`compare_payloads` reports: display label, path into the
#: payload, unit, and whether a higher number is the good direction.
_COMPARE_LANES = (
    ("engine", ("engine", "events_per_sec"), "events/s", True),
    ("link", ("link", "busy_until", "packets_per_sec"), "pkts/s", True),
    (
        "timers",
        ("timer_churn", "soft_deadline", "events_per_sec"),
        "acks/s",
        True,
    ),
    (
        "tracking",
        ("tracked_queue", "streaming_overhead_ns"),
        "ns/event",
        False,
    ),
    ("fabric", ("fabric", "events_per_sec"), "events/s", True),
    (
        "datapath-fast",
        ("datapath", "fast", "events_per_sec"),
        "events/s",
        True,
    ),
    (
        "datapath-ref",
        ("datapath", "reference", "events_per_sec"),
        "events/s",
        True,
    ),
)


def _dig(payload: Dict[str, Any], path: tuple) -> Optional[float]:
    node: Any = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def compare_payloads(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-lane deltas of ``current`` against a ``baseline`` payload.

    Unlike :func:`check_regression` this judges nothing: it reports
    every lane both payloads carry, in either direction, plus warnings
    for kernel-metadata mismatches — a fast-vs-reference delta is a finding about the configuration, not a
    regression, and the warning is what stops it being misread.
    """
    warnings: List[str] = []
    cur_kernel = current.get("kernel", {})
    base_kernel = baseline.get("kernel", {})
    for key in sorted(set(cur_kernel) | set(base_kernel)):
        ours, theirs = cur_kernel.get(key), base_kernel.get(key)
        if ours != theirs:
            warnings.append(
                f"kernel metadata differs: {key} is {ours!r} here but "
                f"{theirs!r} in the baseline — deltas compare different "
                f"configurations"
            )
    lanes: List[Dict[str, Any]] = []
    for label, path, unit, higher_is_better in _COMPARE_LANES:
        cur = _dig(current, path)
        base = _dig(baseline, path)
        if cur is None or base is None or base == 0:
            continue
        lanes.append(
            {
                "lane": label,
                "current": cur,
                "baseline": base,
                "unit": unit,
                "higher_is_better": higher_is_better,
                "ratio": cur / base,
            }
        )
    return {"lanes": lanes, "warnings": warnings}


def render_comparison(comparison: Dict[str, Any]) -> str:
    """Human-readable table for a :func:`compare_payloads` result."""
    lines = [f"WARNING: {w}" for w in comparison["warnings"]]
    for lane in comparison["lanes"]:
        delta = (lane["ratio"] - 1.0) * 100.0
        improved = (lane["ratio"] >= 1.0) == lane["higher_is_better"]
        verdict = "better" if improved else "worse"
        if abs(delta) < 0.5:
            verdict = "flat"
        lines.append(
            f"{lane['lane']:<14}: {lane['current']:>14,.0f} vs "
            f"{lane['baseline']:>14,.0f} {lane['unit']:<8} "
            f"({delta:+.1f}%, {verdict})"
        )
    if not comparison["lanes"]:
        lines.append("no comparable lanes between the two payloads")
    return "\n".join(lines)


def render_summary(payload: Dict[str, Any]) -> str:
    """Human-readable digest of a benchmark payload."""
    lines = []
    if "kernel" in payload:
        k = payload["kernel"]
        lines.append(
            f"kernel   : packet-core={k['packet_core']} "
            f"link={k['link_model']} "
            f"timers={k['timer_model']} (python {k['python']})"
        )
    lines.append(
        f"engine   : {payload['engine']['events_per_sec']:>12,.0f} events/s"
    )
    lines += [
        (
            f"link     : {payload['link']['busy_until']['packets_per_sec']:>12,.0f}"
            f" pkts/s busy-until vs "
            f"{payload['link']['two_event']['packets_per_sec']:,.0f} two-event "
            f"(speedup {payload['link']['speedup']:.2f}x, "
            f"{payload['link']['event_ratio']:.2f}x fewer events)"
        ),
        (
            f"pool     : {payload['packet_pool']['speedup']:.2f}x vs "
            f"constructor over {payload['packet_pool']['n']:,} packets"
        ),
    ]
    if "handle_pool" in payload:
        lines.append(
            f"handles  : {payload['handle_pool']['speedup']:.2f}x with the "
            f"free list vs without"
        )
    if "timer_churn" in payload:
        tc = payload["timer_churn"]
        lines.append(
            f"timers   : {tc['soft_deadline']['events_per_sec']:>12,.0f}"
            f" acks/s soft-deadline vs "
            f"{tc['eager']['events_per_sec']:,.0f} eager "
            f"(speedup {tc['speedup']:.2f}x, "
            f"{tc['push_ratio']:.1f}x fewer heap pushes)"
        )
    if "tracked_queue" in payload:
        tq = payload["tracked_queue"]
        lines.append(
            f"tracking : {tq['streaming_overhead_ns']:.0f}ns/event streaming"
            f" vs {tq['list_overhead_ns']:.0f}ns list-based "
            f"({tq['overhead_ratio']:.2f}x lower), "
            f"full-trace {tq['full_overhead_ns']:.0f}ns"
        )
    if "fabric" in payload:
        fb = payload["fabric"]
        lines.append(
            f"fabric   : {fb['events_per_sec']:>12,.0f} events/s over a "
            f"{fb['duration'] * 1e3:.0f}ms leaf-spine cell "
            f"({fb['flows_completed']} flows, {fb['wall_s']:.3f}s wall)"
        )
    if "datapath" in payload:
        dp = payload["datapath"]
        lines.append(
            f"datapath : {dp['fast']['events_per_sec']:>12,.0f} events/s "
            f"fast vs {dp['reference']['events_per_sec']:,.0f} reference "
            f"on the fabric cell (speedup {dp['speedup']:.2f}x)"
        )
    for name, cell in payload["figures"].items():
        lines.append(f"figure   : {name:<20} {cell['wall_s']:.3f}s")
    return "\n".join(lines)


def dump(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
