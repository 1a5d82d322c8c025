"""Differential tests: the event heap vs a reference model, and the flat
packet core vs the boxed-object oracle.

Two layers of evidence:

* hypothesis property tests drive the heap :class:`Simulator` and a
  sorted-list reference scheduler (below) through random operation
  programs — ties, cancels, self-rescheduling chains, far-future
  outliers, mid-run stops — under three run regimes (free-running,
  event-budget steps, ``until`` steps), plus reset-and-replay, and
  require identical traces: equal timestamps fire in scheduling order,
  cancellations are skipped, and ``stop()``/budget/``until`` cut the
  run at the same event;
* end-to-end tests run Figure 1 (queue oscillation), Figure 14/15
  (incast collapse) and a PR 6 leaf-spine campaign cell under both
  ``REPRO_PACKET_CORE`` values and require results identical to the
  ``object`` oracle: ``post``-ed events and column-stored log records
  replay byte-identically against boxed objects.
"""

from __future__ import annotations

import bisect
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.grid import CampaignGrid
from repro.campaign.cells import run_cell
from repro.exec.cases import Case
from repro.experiments.fig01_oscillation import (
    EXPERIMENT as FIG01_EXPERIMENT,
    run_case as fig01_run_case,
)
from repro.experiments.fig14_incast import (
    TESTBED_INITIAL_CWND,
    TESTBED_START_JITTER,
)
from repro.experiments.protocols import dctcp_testbed
from repro.sim.apps.incast import FanInApp
from repro.sim.engine import Simulator
from repro.sim.packet_core import packet_core
from repro.sim.packet_log import PacketLogger
from repro.sim.topology import paper_testbed

KB = 1024

CORES = ("flat", "object")
ORACLE = "object"


# ----------------------------------------------------------------------
# Property layer: random operation programs, identical pop order.
# ----------------------------------------------------------------------


class _RefHandle:
    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    """The :class:`Simulator` contract as a plain sorted list.

    Entries are ``(time, seq, handle)`` kept sorted by ``bisect.insort``;
    cancellation is lazy, a run pops from the front, and ``until``
    fast-forwards the clock only when no live event remains at or
    before it and no stop was requested.
    """

    def __init__(self):
        self.now = 0.0
        self.events_scheduled = 0
        self.events_processed = 0
        self._pending = []
        self._stop_requested = False

    @property
    def pending_events(self):
        return len(self._pending)

    def schedule_at(self, time, callback, *args):
        handle = _RefHandle(callback, args)
        bisect.insort(self._pending, (time, self.events_scheduled, handle))
        self.events_scheduled += 1
        return handle

    post_at = schedule_at

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def stop(self):
        self._stop_requested = True

    def run(self, until=None, max_events=None):
        self._stop_requested = False
        budget = max_events if max_events is not None else float("inf")
        while self._pending and budget and not self._stop_requested:
            time, _seq, handle = self._pending[0]
            if until is not None and time > until:
                break
            del self._pending[0]
            if handle.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            budget -= 1
            handle.callback(*handle.args)
        if until is not None and self.now < until and not self._stop_requested:
            live = [t for t, _seq, h in self._pending if not h.cancelled]
            if not live or live[0] > until:
                self.now = until

    def reset(self):
        self._pending.clear()
        self.now = 0.0
        self.events_scheduled = 0
        self.events_processed = 0


_times = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
_gaps = st.floats(
    min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _times),
        st.tuples(st.just("post"), _times),
        # k events on the same instant: tie-break order must hold.
        st.tuples(st.just("tie"), _times, st.integers(2, 4)),
        # Cancel the j-th (mod count) handle scheduled so far.
        st.tuples(st.just("cancel"), st.integers(0, 1000)),
        # An event at t that cancels handle j mod count mid-run.
        st.tuples(st.just("cancel_at"), _times, st.integers(0, 1000)),
        # Self-rescheduling chain: n hops of `gap` starting at t.
        st.tuples(st.just("chain"), _times, st.integers(1, 10), _gaps),
        # Sparse far-future outlier.
        st.tuples(st.just("far"), _times),
        st.tuples(st.just("stop"), _times),
    ),
    min_size=1,
    max_size=40,
)


def _chain_cb(sim, trace, label, remaining, gap):
    trace.append((sim.now, "chain", label))
    if remaining > 0:
        sim.schedule(gap, _chain_cb, sim, trace, label, remaining - 1, gap)


def _drive(sim, ops, mode: str):
    """Apply one op program to a fresh scheduler; return its full trace."""
    trace = []
    handles = []

    def record(label):
        trace.append((sim.now, "fire", label))

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "at":
            handles.append(sim.schedule_at(op[1], record, i))
        elif kind == "post":
            sim.post_at(op[1], record, i)
        elif kind == "tie":
            for k in range(op[2]):
                handles.append(sim.schedule_at(op[1], record, (i, k)))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "cancel_at":
            j = op[2]

            def cancel_later(j=j):
                if handles:
                    handles[j % len(handles)].cancel()

            sim.post_at(op[1], cancel_later)
        elif kind == "chain":
            sim.schedule_at(op[1], _chain_cb, sim, trace, i, op[2], op[3])
        elif kind == "far":
            handles.append(sim.schedule_at(op[1] + 1e3, record, (i, "far")))
        elif kind == "stop":
            sim.post_at(op[1], sim.stop)

    if mode == "free":
        # stop() ops end a run early; keep running until drained.
        for _ in range(len(ops) + 2):
            sim.run()
            if sim.pending_events == 0:
                break
    elif mode == "budget":
        for _ in range(10_000):
            sim.run(max_events=7)
            if sim.pending_events == 0:
                break
    else:  # "until" steps: exercises pruning and clock fast-forward
        for horizon in (0.5, 1.0, 2.5, 5.0, 10.0, 1e3, 2e3):
            sim.run(until=horizon)
        for _ in range(len(ops) + 2):
            sim.run()
            if sim.pending_events == 0:
                break
        trace.append(("final-now", sim.now))

    trace.append(
        ("counters", sim.events_scheduled, sim.events_processed)
    )
    return trace


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
@pytest.mark.parametrize("mode", ["free", "budget", "until"])
def test_heap_matches_reference_on_random_programs(mode, ops):
    assert _drive(Simulator(), ops, mode) == _drive(
        ReferenceScheduler(), ops, mode
    )


@settings(max_examples=20, deadline=None)
@given(ops=_ops)
def test_reset_rewinds_like_the_reference(ops):
    traces = []
    for sim in (Simulator(), ReferenceScheduler()):
        trace = []
        for i, op in enumerate(ops):
            if op[0] in ("at", "post", "far"):
                t = op[1] + (1e3 if op[0] == "far" else 0.0)
                sim.schedule_at(t, trace.append, (sim.now, i))
        sim.run(until=2.0)
        sim.reset()
        assert sim.pending_events == 0
        assert sim.now == 0.0
        # A replay after reset must look like a fresh process.
        for t in (1.0, 1.0, 0.5):
            sim.schedule_at(t, trace.append, ("replay", t, sim.events_scheduled))
        sim.run()
        traces.append(trace)
    assert traces[0] == traces[1]


# ----------------------------------------------------------------------
# End-to-end layer: both packet cores on real experiments.
# ----------------------------------------------------------------------


def _both_cores(run):
    """Run ``run()`` under each packet core; compare to the oracle."""
    results = {}
    for core in CORES:
        with packet_core(core):
            results[core] = run()
    oracle = results[ORACLE]
    for core, result in results.items():
        assert result == oracle, f"{core} core diverged from the object oracle"
    return oracle


def _normalised_records(log: PacketLogger):
    """Delivery records with flow ids rebased to zero (process-global
    flow-id counters differ between runs; rebasing makes them
    positional)."""
    records = log.records
    if not records:
        return []
    base = min(r.flow_id for r in records)
    return [dataclasses.replace(r, flow_id=r.flow_id - base) for r in records]


def test_fig01_oscillation_identical_across_packet_cores():
    """Figure 1 queue trace: byte-identical samples under both cores."""

    def run():
        case = Case(
            experiment=FIG01_EXPERIMENT,
            label="diff/N=10",
            params={
                "protocol": "dctcp-sim",
                "n_flows": 10,
                "sim_duration": 0.012,
                "warmup": 0.002,
                "sample_interval": 1e-4,
            },
        )
        return fig01_run_case(case)

    result = _both_cores(run)
    assert len(result["queue"]) > 50, "scenario too small to be meaningful"


def test_fig14_incast_identical_across_packet_cores():
    """Fig 14/15 collapse point: full packet trace + queue stats."""

    def run():
        protocol = dctcp_testbed()
        testbed = paper_testbed(protocol.marker_factory, bandwidth_bps=1e9)
        bottleneck_iface = testbed.network.interface_between(
            testbed.core_switch.node_id, testbed.aggregator.node_id
        )
        log = PacketLogger().attach(bottleneck_iface)
        app = FanInApp(
            testbed.aggregator,
            testbed.workers,
            n_flows=20,
            bytes_per_flow=64 * KB,
            n_queries=1,
            sender_cls=protocol.sender_cls,
            initial_cwnd=TESTBED_INITIAL_CWND,
            start_jitter=TESTBED_START_JITTER,
            on_done=testbed.sim.stop,
        )
        app.start()
        testbed.sim.run(until=60.0)
        raw = testbed.bottleneck_queue.stats
        stats = {field: getattr(raw, field) for field in raw.__slots__}
        per_query = [
            (r.completion_time, r.timeouts, r.retransmits)
            for r in app.results
        ]
        return (
            _normalised_records(log),
            stats,
            per_query,
            testbed.sim.events_processed,
        )

    records, _stats, _queries, _events = _both_cores(run)
    assert len(records) > 500, "scenario too small to be meaningful"


def test_leaf_spine_campaign_cell_identical_across_packet_cores():
    """One PR 6 fabric cell: FCT list, queue stats, mark/drop totals."""
    grid = CampaignGrid(
        thresholds=((40.0,),),
        loads=(0.2,),
        fan_ins=(2,),
        scenarios=("buildup",),
        seeds=(1,),
        duration=0.006,
        warmup=0.001,
    )
    params = grid.expand()[0].params

    result = _both_cores(lambda: run_cell(params))
    assert result["flows_started"] > 0, "cell generated no traffic"
