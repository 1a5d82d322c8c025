"""Differential test: busy-until fast lane vs two-event reference oracle.

The fast lane's contract is exact equivalence *per interface*: same
delivery trace — times, flow ids, sequence numbers, CE/ECE bits — and
same queue counters, down to the heap's tie-breaking order.  The
dumbbell tests run multi-flow DCTCP and DT-DCTCP dumbbells
(synchronized starts, the tie-heavy worst case) under both link models
and compare everything observable.

Across interfaces the contract is weaker: the rolling delivery event is
scheduled at admission, the two-event delivery at tx-done, so two
deliveries due at the same instant on *different* interfaces can fire
in the other order.  The leaf-spine test pins exactly that: the
fabric-wide traces agree until a same-timestamp reordering across
interfaces, and nothing else.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import repro.campaign.cells as cells
from repro.campaign.grid import CampaignGrid
from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.link import link_model
from repro.sim.packet_log import PacketLogger
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell, leaf_spine


def _marker_factory(protocol):
    if protocol == "dctcp":
        return lambda: SingleThresholdMarker.from_threshold(40.0)
    return lambda: DoubleThresholdMarker.from_thresholds(30.0, 50.0)


def _run(protocol: str, model: str, n_flows: int, duration: float):
    """One dumbbell run; returns (delivery records, queue stats, flows)."""
    with link_model(model):
        network = dumbbell(n_flows, _marker_factory(protocol))
        bottleneck_iface = network.network.interface_between(
            network.switch.node_id, network.receiver.node_id
        )
        log = PacketLogger().attach(bottleneck_iface)
        flows = launch_bulk_flows(network, sender_cls=DctcpSender)
        base = min(f.sender.flow_id for f in flows)
        network.sim.run(until=duration)
        # Flow ids come from a process-global counter; normalise so the
        # two runs compare positionally.
        records = [
            dataclasses.replace(r, flow_id=r.flow_id - base)
            for r in log.records
        ]
        raw = network.bottleneck_queue.stats
        stats = {
            field: getattr(raw, field) for field in raw.__slots__
        }
        per_flow = [
            (f.sender.packets_sent, f.sender.timeouts, f.receiver.packets_received)
            for f in flows
        ]
    return records, stats, per_flow


@pytest.mark.parametrize("protocol", ["dctcp", "dt-dctcp"])
def test_delivery_traces_and_queue_stats_identical(protocol):
    reference = _run(protocol, "two-event", n_flows=5, duration=0.004)
    fast = _run(protocol, "busy-until", n_flows=5, duration=0.004)

    ref_records, ref_stats, ref_flows = reference
    fast_records, fast_stats, fast_flows = fast

    assert len(ref_records) > 500, "scenario too small to be meaningful"
    assert fast_records == ref_records
    assert fast_stats == ref_stats
    assert fast_flows == ref_flows


def test_busy_until_halves_heap_traffic():
    """Same simulated run, roughly half the processed events."""
    def events(model):
        with link_model(model):
            network = dumbbell(
                3, lambda: SingleThresholdMarker.from_threshold(40.0)
            )
            launch_bulk_flows(network, sender_cls=DctcpSender)
            network.sim.run(until=0.002)
            return network.sim.events_processed

    reference = events("two-event")
    fast = events("busy-until")
    # Every packet-hop costs the oracle two events (tx-done + delivery)
    # and the fast lane one; timers and app events dilute the exact 2x.
    assert fast < 0.65 * reference


def _fabric_delivery_trace(model: str, monkeypatch):
    """Every delivery on every interface of one small leaf-spine cell."""
    loggers = []

    def tapped_leaf_spine(*args, **kwargs):
        fabric = leaf_spine(*args, **kwargs)
        interfaces = fabric.network.all_interfaces()
        loggers.append(PacketLogger().attach(*interfaces))
        return fabric

    monkeypatch.setattr(cells, "leaf_spine", tapped_leaf_spine)
    grid = CampaignGrid(
        thresholds=((40.0,),),
        loads=(0.8,),
        fan_ins=(4,),
        scenarios=("buildup",),
        seeds=(1,),
        duration=0.001,
        warmup=0.0002,
    )
    with link_model(model):
        cells.run_cell(grid.expand()[0].params)
    (log,) = loggers
    records = log.records
    base = min(r.flow_id for r in records)
    return [dataclasses.replace(r, flow_id=r.flow_id - base) for r in records]


def test_leaf_spine_traces_diverge_only_at_a_cross_interface_tie(
    monkeypatch,
):
    fast = _fabric_delivery_trace("busy-until", monkeypatch)
    reference = _fabric_delivery_trace("two-event", monkeypatch)
    first = next(
        (i for i, pair in enumerate(zip(fast, reference))
         if pair[0] != pair[1]),
        None,
    )
    # The cell is small, but the two models do part ways in it; the
    # first hundred-odd deliveries agree exactly.
    assert first is not None and first > 100

    when = fast[first].time
    assert reference[first].time == when

    def tied(records):
        return list(
            itertools.takewhile(lambda r: r.time == when, records[first:])
        )

    fast_tie, reference_tie = tied(fast), tied(reference)
    # The same deliveries at the same instant, in another order...
    assert sorted(fast_tie, key=dataclasses.astuple) == sorted(
        reference_tie, key=dataclasses.astuple
    )
    # ...on different interfaces, each of which keeps its own order.
    interfaces = {r.interface for r in fast_tie}
    assert len(interfaces) >= 2
    for name in interfaces:
        assert [r for r in fast_tie if r.interface == name] == [
            r for r in reference_tie if r.interface == name
        ]
