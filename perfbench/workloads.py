"""The ladder's workloads: seeded specs, operations, outcomes, digests.

A workload turns a seed into a JSON spec (:func:`make_spec`); the
simulation code receives only that spec.  :func:`run_round` executes
one round of the spec — every simulation it names, each one an
operation — and returns the round's host timings, simulated seconds,
packet-hops, per-operation outcome digests and invariant violations.

Set-up is timed in a fresh interpreter by :func:`setup_probe`, which
builds the first operation and stops at its first ``Simulator.run``.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.calibrate import REFERENCE_S, SLICE_EVENTS, kernel

ROOT = Path(__file__).resolve().parent.parent
LADDER = json.loads((Path(__file__).with_name("ladder.json")).read_text())
DEFAULT_SEED: int = LADDER["default_seed"]

#: Worker processes for the campaign: the machine this ladder was
#: calibrated on has two cores.
CAMPAIGN_JOBS = 2

#: Experiment module the campaign's executor dispatches to.
CELL_EXPERIMENT = "perfbench.cell"

WORKLOADS = tuple(LADDER["workloads"])

#: Per-layer counters, summed over a round's operations.
COUNT_KEYS = (
    "engine.events",
    "engine.scheduled",
    "queues.enqueued",
    "queues.marked",
    "queues.dropped",
    "node.forwarded",
    "node.unroutable",
    "tcp.packets_sent",
    "tcp.retransmits",
    "tcp.timeouts",
    "tcp.acks_sent",
    "tcp.unique_received",
    "apps.flows_started",
    "apps.flows_completed",
    "apps.queries",
    "trace.samples",
    "chaos.drops",
    "chaos.ecn_mangled",
)


# -- specs ----------------------------------------------------------------


def make_spec(workload: str, seed: int) -> Dict[str, Any]:
    """The JSON spec of ``workload`` for ``seed``."""
    seed = int(seed)
    if workload == "dumbbell":
        # Fig. 1/10-12: N = 10 long-lived flows, 10 Gbps / 100 us.
        return {
            "workload": workload,
            "protocols": [
                {"marking": "dctcp", "k": 40.0},
                {"marking": "dt-dctcp", "k1": 30.0, "k2": 50.0},
            ],
            "n_flows": 10,
            "duration": 0.05,
            "warmup": 0.01,
            "queue_interval": 20e-6,
            "alpha_interval": 200e-6,
            "start_jitter": 10e-6,
            "jitter_seed": seed,
        }
    if workload == "leafspine":
        return {
            "workload": workload,
            "grid": {
                "thresholds": [[40.0]],
                "loads": [0.8],
                "fan_ins": [4],
                "scenarios": ["buildup"],
                "seeds": [seed],
            },
        }
    if workload == "incast":
        # Fig. 14 testbed past collapse: 48 x 64 KB responses at 1 Gbps.
        return {
            "workload": workload,
            "n_flows": 48,
            "response_bytes": 64 * 1024,
            "bandwidth_bps": 1e9,
            "n_queries": 20,
            "jitter_seed": seed,
        }
    if workload == "campaign":
        # The space-dc preset (DCTCP, DT-DCTCP, CUBIC on a 200 ms-RTT
        # chaos fabric) cut to 1.6 s per cell, flap train included.
        return {
            "workload": workload,
            "grid": {
                "thresholds": [[65.0], [50.0, 80.0], [65.0]],
                "senders": ["dctcp", "dctcp", "cubic"],
                "loads": [0.1],
                "fan_ins": [2],
                "scenarios": ["space-dc"],
                "seeds": [seed, seed + 1],
                "host_bandwidth_bps": 1e9,
                "fabric_bandwidth_bps": 4e9,
                "per_hop_delay": 25e-3,
                "duration": 1.6,
                "warmup": 0.4,
                "jitter_s": 2e-3,
                "flap_period": 0.5,
                "flap_down": 0.15,
                "flap_count": 2,
            },
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def campaign_grid(grid_spec: Dict[str, Any]):
    """A :class:`~repro.campaign.grid.CampaignGrid` from its JSON form."""
    from repro.campaign.grid import CampaignGrid

    kwargs = dict(grid_spec)
    kwargs["thresholds"] = tuple(tuple(k) for k in kwargs["thresholds"])
    for key in ("loads", "fan_ins", "scenarios", "seeds", "senders"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return CampaignGrid(**kwargs)


# -- outcome digests ------------------------------------------------------


def _canonical(value: Any) -> Any:
    """JSON-ready copy; floats keep 12 significant digits so a digest
    survives numpy summation-order differences across versions."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    number = float(value)
    if not math.isfinite(number):
        return repr(number)
    return float(f"{number:.12g}")


#: Outcome keys that count the engine's work rather than what was
#: simulated: a kernel that fuses or splits events changes them while
#: every simulated statistic stays the same.  Kept out of the digest.
KERNEL_KEYS = ("events_processed",)


def digest(outcome: Dict[str, Any]) -> str:
    """Stable short hash of a simulated outcome, kernel counts left out."""
    simulated = {k: v for k, v in outcome.items() if k not in KERNEL_KEYS}
    text = json.dumps(_canonical(simulated), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def non_finite(outcome: Any) -> bool:
    """Whether any number in ``outcome`` is NaN or infinite."""
    if isinstance(outcome, dict):
        return any(non_finite(v) for v in outcome.values())
    if isinstance(outcome, (list, tuple)):
        return any(non_finite(v) for v in outcome)
    if isinstance(outcome, float):
        return not math.isfinite(outcome)
    return False


# -- once-per-run hooks ---------------------------------------------------


class ReachedRun(Exception):
    """Raised by a set-up probe at the first ``Simulator.run`` call."""

    def __init__(self, at: float):
        super().__init__(at)
        self.at = at


class Probe:
    """Hooks around one operation, active inside ``with``.

    Wraps only once-per-run entry points: ``Network.finalize_routes``
    (topology built — capture the network and arm the invariant
    watchdog before any traffic) and ``Simulator.run``: with
    ``stop_at_run`` it raises :class:`ReachedRun` where set-up ends; with
    ``calibrate`` it runs the simulation in slices of
    :data:`~perfbench.calibrate.SLICE_EVENTS` events, each bracketed by
    calibration kernels (same events in the same order; only the timing
    is split), and watches ``Simulator.stop`` so that a stop requested
    on a slice's last event still ends the run.  It also collects every
    flow and monitor opened, for the per-layer counters: once per flow,
    never per packet.
    """

    def __init__(self, stop_at_run: bool = False, calibrate: bool = False):
        self.stop_at_run = stop_at_run
        self.calibrate = calibrate
        #: Raw and calibrated seconds inside ``Simulator.run`` slices, and
        #: every kernel time measured between them.
        self.run_s = 0.0
        self.run_calibrated_s = 0.0
        self.kernel_s: List[float] = []
        self.stop_requested = False
        self.networks: List[Any] = []
        self.watchdogs: List[Any] = []
        self.flows: List[Any] = []
        self.monitors: List[Any] = []
        self.built_at: Optional[float] = None
        self.entered_at = 0.0
        self._restore: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Probe":
        from repro.sim.engine import Simulator
        from repro.sim.invariants import InvariantWatchdog
        from repro.sim.tcp.flow import Flow
        from repro.sim.topology import Network
        from repro.sim.trace import AlphaMonitor, QueueMonitor

        probe = self
        finalize = Network.finalize_routes
        run = Simulator.run
        stop = Simulator.stop

        def stop_at_run(sim, *args, **kwargs):
            raise ReachedRun(time.monotonic())

        def sliced_run(sim, until=None, max_events=None):
            if max_events is not None:
                return run(sim, until=until, max_events=max_events)
            before = kernel()
            probe.kernel_s.append(before)
            # Like ``run``, which forgets any stop requested before it.
            probe.stop_requested = False
            while True:
                processed = sim.events_processed
                start = time.perf_counter()
                run(sim, until=until, max_events=SLICE_EVENTS)
                wall = time.perf_counter() - start
                after = kernel()
                probe.kernel_s.append(after)
                probe.run_s += wall
                probe.run_calibrated_s += wall * REFERENCE_S / ((before + after) / 2)
                before = after
                if (
                    probe.stop_requested
                    or sim.events_processed - processed < SLICE_EVENTS
                ):
                    return None

        def probed_stop(sim):
            probe.stop_requested = True
            stop(sim)

        def probed_finalize(network, *args, **kwargs):
            finalize(network, *args, **kwargs)
            probe.built_at = time.perf_counter()
            probe.networks.append(network)
            probe.watchdogs.append(InvariantWatchdog(network))

        if self.stop_at_run:
            self._patch(Simulator, "run", stop_at_run)
        elif self.calibrate:
            self._patch(Simulator, "run", sliced_run)
            self._patch(Simulator, "stop", probed_stop)
        self._patch(Network, "finalize_routes", probed_finalize)
        self._collect(Flow, "__init__", self.flows)
        self._collect(QueueMonitor, "__init__", self.monitors)
        self._collect(AlphaMonitor, "__init__", self.monitors)
        self.entered_at = time.perf_counter()
        return self

    def _collect(self, cls: Any, name: str, into: List[Any]) -> None:
        original = cls.__dict__[name]

        def collecting(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)

        self._patch(cls, name, collecting)

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def build_s(self) -> float:
        """Seconds from entering the probe to the topology being built."""
        if self.built_at is None:
            return 0.0
        return self.built_at - self.entered_at

    def hops(self) -> int:
        """Packet deliveries over every interface of every network."""
        return sum(
            iface.packets_delivered
            for network in self.networks
            for iface in network.all_interfaces()
        )

    def audit(self) -> List[str]:
        """Post-run invariant audit of every network; violations listed."""
        from repro.sim.invariants import InvariantViolation

        violations: List[str] = []
        for watchdog in self.watchdogs:
            try:
                watchdog.check()
            except InvariantViolation as exc:
                violations.extend(exc.violations)
        return violations

    def counts(self) -> Dict[str, int]:
        """Per-layer counters read from public stats after the run."""
        from repro.sim.node import Switch

        out = dict.fromkeys(COUNT_KEYS, 0)
        for network in self.networks:
            out["engine.events"] += network.sim.events_processed
            out["engine.scheduled"] += network.sim.events_scheduled
            for iface in network.all_interfaces():
                stats = iface.queue.stats
                out["queues.enqueued"] += stats.enqueued
                out["queues.marked"] += stats.marked
                out["queues.dropped"] += stats.dropped
                chaos = iface.chaos
                if chaos is not None:
                    out["chaos.drops"] += (
                        chaos.send_drops + chaos.loss_drops + chaos.wire_drops
                    )
                    out["chaos.ecn_mangled"] += chaos.ecn_mangled
            for node in network.nodes:
                if isinstance(node, Switch):
                    out["node.forwarded"] += node.packets_forwarded
                    out["node.unroutable"] += node.packets_unroutable
        for flow in self.flows:
            sender, receiver = flow.sender, flow.receiver
            out["tcp.packets_sent"] += sender.packets_sent
            out["tcp.retransmits"] += sender.retransmits
            out["tcp.timeouts"] += sender.timeouts
            out["tcp.acks_sent"] += receiver.acks_sent
            out["tcp.unique_received"] += (
                receiver.packets_received - receiver.duplicates_received
            )
            out["apps.flows_started"] += 1
            out["apps.flows_completed"] += int(flow.completed)
        out["trace.samples"] = sum(len(m.series()) for m in self.monitors)
        return out


def interface_ledger(network: Any) -> List[List[Any]]:
    """Per-interface admission, marking, drop and delivery counters."""
    return [
        [
            iface.name,
            iface.queue.stats.enqueued,
            iface.queue.stats.marked,
            iface.queue.stats.dropped,
            iface.packets_delivered,
        ]
        for iface in network.all_interfaces()
    ]


# -- operations -----------------------------------------------------------


@dataclasses.dataclass
class OpOutcome:
    """What one simulation returns to the round."""

    sim_s: float
    outcome: Dict[str, Any]
    queries: int = 0


def _dumbbell_op(spec: Dict[str, Any], protocol: Dict[str, Any]) -> Callable:
    def op() -> OpOutcome:
        from repro.experiments.protocols import dctcp_sim, dt_dctcp_sim
        from repro.sim.apps.bulk import launch_bulk_flows
        from repro.sim.topology import dumbbell
        from repro.sim.trace import AlphaMonitor, QueueMonitor

        if protocol["marking"] == "dctcp":
            config = dctcp_sim(protocol["k"])
        else:
            config = dt_dctcp_sim(protocol["k1"], protocol["k2"])
        network = dumbbell(spec["n_flows"], config.marker_factory)
        flows = launch_bulk_flows(
            network,
            sender_cls=config.sender_cls,
            start_jitter=spec["start_jitter"],
            jitter_seed=spec["jitter_seed"],
        )
        sim = network.sim
        queue = QueueMonitor(sim, network.bottleneck_queue, spec["queue_interval"])
        alpha = AlphaMonitor(
            sim, [flow.sender for flow in flows], spec["alpha_interval"]
        )
        queue.start()
        alpha.start()
        sim.run(until=spec["duration"])
        q = queue.series(after=spec["warmup"])
        a = alpha.series(after=spec["warmup"])
        return OpOutcome(
            sim_s=spec["duration"],
            outcome={
                "protocol": protocol,
                "interfaces": interface_ledger(network.network),
                "senders": [
                    [f.sender.packets_sent, f.sender.retransmits,
                     f.sender.timeouts, f.sender.ece_seen]
                    for f in flows
                ],
                "receivers": [
                    [f.receiver.packets_received, f.receiver.acks_sent]
                    for f in flows
                ],
                "queue_mean": float(q.mean()),
                "queue_std": float(q.std()),
                "alpha_mean": float(a.mean()),
            },
        )

    return op


def _leafspine_op(spec: Dict[str, Any]) -> Callable:
    def op() -> OpOutcome:
        from repro.campaign.cells import run_cell

        params = campaign_grid(spec["grid"]).expand()[0].params
        result = run_cell(params)
        return OpOutcome(
            sim_s=params["duration"],
            outcome=result,
            queries=result["incast_queries"],
        )

    return op


def _incast_op(spec: Dict[str, Any]) -> Callable:
    def op() -> OpOutcome:
        from repro.experiments.fig14_incast import (
            TESTBED_INITIAL_CWND,
            TESTBED_START_JITTER,
        )
        from repro.experiments.protocols import dctcp_testbed
        from repro.sim.apps.incast import FanInApp
        from repro.sim.topology import paper_testbed

        config = dctcp_testbed()
        testbed = paper_testbed(
            config.marker_factory, bandwidth_bps=spec["bandwidth_bps"]
        )
        app = FanInApp(
            testbed.aggregator,
            testbed.workers,
            n_flows=spec["n_flows"],
            bytes_per_flow=spec["response_bytes"],
            n_queries=spec["n_queries"],
            sender_cls=config.sender_cls,
            initial_cwnd=TESTBED_INITIAL_CWND,
            start_jitter=TESTBED_START_JITTER,
            jitter_seed=spec["jitter_seed"],
        )
        app.start()
        testbed.sim.run(until=60.0 * spec["n_queries"])
        results = app.results
        return OpOutcome(
            # The run's horizon is generous; the traffic ends with the
            # last query.
            sim_s=results[-1].finish_time if results else 0.0,
            outcome={
                "interfaces": interface_ledger(testbed.network),
                "queries": [
                    [r.start_time, r.finish_time, r.bytes_transferred,
                     r.timeouts, r.retransmits]
                    for r in results
                ],
                "goodput_bps": app.overall_goodput_bps(),
            },
            queries=len(results),
        )

    return op


def operations(spec: Dict[str, Any]) -> List[Callable]:
    """The in-process operations of one round of ``spec``."""
    workload = spec["workload"]
    if workload == "dumbbell":
        return [_dumbbell_op(spec, p) for p in spec["protocols"]]
    if workload == "leafspine":
        return [_leafspine_op(spec)]
    if workload == "incast":
        return [_incast_op(spec)]
    raise ValueError(f"{workload!r} has no in-process operations")


# -- rounds ---------------------------------------------------------------


@dataclasses.dataclass
class Round:
    """One timed pass over a spec's operations."""

    #: Raw host seconds, and the same calibrated to the reference host.
    wall_s: float = 0.0
    calibrated_s: float = 0.0
    #: Every calibration kernel time taken around this round's timings.
    kernel_s: List[float] = dataclasses.field(default_factory=list)
    sim_s: float = 0.0
    hops: int = 0
    build_s: float = 0.0
    audit_s: float = 0.0
    warm_s: float = 0.0
    worker_rss_mb: float = 0.0
    digests: List[str] = dataclasses.field(default_factory=list)
    #: One entry per operation: why it failed the gate, empty if clean.
    problems: List[List[str]] = dataclasses.field(default_factory=list)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    layer_s: Dict[str, float] = dataclasses.field(default_factory=dict)

    def timed(self, raw: float, calibrated: float, kernel_s: List[float]) -> None:
        """Add one timing and the calibration kernel runs around it."""
        self.wall_s += raw
        self.calibrated_s += calibrated
        self.kernel_s.extend(kernel_s)

    @property
    def scale(self) -> float:
        """Raw host seconds -> calibrated seconds, for this round."""
        return REFERENCE_S / statistics.median(self.kernel_s)

    def add_counts(self, counts: Dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def add_layers(self, layer_s: Dict[str, float]) -> None:
        for key, value in layer_s.items():
            self.layer_s[key] = self.layer_s.get(key, 0.0) + value


def _op_problems(outcome: OpOutcome, hops: int, violations: List[str]) -> List[str]:
    problems = list(violations)
    if hops <= 0:
        problems.append("no packet was delivered")
    if not outcome.sim_s > 0:
        problems.append(f"simulated time {outcome.sim_s!r} is not positive")
    if non_finite(outcome.outcome):
        problems.append("outcome holds a NaN or infinite number")
    return problems


def profile_layers(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per layer of everything ``profiler`` recorded."""
    return layers.attribute(pstats.Stats(profiler))


@dataclasses.dataclass
class OpRun:
    """One operation as timed by :func:`run_op`."""

    outcome: Any
    probe: Probe
    #: Host seconds of the operation, calibration kernels excluded.
    raw_s: float
    calibrated_s: float
    #: Every kernel time measured inside and right after the operation.
    kernel_s: List[float]
    layer_s: Dict[str, float]


def run_op(op: Callable, profile: bool = False, before: Optional[float] = None) -> OpRun:
    """Run one operation between calibration kernels.

    ``before`` is a kernel time measured just before the call (one is
    taken if omitted).  The simulation itself is timed in calibrated
    slices; the rest of the operation (build, result extraction) is
    calibrated by the kernels on either side.  A profiled operation is
    not sliced, so the profile holds no kernel time.  The invariant
    audit is left to the caller, outside the timing.
    """
    if before is None:
        before = kernel()
    profiler = cProfile.Profile() if profile else None
    with Probe(calibrate=not profile) as probe:
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outcome = op()
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - start
    after = kernel()
    raw = wall - sum(probe.kernel_s)
    rest = raw - probe.run_s
    return OpRun(
        outcome=outcome,
        probe=probe,
        raw_s=raw,
        calibrated_s=probe.run_calibrated_s + rest * REFERENCE_S / ((before + after) / 2),
        kernel_s=probe.kernel_s + [after],
        layer_s=profile_layers(profiler) if profiler is not None else {},
    )


def _in_process_round(spec: Dict[str, Any], profile: bool) -> Round:
    from repro.sim.packet import packet_pool_size

    rnd = Round()
    before = kernel()
    rnd.kernel_s.append(before)
    for op in operations(spec):
        timed = run_op(op, profile=profile, before=before)
        outcome, probe = timed.outcome, timed.probe
        rnd.timed(timed.raw_s, timed.calibrated_s, timed.kernel_s)
        before = timed.kernel_s[-1]
        audit_start = time.perf_counter()
        violations = probe.audit()
        rnd.audit_s += time.perf_counter() - audit_start
        hops = probe.hops()
        rnd.sim_s += outcome.sim_s
        rnd.hops += hops
        rnd.build_s += probe.build_s()
        rnd.digests.append(digest(outcome.outcome))
        rnd.problems.append(_op_problems(outcome, hops, violations))
        rnd.add_layers(timed.layer_s)
        counts = probe.counts()
        counts["apps.queries"] = outcome.queries
        rnd.add_counts(counts)
    rnd.counts["packet.pool_size_end"] = packet_pool_size()
    return rnd


def _work_dir() -> Path:
    """A fresh working directory inside the checkout."""
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base))


def campaign_cases(spec: Dict[str, Any], profile: bool = False) -> List[Any]:
    """The campaign grid's cells as cases of the instrumented cell module."""
    from repro.exec.cases import Case

    return [
        Case(
            experiment=CELL_EXPERIMENT,
            label=case.label,
            params={"cell": case.params, "profile": profile},
        )
        for case in campaign_grid(spec["grid"]).expand()
    ]


def _calibrated_makespan(
    makespan: float, before: float, after: float, results: List[Dict[str, Any]]
) -> Tuple[float, float, List[float]]:
    """Raw and calibrated makespan of one executor pass.

    The workers time their cells in calibrated slices
    (:mod:`perfbench.cell`).  The makespan is the busiest worker's time
    plus the executor's own overhead on top of it; the first part is
    taken calibrated from that worker, the second is calibrated by the
    kernels the parent ran on either side of the pass.  Kernel time
    spent inside the workers is excluded from both.
    """
    busy: Dict[int, List[float]] = {}
    kernels: List[float] = [before, after]
    for result in results:
        probe = result["probe"]
        total = busy.setdefault(probe["pid"], [0.0, 0.0, 0.0])
        total[0] += probe["busy_s"]
        total[1] += probe["calibrated_s"]
        total[2] += sum(probe["kernel_s"])
        kernels.extend(probe["kernel_s"])
    busy_s, calibrated_s, kernel_s = max(busy.values())
    overhead = max(0.0, makespan - busy_s)
    return (
        makespan - kernel_s,
        calibrated_s + overhead * REFERENCE_S / ((before + after) / 2),
        kernels,
    )


def _campaign_round(spec: Dict[str, Any], profile: bool) -> Round:
    from repro.exec.cache import ResultCache
    from repro.exec.executor import SweepExecutor

    rnd = Round()
    cases = campaign_cases(spec, profile=profile)
    work = _work_dir()
    try:
        cold_cache = ResultCache(work / "cache")
        cold = SweepExecutor(jobs=CAMPAIGN_JOBS, cache=cold_cache)
        profiler = cProfile.Profile() if profile else None
        before = kernel()
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            results = cold.run(cases, stage="campaign")
        finally:
            if profiler is not None:
                profiler.disable()
        makespan = time.perf_counter() - start
        after = kernel()
        rnd.timed(*_calibrated_makespan(makespan, before, after, results))
        if profiler is not None:
            rnd.add_layers(profile_layers(profiler))

        warm_cache = ResultCache(work / "cache")
        warm = SweepExecutor(jobs=CAMPAIGN_JOBS, cache=warm_cache)
        start = time.perf_counter()
        replayed = warm.run(cases, stage="campaign")
        rnd.warm_s = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for case, result, again in zip(cases, results, replayed):
        cell, probe = result["cell"], result["probe"]
        problems = list(probe["violations"])
        if probe["hops"] <= 0:
            problems.append("no packet was delivered")
        if non_finite(cell):
            problems.append("outcome holds a NaN or infinite number")
        if again is None or digest(again["cell"]) != digest(cell):
            problems.append("warm cache replay differs from the cold result")
        rnd.sim_s += case.params["cell"]["duration"]
        rnd.hops += probe["hops"]
        rnd.build_s += probe["build_s"]
        rnd.audit_s += probe["audit_s"]
        rnd.worker_rss_mb = max(rnd.worker_rss_mb, probe["rss_mb"])
        rnd.digests.append(digest(cell))
        rnd.problems.append(problems)
        rnd.add_layers(probe["layer_s"])
        pool_end = probe["counts"].pop("packet.pool_size_end")
        rnd.add_counts(probe["counts"])
        rnd.counts["packet.pool_size_end"] = max(
            rnd.counts.get("packet.pool_size_end", 0), pool_end
        )
    stage = cold.report.stages[-1]
    rnd.counts["exec.cells"] = stage.cases
    rnd.counts["exec.executed"] = stage.executed
    rnd.counts["cache.hits"] = cold_cache.hits + warm_cache.hits
    rnd.counts["cache.misses"] = cold_cache.misses + warm_cache.misses
    return rnd


def run_round(spec: Dict[str, Any], profile: bool = False) -> Round:
    """One round of ``spec``: every operation it names, timed."""
    if spec["workload"] == "campaign":
        return _campaign_round(spec, profile)
    return _in_process_round(spec, profile)


def n_operations(spec: Dict[str, Any]) -> int:
    """Operations in one round of ``spec``."""
    if spec["workload"] == "campaign":
        return campaign_grid(spec["grid"]).n_cases
    return len(operations(spec))


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ---------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Build the first operation of ``workload`` in this (fresh) process
    and return the monotonic clock at its first ``Simulator.run``.

    Covers the imports, topology build, flow and app launch and probe
    start; for ``campaign`` also grid expansion, cache open and executor
    construction.
    """
    spec = make_spec(workload, seed)
    try:
        if workload == "campaign":
            from repro.campaign.cells import run_cell
            from repro.exec.cache import ResultCache
            from repro.exec.executor import SweepExecutor

            cases = campaign_cases(spec)
            work = _work_dir()
            try:
                cache = ResultCache(work / "cache")
                cache.get(cases[0])
                SweepExecutor(jobs=CAMPAIGN_JOBS, cache=cache)
                with Probe(stop_at_run=True):
                    run_cell(cases[0].params["cell"])
            finally:
                shutil.rmtree(work, ignore_errors=True)
        else:
            with Probe(stop_at_run=True):
                operations(spec)[0]()
    except ReachedRun as reached:
        return reached.at
    raise RuntimeError(f"{workload}: the first operation never ran the simulator")
