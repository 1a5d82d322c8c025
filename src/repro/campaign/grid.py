"""Declarative campaign grids over the leaf–spine fabric.

A :class:`CampaignGrid` names the axes of an FCT study as plain data:
marking thresholds (``(K,)`` for Fixed-K DCTCP, ``(K1, K2)`` for
DT-DCTCP), offered load, incast fan-in, scenario, and seeds — plus the
fabric shape and workload constants shared by every cell.  ``expand()``
turns the grid into the cross product of :class:`~repro.exec.cases.Case`
cells (experiment module :mod:`repro.campaign.cells`), so a campaign
inherits the executor's retries, timeouts, checkpoint-resume, and the
content-addressed cache for free.

Cell ordering — and therefore result ordering — is the deterministic
nested iteration ``thresholds × scenarios × loads × fan_ins × seeds``;
cache keys are a pure function of each cell's parameters, so two
expansions of an equal grid are key-identical whatever process built
them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exec.cases import Case

__all__ = [
    "SCENARIOS",
    "SENDERS",
    "CampaignGrid",
    "CellCoord",
    "threshold_label",
]

#: The disturbance workloads a cell can run behind its short flows:
#: ``buildup`` pins long-lived bulk flows on the client's downlink (the
#: queue-buildup microbenchmark at fabric scale), ``incast`` fires
#: synchronized fan-in bursts at the client, and ``space-dc`` is the
#: buildup workload on a hostile wide-area fabric — 200 ms-class RTTs,
#: per-packet propagation jitter, and deterministic link-flap trains
#: from a seeded :class:`~repro.sim.chaos.ChaosSchedule`.
SCENARIOS = ("buildup", "incast", "space-dc")

#: Sender implementations a cell can drive its traffic with.
SENDERS = ("dctcp", "cubic")

EXPERIMENT = "repro.campaign.cells"


def threshold_label(thresholds: Sequence[float]) -> str:
    """Display name for one marking configuration."""
    if len(thresholds) == 1:
        return f"K={thresholds[0]:g}"
    return f"K1={thresholds[0]:g},K2={thresholds[1]:g}"


@dataclasses.dataclass(frozen=True)
class CellCoord:
    """One grid cell's coordinates on the non-seed axes.

    Seeds are replicates of the same cell, pooled by the aggregation;
    everything else identifies a distinct experimental condition.
    """

    thresholds: Tuple[float, ...]
    scenario: str
    load: float
    fan_in: int
    #: Sender implementation driving the cell's traffic; ``"cubic"``
    #: rides the same marking fabric but reacts to loss, not marks.
    sender: str = "dctcp"

    @property
    def protocol(self) -> str:
        if self.sender != "dctcp":
            return self.sender.upper()
        return threshold_label(self.thresholds)

    def label(self) -> str:
        return (
            f"{self.protocol}/{self.scenario}/load={self.load:g}"
            f"/fan={self.fan_in}"
        )


@dataclasses.dataclass(frozen=True)
class CampaignGrid:
    """One declarative K / (K1, K2) × load × fan-in × scenario × seeds grid."""

    #: Marking configurations: each entry is ``(K,)`` or ``(K1, K2)``.
    thresholds: Tuple[Tuple[float, ...], ...]
    #: Offered short-flow load as a fraction of the client's access rate.
    loads: Tuple[float, ...]
    #: Disturbance size: bulk flows (buildup) or burst width (incast);
    #: 0 runs the short flows undisturbed.
    fan_ins: Tuple[int, ...]
    scenarios: Tuple[str, ...] = ("buildup",)
    seeds: Tuple[int, ...] = (1, 2, 3)

    # -- fabric shape ---------------------------------------------------
    n_leaves: int = 3
    n_spines: int = 2
    hosts_per_leaf: int = 2
    host_bandwidth_bps: float = 10e9
    fabric_bandwidth_bps: float = 40e9
    per_hop_delay: float = 5e-6
    fabric_buffer_bytes: float = 512.0 * 1024

    # -- workload constants ---------------------------------------------
    flow_bytes: int = 20 * 1024
    incast_bytes_per_flow: int = 64 * 1024
    duration: float = 0.04
    warmup: float = 0.008

    # -- protocol axis ---------------------------------------------------
    #: Sender per threshold config, zip-paired with ``thresholds`` (NOT
    #: crossed): entry ``i`` drives the cells of ``thresholds[i]``.
    #: ``None`` means all-DCTCP.  A 3-protocol comparison is e.g.
    #: ``thresholds=((65,), (50, 80), (65,))`` with
    #: ``senders=("dctcp", "dctcp", "cubic")``.
    senders: Optional[Tuple[str, ...]] = None

    # -- chaos (space-dc cells only) -------------------------------------
    #: Per-packet propagation jitter amplitude on every fabric link.
    jitter_s: float = 2e-3
    #: Link-flap train on the last source leaf's uplink: one ``flap_down``
    #: outage per ``flap_period``, ``flap_count`` times, starting at the
    #: end of warmup.  ``flap_count=0`` disables the train.
    flap_period: float = 2.0
    flap_down: float = 0.5
    flap_count: int = 3

    #: Run the invariant watchdog inside every cell (conservation audit
    #: after the window closes; violations fail the case).
    invariants: bool = False

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("campaign needs at least one threshold config")
        for config in self.thresholds:
            if len(config) not in (1, 2):
                raise ValueError(
                    f"threshold config must be (K,) or (K1, K2), got {config}"
                )
            if len(config) == 2 and not config[0] < config[1]:
                raise ValueError(
                    f"need K1 < K2, got K1={config[0]}, K2={config[1]}"
                )
            if not all(math.isfinite(k) and k > 0 for k in config):
                raise ValueError(
                    f"thresholds must be finite and positive, got {config}"
                )
        if not self.loads or not all(
            math.isfinite(l) and l > 0 for l in self.loads
        ):
            raise ValueError(
                f"loads must be finite and positive, got {self.loads}"
            )
        if not self.fan_ins or any(f < 0 for f in self.fan_ins):
            raise ValueError(f"fan_ins must be >= 0, got {self.fan_ins}")
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ValueError(
                    f"unknown scenario {scenario!r}; choose from {SCENARIOS}"
                )
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds: {self.seeds}")
        if self.senders is not None:
            if len(self.senders) != len(self.thresholds):
                raise ValueError(
                    f"senders ({len(self.senders)}) must pair 1:1 with "
                    f"threshold configs ({len(self.thresholds)})"
                )
            for sender in self.senders:
                if sender not in SENDERS:
                    raise ValueError(
                        f"unknown sender {sender!r}; choose from {SENDERS}"
                    )
        for name in (
            "duration",
            "host_bandwidth_bps",
            "fabric_bandwidth_bps",
            "fabric_buffer_bytes",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("warmup", "per_hop_delay", "jitter_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        for name in ("flap_period", "flap_down"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.flap_count < 0:
            raise ValueError(
                f"flap_count must be >= 0, got {self.flap_count}"
            )
        if self.flap_count > 0 and not 0 < self.flap_down < self.flap_period:
            raise ValueError(
                "flap train needs 0 < flap_down < flap_period, got "
                f"flap_down={self.flap_down}, flap_period={self.flap_period}"
            )
        if self.n_leaves < 2:
            raise ValueError(
                "campaign cells send cross-leaf traffic; need >= 2 leaves"
            )
        if self.warmup >= self.duration:
            raise ValueError("warmup must be shorter than duration")

    def coords(self) -> Iterator[CellCoord]:
        """Non-seed cells in expansion order."""
        senders = self.senders or ("dctcp",) * len(self.thresholds)
        for thresholds, sender in zip(self.thresholds, senders):
            for scenario in self.scenarios:
                for load in self.loads:
                    for fan_in in self.fan_ins:
                        yield CellCoord(
                            thresholds=tuple(thresholds),
                            scenario=scenario,
                            load=load,
                            fan_in=fan_in,
                            sender=sender,
                        )

    def expand(self) -> List[Case]:
        """The full grid as executor cases, seeds innermost."""
        return [
            Case(
                experiment=EXPERIMENT,
                label=f"{coord.label()}/seed={seed}",
                params=self.cell_params(coord, seed),
            )
            for coord in self.coords()
            for seed in self.seeds
        ]

    def cell_params(self, coord: CellCoord, seed: int) -> Dict[str, Any]:
        """The flat, JSON-serialisable parameter set of one cell.

        New optional keys (``sender``, the chaos knobs, ``invariants``)
        are included only when they deviate from historic behaviour, so
        every pre-existing grid keeps its exact content-addressed cache
        keys.
        """
        params = {
            "thresholds": list(coord.thresholds),
            "scenario": coord.scenario,
            "load": coord.load,
            "fan_in": coord.fan_in,
            "seed": seed,
            "n_leaves": self.n_leaves,
            "n_spines": self.n_spines,
            "hosts_per_leaf": self.hosts_per_leaf,
            "host_bandwidth_bps": self.host_bandwidth_bps,
            "fabric_bandwidth_bps": self.fabric_bandwidth_bps,
            "per_hop_delay": self.per_hop_delay,
            "fabric_buffer_bytes": self.fabric_buffer_bytes,
            "flow_bytes": self.flow_bytes,
            "incast_bytes_per_flow": self.incast_bytes_per_flow,
            "duration": self.duration,
            "warmup": self.warmup,
        }
        if coord.sender != "dctcp":
            params["sender"] = coord.sender
        if coord.scenario == "space-dc":
            params["jitter_s"] = self.jitter_s
            params["flap_period"] = self.flap_period
            params["flap_down"] = self.flap_down
            params["flap_count"] = self.flap_count
        if self.invariants:
            params["invariants"] = True
        return params

    @property
    def n_cells(self) -> int:
        return (
            len(self.thresholds)
            * len(self.scenarios)
            * len(self.loads)
            * len(self.fan_ins)
        )

    @property
    def n_cases(self) -> int:
        return self.n_cells * len(self.seeds)
