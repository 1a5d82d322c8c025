"""Layer map and cProfile self-time attribution for the traced run.

Every ``repro`` module a workload executes belongs to exactly one named
layer.  Profiled self time is grouped by the layer that owns the
function; time spent in builtins and in third-party or standard-library
Python code is charged to the ``repro`` module that called it (split
over its callers in proportion to the self time each call path
accounted for).  A ``repro`` module missing from the map raises
:class:`UnmappedModule`, so a new module cannot silently fall out of
the attribution.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath
from typing import Dict, Optional, Tuple

#: Layers in report order.  ``harness`` is the benchmark's own code and
#: anything whose call chain never enters ``repro``.
LAYERS = (
    "engine",
    "link",
    "queues",
    "marking",
    "node",
    "packet",
    "tcp",
    "apps",
    "trace",
    "chaos",
    "topology",
    "exec",
    "campaign",
    "experiments",
    "harness",
)

#: Blocking waits (lock acquire, sleep, poll/select) are idle time, not
#: work of the caller; the campaign parent spends most of its makespan
#: there while workers simulate.
WAIT = "wait"

#: Exact module -> layer.
MODULE_LAYERS = {
    "repro.sim": "engine",
    "repro.sim.engine": "engine",
    "repro.sim.kernels": "engine",
    "repro.sim.link": "link",
    "repro.sim.queues": "queues",
    "repro.sim.buffer_pool": "queues",
    "repro.core.marking": "marking",
    "repro.core.parameters": "marking",
    "repro.sim.node": "node",
    "repro.sim.routing": "node",
    "repro.sim.datapath": "node",
    "repro.sim.packet": "packet",
    "repro.sim.packet_core": "packet",
    "repro.sim.trace": "trace",
    "repro.sim.packet_log": "trace",
    "repro.sim.invariants": "trace",
    "repro.sim.chaos": "chaos",
    "repro.sim.topology": "topology",
    "repro.sim.scenario": "experiments",
}

#: Package -> layer, for the package and every module below it.
PACKAGE_LAYERS = {
    "repro.sim.tcp": "tcp",
    "repro.sim.apps": "apps",
    "repro.stats": "trace",
    "repro.exec": "exec",
    "repro.campaign": "campaign",
    "repro.experiments": "experiments",
}

_WAIT_MARKERS = ("acquire", "sleep", "poll", "select", "waitpid")

#: Caller chains deeper than this are charged to ``harness``.
_MAX_DEPTH = 40


class UnmappedModule(LookupError):
    """A profiled ``repro`` module has no layer in the map."""


def layer_of_module(module: str) -> str:
    """The layer owning dotted ``module``; raises if it is unmapped."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    for package, layer in PACKAGE_LAYERS.items():
        if module == package or module.startswith(package + "."):
            return layer
    raise UnmappedModule(f"repro module {module!r} maps to no layer")


def module_of_file(filename: str) -> Optional[str]:
    """Dotted ``repro`` module name of a source path, else None."""
    parts = PurePath(filename).with_suffix("").parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i > 0 and parts[i - 1] == "src":
            names = list(parts[i:])
            if names[-1] == "__init__":
                names.pop()
            return ".".join(names)
    return None


def _is_harness(filename: str) -> bool:
    parts = PurePath(filename).parts
    return len(parts) >= 2 and parts[-2] == "perfbench"


Func = Tuple[str, int, str]


def _owner(func: Func) -> Optional[str]:
    filename, _, name = func
    if filename == "~":
        if any(marker in name for marker in _WAIT_MARKERS):
            return WAIT
        return None
    module = module_of_file(filename)
    if module is not None:
        return layer_of_module(module)
    if _is_harness(filename):
        return "harness"
    return None


def attribute(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer (plus ``wait``) from one profile."""
    raw = stats.stats  # type: ignore[attr-defined]
    totals = {layer: 0.0 for layer in LAYERS}
    totals[WAIT] = 0.0
    owners: Dict[Func, Optional[str]] = {}

    def owner(func: Func) -> Optional[str]:
        if func not in owners:
            owners[func] = _owner(func)
        return owners[func]

    def charge(func: Func, amount: float, depth: int) -> None:
        layer = owner(func)
        if layer is not None:
            totals[layer] += amount
            return
        entry = raw.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {c: v[2] for c, v in callers.items() if v[2] > 0}
        total = sum(weights.values())
        if depth >= _MAX_DEPTH or total <= 0:
            totals["harness"] += amount
            return
        for caller, weight in weights.items():
            charge(caller, amount * weight / total, depth + 1)

    for func, (_, _, self_time, _, _) in raw.items():
        if self_time > 0:
            charge(func, self_time, 0)
    return totals
