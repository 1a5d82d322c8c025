"""Executor entry point for the campaign workload's cells.

The campaign's hop counters, invariant audit and layer profile live in
the worker processes, so each cell runs
:func:`repro.campaign.cells.run_cell` under a :class:`Probe` here and
returns the cell's result next to what the probe saw.  The cell result
itself is untouched; only ``result["cell"]`` enters the outcome digest.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from perfbench.calibrate import kernel
from perfbench.workloads import peak_rss_mb, run_op


def run_case(case: Any) -> Dict[str, Any]:
    """Run one campaign cell; pure function of ``case.params["cell"]``."""
    from repro.campaign.cells import run_cell
    from repro.sim.packet import packet_pool_size

    entered = time.perf_counter()
    params = case.params["cell"]

    def op() -> Dict[str, Any]:
        return run_cell(params)

    before = kernel()
    timed = run_op(op, profile=bool(case.params["profile"]), before=before)
    probe = timed.probe
    audit_start = time.perf_counter()
    violations = probe.audit()
    audit_s = time.perf_counter() - audit_start
    counts = probe.counts()
    counts["apps.queries"] = timed.outcome["incast_queries"]
    counts["packet.pool_size_end"] = packet_pool_size()
    return {
        "cell": timed.outcome,
        "probe": {
            "pid": os.getpid(),
            "hops": probe.hops(),
            "calibrated_s": timed.calibrated_s,
            "kernel_s": [before] + timed.kernel_s,
            "build_s": probe.build_s(),
            "audit_s": audit_s,
            "rss_mb": peak_rss_mb(),
            "violations": violations,
            "counts": counts,
            "layer_s": timed.layer_s,
            # Everything this call spent, kernels included.
            "busy_s": time.perf_counter() - entered,
        },
    }
