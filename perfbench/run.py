"""Run one workload of the simulation ladder and print its metrics.

    python3 perfbench/run.py --workload dumbbell --seed 1 --seconds 20 --trace 0

Measures for ``--seconds`` of host time, repeating rounds of the
workload's spec, and prints one JSON object as the last line of stdout:
``correct``, ``attempted`` and ``failed`` (operations, i.e. simulations
or campaign cells, and how many failed the correctness gate) and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs profiled and unprofiled rounds
and reports the per-layer metrics instead.

Correctness gate, applied to every operation outside the timing:
the invariant watchdog's post-run audit, finite outcomes, identical
outcome digests for every repeat of the same spec, and — in an untimed
reference round at the default seed — the digests recorded in
``perfbench/ladder.json``.  A failing operation is counted, reported
on stderr, and the run goes on.  A run in which no round completes
still prints its result: ``correct`` false and every metric ``null``.

``--against <git-ref>`` runs the same benchmark code on ``<git-ref>``
and on this tree in alternating pairs (see :mod:`perfbench.ab`).
``--print-digests`` prints the default-seed digests of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-up measurements per run; the median is reported.
SETUP_SAMPLES = 3

#: Rounds that may raise before a run gives up.
MAX_CRASHES = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first
    ``Simulator.run`` (both ends on the system-wide monotonic clock)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - started


def calibrated_setups(workload: str, seed: int) -> List[float]:
    """:data:`SETUP_SAMPLES` set-up times, each calibrated by the kernel
    runs on either side of it."""
    from perfbench.calibrate import REFERENCE_S, kernel

    samples = []
    before = kernel(repeats=4)
    for _ in range(SETUP_SAMPLES):
        raw = measure_setup(workload, seed)
        after = kernel(repeats=4)
        samples.append(raw * REFERENCE_S / ((before + after) / 2))
        before = after
    return samples


class Gate:
    """Counts operations and the ones that fail the correctness gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, rnd: Any, expected: Optional[List[str]]) -> None:
        self.attempted += len(rnd.problems)
        if expected is not None and len(expected) != len(rnd.digests):
            self.failed += len(rnd.problems)
            print(f"perfbench: {label}: {len(rnd.digests)} operations, "
                  f"expected {len(expected)}", file=sys.stderr)
            return
        for i, (got, problems) in enumerate(zip(rnd.digests, rnd.problems)):
            problems = list(problems)
            if expected is not None and got != expected[i]:
                problems.append(f"outcome digest {got} != expected {expected[i]}")
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"perfbench: {label} op {i}: {problem}", file=sys.stderr)

    def crashed(self, label: str, n_ops: int) -> None:
        self.attempted += n_ops
        self.failed += n_ops
        print(f"perfbench: {label} raised:\n{traceback.format_exc()}",
              file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure ``workload`` and return the result object to print."""
    from perfbench.workloads import (
        DEFAULT_SEED, LADDER, make_spec, n_operations, peak_rss_mb, run_round,
    )

    spec = make_spec(workload, seed)
    reference = make_spec(workload, DEFAULT_SEED)
    gate = Gate()
    n_ops = n_operations(spec)

    # Untimed reference round: warms the interpreter and checks the
    # recorded default-seed digests.
    recorded = LADDER["digests"].get(workload)
    try:
        gate.check("reference", run_round(reference), recorded)
    except Exception:
        gate.crashed("reference", n_operations(reference))

    setups: List[float] = []
    if not trace:
        try:
            setups = calibrated_setups(workload, seed)
        except Exception:
            gate.crashed("set-up", 1)

    plain, profiled = [], []
    first_digests: Optional[List[str]] = recorded if seed == DEFAULT_SEED else None
    crashes = 0
    deadline = time.perf_counter() + seconds
    while crashes < MAX_CRASHES:
        if time.perf_counter() >= deadline and plain and (profiled or not trace):
            break
        profile = trace and len(profiled) < len(plain)
        label = f"{'profiled ' if profile else ''}round {len(plain) + len(profiled)}"
        try:
            rnd = run_round(spec, profile=profile)
        except Exception:
            gate.crashed(label, n_ops)
            crashes += 1
            continue
        if first_digests is None:
            first_digests = rnd.digests
        gate.check(label, rnd, first_digests)
        (profiled if profile else plain).append(rnd)

    if not plain or (trace and not profiled):
        # Nothing was measured: report the failed operations, no figures.
        print(f"perfbench: {workload}: no round completed", file=sys.stderr)
        metrics: Optional[Dict[str, Any]] = None
    elif trace:
        metrics = layer_metrics(plain, profiled)
    else:
        metrics = end_to_end_metrics(plain, setups, peak_rss_mb())
    return {
        "correct": gate.failed == 0 and metrics is not None,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def end_to_end_metrics(
    plain: List[Any], setups: List[float], rss_mb: float
) -> Dict[str, Optional[float]]:
    """Medians over the unprofiled rounds, plus set-up and peak memory
    (``None`` when every set-up probe failed)."""
    return {
        "wall_per_sim_s": _median([r.calibrated_s / r.sim_s for r in plain]),
        "us_per_hop": _median([r.calibrated_s / r.hops * 1e6 for r in plain]),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": max([rss_mb] + [r.worker_rss_mb for r in plain]),
    }


def layer_metrics(plain: List[Any], profiled: List[Any]) -> Dict[str, float]:
    """Per-layer self time (from profiled rounds) and counters; every
    time is calibrated like the end-to-end ones."""
    from perfbench import layers

    counts = plain[0].counts
    hops = plain[0].hops
    out: Dict[str, float] = {}
    self_s = {
        name: statistics.fmean(r.layer_s.get(name, 0.0) * r.scale for r in profiled)
        for name in layers.LAYERS + (layers.WAIT,)
    }
    busy = sum(self_s[name] for name in layers.LAYERS)
    for name in layers.LAYERS:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.share"] = _ratio(self_s[name], busy)
    out[f"{layers.WAIT}.self_s"] = self_s[layers.WAIT]
    out["profile.overhead_x"] = _ratio(
        _median([r.calibrated_s for r in profiled]),
        _median([r.calibrated_s for r in plain]),
    )
    out["calibration.kernel_s"] = _median([k for r in plain for k in r.kernel_s])
    out["calibration.raw_wall_per_sim_s"] = _median([r.wall_s / r.sim_s for r in plain])
    c = counts.get
    out.update({
        "engine.events": c("engine.events", 0),
        "engine.events_per_hop": _ratio(c("engine.events", 0), hops),
        "engine.scheduled_per_processed": _ratio(
            c("engine.scheduled", 0), c("engine.events", 0)),
        "link.hops": hops,
        "link.us_per_hop": _ratio(self_s["link"] * 1e6, hops),
        "queues.enqueued": c("queues.enqueued", 0),
        "queues.marked": c("queues.marked", 0),
        "queues.dropped": c("queues.dropped", 0),
        "queues.mark_ratio": _ratio(c("queues.marked", 0), c("queues.enqueued", 0)),
        "queues.drop_ratio": _ratio(
            c("queues.dropped", 0), c("queues.enqueued", 0) + c("queues.dropped", 0)),
        "node.forwarded": c("node.forwarded", 0),
        "node.unroutable": c("node.unroutable", 0),
        "node.forwards_per_hop": _ratio(c("node.forwarded", 0), hops),
        "packet.pool_size_end": c("packet.pool_size_end", 0),
        "tcp.packets_sent": c("tcp.packets_sent", 0),
        "tcp.retransmits": c("tcp.retransmits", 0),
        "tcp.timeouts": c("tcp.timeouts", 0),
        "tcp.acks_sent": c("tcp.acks_sent", 0),
        "tcp.useful_ratio": _ratio(
            c("tcp.unique_received", 0), c("tcp.packets_sent", 0)),
        "apps.flows_started": c("apps.flows_started", 0),
        "apps.flows_completed": c("apps.flows_completed", 0),
        "apps.flows_incomplete": (
            c("apps.flows_started", 0) - c("apps.flows_completed", 0)),
        "apps.queries": c("apps.queries", 0),
        "trace.samples": c("trace.samples", 0),
        "chaos.drops": c("chaos.drops", 0),
        "chaos.ecn_mangled": c("chaos.ecn_mangled", 0),
        "topology.build_s": _median([r.build_s * r.scale for r in plain]),
        "invariants.audit_s": _median([r.audit_s * r.scale for r in plain]),
        "exec.cells": c("exec.cells", 0),
        "exec.executed": c("exec.executed", 0),
        "exec.warm_s": _median([r.warm_s * r.scale for r in plain]),
        "cache.hits": c("cache.hits", 0),
        "cache.misses": c("cache.misses", 0),
        "cache.hit_ratio": _ratio(
            c("cache.hits", 0), c("cache.hits", 0) + c("cache.misses", 0)),
    })
    return out


def with_units(
    values: Optional[Dict[str, Any]], declared: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """``{name: {value, unit}}`` in ``BENCHMARK.json`` order; the computed
    names must be exactly the declared ones.  ``values=None`` (nothing
    was measured) gives every declared metric the value ``None``."""
    names = [m["name"] for m in declared]
    if values is None:
        values = dict.fromkeys(names)
    if set(values) != set(names):
        raise KeyError(
            f"metrics {sorted(set(values) ^ set(names))} are not both "
            "computed and declared in BENCHMARK.json"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no simulator sources under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS, DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", metavar="GIT_REF",
                        help="A/B this tree against GIT_REF")
    parser.add_argument("--print-digests", action="store_true",
                        help="print the default-seed outcome digests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not seconds > 0:
        return _fail("--seconds must be positive")

    if args.setup_probe:
        from perfbench.workloads import setup_probe

        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    if args.print_digests:
        from perfbench.workloads import make_spec, run_round

        print(json.dumps({
            w: run_round(make_spec(w, DEFAULT_SEED)).digests for w in WORKLOADS
        }, indent=2))
        return 0
    if args.against:
        from perfbench.ab import run_ab

        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return run_ab(args.against, workloads, seconds, bench)
    if args.workload is None:
        return _fail("--workload is required")

    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = with_units(result["metrics"], declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
