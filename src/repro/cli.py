"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``analyze``   — DF stability work-up for one configuration
                  (margin, sufficient condition, predicted limit cycle);
* ``figure``    — regenerate one paper figure's table (1, 2, 4, 6, 7,
                  9, 10, 11, 12, 13, 14, 15) or ``all``;
* ``simulate``  — one dumbbell run with chosen protocol and flow count,
                  printing queue statistics;
* ``incast``    — one incast point on the testbed;
* ``bench``     — the :mod:`repro.perf` benchmark suite (engine
                  events/sec, link saturation, datapath lanes,
                  per-figure wall time), written to ``BENCH_PR9.json``;
* ``campaign``  — an FCT grid campaign on the leaf–spine fabric:
                  K / (K1, K2) × offered load × incast fan-in ×
                  scenario × seeds, run through the fault-tolerant
                  executor with censoring-aware p50/p95/p99 aggregation
                  (see :mod:`repro.campaign`);
* ``faults``    — fault-injection smoke: runs a sweep with scheduled
                  crashes/hangs/corruption, asserts the non-faulted
                  results are byte-identical to a fault-free run, then
                  resumes and asserts only the casualties re-execute;
* ``cache``     — result-cache maintenance: ``stats``, ``verify``
                  (quarantine damaged entries), ``gc``.

``figure`` and ``simulate`` accept ``--profile`` to wrap the run in
cProfile (top-20 cumulative table on stderr, raw pstats via
``--profile-out``).  Sweep-shaped figures accept ``--timeout``,
``--retries``, and ``--failure-policy`` for fault-tolerant execution,
plus ``--chunk-size`` to batch several cases per worker round trip;
with a skip policy the exit code is 3 when a sweep completed partially
(re-run the same command to resume the holes).

Examples::

    python -m repro.cli analyze --flows 55 --protocol dt-dctcp
    python -m repro.cli figure 14 --quick
    python -m repro.cli figure 10 --quick --profile
    python -m repro.cli figure 10 --jobs 8 --timeout 600 --retries 2 \\
        --failure-policy retry-then-skip
    python -m repro.cli simulate --flows 20 --protocol dctcp --duration 0.03
    python -m repro.cli incast --flows 35 --protocol dctcp
    python -m repro.cli campaign --k 40 --k 65 --k1k2 30,50 \\
        --loads 0.2,0.4 --fan-ins 0,8 --scenarios buildup,incast \\
        --seeds 1,2,3 --jobs 8 --output campaign.json
    python -m repro.cli bench --quick
    python -m repro.cli bench --check BENCH_PR9.json --baseline old.json
    python -m repro.cli bench --quick --compare BENCH_PR9.json
    python -m repro.cli faults --cases 24 --rate 0.25 --jobs 4
    python -m repro.cli cache stats
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core import (
    analyze,
    calibrate_gain_scale,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.experiments import full_scale, quick_scale
from repro.experiments.protocols import (
    dctcp_sim,
    dctcp_testbed,
    dt_dctcp_sim,
    dt_dctcp_testbed,
)
from repro.experiments.tables import print_table
from repro.sim import kernels

__all__ = ["main"]

FIGURES = {
    "1": "repro.experiments.fig01_oscillation",
    "2": "repro.experiments.fig02_marking",
    "4": "repro.experiments.fig04_criterion",
    "6": "repro.experiments.fig06_08_df",
    "7": "repro.experiments.fig07_nyquist_loci",
    "8": "repro.experiments.fig06_08_df",
    "9": "repro.experiments.fig09_critical_n",
    "10": "repro.experiments.fig10_avg_queue",
    "11": "repro.experiments.fig11_std_dev",
    "12": "repro.experiments.fig12_alpha",
    "13": "repro.experiments.fig13_topology",
    "14": "repro.experiments.fig14_incast",
    "15": "repro.experiments.fig15_completion_time",
}

#: Figure mains that accept a Scale argument; these are the sweep-shaped
#: figures, which also accept a SweepExecutor for --jobs / caching.
SCALED_FIGURES = {"1", "10", "11", "12", "14", "15"}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text}"
        )
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text}"
        )
    return value


def _protocol_params(name: str):
    if name == "dctcp":
        return paper_dctcp()
    if name == "dt-dctcp":
        return paper_dt_dctcp()
    raise ValueError(f"unknown protocol {name!r}")


def cmd_analyze(args: argparse.Namespace) -> int:
    net = paper_network(args.flows, g=args.g)
    params = _protocol_params(args.protocol)
    scale = (
        args.gain_scale
        if args.gain_scale is not None
        else calibrate_gain_scale(paper_network(10), paper_dctcp(), 60)
    )
    report = analyze(net, params, loop_gain_scale=scale)
    rows = [
        ("flows", args.flows),
        ("gain scale", scale),
        ("sufficient condition (Thm 1/2)", report.sufficient_condition),
        ("stability margin", report.margin),
        ("oscillation predicted", report.oscillation_predicted),
    ]
    if report.oscillation_predicted:
        rows.append(("limit-cycle amplitude (pkts)", report.predicted_amplitude))
        rows.append(("limit-cycle frequency (rad/s)", report.predicted_frequency))
    print_table(["quantity", "value"], rows,
                title=f"DF stability analysis - {args.protocol}")
    return 0


def _maybe_profiled(args: argparse.Namespace):
    """The profiling context for ``--profile`` runs, else a no-op."""
    if getattr(args, "profile", False):
        from repro.perf.profiling import profiled

        return profiled(dump_path=getattr(args, "profile_out", None))
    import contextlib

    return contextlib.nullcontext()


def cmd_figure(args: argparse.Namespace) -> int:
    with _maybe_profiled(args):
        return _run_figure(args)


def _run_figure(args: argparse.Namespace) -> int:
    scale = quick_scale() if args.quick else full_scale()
    use_cache = not args.no_cache
    if args.id == "all":
        from repro.experiments.runner import run_all

        run_all(
            quick=args.quick,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=use_cache,
        )
        return 0
    module_name = FIGURES.get(args.id)
    if module_name is None:
        print(f"unknown figure {args.id!r}; choose from "
              f"{sorted(FIGURES)} or 'all'", file=sys.stderr)
        return 2
    import importlib

    module = importlib.import_module(module_name)
    if args.id in SCALED_FIGURES:
        from repro.exec import ResultCache, SweepExecutor, default_cache_dir

        cache = (
            ResultCache(
                args.cache_dir if args.cache_dir is not None
                else default_cache_dir()
            )
            if use_cache
            else None
        )
        executor = SweepExecutor(
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
            failure_policy=args.failure_policy,
            chunk_size=args.chunk_size,
        )
        failures_before = len(executor.report.failures)
        try:
            module.main(scale, executor=executor)
        except Exception:
            # Under a skip policy a figure may be unable to tabulate
            # around the holes; every completed cell is already durably
            # cached, so report the partial state instead of aborting —
            # but only when this run actually recorded case failures,
            # else the exception is a real bug and must propagate.  The
            # traceback still goes to stderr either way.
            if len(executor.report.failures) == failures_before:
                raise
            import traceback

            traceback.print_exc(file=sys.stderr)
        # Telemetry on stderr so the figure table on stdout stays
        # byte-identical to a plain sequential run.
        print(executor.report.render(), file=sys.stderr)
        if executor.report.failures:
            print(
                f"{len(executor.report.failures)} case(s) failed; re-run "
                "the same command to resume from the manifest",
                file=sys.stderr,
            )
            return 3
    else:
        module.main()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    with _maybe_profiled(args):
        return _run_simulate(args)


def _run_simulate(args: argparse.Namespace) -> int:
    from repro.sim.apps.bulk import launch_bulk_flows
    from repro.sim.topology import dumbbell
    from repro.sim.trace import QueueMonitor

    protocol = dctcp_sim() if args.protocol == "dctcp" else dt_dctcp_sim()
    network = dumbbell(args.flows, protocol.marker_factory, rtt=args.rtt)
    flows = launch_bulk_flows(network, sender_cls=protocol.sender_cls)
    monitor = QueueMonitor(network.sim, network.bottleneck_queue, 20e-6)
    monitor.start()
    watchdog = None
    if args.invariants:
        from repro.sim.invariants import InvariantWatchdog

        watchdog = InvariantWatchdog(network.network)
        watchdog.start(args.duration / 16.0)
    network.sim.run(until=args.duration)
    if watchdog is not None:
        watchdog.check()
    queue = monitor.series(after=args.duration * 0.4)
    delivered = sum(f.receiver.packets_received for f in flows)
    alphas = [f.sender.alpha for f in flows]
    rows = [
        ("protocol", protocol.name),
        ("flows", args.flows),
        ("mean queue (pkts)", float(queue.mean())),
        ("std queue (pkts)", float(queue.std())),
        ("mean alpha", sum(alphas) / len(alphas)),
        ("goodput (Gbps)", delivered * 1500 * 8 / args.duration / 1e9),
        ("marks", network.bottleneck_queue.stats.marked),
        ("drops", network.bottleneck_queue.stats.dropped),
        ("events processed", network.sim.events_processed),
    ]
    if watchdog is not None:
        rows.append(("invariant checks passed", watchdog.checks_run))
    print_table(["quantity", "value"], rows, title="dumbbell simulation")
    return 0


def cmd_incast(args: argparse.Namespace) -> int:
    from repro.experiments.fig14_incast import run_incast_point

    protocol = (
        dctcp_testbed() if args.protocol == "dctcp" else dt_dctcp_testbed()
    )
    point = run_incast_point(protocol, args.flows, n_queries=args.queries)
    print_table(
        ["quantity", "value"],
        [
            ("protocol", point.protocol),
            ("flows", point.n_flows),
            ("goodput (Mbps)", point.goodput_bps / 1e6),
            ("queries", point.queries),
            ("queries with timeouts", point.queries_with_timeouts),
            ("total timeouts", point.total_timeouts),
        ],
        title="incast point",
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf import bench
    from repro.sim.packet_core import set_default_packet_core

    if args.packet_core is not None:
        set_default_packet_core(args.packet_core)

    if args.check is not None:
        if args.baseline is None:
            print("bench --check requires --baseline", file=sys.stderr)
            return 2
        with open(args.check) as fh:
            current = json.load(fh)
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        reason = bench.check_regression(
            current, baseline, tolerance=args.tolerance
        )
        if reason is not None:
            print(f"FAIL: {reason}", file=sys.stderr)
            return 1
        print(
            "ok: engine "
            f"{current['engine']['events_per_sec']:,.0f} events/s vs "
            f"baseline {baseline['engine']['events_per_sec']:,.0f} "
            f"(tolerance {args.tolerance:.0%})"
        )
        return 0

    with _maybe_profiled(args):
        payload = bench.run_benchmarks(quick=args.quick)
    bench.dump(payload, str(args.output))
    print(bench.render_summary(payload))
    if args.compare is not None:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        print(f"--- vs {args.compare} ---")
        print(bench.render_comparison(
            bench.compare_payloads(payload, baseline)
        ))
    print(f"written: {args.output}")
    return 0


def _parse_threshold_configs(args: argparse.Namespace):
    """``--k``/``--k1k2`` occurrences -> threshold tuples, in CLI order."""
    configs = [(k,) for k in (args.k or [])]
    for pair in args.k1k2 or []:
        parts = pair.split(",")
        if len(parts) != 2:
            raise SystemExit(f"--k1k2 wants 'K1,K2', got {pair!r}")
        configs.append((float(parts[0]), float(parts[1])))
    return tuple(configs)


def _csv(text: str, cast):
    return tuple(cast(part) for part in text.split(",") if part)


#: ``campaign --scenario`` presets: defaults a preset supplies for every
#: flag the user left unset.  ``space-dc`` is the chaos stress regime —
#: a satellite-grade fabric (200 ms base RTT over 8 hops, 1 Gbps access)
#: with per-packet jitter and a deterministic link-flap train, comparing
#: DCTCP, DT-DCTCP and CUBIC.
_CAMPAIGN_PRESETS = {
    "space-dc": {
        "scenarios": "space-dc",
        "loads": "0.1",
        "fan_ins": "2",
        "host_bandwidth": 1e9,
        "fabric_bandwidth": 4e9,
        "per_hop_delay": 25e-3,
        "duration": 10.0,
        "warmup": 1.0,
        "thresholds": ((65.0,), (50.0, 80.0), (65.0,)),
        "senders": "dctcp,dctcp,cubic",
    },
}

#: Defaults used when no preset (and no explicit flag) applies.
_CAMPAIGN_DEFAULTS = {
    "scenarios": "buildup",
    "loads": "0.2,0.4",
    "fan_ins": "0,8",
    "host_bandwidth": 10e9,
    "fabric_bandwidth": 40e9,
    "per_hop_delay": 5e-6,
    "duration": 0.04,
    "warmup": 0.008,
    # The paper's Fixed-K and DT-DCTCP simulation settings.
    "thresholds": ((40.0,), (30.0, 50.0)),
    "senders": None,
}


def _campaign_setting(args: argparse.Namespace, preset: dict, key: str):
    """Explicit flag > preset value > global default, per setting."""
    value = getattr(args, key)
    if value is not None:
        return value
    return preset.get(key, _CAMPAIGN_DEFAULTS[key])


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one declarative FCT grid campaign on the leaf-spine fabric."""
    import json

    from repro.campaign import CampaignGrid, run_campaign
    from repro.exec import ResultCache, SweepExecutor, default_cache_dir

    preset = _CAMPAIGN_PRESETS.get(args.scenario or "", {})
    thresholds = _parse_threshold_configs(args)
    senders = args.senders
    if not thresholds:
        # Only when the user named no marking config at all may the
        # preset pick the protocol axis (thresholds + paired senders).
        thresholds = preset.get(
            "thresholds", _CAMPAIGN_DEFAULTS["thresholds"]
        )
        if senders is None:
            senders = preset.get("senders", _CAMPAIGN_DEFAULTS["senders"])

    def setting(key):
        return _campaign_setting(args, preset, key)

    try:
        grid = CampaignGrid(
            thresholds=thresholds,
            loads=_csv(setting("loads"), float),
            fan_ins=_csv(setting("fan_ins"), int),
            scenarios=_csv(setting("scenarios"), str),
            seeds=_csv(args.seeds, int),
            n_leaves=args.leaves,
            n_spines=args.spines,
            hosts_per_leaf=args.hosts_per_leaf,
            host_bandwidth_bps=setting("host_bandwidth"),
            fabric_bandwidth_bps=setting("fabric_bandwidth"),
            per_hop_delay=setting("per_hop_delay"),
            flow_bytes=args.flow_bytes,
            duration=setting("duration"),
            warmup=setting("warmup"),
            senders=_csv(senders, str) if senders is not None else None,
            jitter_s=args.jitter,
            flap_period=args.flap_period,
            flap_down=args.flap_down,
            flap_count=args.flap_count,
            invariants=args.invariants,
        )
    except ValueError as exc:
        print(f"invalid campaign grid: {exc}", file=sys.stderr)
        return 2
    cache = (
        ResultCache(
            args.cache_dir if args.cache_dir is not None
            else default_cache_dir()
        )
        if not args.no_cache
        else None
    )
    executor = SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
        failure_policy=args.failure_policy,
        chunk_size=args.chunk_size,
    )
    result = run_campaign(grid, executor)
    print_table(
        [
            "protocol",
            "scenario",
            "load",
            "fan-in",
            "flows",
            "censored",
            "FCT p50",
            "FCT p95",
            "FCT p99",
            "slowdown p99",
            "queue (pkts)",
            "queue std",
        ],
        result.table_rows(),
        title=(
            f"campaign - {grid.n_leaves}x{grid.n_spines} leaf-spine, "
            f"{grid.n_cells} cells x {len(grid.seeds)} seeds"
        ),
    )
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"written: {args.output}")
    print(executor.report.render(), file=sys.stderr)
    if executor.report.failures:
        print(
            f"{len(executor.report.failures)} cell(s) failed; re-run the "
            "same command to resume the missing seeds",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection smoke: partial completion, then clean resume.

    Phase 1 runs a deterministic demo sweep with faults injected on a
    seeded schedule and checks that (a) every non-faulted case's result
    is byte-identical to a fault-free computation and (b) every failure
    is attributed to a scheduled fault.  Phase 2 re-runs the sweep
    against the same cache with no faults and checks that only the
    casualties (skipped cases + torn cache entries) re-execute.
    """
    import tempfile

    from repro.exec import ResultCache, SweepExecutor
    from repro.exec import faults as fl

    cases = fl.demo_cases(args.cases)
    plan = fl.FaultPlan.from_rate(
        len(cases),
        args.rate,
        seed=args.seed,
        kinds=tuple(args.kinds.split(",")),
        fail_attempts=args.fail_attempts,
        hang_seconds=max(30.0, 10.0 * args.timeout),
    )
    expected = [fl.run_case(case) for case in cases]
    faulted = set(plan.faulted_indices())
    # Worker-side faults that outlast the retry budget become skips;
    # torn-write cases succeed in-run and only hurt the *next* run.
    permanent = args.fail_attempts > args.retries
    expect_skipped = (
        {
            i for i in faulted
            if plan.spec_for(i).kind != "torn-write"
        }
        if permanent
        else set()
    )
    torn = {i for i in faulted if plan.spec_for(i).kind == "torn-write"}

    cache_dir = (
        args.cache_dir
        if args.cache_dir is not None
        else Path(tempfile.mkdtemp(prefix="repro-faults-"))
    )
    print(
        f"phase 1: {len(cases)} cases, {len(faulted)} faulted "
        f"({plan.count('error')} error / {plan.count('die')} die / "
        f"{plan.count('hang')} hang / {plan.count('corrupt')} corrupt / "
        f"{plan.count('torn-write')} torn-write), cache at {cache_dir}"
    )
    ex = SweepExecutor(
        jobs=args.jobs,
        cache=ResultCache(cache_dir),
        timeout=args.timeout,
        retries=args.retries,
        failure_policy=args.policy,
        backoff_base=0.05,
        fault_plan=plan,
    )
    results = ex.run(cases, stage="faults-smoke")
    print(ex.report.render())

    ok = True
    skipped = {i for i, r in enumerate(results) if r is None}
    if skipped != expect_skipped:
        print(f"FAIL: skipped {sorted(skipped)}, "
              f"expected {sorted(expect_skipped)}")
        ok = False
    for i, result in enumerate(results):
        if result is not None and result != expected[i]:
            print(f"FAIL: case {i} result differs from fault-free run")
            ok = False
    bad_attribution = {
        f.label for f in ex.report.failures
    } - {cases[i].label for i in faulted}
    if bad_attribution:
        print(f"FAIL: failures attributed to non-faulted cases: "
              f"{sorted(bad_attribution)}")
        ok = False
    if ok:
        print(
            f"phase 1 ok: {len(cases) - len(skipped)}/{len(cases)} "
            f"completed, {len(skipped)} skipped (all attributed)"
        )

    if args.resume:
        cache = ResultCache(cache_dir)
        ex2 = SweepExecutor(jobs=args.jobs, cache=cache)
        results2 = ex2.run(cases, stage="faults-smoke")
        print(ex2.report.render())
        stats = ex2.report.stages[0]
        expect_rerun = len(expect_skipped) + len(torn)
        if results2 != expected:
            print("FAIL: resumed results differ from fault-free run")
            ok = False
        if stats.executed != expect_rerun:
            print(f"FAIL: resume executed {stats.executed} cases, "
                  f"expected {expect_rerun}")
            ok = False
        if cache.corrupt != len(torn):
            print(f"FAIL: resume quarantined {cache.corrupt} entries, "
                  f"expected {len(torn)}")
            ok = False
        if ok:
            print(
                f"resume ok: re-executed only the {expect_rerun} "
                f"casualties ({len(expect_skipped)} skipped + "
                f"{len(torn)} torn cache entries quarantined)"
            )
    print("FAULTS SMOKE: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec import ResultCache, default_cache_dir

    cache = ResultCache(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    if args.action == "stats":
        stats = cache.stats()
        rows = [
            ("root", stats["root"]),
            ("entries", stats["entries"]),
            ("bytes", stats["bytes"]),
            ("quarantined", stats["quarantined"]),
        ] + [
            (f"  {name}", count)
            for name, count in stats["experiments"].items()
        ]
        print_table(["quantity", "value"], rows, title="result cache")
        return 0
    if args.action == "verify":
        outcome = cache.verify()
        print(
            f"checked {outcome['checked']} entries: {outcome['ok']} ok, "
            f"{outcome['corrupt']} corrupt (quarantined), "
            f"{outcome['stale']} stale"
        )
        return 1 if outcome["corrupt"] else 0
    if args.action == "gc":
        outcome = cache.gc(max_age_days=args.older_than)
        print(
            f"removed {outcome['removed_entries']} entries and "
            f"{outcome['removed_quarantine']} quarantined files"
        )
        return 0
    print(f"unknown cache action {args.action!r}", file=sys.stderr)
    return 2


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        Baseline,
        LintEngine,
        default_baseline_path,
        default_rules,
        render_json,
        render_text,
    )

    rules = default_rules()
    engine = LintEngine(rules)
    cache_dir = None if args.no_cache else Path(".repro-lint-cache")
    findings = engine.lint_tree(cache_dir=cache_dir)
    baseline_path = (
        args.baseline_file
        if args.baseline_file is not None
        else default_baseline_path()
    )
    if args.baseline:
        Baseline.write(findings, baseline_path)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0
    new, baselined = Baseline.load(baseline_path).filter(findings)
    if args.format == "json":
        print(render_json(new, baselined=len(baselined)))
    else:
        print(render_text(new, baselined=len(baselined), rules=rules))
    return 1 if new else 0


#: Derived from the kernels registry so the env-var name cannot drift
#: from the central definition.
_CACHE_DIR_HELP = (
    "result cache directory "
    f"(default ${kernels.registered('REPRO_CACHE_DIR').env} or .repro-cache)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="DF stability work-up")
    p.add_argument("--flows", type=int, default=55)
    p.add_argument("--protocol", choices=["dctcp", "dt-dctcp"],
                   default="dctcp")
    p.add_argument("--g", type=float, default=1 / 16)
    p.add_argument("--gain-scale", type=float, default=None,
                   help="loop gain scale (default: Figure 9 calibration)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("id", help="figure number or 'all'")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for sweep-shaped figures")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help=_CACHE_DIR_HELP)
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and bypass the result cache")
    _add_supervision_args(p)
    _add_profile_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("simulate", help="one dumbbell run")
    p.add_argument("--flows", type=_positive_int, default=10)
    p.add_argument("--protocol", choices=["dctcp", "dt-dctcp"],
                   default="dctcp")
    p.add_argument("--duration", type=_positive_float, default=0.03)
    p.add_argument("--rtt", type=_positive_float, default=100e-6)
    p.add_argument("--invariants", action="store_true",
                   help="audit packet conservation / queue / pool "
                        "invariants during and after the run")
    _add_profile_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("incast", help="one incast point on the testbed")
    p.add_argument("--flows", type=_positive_int, default=32)
    p.add_argument("--protocol", choices=["dctcp", "dt-dctcp"],
                   default="dctcp")
    p.add_argument("--queries", type=_positive_int, default=10)
    p.set_defaults(func=cmd_incast)

    p = sub.add_parser("bench", help="repro.perf benchmark suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller sizes for the CI smoke job")
    p.add_argument("--output", type=Path, default=Path("BENCH_PR9.json"),
                   help="where to write the JSON payload")
    packet_core = kernels.registered("REPRO_PACKET_CORE")
    p.add_argument("--packet-core", choices=list(packet_core.choices or ()),
                   default=None,
                   help="pin the packet core for this run "
                        f"(default: {packet_core.env} or "
                        f"{packet_core.default!r})")
    p.add_argument("--check", type=Path, default=None, metavar="CURRENT",
                   help="compare a payload against --baseline instead of "
                        "running benchmarks")
    p.add_argument("--baseline", type=Path, default=None,
                   help="baseline payload for --check")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional engine events/sec regression")
    p.add_argument("--compare", type=Path, default=None, metavar="BASELINE",
                   help="after running, print per-lane deltas against a "
                        "previous payload (warns when the kernel metadata "
                        "differs; judges nothing, unlike --check)")
    _add_profile_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "campaign",
        help="FCT grid campaign on the leaf-spine fabric",
    )
    p.add_argument("--scenario", choices=sorted(_CAMPAIGN_PRESETS),
                   default=None,
                   help="named preset filling every flag left unset "
                        "(space-dc: 200 ms-RTT chaos stress, "
                        "DCTCP vs DT-DCTCP vs CUBIC)")
    p.add_argument("--k", type=float, action="append", metavar="K",
                   help="one Fixed-K config in packets (repeatable)")
    p.add_argument("--k1k2", type=str, action="append", metavar="K1,K2",
                   help="one DT-DCTCP config in packets (repeatable); "
                        "default grid when neither flag is given: "
                        "--k 40 --k1k2 30,50")
    p.add_argument("--senders", type=str, default=None, metavar="CSV",
                   help="sender per marking config, zip-paired "
                        "(from {dctcp, cubic}; default all-dctcp)")
    p.add_argument("--loads", type=str, default=None,
                   help="comma-separated offered loads "
                        "(fraction of the client's access rate; "
                        "default 0.2,0.4)")
    p.add_argument("--fan-ins", type=str, default=None,
                   help="comma-separated disturbance sizes (bulk flows / "
                        "incast burst width; 0 = none; default 0,8)")
    p.add_argument("--scenarios", type=str, default=None,
                   help="comma-separated from {buildup, incast, space-dc} "
                        "(default buildup)")
    p.add_argument("--seeds", type=str, default="1,2,3",
                   help="comma-separated replicate seeds "
                        "(also salt ECMP placement)")
    p.add_argument("--leaves", type=_positive_int, default=3)
    p.add_argument("--spines", type=_positive_int, default=2)
    p.add_argument("--hosts-per-leaf", type=_positive_int, default=2)
    p.add_argument("--host-bandwidth", type=_positive_float, default=None,
                   metavar="BPS", help="access-link rate (default 10e9)")
    p.add_argument("--fabric-bandwidth", type=_positive_float, default=None,
                   metavar="BPS", help="fabric-link rate (default 40e9)")
    p.add_argument("--per-hop-delay", type=_non_negative_float, default=None,
                   metavar="SECONDS",
                   help="propagation delay per hop (default 5e-6; "
                        "space-dc preset: 25e-3)")
    p.add_argument("--flow-bytes", type=_positive_int, default=20 * 1024,
                   help="short-flow transfer size")
    p.add_argument("--duration", type=_positive_float, default=None,
                   help="simulated window per cell (seconds; default 0.04)")
    p.add_argument("--warmup", type=_non_negative_float, default=None,
                   help="queue statistics discard this prefix "
                        "(seconds; default 0.008)")
    p.add_argument("--jitter", type=_non_negative_float, default=2e-3,
                   metavar="SECONDS",
                   help="space-dc cells: per-packet propagation jitter "
                        "amplitude on every fabric link")
    p.add_argument("--flap-period", type=_non_negative_float, default=2.0,
                   help="space-dc cells: seconds between link flaps")
    p.add_argument("--flap-down", type=_non_negative_float, default=0.5,
                   help="space-dc cells: outage length per flap")
    p.add_argument("--flap-count", type=int, default=3,
                   help="space-dc cells: flaps in the train (0 disables)")
    p.add_argument("--invariants", action="store_true",
                   help="audit conservation invariants inside every cell "
                        "(a violation fails the case)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the sweep executor")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help=_CACHE_DIR_HELP)
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and bypass the result cache")
    p.add_argument("--output", type=Path, default=None, metavar="PATH",
                   help="also write the full aggregates as JSON")
    _add_supervision_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "faults",
        help="fault-injection smoke (partial results + clean resume)",
    )
    p.add_argument("--cases", type=_positive_int, default=24,
                   help="demo sweep size")
    p.add_argument("--rate", type=float, default=0.25,
                   help="fraction of cases scheduled to fault")
    p.add_argument("--seed", type=int, default=13,
                   help="fault schedule seed (13 exercises all five kinds "
                        "at the default size and rate)")
    p.add_argument("--kinds", type=str,
                   default="error,die,hang,corrupt,torn-write",
                   help="comma-separated fault kinds to draw from")
    p.add_argument("--fail-attempts", type=_positive_int, default=1_000_000,
                   help="attempts each fault keeps firing for "
                        "(default: permanent within the run)")
    p.add_argument("--jobs", type=_positive_int, default=4)
    p.add_argument("--timeout", type=float, default=2.0,
                   help="per-case deadline (catches injected hangs)")
    p.add_argument("--retries", type=int, default=1)
    p.add_argument("--policy", choices=["skip", "retry-then-skip"],
                   default="retry-then-skip")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help="cache/manifest directory (default: fresh tempdir)")
    p.add_argument("--no-resume", dest="resume", action="store_false",
                   help="skip the phase-2 resume verification")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("cache", help="result-cache maintenance")
    p.add_argument("action", choices=["stats", "verify", "gc"])
    p.add_argument("--cache-dir", type=Path, default=None,
                   help=_CACHE_DIR_HELP)
    p.add_argument("--older-than", type=float, default=None, metavar="DAYS",
                   help="gc: also remove valid entries older than DAYS")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "lint",
        help="determinism & kernel-parity static analysis over src/",
    )
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument("--baseline", action="store_true",
                   help="record current findings as the new baseline "
                        "instead of reporting")
    p.add_argument("--baseline-file", type=Path, default=None,
                   metavar="PATH",
                   help="baseline to read/write (default: the committed "
                        "src/repro/lint/baseline.json)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write .repro-lint-cache/")
    p.set_defaults(func=cmd_lint)
    return parser


def _add_supervision_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-case deadline; a hung worker is torn down "
                        "and the case retried or failed")
    p.add_argument("--retries", type=int, default=0,
                   help="bounded retries per case (exponential backoff)")
    p.add_argument("--failure-policy",
                   choices=["raise", "skip", "retry-then-skip"],
                   default="raise",
                   help="what a terminal case failure does: abort the "
                        "stage, or record it and keep the partial sweep "
                        "(exit code 3; re-run to resume)")
    p.add_argument("--chunk-size", type=int, default=None, metavar="N",
                   help="ship up to N cases per worker round trip "
                        "(amortises pickle/IPC for grids of sub-second "
                        "cells; results are identical to unchunked)")


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="wrap the run in cProfile "
                        "(top-20 cumulative table on stderr)")
    p.add_argument("--profile-out", type=str, default=None, metavar="PATH",
                   help="also dump raw pstats to PATH")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
