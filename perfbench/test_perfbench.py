"""Self-tests of the benchmark: names, the digest gate, the layer map.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import cProfile
import copy
import json
import os
import pstats
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ab, layers, run, workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_spec(seed: int = workloads.DEFAULT_SEED) -> dict:
    """A 2 ms dumbbell: every code path of a round, in milliseconds."""
    spec = workloads.make_spec("dumbbell", seed)
    spec.update(duration=0.002, warmup=0.0005)
    return spec


def test_benchmark_json_shape_and_names():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_workload_names_agree_everywhere():
    declared = [w["name"] for w in BENCH["workloads"]]
    assert declared == list(workloads.WORKLOADS)
    assert list(workloads.LADDER["digests"]) == declared
    for name in declared:
        spec = workloads.make_spec(name, 7)
        assert json.loads(json.dumps(spec)) == spec  # the program gets JSON only


def test_runner_computes_exactly_the_declared_metrics():
    rnd = workloads.run_round(tiny_spec())
    e2e = run.end_to_end_metrics([rnd], [0.5], 80.0)
    run.with_units(e2e, BENCH["end_to_end"])
    profiled = workloads.run_round(tiny_spec(), profile=True)
    per_layer = run.layer_metrics([rnd], [profiled])
    run.with_units(per_layer, BENCH["per_layer"])
    with pytest.raises(KeyError):
        run.with_units(dict(e2e, extra=1.0), BENCH["end_to_end"])
    assert all(v > 0 for v in e2e.values())


def test_same_seed_same_digest_and_seed_matters():
    first = workloads.run_round(tiny_spec(3))
    second = workloads.run_round(tiny_spec(3))
    other = workloads.run_round(tiny_spec(4))
    assert first.digests == second.digests
    assert first.digests != other.digests
    assert first.problems == [[], []]


def test_digest_gate_flags_a_perturbed_result():
    rnd = workloads.run_round(tiny_spec())
    outcome = {"fabric_marks": 10, "queue_mean": 12.345678901, "fcts": [1e-3, 2e-3]}
    for key, value in (("fabric_marks", 11), ("queue_mean", 12.345679),
                       ("fcts", [1e-3])):
        perturbed = copy.deepcopy(outcome)
        perturbed[key] = value
        assert workloads.digest(perturbed) != workloads.digest(outcome)

    gate = run.Gate()
    gate.check("clean", rnd, list(rnd.digests))
    assert (gate.attempted, gate.failed) == (2, 0)
    wrong = list(rnd.digests)
    wrong[1] = "0" * 16
    gate.check("perturbed", rnd, wrong)
    assert (gate.attempted, gate.failed) == (4, 1)
    rnd.problems[0].append("invariant violated")
    gate.check("violation", rnd, list(rnd.digests))
    assert (gate.attempted, gate.failed) == (6, 2)


def test_slicing_keeps_every_outcome(monkeypatch):
    monkeypatch.setattr(workloads, "SLICE_EVENTS", 1000)
    sliced = workloads.run_round(tiny_spec())
    whole = workloads.run_round(tiny_spec(), profile=True)
    assert sliced.digests == whole.digests
    # One kernel before the round, one per slice and one after each op.
    assert len(sliced.kernel_s) > 2 * len(sliced.digests) + 1
    assert 0 < sliced.wall_s and 0 < sliced.calibrated_s


@pytest.mark.parametrize("stop_at", [999, 1000, 1001])
def test_slicing_keeps_a_stop_at_a_slice_boundary(monkeypatch, stop_at):
    from repro.sim.engine import Simulator

    monkeypatch.setattr(workloads, "SLICE_EVENTS", 1000)

    def events_run(calibrate):
        sim = Simulator()
        for i in range(3000):
            sim.schedule(1e-6 * (i + 1), _stop if i + 1 == stop_at else _noop, sim)
        with workloads.Probe(calibrate=calibrate):
            sim.run(until=1.0)
        return sim.events_processed, sim.now

    assert events_run(calibrate=True) == events_run(calibrate=False) == (
        stop_at, pytest.approx(stop_at * 1e-6))


def _noop(sim) -> None:
    pass


def _stop(sim) -> None:
    sim.stop()  # looked up now, so the probe sees it


def test_calibrated_makespan_takes_the_busiest_worker():
    def cell(pid, busy, calibrated, kernels):
        return {"probe": {"pid": pid, "busy_s": busy, "calibrated_s": calibrated,
                          "kernel_s": kernels}}

    results = [cell(1, 2.0, 1.0, [0.1, 0.1]), cell(1, 2.0, 1.0, [0.1]),
               cell(2, 3.0, 2.0, [0.2])]
    raw, calibrated, kernels = workloads._calibrated_makespan(
        5.0, 0.05, 0.05, results)
    # Worker 1 is busiest (4.0 s); 1.0 s of executor overhead on top.
    assert raw == pytest.approx(5.0 - 0.3)
    assert calibrated == pytest.approx(2.0 + 1.0)
    assert len(kernels) == 6


def test_digest_ignores_the_engine_event_count():
    outcome = {"fabric_marks": 10, "events_processed": 1000}
    assert workloads.digest(outcome) == workloads.digest(
        dict(outcome, events_processed=2000))


#: Prints the tiny dumbbell's digests under whatever kernels the
#: environment pins (they are read when the simulator is imported).
_DIGESTS_UNDER_ENV = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import test_perfbench, workloads
rnd = workloads.run_round(test_perfbench.tiny_spec())
print(json.dumps([rnd.digests, rnd.problems]))
"""


@pytest.mark.parametrize("pins", [
    {"REPRO_LINK_MODEL": "two-event"},
    {"REPRO_LINK_MODEL": "two-event", "REPRO_TIMER_MODEL": "eager"},
])
def test_digest_is_the_same_under_the_oracle_kernels(pins):
    def digests(kernels):
        code = _DIGESTS_UNDER_ENV.format(src=str(ROOT / "src"), root=str(ROOT))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        out = subprocess.run([sys.executable, "-c", code], env=dict(env, **kernels),
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    default = digests({})
    pinned = digests(pins)
    assert default[1] == pinned[1] == [[], []]
    assert pinned[0] == default[0]


def test_setup_probe_stops_at_the_first_run():
    import time

    assert workloads.setup_probe("dumbbell", 1) <= time.monotonic()


def test_non_finite_outcomes_are_problems():
    assert workloads.non_finite({"a": [1.0, float("nan")]})
    assert not workloads.non_finite({"a": [1.0, 2], "b": "x"})


@pytest.mark.parametrize("package", ["sim", "exec", "campaign"])
def test_layer_map_covers_every_module(package):
    base = ROOT / "src" / "repro" / package
    modules = [
        layers.module_of_file(str(path)) for path in sorted(base.rglob("*.py"))
    ]
    assert modules and None not in modules
    for module in modules:
        assert layers.layer_of_module(module) in layers.LAYERS, module


def test_unmapped_module_fails_loudly():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module("repro.fluid.model")
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module("repro.simulator")


def test_builtins_are_charged_to_their_repro_caller():
    profiler = cProfile.Profile()
    profiler.enable()
    workloads.run_round(tiny_spec())
    profiler.disable()
    charged = workloads.profile_layers(profiler)
    total = sum(charged.values())
    assert charged["link"] > 0 and charged["engine"] > 0 and charged["tcp"] > 0
    stats = pstats.Stats(profiler)
    assert total == pytest.approx(sum(v[2] for v in stats.stats.values()), rel=1e-6)


def test_a_run_with_no_completed_round_still_reports(monkeypatch):
    def crash(spec, profile=False):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "run_round", crash)
    result = run.run_workload("dumbbell", 1, 0.01, trace=True)
    assert result["correct"] is False and result["metrics"] is None
    assert result["failed"] == result["attempted"] > 0
    reported = run.with_units(result["metrics"], BENCH["per_layer"])
    assert all(entry["value"] is None for entry in reported.values())
    assert ab.compare([1.0, None], [1.0, 1.0], BENCH["end_to_end"][0]) == {
        "verdict": "no data"}


def test_ab_verdicts():
    metric = {"name": "t", "better": "lower", "bound": 0.1}
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert ab.verdict(base, [v * 0.8 for v in base], metric)["verdict"] == "gain"
    assert ab.verdict(base, [v * 1.2 for v in base], metric)["verdict"] == "regression"
    assert ab.verdict(base, list(base), metric)["verdict"] == "within bound"
    noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 0.85, 1.15]
    assert ab.verdict(noisy, list(base), metric)["verdict"] == "unresolved"
