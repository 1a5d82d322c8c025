"""Same-machine A/B of this tree against a git ref.

``python3 perfbench/run.py --against <git-ref> [--workload W]``
checks ``<git-ref>`` out into a temporary ``git worktree`` under
``.perfbench-ab/``, copies this tree's benchmark (``perfbench/`` and
``BENCHMARK.json``) over it, and runs both sides :data:`PAIRS` times
per workload in alternating order (base first on even pairs, this tree
first on odd ones), pair ``i`` on seed ``default + i``.

For every end-to-end metric it reports each side's median and
quartiles, the fraction of pairs this tree won (ties count for
neither), and a verdict:

* ``unresolved`` — either side's quartile spread exceeds the metric's
  bound, and not every run of one side beats every run of the other;
* ``regression`` — this tree's median is worse than the base's by more
  than the bound;
* ``gain`` — this tree won at least nine tenths of the pairs and the
  medians differ by more than the base's quartile spread;
* ``within bound`` — otherwise;
* ``no data`` — a run on either side measured nothing (its operations
  count as failed).

Exits 1 when any metric regresses or any operation fails the
correctness gate on either side.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = ("perfbench", "BENCHMARK.json")

#: Alternating runs per side and workload.
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run_side(where: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=where, capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"benchmark failed in {where} (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(
    base: List[float], head: List[float], metric: Dict[str, Any]
) -> Dict[str, Any]:
    """Medians, quartiles, pair win fraction and verdict of one metric."""
    direction, bound = metric["better"], metric["bound"]
    q_base = statistics.quantiles(base, n=4)
    q_head = statistics.quantiles(head, n=4)
    med_base, med_head = statistics.median(base), statistics.median(head)
    spread_base = (q_base[2] - q_base[0]) / med_base if med_base else 0.0
    spread_head = (q_head[2] - q_head[0]) / med_head if med_head else 0.0
    wins = sum(_better(h, b, direction) for b, h in zip(base, head))
    win_fraction = wins / len(base)
    change = (med_head - med_base) / med_base if med_base else 0.0
    worse = change if direction == "lower" else -change
    separated = all(_better(h, b, direction) for h in head for b in base) or all(
        _better(b, h, direction) for h in head for b in base
    )
    if max(spread_base, spread_head) > bound and not separated:
        state = "unresolved"
    elif worse > bound:
        state = "regression"
    elif (
        win_fraction >= 0.9
        and abs(med_head - med_base) > q_base[2] - q_base[0]
    ):
        state = "gain"
    else:
        state = "within bound"
    return {
        "base": {"median": med_base, "q1": q_base[0], "q3": q_base[2]},
        "head": {"median": med_head, "q1": q_head[0], "q3": q_head[2]},
        "change": change,
        "win_fraction": win_fraction,
        "verdict": state,
    }


def compare(
    base: List[Optional[float]], head: List[Optional[float]], metric: Dict[str, Any]
) -> Dict[str, Any]:
    """:func:`verdict`, or ``no data`` if a run on either side measured
    nothing."""
    if None in base or None in head:
        return {"verdict": "no data"}
    return verdict(base, head, metric)  # type: ignore[arg-type]


def run_ab(ref: str, workloads: List[str], seconds: float, bench: Dict[str, Any]) -> int:
    """A/B every workload against ``ref``; prints a table and a JSON line."""
    from perfbench.workloads import DEFAULT_SEED

    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    base_dir = ROOT / ".perfbench-ab" / f"{sha[:12]}-{os.getpid()}"
    base_dir.parent.mkdir(exist_ok=True)
    _git("worktree", "add", "--detach", str(base_dir), sha)
    try:
        for name in BENCH_FILES:
            target = base_dir / name
            if target.is_dir():
                shutil.rmtree(target)
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, target, ignore=shutil.ignore_patterns("__pycache__")
                )
            else:
                shutil.copy2(source, target)
        report = {}
        for workload in workloads:
            samples: Dict[str, List[Dict[str, Any]]] = {"base": [], "head": []}
            for i in range(PAIRS):
                sides: List[Tuple[str, Path]] = [("base", base_dir), ("head", ROOT)]
                if i % 2:
                    sides.reverse()
                for side, where in sides:
                    samples[side].append(
                        _run_side(where, workload, DEFAULT_SEED + i, seconds)
                    )
            report[workload] = {
                "failed": {
                    side: sum(r["failed"] for r in runs)
                    for side, runs in samples.items()
                },
                "metrics": {
                    metric["name"]: compare(
                        [r["metrics"][metric["name"]]["value"] for r in samples["base"]],
                        [r["metrics"][metric["name"]]["value"] for r in samples["head"]],
                        metric,
                    )
                    for metric in bench["end_to_end"]
                },
            }
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_dir)],
            cwd=ROOT, check=False, capture_output=True,
        )
        shutil.rmtree(base_dir, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
        if not any(base_dir.parent.iterdir()):
            base_dir.parent.rmdir()

    print(f"A/B: this tree vs {ref} ({sha[:12]}), {PAIRS} pairs, {seconds:g} s runs")
    print(f"{'workload':<10} {'metric':<15} {'base median':>12} {'head median':>12} "
          f"{'change':>8} {'wins':>5}  verdict")
    bad = False
    for workload, entry in report.items():
        if any(entry["failed"].values()):
            bad = True
            print(f"{workload:<10} failed operations: {entry['failed']}")
        for name, row in entry["metrics"].items():
            bad = bad or row["verdict"] == "regression"
            if row["verdict"] == "no data":
                print(f"{workload:<10} {name:<15} {'no data':>12}")
                continue
            print(f"{workload:<10} {name:<15} {row['base']['median']:>12.5g} "
                  f"{row['head']['median']:>12.5g} {row['change']:>+8.1%} "
                  f"{row['win_fraction']:>5.0%}  {row['verdict']}")
    print(json.dumps({"against": ref, "sha": sha, "pairs": PAIRS, "report": report}))
    return 1 if bad else 0
