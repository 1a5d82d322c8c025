"""Central registry of ``REPRO_*`` environment switches.

Every performance-critical kernel in this repository ships with a slower
reference implementation behind an environment switch; the fast lane is
the default and the reference is the differential-testing oracle (see
the README's env-switch table).  Before this module existed the switches
were read ad hoc — ``os.environ.get("REPRO_...")`` scattered across the
engine, the link, the sender, the packet core, and the cache — which is
exactly how an un-oracled switch slips in: nothing forced a new
``REPRO_*`` variable to name its reference kernel or to appear in the
CI oracle matrix.

This registry is now the *only* sanctioned place to read a ``REPRO_*``
variable (rule ``KRN001`` in :mod:`repro.lint` flags any other call
site), and each entry is cross-checked against two external surfaces:

* the README's env-switch table — defaults, oracle values, and
  descriptions must match the registry exactly
  (:func:`readme_parity_problems`);
* the CI oracle-matrix job — every registered kernel pair must be
  pinned to its oracle value there, so the whole tier-1 suite runs
  under every reference kernel on every merge
  (:func:`ci_parity_problems`).

A switch with ``oracle=None`` (currently only ``REPRO_CACHE_DIR``, a
path) is configuration, not a kernel pair, and is exempt from the
oracle-matrix requirement but still must be read through here.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "KernelSwitch",
    "REGISTRY",
    "kernel_switches",
    "registered",
    "env_value",
    "env_default",
    "readme_parity_problems",
    "ci_parity_problems",
    "parity_problems",
]


@dataclass(frozen=True)
class KernelSwitch:
    """One registered ``REPRO_*`` environment switch.

    ``oracle`` names the reference-implementation value for kernel
    pairs; ``None`` marks a plain configuration switch (no oracle, no
    CI-matrix requirement).  ``choices`` is ``None`` for free-form
    values (paths).
    """

    env: str
    default: Optional[str]
    oracle: Optional[str]
    choices: Optional[Tuple[str, ...]]
    description: str

    @property
    def is_kernel(self) -> bool:
        """Whether this switch selects between a fast/oracle kernel pair."""
        return self.oracle is not None


#: Every ``REPRO_*`` switch the codebase reads, in README table order.
REGISTRY: Dict[str, KernelSwitch] = {
    switch.env: switch
    for switch in (
        KernelSwitch(
            env="REPRO_PACKET_CORE",
            default="flat",
            oracle="object",
            choices=("flat", "object"),
            description=(
                "packet-log storage: struct-of-arrays columns vs boxed "
                "records"
            ),
        ),
        KernelSwitch(
            env="REPRO_LINK_MODEL",
            default="busy-until",
            oracle="two-event",
            choices=("busy-until", "two-event"),
            description=(
                "transmitter: one rolling delivery event vs tx-done + "
                "delivery"
            ),
        ),
        KernelSwitch(
            env="REPRO_TIMER_MODEL",
            default="soft-deadline",
            oracle="eager",
            choices=("soft-deadline", "eager"),
            description=(
                "RTO re-arm: deadline field vs cancel-and-repush per ACK"
            ),
        ),
        KernelSwitch(
            env="REPRO_DATAPATH",
            default="fast",
            oracle="reference",
            choices=("fast", "reference"),
            description=(
                "per-packet datapath: memoized routes + fused forward "
                "path vs straight-line reference"
            ),
        ),
        KernelSwitch(
            env="REPRO_CACHE_DIR",
            default=None,
            oracle=None,
            choices=None,
            description="result-cache directory (path, not a kernel pair)",
        ),
        KernelSwitch(
            env="REPRO_INVARIANTS",
            default="0",
            oracle=None,
            choices=("0", "1"),
            description=(
                "run the invariant watchdog inside campaign cells "
                "(diagnostic toggle, not a kernel pair)"
            ),
        ),
    )
}


def kernel_switches() -> Tuple[KernelSwitch, ...]:
    """The registered switches that select fast/oracle kernel pairs."""
    return tuple(s for s in REGISTRY.values() if s.is_kernel)


def registered(env: str) -> KernelSwitch:
    """The registry entry for ``env``; KeyError names the fix."""
    try:
        return REGISTRY[env]
    except KeyError:
        raise KeyError(
            f"{env} is not a registered REPRO_* switch; add it to "
            "repro.sim.kernels.REGISTRY (with its oracle) before reading it"
        ) from None


def env_value(env: str) -> Optional[str]:
    """The raw environment value of a *registered* switch, or ``None``.

    The single sanctioned ``os.environ`` read for ``REPRO_*`` names:
    every other call site is a ``KRN001`` lint finding.
    """
    registered(env)
    return os.environ.get(env)


def env_default(env: str) -> str:
    """The environment value of a registered switch, or its default.

    Values are *not* validated here — an unknown value surfaces as the
    module's own ``ValueError`` at first use, exactly as before
    centralisation, so a bad environment cannot turn module import into
    the failure point.
    """
    switch = registered(env)
    if switch.default is None:
        raise ValueError(
            f"{env} has no default; use env_value() and handle None"
        )
    value = os.environ.get(env)
    return value if value is not None else switch.default


# ---------------------------------------------------------------------------
# Parity with the README env-switch table and the CI oracle matrix
# ---------------------------------------------------------------------------

#: One row of the README env-switch table:
#: | `REPRO_X` | `default` | `oracle` | description |
_README_ROW = re.compile(
    r"^\|\s*`(?P<env>REPRO_\w+)`\s*"
    r"\|\s*`(?P<default>[^`]+)`\s*"
    r"\|\s*`(?P<oracle>[^`]+)`\s*"
    r"\|(?P<description>[^|]*)\|\s*$"
)


def readme_parity_problems(readme_text: str) -> List[str]:
    """Mismatches between the registry and the README env-switch table.

    Every kernel pair must have a table row with the registry's default
    and oracle values, and every table row must name a registered kernel
    pair — a row for an unregistered switch is exactly the "env switch
    without an oracle" failure KRN001 exists to catch.
    """
    problems: List[str] = []
    rows: Dict[str, Tuple[str, str]] = {}
    for line in readme_text.splitlines():
        match = _README_ROW.match(line.strip())
        if match is not None:
            rows[match.group("env")] = (
                match.group("default"),
                match.group("oracle"),
            )
    for switch in kernel_switches():
        row = rows.get(switch.env)
        if row is None:
            problems.append(
                f"{switch.env} is registered as a kernel pair but has no "
                "row in the README env-switch table"
            )
            continue
        default, oracle = row
        if default != switch.default:
            problems.append(
                f"{switch.env}: README default {default!r} != registry "
                f"default {switch.default!r}"
            )
        if oracle != switch.oracle:
            problems.append(
                f"{switch.env}: README oracle {oracle!r} != registry "
                f"oracle {switch.oracle!r}"
            )
    for env in rows:
        if env not in REGISTRY:
            problems.append(
                f"README env-switch table lists {env}, which is not in "
                "repro.sim.kernels.REGISTRY"
            )
        elif not REGISTRY[env].is_kernel:
            problems.append(
                f"README env-switch table lists {env}, which is "
                "registered without an oracle"
            )
    return problems


def ci_parity_problems(ci_text: str) -> List[str]:
    """Kernel pairs missing from the CI oracle-matrix job.

    The oracle-matrix job must pin every registered kernel switch to its
    oracle value (``ENV=oracle``) so the tier-1 suite exercises every
    reference kernel, not just the differential tests.
    """
    problems: List[str] = []
    for switch in kernel_switches():
        pin = f"{switch.env}={switch.oracle}"
        if pin not in ci_text:
            problems.append(
                f"CI oracle-matrix does not pin {pin}; every registered "
                "kernel pair must run the tier-1 suite under its oracle"
            )
    return problems


def parity_problems(project_root: Path) -> List[str]:
    """All registry/README/CI mismatches for the repo at ``project_root``."""
    problems: List[str] = []
    readme = project_root / "README.md"
    ci = project_root / ".github" / "workflows" / "ci.yml"
    if readme.is_file():
        problems.extend(
            readme_parity_problems(readme.read_text(encoding="utf-8"))
        )
    else:
        problems.append(f"missing {readme}: cannot check env-switch table")
    if ci.is_file():
        problems.extend(ci_parity_problems(ci.read_text(encoding="utf-8")))
    else:
        problems.append(f"missing {ci}: cannot check the oracle matrix")
    return problems
