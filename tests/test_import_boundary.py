"""The simulator's import path is stdlib + numpy: no scipy.

Only the DF/Nyquist stability theory needs scipy's root-finders, and it
imports them on first call.  The packet simulator, campaign cells,
executor workers and CLI must start without loading scipy at all —
most of their set-up time and memory used to be that import.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LEAN_MODULES = (
    "repro.sim",
    "repro.campaign.cells",
    "repro.experiments.protocols",
    "repro.exec",
    "repro.cli",
)

_PROBE = (
    "import sys\n"
    + "".join(f"import {m}\n" for m in LEAN_MODULES)
    + "print(' '.join(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def test_simulator_import_path_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    loaded = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert loaded == []
