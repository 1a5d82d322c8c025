"""Paper-claim suite configuration.

Every test regenerates one paper table/figure through the experiment
harness and asserts its qualitative claim.  The heavy DES / DDE runs
are executed exactly once per test — the interesting number is the
figure's content, not the harness's wall clock, so nothing here needs
a timing plugin.
"""

import pytest

from repro.experiments.config import Scale


@pytest.fixture
def run_once():
    """Call ``fn(*args, **kwargs)`` once and return its result."""

    def runner(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return runner


@pytest.fixture
def bench_scale() -> Scale:
    """Benchmark-sized sweeps: the paper's structure, CI-friendly cost."""
    return Scale(
        sim_duration=0.03,
        warmup=0.012,
        sample_interval=20e-6,
        flow_counts=(10, 25, 40, 55, 70, 85, 100),
        n_queries=10,
        incast_flows=(16, 24, 30, 32, 33, 34, 35, 36, 40),
        completion_flows=(16, 24, 30, 32, 33, 34, 35, 36, 40),
        fluid_duration=0.06,
    )
