"""Shared scale, cache isolation, and printing helpers for the benchmarks.

Every benchmark regenerates one of the paper's tables or figures at a
reduced scale (see docs/experiments.md for the scaling notes) and
prints the resulting rows so the numbers can be compared with the paper.
"""

import pytest

from repro.experiments import ExperimentScale, format_table, engine


@pytest.fixture(scope="module", autouse=True)
def isolated_result_cache():
    """Give every benchmark module a fresh, memory-only experiment engine.

    An explicitly memory-only executor (cache_dir=None) guarantees one
    figure module can never observe — or be timed against — results cached
    by another, even when ``REPRO_CACHE_DIR`` points at a warm persistent
    cache in the surrounding environment.  Within a module, jobs still
    share the cache, which is what the figure runners rely on.  The
    teardown restores the environment-configured default for whatever runs
    after the harness.
    """
    engine.configure(cache_dir=None)
    yield
    engine.reset()


@pytest.fixture(scope="session")
def bench_scale():
    """Scale used by the simulation-driven benchmarks."""
    return ExperimentScale.bench()


def report(data):
    """Print an experiment's result table."""
    title = data.get("figure") or data.get("table") or data.get("section")
    print()
    print(format_table(f"{title}: {data.get('metric', '')}",
                       data["columns"], data["rows"]))
