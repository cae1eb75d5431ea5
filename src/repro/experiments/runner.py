"""Shared machinery for the experiment runners.

The runners simulate the same workloads on several configurations and report
metrics normalised to Base, the way the paper's figures do.  All simulation
traffic flows through the declarative experiment engine
(:mod:`repro.experiments.engine`): each (configuration, workload, scale)
point becomes a :class:`~repro.experiments.engine.SimJob`, the process-wide
:class:`~repro.experiments.engine.JobExecutor` deduplicates and optionally
parallelises the batch, and a content-addressed
:class:`~repro.experiments.engine.ResultCache` lets Figures 8–11 — and
repeated invocations, when a persistent cache directory is configured —
share the underlying simulations instead of re-running them.
"""

from __future__ import annotations

import math

from repro.experiments.engine import ExperimentScale, SimJob, get_executor
from repro.sim.config import CONFIGURATION_NAMES, SystemConfig
from repro.sim.metrics import SimulationResult
from repro.sim.system import run_workload
from repro.workloads.multiprogram import (MultiprogrammedWorkload,
                                          make_workload_suite)
from repro.workloads.trace import TraceRecord

#: The default set of configurations the paper compares (Section 8) —
#: derived from the configuration registry's built-in entries, which are
#: registered in the paper's presentation order.
DEFAULT_CONFIGURATIONS = CONFIGURATION_NAMES

__all__ = [
    "DEFAULT_CONFIGURATIONS",
    "ExperimentScale",
    "clear_cache",
    "format_table",
    "geometric_mean",
    "multicore_suite",
    "run_configuration",
    "run_multicore",
    "run_single_core",
    "single_core_benchmarks",
]


def clear_cache() -> None:
    """Drop all cached simulation results (memory and persistent)."""
    get_executor().cache.clear()


def run_configuration(config: SystemConfig, traces: list[list[TraceRecord]],
                      workload_name: str, cache_key=None) -> SimulationResult:
    """Run one pre-built (configuration, traces) pair directly.

    Kept for callers that assemble their own configs/traces.  The
    ``cache_key`` argument is ignored: caching is now handled by the
    experiment engine, which keys on declarative :class:`SimJob` specs
    rather than caller-supplied tuples.
    """
    del cache_key
    return run_workload(config, traces, workload_name)


def run_single_core(configuration: str, benchmark: str,
                    scale: ExperimentScale,
                    **config_overrides) -> SimulationResult:
    """Simulate one benchmark on one configuration, single core."""
    job = SimJob.single_core(configuration, benchmark, scale,
                             **config_overrides)
    return get_executor().run_one(job)


def run_multicore(configuration: str, workload: MultiprogrammedWorkload,
                  scale: ExperimentScale,
                  **config_overrides) -> SimulationResult:
    """Simulate one multiprogrammed mix on one configuration."""
    job = SimJob.multicore(configuration, workload, scale,
                           **config_overrides)
    return get_executor().run_one(job)


def multicore_suite(scale: ExperimentScale) -> list[MultiprogrammedWorkload]:
    """The multiprogrammed workload suite at the requested scale."""
    return make_workload_suite(num_cores=scale.num_cores,
                               mixes_per_category=scale.mixes_per_category)


def single_core_benchmarks(scale: ExperimentScale) -> dict[str, list[str]]:
    """Benchmarks per intensity class used by the single-core figures."""
    intensive = ["lbm", "mcf", "libquantum", "zeusmp", "GemsFDTD", "bwaves",
                 "leslie3d", "com", "tigr", "mum"]
    non_intensive = ["gcc", "h264ref", "tpcc64", "sjeng", "bzip2", "gromacs",
                     "bfs", "sandygrep", "wc-8443", "tpch2"]
    count = scale.benchmarks_per_class
    return {
        "Memory Non-Intensive": non_intensive[:count],
        "Memory Intensive": intensive[:count],
    }


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (used for speedup aggregation).

    Computed in log space as ``exp(mean(log(v)))``: a running product
    under/overflows for long lists of values far from 1.0, while summed
    logarithms stay comfortably inside double range.
    """
    if not values:
        return 0.0
    log_sum = 0.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


def format_table(title: str, columns: list[str],
                 rows: list[list]) -> str:
    """Render a result table as fixed-width text (CLI and benchmarks)."""
    widths = [len(str(column)) for column in columns]
    rendered_rows = []
    for row in rows:
        # ``None`` marks a cell whose jobs were skipped (--keep-going
        # after exhausted retries): render a placeholder, not "None".
        rendered = ["n/a" if value is None
                    else f"{value:.3f}" if isinstance(value, float)
                    else str(value)
                    for value in row]
        rendered_rows.append(rendered)
        widths = [max(width, len(cell))
                  for width, cell in zip(widths, rendered)]
    lines = [title]
    header = "  ".join(str(column).ljust(width)
                       for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(rendered, widths)))
    return "\n".join(lines)
