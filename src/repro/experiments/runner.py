"""Shared helpers for the experiment runners.

The runners in :mod:`repro.experiments.figures` and
:mod:`repro.experiments.static` simulate through the declarative
experiment engine (:mod:`repro.experiments.engine`); this module holds
what they share besides it: the single-core benchmark lists and the
multiprogrammed suite at a given scale, the geometric mean the speedups
aggregate with, and the fixed-width table printer.
"""

from __future__ import annotations

import math

from repro.experiments.engine import ExperimentScale
from repro.workloads.multiprogram import (MultiprogrammedWorkload,
                                          make_workload_suite)

__all__ = [
    "ExperimentScale",
    "format_table",
    "geometric_mean",
    "multicore_suite",
    "single_core_benchmarks",
]


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
        rendered = [f"{value:.3f}" if isinstance(value, float)
                    else str(value) for value in row]
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
