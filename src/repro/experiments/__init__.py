"""Experiment definitions and the engine that runs them.

The package splits into a declarative layer and an execution layer:

* :mod:`repro.experiments.engine` — the experiment engine:
  :class:`SimJob` specs with content-addressed keys, a persistent
  :class:`ResultCache`, and a :class:`JobExecutor` that fans independent
  simulations across worker processes (``REPRO_JOBS``/``--jobs``) with a
  deterministic serial fallback.
* :mod:`repro.experiments.figures` — one declarative runner per paper
  figure (7–15), the named studies and the design-space sweep; each
  declares its ``(label, configuration, overrides)`` points, runs them
  over its workloads as one engine batch (:func:`run_points`), and
  aggregates the results into rows.
* :mod:`repro.experiments.static` — the analytical experiments (Tables
  1–2, RELOC timing, hardware overheads, the RowHammer-style study).
* :mod:`repro.experiments.runner` — shared helpers (benchmark lists,
  workload suites, geometric mean, table formatting).

Every runner returns a plain dictionary (rows/series) that the benchmark
harness and the ``python -m repro`` CLI print, so the same code
regenerates the paper's tables and figures at any scale.
``ExperimentScale`` controls how much work each runner does; the defaults
keep the full suite runnable on a laptop in minutes, and the benchmarks
use an even smaller scale so CI stays fast.
"""

from repro.experiments.engine import (JobExecutor, ResultCache, SimJob,
                                      configure, get_executor, reset)
from repro.experiments.runner import (ExperimentScale, format_table,
                                      geometric_mean)
from repro.experiments.figures import (FIGURES,
                                       figure7_single_core,
                                       figure8_multicore,
                                       figure9_cache_hit_rate,
                                       figure10_row_buffer_hit_rate,
                                       figure11_energy,
                                       figure12_cache_capacity,
                                       figure13_segment_size,
                                       figure14_replacement_policy,
                                       figure15_insertion_threshold)
from repro.experiments.static import (STATIC_EXPERIMENTS,
                                      rowhammer_activation_study,
                                      section42_reloc_timing,
                                      section83_overhead,
                                      table1_configuration,
                                      table2_workloads)

__all__ = [
    "ExperimentScale",
    "FIGURES",
    "JobExecutor",
    "ResultCache",
    "STATIC_EXPERIMENTS",
    "SimJob",
    "configure",
    "figure10_row_buffer_hit_rate",
    "figure11_energy",
    "figure12_cache_capacity",
    "figure13_segment_size",
    "figure14_replacement_policy",
    "figure15_insertion_threshold",
    "figure7_single_core",
    "figure8_multicore",
    "figure9_cache_hit_rate",
    "format_table",
    "geometric_mean",
    "get_executor",
    "reset",
    "rowhammer_activation_study",
    "section42_reloc_timing",
    "section83_overhead",
    "table1_configuration",
    "table2_workloads",
]
