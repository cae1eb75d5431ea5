"""The declarative experiment engine.

Three layers turn the paper's figure matrix into embarrassingly parallel,
incrementally re-runnable work:

* :mod:`repro.experiments.engine.spec` — :class:`SimJob` describes one
  (configuration, workload, scale) simulation point declaratively and
  hashes to a stable content-addressed key.
* :mod:`repro.experiments.engine.cache` — :class:`ResultCache`, a
  memory + optional on-disk store of :class:`SimulationResult` objects
  keyed by job digest and salted with a fingerprint of the model source.
* :mod:`repro.experiments.engine.executor` — :class:`JobExecutor` fans
  cache-missing jobs across worker processes (``ProcessPoolExecutor``)
  with a deterministic serial fallback.

The figure runners all submit batches through one process-wide default
executor, managed here.  ``configure()`` swaps it (the CLI uses this to
apply ``--jobs`` / ``--cache-dir`` / ``--keep-going``); ``reset()``
restores a fresh environment-configured default, which the benchmark
harness uses to isolate cached results between modules.
"""

from __future__ import annotations

import os

from repro.experiments.engine.cache import (CACHE_DIR_ENV,
                                            COMPRESS_MIN_BYTES, CacheStats,
                                            CorruptEntryError, ResultCache,
                                            cache_salt, default_cache_dir)
from repro.experiments.engine.executor import (JOBS_ENV, BatchReport,
                                               JobExecutionError,
                                               JobExecutor, JobFailure,
                                               resolve_jobs)
from repro.experiments.engine.faults import (FAULT_PLAN_ENV, FaultPlan,
                                             FaultSpec, InjectedFault,
                                             install_plan)
from repro.experiments.engine.progress import (PROGRESS_SCHEMA_VERSION,
                                               CallbackSink, JsonlFileSink,
                                               ProgressEvent, ProgressSink,
                                               StderrLineSink, TeeSink)
from repro.experiments.engine.spec import ExperimentScale, SimJob

__all__ = [
    "BatchReport",
    "CACHE_DIR_ENV",
    "COMPRESS_MIN_BYTES",
    "CacheStats",
    "CallbackSink",
    "CorruptEntryError",
    "ExperimentScale",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JOBS_ENV",
    "JobExecutionError",
    "JobExecutor",
    "JobFailure",
    "JsonlFileSink",
    "PROGRESS_SCHEMA_VERSION",
    "ProgressEvent",
    "ProgressSink",
    "ResultCache",
    "SimJob",
    "StderrLineSink",
    "TeeSink",
    "cache_salt",
    "configure",
    "default_cache_dir",
    "get_executor",
    "install_plan",
    "reset",
    "resolve_jobs",
]

_default_executor: JobExecutor | None = None


def get_executor() -> JobExecutor:
    """The process-wide default executor the figure runners submit to.

    Created lazily from the environment: ``REPRO_JOBS`` sets the worker
    count and ``REPRO_CACHE_DIR`` enables the persistent cache layer.  With
    neither set, the default is a serial executor with a memory-only cache
    — exactly the pre-engine behaviour, minus the staleness.
    """
    global _default_executor
    if _default_executor is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        _default_executor = JobExecutor(cache=ResultCache(cache_dir))
    return _default_executor


def configure(jobs: int | None = None, cache_dir: str | None = None,
              keep_going: bool = False) -> JobExecutor:
    """Replace the default executor (e.g. to apply CLI flags).

    The previous default's warm worker pool — if one was ever spun up —
    is shut down so reconfiguring never leaks worker processes.
    ``keep_going`` is the CLI's ``--keep-going``: retry failed jobs, then
    skip them instead of failing fast.
    """
    global _default_executor
    if _default_executor is not None:
        _default_executor.close()
    _default_executor = JobExecutor(cache=ResultCache(cache_dir), jobs=jobs,
                                    keep_going=keep_going)
    return _default_executor


def reset() -> None:
    """Discard the default executor (shutting down its warm pool); the
    next use rebuilds it from the environment with an empty in-memory
    cache."""
    global _default_executor
    if _default_executor is not None:
        _default_executor.close()
    _default_executor = None
