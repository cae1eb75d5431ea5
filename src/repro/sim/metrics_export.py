"""Unified metrics snapshot and Prometheus/JSON export.

Counters that matter for operating the system at scale already exist, but
scattered: the :class:`~repro.controller.channel_controller.ChannelController`
tracks completed requests and latencies, :meth:`ResultCache.stats` knows
cache traffic and disk occupancy, and the
:class:`~repro.experiments.engine.executor.JobExecutor` counts simulations
and CPU time.  This module collects them into one nested snapshot dict —
the health-metrics substrate the ROADMAP's simulation-as-a-service front
door will mount — and renders it two ways:

* ``json.dumps(snapshot)`` — the snapshot is JSON-ready by construction;
* :func:`to_prometheus_text` — Prometheus text exposition format, one
  ``repro_<section>_<name>`` gauge per numeric leaf.

Surfaces: ``python -m repro metrics`` (cache + host health),
``python -m repro sweep --metrics-out`` (adds executor counters from the
run), and ``python -m repro cache stats`` (routes its display through the
same cache section, so humans and scrapers read identical numbers).
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

#: Bump when sections or field names change incompatibly.
METRICS_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Section collectors.  Each returns a flat (or one-level nested) dict of
# JSON-ready values; ``metrics_snapshot`` assembles the selected ones.
# ----------------------------------------------------------------------
def host_metrics() -> dict:
    """Host identity: enough to compare scraped numbers across machines."""
    return {
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "pid": os.getpid(),
    }


def cache_metrics(cache) -> dict:
    """Result-cache traffic, occupancy, and shard-layout breakdown."""
    stats = cache.stats()
    shards = 0
    if cache.persistent:
        shards = len({path.parent for path, _ in cache.index().values()
                      if path.parent != cache.directory})
    return {
        "directory": str(cache.directory) if cache.persistent else None,
        "persistent": cache.persistent,
        "hits": stats.hits,
        "misses": stats.misses,
        "stores": stats.stores,
        "memory_entries": stats.memory_entries,
        "disk_entries": stats.disk_entries,
        "disk_bytes": stats.disk_bytes,
        "disk_compressed": stats.disk_compressed,
        "disk_legacy": stats.disk_legacy,
        "decode_failures": stats.decode_failures,
        "quarantined": stats.quarantined,
        "quarantine_entries": stats.quarantine_entries,
        "shards": shards,
    }


def executor_metrics(executor) -> dict:
    """Lifetime counters of one :class:`JobExecutor`."""
    return {
        "workers": executor.jobs,
        "simulations_executed": executor.simulations_executed,
        "cache_hits": executor.cache_hits,
        "sim_cpu_s": executor.sim_cpu_s,
        "pool_active": executor.pool_active,
        "retries": executor.retries,
        "jobs_skipped": executor.jobs_skipped,
        "jobs_failed": executor.jobs_failed,
        "chunk_timeouts": executor.chunk_timeouts,
        "pool_respawns": executor.pool_respawns,
    }


def controller_metrics(memory_controller) -> dict:
    """Aggregated memory-controller counters across every channel."""
    completed_reads = completed_writes = total_read_latency = 0
    read_queue = write_queue = 0
    for controller in memory_controller.channel_controllers:
        counters = controller.telemetry_counters()
        completed_reads += counters["completed_reads"]
        completed_writes += counters["completed_writes"]
        total_read_latency += counters["total_read_latency"]
        read_queue += controller.read_queue_occupancy
        write_queue += controller.write_queue_occupancy
    return {
        "channels": len(memory_controller.channel_controllers),
        "completed_reads": completed_reads,
        "completed_writes": completed_writes,
        "total_read_latency_cycles": total_read_latency,
        "read_queue_occupancy": read_queue,
        "write_queue_occupancy": write_queue,
    }


def dram_metrics(counters) -> dict:
    """DRAM command counters (one :class:`CommandCounters` aggregate)."""
    return dict(counters.telemetry_counters())


def mechanism_metrics(mechanisms) -> dict:
    """Summed mechanism statistics across all channels' mechanisms."""
    totals: dict[str, int] = {}
    for mechanism in mechanisms:
        for name, value in mechanism.stats.telemetry_counters().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def metrics_snapshot(executor=None, cache=None, system=None) -> dict:
    """One nested, JSON-ready snapshot of every available counter source.

    Sections are included only for the sources passed in; ``host`` and the
    schema stamp are always present.  Passing an ``executor`` implies its
    cache (unless a distinct ``cache`` is given).
    """
    snapshot: dict = {"schema": METRICS_SCHEMA_VERSION,
                      "host": host_metrics()}
    if cache is None and executor is not None:
        cache = executor.cache
    if cache is not None:
        snapshot["cache"] = cache_metrics(cache)
    if executor is not None:
        snapshot["executor"] = executor_metrics(executor)
    if system is not None:
        snapshot["controller"] = controller_metrics(system.controller)
        snapshot["dram"] = dram_metrics(system.device.total_counters())
        snapshot["mechanism"] = mechanism_metrics(system.mechanisms)
    return snapshot


# ----------------------------------------------------------------------
# Prometheus text exposition.
# ----------------------------------------------------------------------
def _sanitize(name: str) -> str:
    """Metric-name-safe identifier (Prometheus allows [a-zA-Z0-9_:])."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in name)


def to_prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot's numeric leaves in Prometheus text format.

    Every numeric value at ``snapshot[section][name]`` becomes a gauge
    ``<prefix>_<section>_<name>``; booleans are rendered as 0/1 and
    non-numeric leaves (strings, None) are skipped.  Top-level scalars
    (e.g. ``schema``) export as ``<prefix>_<name>``.
    """
    lines: list[str] = []

    def emit(name: str, value) -> None:
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            return
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")

    for section, content in snapshot.items():
        if isinstance(content, dict):
            for name, value in content.items():
                emit(f"{prefix}_{section}_{name}", value)
        else:
            emit(f"{prefix}_{section}", content)
    return "\n".join(lines) + "\n"


def write_metrics(path: str | Path, snapshot: dict) -> Path:
    """Write a snapshot to ``path``; ``.prom`` selects Prometheus text,
    anything else JSON."""
    import json

    path = Path(path)
    if path.suffix == ".prom":
        path.write_text(to_prometheus_text(snapshot), encoding="utf-8")
    else:
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    return path
