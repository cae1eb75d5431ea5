"""Performance benchmark harness for the simulator itself.

``python -m repro bench`` times the figure-7 workload set (every evaluated
configuration on the single-core benchmark suite, plus one multiprogrammed
mix) end to end through :class:`~repro.sim.system.System` and emits a
``BENCH_<rev>.json`` under ``benchmarks/perf/``.  The JSON records, per job
and in aggregate, simulation wall time, simulations per second, simulator
events per second, and peak RSS — the quantities future PRs regress
against.

The harness deliberately bypasses the experiment engine's result cache:
every job is simulated for real, so the numbers measure the event loop and
not cache lookups.  Traces and configurations are built outside the timed
region; only :meth:`System.run` is timed.

When a baseline file (``--baseline``, default
``benchmarks/perf/BENCH_baseline.json``) exists, the report includes the
per-job and geometric-mean speedup against it, matching jobs by name.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.experiments.engine import ExperimentScale, ResultCache
from repro.experiments.runner import (DEFAULT_CONFIGURATIONS, geometric_mean,
                                      multicore_suite, single_core_benchmarks)
from repro.sim.config import make_system_config
from repro.sim.system import System
from repro.workloads.catalog import get_benchmark

#: Default location of the emitted BENCH_<rev>.json files.
DEFAULT_OUTPUT_DIR = Path("benchmarks") / "perf"

#: Baseline the report compares against when present.
DEFAULT_BASELINE = DEFAULT_OUTPUT_DIR / "BENCH_baseline.json"

#: Configurations timed by ``--quick`` (CI smoke) runs.
QUICK_CONFIGURATIONS = ("Base", "FIGCache-Fast")


@dataclass(frozen=True)
class BenchJob:
    """One timed simulation of the benchmark matrix."""

    #: Stable name used to match jobs across benchmark runs.
    name: str
    #: Configuration name (Base, FIGCache-Fast, ...).
    configuration: str
    #: ``"single-core"`` or ``"multicore"``.
    kind: str
    #: Benchmark or mix name.
    workload: str
    #: Device-catalog standard the simulated system uses.
    standard: str = "DDR4-1600"
    #: Core-count override for multicore jobs (0 = the scale's default).
    cores: int = 0
    #: Channel-count override (0 = one channel for single-core jobs, the
    #: scale's ``multicore_channels`` for multicore jobs).
    channels: int = 0

    def build(self, scale: ExperimentScale):
        """Build the (config, traces, workload-name) inputs, untimed."""
        if self.kind == "single-core":
            config = make_system_config(self.configuration,
                                        channels=self.channels or 1,
                                        standard=self.standard)
            traces = [get_benchmark(self.workload)
                      .make_trace(scale.single_core_records)]
        else:
            config = make_system_config(
                self.configuration,
                channels=self.channels or scale.multicore_channels,
                standard=self.standard)
            if self.cores:
                from repro.workloads.multiprogram import make_workload_suite
                mixes = make_workload_suite(
                    num_cores=self.cores,
                    mixes_per_category=scale.mixes_per_category)
            else:
                mixes = multicore_suite(scale)
            suite = {w.name: w for w in mixes}
            traces = suite[self.workload].make_traces(
                scale.multicore_records)
        return config, traces


#: Configurations timed on the multicore mixes by full runs: the three
#: mechanism families the paper's headline studies sweep.
MULTICORE_CONFIGURATIONS = ("Base", "FIGCache-Fast", "LISA-VILLA")


def figure7_jobs(scale: ExperimentScale, quick: bool = False) -> list[BenchJob]:
    """The figure-7 workload set: every configuration on every benchmark.

    The multicore portion covers the multi-core, multi-channel paths:
    8-core/4-channel mixes across the three mechanism families
    (``multi:*``), a 4-core/2-channel suite (``multi4:*``), and an
    8-core/2-channel job (``multi2ch:*``) so channel-count scaling is
    tracked separately from core-count scaling.  Quick (CI) runs keep one
    job per multicore shape, and add one non-DDR4 single-core job so the
    per-bank-refresh and bank-group-pacing code paths are part of the
    perf smoke signal.
    """
    configurations = QUICK_CONFIGURATIONS if quick else DEFAULT_CONFIGURATIONS
    categories = single_core_benchmarks(scale)
    benchmarks = [b for group in categories.values() for b in group]
    jobs = [BenchJob(name=f"single:{configuration}:{benchmark}",
                     configuration=configuration, kind="single-core",
                     workload=benchmark)
            for configuration in configurations for benchmark in benchmarks]
    if quick:
        jobs.append(BenchJob(name="single:FIGCache-Fast:lbm@HBM2",
                             configuration="FIGCache-Fast",
                             kind="single-core", workload="lbm",
                             standard="HBM2"))
    multi_configurations = QUICK_CONFIGURATIONS if quick \
        else MULTICORE_CONFIGURATIONS
    mix = multicore_suite(scale)[0]
    for configuration in multi_configurations:
        jobs.append(BenchJob(name=f"multi:{configuration}:{mix.name}",
                             configuration=configuration,
                             kind="multicore", workload=mix.name))
    # 4-core mixes on 2 channels: mix-50pct-0 keeps the per-channel load
    # comparable to the 8-core jobs' mix-25pct-0.
    for configuration in (("Base",) if quick else multi_configurations):
        jobs.append(BenchJob(name=f"multi4:{configuration}:mix-50pct-0",
                             configuration=configuration,
                             kind="multicore", workload="mix-50pct-0",
                             cores=4, channels=2))
    jobs.append(BenchJob(name=f"multi2ch:Base:{mix.name}",
                         configuration="Base", kind="multicore",
                         workload=mix.name, channels=2))
    return jobs


def current_revision() -> str:
    """Short git revision of the working tree, or ``unknown``."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes."""
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return ru_maxrss * 1024 if sys.platform != "darwin" else ru_maxrss


def host_metadata() -> dict:
    """Uniform host identity recorded by every bench report.

    One place so the simulator bench and the sweep bench (and anything
    added later) can never drift on which fields they record.
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def measure_tracing_overhead(scale: ExperimentScale | None = None,
                             repeats: int = 3) -> dict:
    """Paired tracing-off-vs-on timing of one representative job.

    Times the same (config, traces) with no tracer installed and with an
    :class:`~repro.sim.tracing.EventTracer` attached, interleaved over
    ``repeats`` passes keeping the fastest CPU time of each side.  The
    job is a FIGCache-Fast single-core run, so command, request, and
    mechanism hooks all fire.  ``off_cpu_s`` is the number the golden
    zero-overhead-when-off contract protects; ``overhead_ratio`` is the
    cost of turning tracing on.
    """
    from repro.sim.tracing import EventTracer

    scale = scale or ExperimentScale.tiny()
    job = next(job for job in figure7_jobs(scale, quick=True)
               if job.configuration == "FIGCache-Fast")
    config, traces = job.build(scale)
    best: dict[str, float | None] = {"off": None, "on": None}
    events = dropped = 0
    for _ in range(max(repeats, 1)):
        for mode in ("off", "on"):
            tracer = EventTracer() if mode == "on" else None
            system = System(config, traces, tracer=tracer)
            cpu_start = time.process_time()
            system.run(job.workload)
            cpu = time.process_time() - cpu_start
            if best[mode] is None or cpu < best[mode]:
                best[mode] = cpu
            if tracer is not None:
                events = tracer.total_events
                dropped = tracer.dropped_events
    off_cpu = best["off"] or 0.0
    on_cpu = best["on"] or 0.0
    return {
        "job": job.name,
        "repeats": max(repeats, 1),
        "off_cpu_s": off_cpu,
        "on_cpu_s": on_cpu,
        "overhead_ratio": on_cpu / off_cpu if off_cpu else 0.0,
        "events": events,
        "dropped_events": dropped,
    }


def run_bench(scale: ExperimentScale | None = None, quick: bool = False,
              repeats: int = 1) -> dict:
    """Time the benchmark matrix; returns the report dictionary.

    ``repeats`` re-runs every job and keeps the fastest wall time per job,
    which damps scheduler/allocator noise on busy machines.
    """
    scale = scale or ExperimentScale.bench()
    if quick:
        scale = ExperimentScale.tiny()
    jobs = figure7_jobs(scale, quick=quick)

    # Build every job's inputs up front (untimed), then time ``repeats``
    # full passes over the matrix and keep each job's fastest time.
    # Interleaving the passes — rather than repeating one job back to back —
    # means a transient machine-load spike lands on different jobs in each
    # pass, so the per-job minimum filters it out.
    inputs = [(job, *job.build(scale)) for job in jobs]
    best_wall: dict[str, float] = {}
    best_cpu: dict[str, float] = {}
    events_by_job: dict[str, int] = {}
    cycles_by_job: dict[str, int] = {}
    for _ in range(max(repeats, 1)):
        for job, config, traces in inputs:
            system = System(config, traces)
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            result = system.run(job.workload)
            cpu = time.process_time() - cpu_start
            wall = time.perf_counter() - wall_start
            name = job.name
            if name not in best_wall or wall < best_wall[name]:
                best_wall[name] = wall
            if name not in best_cpu or cpu < best_cpu[name]:
                best_cpu[name] = cpu
            events_by_job[name] = system.processed_events
            cycles_by_job[name] = result.total_cycles

    job_reports = []
    total_wall = 0.0
    total_cpu = 0.0
    total_events = 0
    total_cycles = 0
    for job in jobs:
        name = job.name
        wall = best_wall[name]
        cpu = best_cpu[name]
        events = events_by_job[name]
        total_wall += wall
        total_cpu += cpu
        total_events += events
        total_cycles += cycles_by_job[name]
        job_reports.append({
            "name": name,
            "configuration": job.configuration,
            "kind": job.kind,
            "workload": job.workload,
            "wall_s": wall,
            # CPU seconds (time.process_time) — the headline metric: the
            # simulator is single-threaded, and CPU time is far less
            # sensitive to machine load than wall time.
            "cpu_s": cpu,
            "events": events,
            "events_per_sec": events / cpu if cpu else 0.0,
            "simulated_cycles": cycles_by_job[name],
        })

    return {
        "schema": 1,
        "rev": current_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **host_metadata(),
        "quick": quick,
        "repeats": max(repeats, 1),
        "tracing": measure_tracing_overhead(scale=scale,
                                            repeats=max(repeats, 1)),
        "scale": {
            "single_core_records": scale.single_core_records,
            "multicore_records": scale.multicore_records,
            "num_cores": scale.num_cores,
            "multicore_channels": scale.multicore_channels,
        },
        "jobs": job_reports,
        "totals": {
            "simulations": len(job_reports),
            "wall_s": total_wall,
            "cpu_s": total_cpu,
            "sims_per_sec": len(job_reports) / total_cpu if total_cpu
            else 0.0,
            "events": total_events,
            "events_per_sec": total_events / total_cpu if total_cpu
            else 0.0,
            "simulated_cycles": total_cycles,
            "peak_rss_bytes": peak_rss_bytes(),
        },
    }


def compare_to_baseline(report: dict, baseline: dict) -> dict | None:
    """Per-job and aggregate speedup of ``report`` over ``baseline``.

    Jobs are matched by name; unmatched jobs are ignored.  Returns None
    when no jobs match (e.g. quick run against a full baseline).
    """
    if report.get("scale") != baseline.get("scale"):
        # Different trace lengths / core counts: job names may match but
        # the work does not, so a speedup would be meaningless.
        return None
    base_jobs = {job["name"]: job for job in baseline.get("jobs", [])}
    speedups = []
    per_job = {}
    # Compare CPU seconds when both sides recorded them (the simulator is
    # single-threaded, and CPU time is robust against machine load);
    # otherwise fall back to wall time.
    for job in report["jobs"]:
        base = base_jobs.get(job["name"])
        if base is None:
            continue
        metric = "cpu_s" if job.get("cpu_s") and base.get("cpu_s") \
            else "wall_s"
        if not job.get(metric) or not base.get(metric):
            continue
        speedup = base[metric] / job[metric]
        per_job[job["name"]] = speedup
        speedups.append(speedup)
    if not speedups:
        return None
    return {
        "baseline_rev": baseline.get("rev", "unknown"),
        "jobs_compared": len(speedups),
        "geomean_speedup": geometric_mean(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "per_job": per_job,
        # BENCH_pr6/pr9 were timed on a since-removed event core and say
        # so in their "backend" field; older reports predate the field.
        "baseline_backend": baseline.get("backend", "python"),
    }


def profile_job(job_name: str | None = None,
                scale: ExperimentScale | None = None, top: int = 25) -> str:
    """cProfile one bench job; returns the top-``top`` cumulative table.

    The profiled region is exactly the timed region of :func:`run_bench`
    (``System.run`` — trace and system construction excluded), so the
    table explains the numbers the bench emits.  ``job_name`` defaults to
    the first job of the full matrix and accepts any job of the full OR
    quick matrix — including every multicore job (``multi:*``,
    ``multi4:*``, ``multi2ch:*``); unknown names raise ``ValueError``
    listing the available jobs.
    """
    scale = scale or ExperimentScale.bench()
    jobs = figure7_jobs(scale)
    by_name = {job.name: job for job in jobs}
    for extra in figure7_jobs(scale, quick=True):
        # Quick-only jobs (e.g. the HBM2 smoke job) are profilable too.
        by_name.setdefault(extra.name, extra)
    if job_name is None:
        job_name = jobs[0].name
    job = by_name.get(job_name)
    if job is None:
        raise ValueError(f"unknown bench job {job_name!r}; choose one of "
                         f"{sorted(by_name)}")
    config, traces = job.build(scale)
    system = System(config, traces)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(job.workload)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    header = (f"cProfile of bench job {job.name} "
              f"({scale.single_core_records if job.kind == 'single-core' else scale.multicore_records} "
              f"records/core), top {top} by cumulative time")
    return header + "\n" + buffer.getvalue()


def write_report(report: dict, output_dir: Path,
                 stem: str | None = None) -> Path:
    """Write ``<stem>.json`` (default ``BENCH_<rev>``); returns the path."""
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"{stem or 'BENCH_' + report['rev']}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Sweep throughput bench: the experiment *engine* as the measured system.
# ----------------------------------------------------------------------

def _sweep_matrix(scale: ExperimentScale, quick: bool):
    """The job matrix, grouped into per-configuration batches.

    Batching per configuration models real engine traffic — each figure
    or study submits its own batch — so the warm pool's reuse across
    batches is part of what is measured.
    """
    from repro.experiments.figures import figure7_matrix_jobs
    configurations = QUICK_CONFIGURATIONS if quick else DEFAULT_CONFIGURATIONS
    mix_configurations = ("FIGCache-Fast",) if quick \
        else ("Base", "FIGCache-Fast")
    jobs = figure7_matrix_jobs(scale, configurations=configurations,
                               mix_configurations=mix_configurations)
    batches: dict[str, list] = {}
    for job in jobs:
        batches.setdefault(job.configuration, []).append(job)
    return jobs, list(batches.values())


def run_sweep_bench(scale: ExperimentScale | None = None,
                    quick: bool = False,
                    jobs_levels: Sequence[int] = (1, 2, 4),
                    repeats: int = 2) -> dict:
    """Benchmark sweep throughput: jobs/sec through the engine itself.

    Runs a cold-cache figure-7-style matrix through the experiment engine
    at every requested worker count, and reports wall time, jobs/sec,
    summed simulation CPU, and engine overhead (``wall - sim CPU``) for
    each.  Every measurement starts from a cold memory-only cache, so the
    numbers measure dispatch, trace/config building, scheduling, and cache
    writes — never cache hits.  Each measurement repeats ``repeats`` times
    keeping the fastest wall clock.

    Bit-identity across worker counts is asserted while measuring
    (``results_identical`` in the report): the optimization target is
    jobs/second, never the numbers.
    """
    from repro.experiments.engine import JobExecutor

    scale = ExperimentScale.tiny() if quick \
        else (scale or ExperimentScale.bench())
    matrix, batches = _sweep_matrix(scale, quick)
    reference = None
    runs = []
    for jobs_level in jobs_levels:
        best = None
        for _ in range(max(repeats, 1)):
            cache = ResultCache()  # memory-only: always cold
            executor = JobExecutor(cache=cache, jobs=jobs_level)
            results = {}
            wall_start = time.perf_counter()
            for batch in batches:
                results.update(executor.run(batch))
            wall = time.perf_counter() - wall_start
            executor.close()  # pool teardown excluded from the clock
            rows = [results[job].to_dict() for job in matrix]
            if reference is None:
                reference = rows
            identical = rows == reference
            measurement = {
                "jobs": jobs_level,
                "wall_s": wall,
                "jobs_per_sec": len(matrix) / wall,
                "sim_cpu_s": executor.sim_cpu_s,
                "overhead_s": wall - executor.sim_cpu_s,
                "overhead_per_job_s":
                    (wall - executor.sim_cpu_s) / len(matrix),
                "simulations": executor.simulations_executed,
                "results_identical": identical,
                # Reliability counters: all zero in a healthy perf run —
                # nonzero means the numbers absorbed retry/respawn time,
                # and silent corruption can't hide in a report.
                "retries": executor.retries,
                "chunk_timeouts": executor.chunk_timeouts,
                "pool_respawns": executor.pool_respawns,
                "cache_decode_failures": cache.stats().decode_failures,
                "cache_quarantined": cache.stats().quarantined,
            }
            if best is None or wall < best["wall_s"]:
                best = measurement
            else:
                best["results_identical"] &= identical
        runs.append(best)

    return {
        "schema": 1,
        "mode": "sweep",
        "rev": current_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **host_metadata(),
        "quick": quick,
        "repeats": max(repeats, 1),
        "matrix_jobs": len(matrix),
        "batches": len(batches),
        "scale": {
            "single_core_records": scale.single_core_records,
            "multicore_records": scale.multicore_records,
            "num_cores": scale.num_cores,
            "multicore_channels": scale.multicore_channels,
        },
        "runs": runs,
        "results_identical": all(run["results_identical"] for run in runs),
        # Worker counts beyond the host's CPUs timeshare them, so past
        # that point more workers cannot add throughput.
        "cpus_saturated": (os.cpu_count() or 1) < max(jobs_levels),
    }


def format_sweep_report(report: dict) -> str:
    """Human-readable summary of a sweep-throughput report."""
    lines = [f"sweep bench @ {report['rev']} "
             f"(python {report['python']}, {report['cpu_count']} CPU(s), "
             f"quick={report['quick']}): "
             f"{report['matrix_jobs']} jobs over {report['batches']} "
             f"batches, cold cache"]
    lines.append(f"  {'jobs':>4s} {'wall_s':>8s} "
                 f"{'jobs/s':>8s} {'sim_cpu_s':>10s} {'ovh/job_ms':>11s}")
    for run in report["runs"]:
        lines.append(f"  {run['jobs']:>4d} "
                     f"{run['wall_s']:>8.3f} {run['jobs_per_sec']:>8.2f} "
                     f"{run['sim_cpu_s']:>10.3f} "
                     f"{run['overhead_per_job_s'] * 1e3:>11.2f}")
    lines.append("  results bit-identical across worker counts: "
                 + ("yes" if report["results_identical"]
                    else "NO - INVESTIGATE"))
    return "\n".join(lines)


def format_report(report: dict, comparison: dict | None) -> str:
    """Human-readable summary printed by the CLI."""
    totals = report["totals"]
    lines = [f"perf bench @ {report['rev']} "
             f"(python {report['python']}, quick={report['quick']})"]
    for job in report["jobs"]:
        lines.append(f"  {job['name']:<44s} {job['cpu_s']:8.3f}s cpu "
                     f"{job['events_per_sec']:12,.0f} events/s")
    lines.append(f"  {'TOTAL':<44s} {totals['cpu_s']:8.3f}s cpu "
                 f"({totals['wall_s']:.3f}s wall) "
                 f"{totals['events_per_sec']:12,.0f} events/s")
    lines.append(f"  {totals['simulations']} simulations, "
                 f"{totals['sims_per_sec']:.2f} sims/s, peak RSS "
                 f"{totals['peak_rss_bytes'] / (1 << 20):.1f} MiB")
    tracing = report.get("tracing")
    if tracing:
        lines.append(f"  tracing overhead ({tracing['job']}): "
                     f"{tracing['off_cpu_s']:.3f}s off vs "
                     f"{tracing['on_cpu_s']:.3f}s on cpu "
                     f"({tracing['overhead_ratio']:.2f}x, "
                     f"{tracing['events']:,} events)")
    if comparison:
        lines.append(f"  vs baseline {comparison['baseline_rev']}: "
                     f"geomean speedup {comparison['geomean_speedup']:.2f}x "
                     f"(min {comparison['min_speedup']:.2f}x, "
                     f"max {comparison['max_speedup']:.2f}x over "
                     f"{comparison['jobs_compared']} jobs)")
        if comparison["baseline_backend"] != "python":
            lines.append(
                f"  WARNING: the baseline was timed on the removed "
                f"{comparison['baseline_backend']} event core — the speedup "
                f"compares different simulator code")
    return "\n".join(lines)
