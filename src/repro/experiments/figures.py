"""Declarative runners for the paper's Figures 7–15.

Every figure function is now a thin experiment definition: it enumerates
the :class:`~repro.experiments.engine.SimJob` points its plot needs,
submits the whole batch to the process-wide
:class:`~repro.experiments.engine.JobExecutor` in one call (so independent
simulations can run on parallel workers and cached points are skipped),
and assembles the result rows from the returned mapping.

Every function returns a dictionary with a ``rows`` list (one row per data
point the paper plots) plus the metadata needed to print it.  Weighted
speedups are normalised against the Base configuration exactly as in the
paper; absolute values are not expected to match the paper (the traces are
far shorter), but the ordering and trends are.  Because job batches are
deduplicated and content-addressed, the row values are bit-identical
whether the batch runs serially, across N workers, or straight out of a
warm persistent cache.
"""

from __future__ import annotations

from collections import defaultdict

from repro.dram.standards import PROFILES, get_profile
from repro.experiments.engine import (JobExecutionError, SimJob,
                                      get_executor)
from repro.experiments.runner import (DEFAULT_CONFIGURATIONS, ExperimentScale,
                                      geometric_mean, multicore_suite,
                                      single_core_benchmarks)
from repro.sim.telemetry import LatencyHistogram

#: Configurations compared by the in-DRAM cache metrics figures (9 and 10).
_CACHE_CONFIGURATIONS = ("LISA-VILLA", "FIGCache-Slow", "FIGCache-Fast")

#: Mechanisms compared across DRAM standards by the dram-types study.
_DRAM_TYPE_CONFIGURATIONS = ("Base", "FIGCache-Fast", "LISA-VILLA")

#: Mechanisms compared by the latency-distribution study.
_LATENCY_CONFIGURATIONS = ("Base", "FIGCache-Fast", "LISA-VILLA")

#: Memory-intensive benchmarks the dram-types study aggregates over (the
#: paper's cross-standard argument is about memory-bound workloads; six
#: benchmarks keep the geomean robust at reproduction trace lengths).
_DRAM_TYPE_BENCHMARKS = ("lbm", "mcf", "libquantum", "zeusmp", "GemsFDTD",
                         "bwaves")


def _single_core_jobs(configurations, benchmarks, scale: ExperimentScale,
                      **overrides) -> dict[tuple, SimJob]:
    """One single-core job per (configuration, benchmark) pair."""
    return {(configuration, benchmark):
            SimJob.single_core(configuration, benchmark, scale, **overrides)
            for configuration in configurations for benchmark in benchmarks}


def _multicore_jobs(configurations, suite, scale: ExperimentScale,
                    **overrides) -> dict[tuple, SimJob]:
    """One multicore job per (configuration, workload) pair."""
    return {(configuration, workload.name):
            SimJob.multicore(configuration, workload, scale, **overrides)
            for configuration in configurations for workload in suite}


def _run_batch(jobs: dict[tuple, SimJob]) -> dict[tuple, object]:
    """Submit one batch; returns results under the jobs' semantic keys.

    A job skipped under ``--keep-going`` fails the figure: its rows would
    otherwise be computed from part of the batch.
    """
    executor = get_executor()
    results = executor.run(jobs.values())
    if executor.last_report.skipped:
        raise JobExecutionError.from_report(executor.last_report)
    return {key: results[job] for key, job in jobs.items()}


def figure7_single_core(scale: ExperimentScale | None = None,
                        configurations=DEFAULT_CONFIGURATIONS) -> dict:
    """Figure 7: single-core speedup over Base per intensity class."""
    scale = scale or ExperimentScale()
    categories = single_core_benchmarks(scale)
    benchmarks = [b for group in categories.values() for b in group]
    wanted = dict.fromkeys(("Base",) + tuple(configurations))
    results = _run_batch(_single_core_jobs(wanted, benchmarks, scale))
    rows = []
    for category, group in categories.items():
        speedups = defaultdict(list)
        for benchmark in group:
            base_ipc = results[("Base", benchmark)].cores[0].ipc
            for configuration in configurations:
                if configuration == "Base":
                    continue
                result = results[(configuration, benchmark)]
                speedups[configuration].append(result.cores[0].ipc / base_ipc)
        for configuration in configurations:
            if configuration == "Base":
                continue
            rows.append([category, configuration,
                         geometric_mean(speedups[configuration])])
    return {
        "figure": "Figure 7",
        "metric": "speedup over Base (geometric mean per category)",
        "columns": ["category", "configuration", "speedup"],
        "rows": rows,
    }


def figure8_multicore(scale: ExperimentScale | None = None,
                      configurations=DEFAULT_CONFIGURATIONS) -> dict:
    """Figure 8: eight-core weighted speedup over Base per intensity mix."""
    scale = scale or ExperimentScale()
    suite = multicore_suite(scale)
    results = _run_batch(_multicore_jobs(configurations, suite, scale))
    rows = []
    for fraction in sorted({w.intensive_fraction for w in suite}):
        workloads = [w for w in suite if w.intensive_fraction == fraction]
        for configuration in configurations:
            if configuration == "Base":
                continue
            speedups = []
            for workload in workloads:
                base = results[("Base", workload.name)]
                other = results[(configuration, workload.name)]
                speedups.append(other.ipc_sum / base.ipc_sum)
            rows.append([f"{int(fraction * 100)}% intensive", configuration,
                         geometric_mean(speedups)])
    return {
        "figure": "Figure 8",
        "metric": "weighted speedup over Base (geometric mean per category)",
        "columns": ["category", "configuration", "speedup"],
        "rows": rows,
    }


def figure9_cache_hit_rate(scale: ExperimentScale | None = None) -> dict:
    """Figure 9: in-DRAM cache hit rate of the caching mechanisms."""
    scale = scale or ExperimentScale()
    categories = single_core_benchmarks(scale)
    benchmarks = [b for group in categories.values() for b in group]
    suite = multicore_suite(scale)
    single_jobs = _single_core_jobs(_CACHE_CONFIGURATIONS, benchmarks, scale)
    multi_jobs = _multicore_jobs(_CACHE_CONFIGURATIONS, suite, scale)
    results = _run_batch({**single_jobs, **multi_jobs})
    rows = []
    for category, group in categories.items():
        for configuration in _CACHE_CONFIGURATIONS:
            rates = [results[(configuration, benchmark)]
                     .in_dram_cache_hit_rate for benchmark in group]
            rows.append([f"1-core {category}", configuration,
                         sum(rates) / len(rates)])
    for fraction in sorted({w.intensive_fraction for w in suite}):
        workloads = [w for w in suite if w.intensive_fraction == fraction]
        for configuration in _CACHE_CONFIGURATIONS:
            rates = [results[(configuration, w.name)].in_dram_cache_hit_rate
                     for w in workloads]
            rows.append([f"8-core {int(fraction * 100)}% intensive",
                         configuration, sum(rates) / len(rates)])
    return {
        "figure": "Figure 9",
        "metric": "in-DRAM cache hit rate",
        "columns": ["category", "configuration", "hit_rate"],
        "rows": rows,
    }


def figure10_row_buffer_hit_rate(scale: ExperimentScale | None = None) -> dict:
    """Figure 10: DRAM row-buffer hit rate of the caching mechanisms."""
    scale = scale or ExperimentScale()
    configurations = ("Base",) + _CACHE_CONFIGURATIONS
    categories = single_core_benchmarks(scale)
    benchmarks = [b for group in categories.values() for b in group]
    suite = multicore_suite(scale)
    results = _run_batch({
        **_single_core_jobs(configurations, benchmarks, scale),
        **_multicore_jobs(configurations, suite, scale)})
    rows = []
    for category, group in categories.items():
        for configuration in configurations:
            rates = [results[(configuration, benchmark)].row_buffer_hit_rate
                     for benchmark in group]
            rows.append([f"1-core {category}", configuration,
                         sum(rates) / len(rates)])
    for fraction in sorted({w.intensive_fraction for w in suite}):
        workloads = [w for w in suite if w.intensive_fraction == fraction]
        for configuration in configurations:
            rates = [results[(configuration, w.name)].row_buffer_hit_rate
                     for w in workloads]
            rows.append([f"8-core {int(fraction * 100)}% intensive",
                         configuration, sum(rates) / len(rates)])
    return {
        "figure": "Figure 10",
        "metric": "DRAM row-buffer hit rate",
        "columns": ["category", "configuration", "row_buffer_hit_rate"],
        "rows": rows,
    }


def figure11_energy(scale: ExperimentScale | None = None) -> dict:
    """Figure 11: system energy breakdown normalised to Base."""
    scale = scale or ExperimentScale()
    configurations = ("Base", "FIGCache-Slow", "FIGCache-Fast")
    categories = single_core_benchmarks(scale)
    benchmarks = [b for group in categories.values() for b in group]
    suite = multicore_suite(scale)
    results = _run_batch({
        **_single_core_jobs(configurations, benchmarks, scale),
        **_multicore_jobs(configurations, suite, scale)})

    def energy_row(label, configuration, pairs):
        """pairs: (base_result, result) per workload in the category."""
        components = defaultdict(float)
        for base, result in pairs:
            normalized = result.energy.normalized_to(base.energy)
            for component, value in normalized.items():
                components[component] += value / len(pairs)
        return [label, configuration,
                components["CPU"], components["L1&L2"], components["LLC"],
                components["Off-Chip"], components["DRAM"],
                components["Total"]]

    rows = []
    for category, group in categories.items():
        for configuration in configurations:
            pairs = [(results[("Base", b)], results[(configuration, b)])
                     for b in group]
            rows.append(energy_row(f"1-core {category}", configuration,
                                   pairs))
    for fraction in sorted({w.intensive_fraction for w in suite}):
        workloads = [w for w in suite if w.intensive_fraction == fraction]
        for configuration in configurations:
            pairs = [(results[("Base", w.name)],
                      results[(configuration, w.name)]) for w in workloads]
            rows.append(energy_row(
                f"8-core {int(fraction * 100)}% intensive", configuration,
                pairs))
    return {
        "figure": "Figure 11",
        "metric": "energy normalised to Base",
        "columns": ["category", "configuration", "CPU", "L1&L2", "LLC",
                    "Off-Chip", "DRAM", "Total"],
        "rows": rows,
    }


def _sweep_speedups(scale: ExperimentScale,
                    variants: list[tuple[str, str, dict]]) -> dict:
    """Weighted speedup over Base per category for a list of sweep points.

    ``variants`` is a list of ``(label, configuration, overrides)`` points.
    All (point, workload) jobs plus the shared Base jobs are submitted as
    one batch, so a whole sensitivity sweep parallelises across workers.
    Returns ``{label: {category: speedup}}`` with insertion order preserved.
    """
    suite = multicore_suite(scale)
    jobs = _multicore_jobs(("Base",), suite, scale)
    for label, configuration, overrides in variants:
        for workload in suite:
            jobs[(label, workload.name)] = SimJob.multicore(
                configuration, workload, scale, **overrides)
    results = _run_batch(jobs)
    sweep: dict = {}
    for label, _, _ in variants:
        speedups: dict[str, list[float]] = defaultdict(list)
        for workload in suite:
            base = results[("Base", workload.name)]
            other = results[(label, workload.name)]
            category = f"{int(workload.intensive_fraction * 100)}% intensive"
            speedups[category].append(other.ipc_sum / base.ipc_sum)
        sweep[label] = {category: geometric_mean(values)
                        for category, values in speedups.items()}
    return sweep


def _sweep_rows(sweep: dict) -> list[list]:
    """Flatten a :func:`_sweep_speedups` mapping into sorted result rows."""
    rows = []
    for label, per_category in sweep.items():
        for category, speedup in sorted(per_category.items()):
            rows.append([category, label, speedup])
    return rows


def figure12_cache_capacity(scale: ExperimentScale | None = None,
                            fast_subarray_counts=(1, 2, 4, 8, 16)) -> dict:
    """Figure 12: sensitivity to the number of fast subarrays per bank."""
    scale = scale or ExperimentScale()
    variants = [(f"{count} FS", "FIGCache-Fast",
                 {"fast_subarrays": count, "cache_rows_per_bank": count * 32})
                for count in fast_subarray_counts]
    variants.append(("LL-DRAM", "LL-DRAM", {}))
    return {
        "figure": "Figure 12",
        "metric": "weighted speedup over Base vs. in-DRAM cache capacity",
        "columns": ["category", "fast_subarrays", "speedup"],
        "rows": _sweep_rows(_sweep_speedups(scale, variants)),
    }


def figure13_segment_size(scale: ExperimentScale | None = None,
                          segment_sizes_blocks=(8, 16, 32, 64, 128)) -> dict:
    """Figure 13: sensitivity to the row segment size (512 B ... 8 kB)."""
    scale = scale or ExperimentScale()
    variants = []
    for blocks in segment_sizes_blocks:
        label = f"{blocks * 64}B" if blocks * 64 < 1024 \
            else f"{blocks * 64 // 1024}kB"
        variants.append((label, "FIGCache-Fast", {"segment_blocks": blocks}))
    variants.append(("LISA-VILLA", "LISA-VILLA", {}))
    return {
        "figure": "Figure 13",
        "metric": "weighted speedup over Base vs. row segment size",
        "columns": ["category", "segment_size", "speedup"],
        "rows": _sweep_rows(_sweep_speedups(scale, variants)),
    }


def figure14_replacement_policy(scale: ExperimentScale | None = None,
                                policies=("Random", "LRU", "SegmentBenefit",
                                          "RowBenefit")) -> dict:
    """Figure 14: sensitivity to the in-DRAM cache replacement policy."""
    scale = scale or ExperimentScale()
    variants = [(policy, "FIGCache-Fast", {"replacement_policy": policy})
                for policy in policies]
    return {
        "figure": "Figure 14",
        "metric": "weighted speedup over Base vs. replacement policy",
        "columns": ["category", "policy", "speedup"],
        "rows": _sweep_rows(_sweep_speedups(scale, variants)),
    }


def figure15_insertion_threshold(scale: ExperimentScale | None = None,
                                 thresholds=(1, 2, 4, 8)) -> dict:
    """Figure 15: sensitivity to the row segment insertion threshold."""
    scale = scale or ExperimentScale()
    variants = [(f"Threshold {threshold}", "FIGCache-Fast",
                 {"insertion_threshold": threshold})
                for threshold in thresholds]
    return {
        "figure": "Figure 15",
        "metric": "weighted speedup over Base vs. insertion threshold",
        "columns": ["category", "threshold", "speedup"],
        "rows": _sweep_rows(_sweep_speedups(scale, variants)),
    }


def figure_dram_types(scale: ExperimentScale | None = None,
                      standards=None,
                      configurations=_DRAM_TYPE_CONFIGURATIONS,
                      benchmarks=_DRAM_TYPE_BENCHMARKS) -> dict:
    """Cross-standard study: mechanism speedups on every DRAM type.

    The paper argues FIGCache is DRAM-type-agnostic (Section 3); this
    study reproduces that sensitivity claim by sweeping {Base,
    FIGCache-Fast, LISA-VILLA} over the device catalog
    (:mod:`repro.dram.standards`) and reporting, per standard, each
    mechanism's single-core speedup over Base *on that same standard*
    (geometric mean over the memory-intensive benchmark set).  Speedups
    are intra-standard by construction, so absolute performance
    differences between standards (bus rate, bank count, row size) do not
    skew the comparison.  Trace lengths follow the scale's single-core
    record count; at the default scale FIGCache-Fast improves over Base
    on every standard (guarded by
    ``tests/test_standards.py::TestDramTypesStudy``), while at the
    ``tiny``/``smoke`` scales the in-DRAM cache never warms up and
    FIGCache rows drop *below* 1.0 — those scales only smoke-test the
    plumbing, not the paper's claim.
    """
    scale = scale or ExperimentScale()
    # Resolve the registry lazily so standards registered at runtime via
    # ``register_profile`` are swept too.
    standards = tuple(standards) if standards is not None \
        else tuple(PROFILES)
    wanted = dict.fromkeys(("Base",) + tuple(configurations))
    jobs = {(standard, configuration, benchmark):
            SimJob.single_core(configuration, benchmark, scale,
                               standard=standard)
            for standard in standards for configuration in wanted
            for benchmark in benchmarks}
    results = _run_batch(jobs)
    rows = []
    for standard in standards:
        profile = get_profile(standard)
        for configuration in configurations:
            if configuration == "Base":
                continue
            speedups = [
                results[(standard, configuration, benchmark)].cores[0].ipc
                / results[(standard, "Base", benchmark)].cores[0].ipc
                for benchmark in benchmarks]
            rows.append([standard, profile.family, profile.refresh_mode,
                         configuration, geometric_mean(speedups)])
    return {
        "figure": "DRAM types",
        "metric": "speedup over Base on the same standard (geomean over "
                  "the memory-intensive set)",
        "columns": ["standard", "family", "refresh", "configuration",
                    "speedup"],
        "rows": rows,
    }


def figure_latency(scale: ExperimentScale | None = None,
                   configurations=_LATENCY_CONFIGURATIONS) -> dict:
    """Latency study: read-latency percentiles per configuration.

    The paper's Figure 10 analysis reports *mean* memory latency; this
    study reports the tail.  Every figure-7 single-core workload runs with
    telemetry enabled, the per-benchmark read-latency histograms are
    pooled per intensity category (exact counts merge losslessly), and
    each configuration's p50/p95/p99/max/mean is reported.

    The per-class benchmark count is floored at six: the p99 of a pool of
    only two benchmarks is set by whichever single workload's refresh
    windows happen to align worst (tRFC-delayed requests sit right at the
    1% boundary), not by the mechanism under study.  With six benchmarks
    pooled the tail is stable, and at the default scale FIGCache-Fast
    cuts the p99 read latency below Base on the memory-intensive set
    (guarded by ``tests/test_telemetry.py::TestLatencyStudy``); at the
    ``tiny``/``smoke`` scales the in-DRAM cache never warms up, so those
    scales only smoke-test the plumbing.
    """
    from dataclasses import replace

    scale = scale or ExperimentScale()
    pooled_scale = replace(
        scale, benchmarks_per_class=max(scale.benchmarks_per_class, 6))
    categories = single_core_benchmarks(pooled_scale)
    benchmarks = [b for group in categories.values() for b in group]
    results = _run_batch(_single_core_jobs(configurations, benchmarks, scale,
                                           telemetry=True))
    rows = []
    for category, group in categories.items():
        for configuration in configurations:
            pooled = LatencyHistogram()
            for benchmark in group:
                telemetry = results[(configuration, benchmark)].telemetry
                pooled.merge(telemetry.read_latency)
            summary = pooled.summary()
            rows.append([category, configuration, summary["p50"],
                         summary["p95"], summary["p99"], summary["max"],
                         summary["mean"]])
    return {
        "figure": "Latency distributions",
        "metric": "read latency percentiles in CPU cycles "
                  "(pooled over the figure-7 single-core workloads)",
        "columns": ["category", "configuration", "p50", "p95", "p99",
                    "max", "mean"],
        "rows": rows,
    }


#: Figure number -> runner, for the ``python -m repro run-figure`` CLI.
FIGURES = {
    7: figure7_single_core,
    8: figure8_multicore,
    9: figure9_cache_hit_rate,
    10: figure10_row_buffer_hit_rate,
    11: figure11_energy,
    12: figure12_cache_capacity,
    13: figure13_segment_size,
    14: figure14_replacement_policy,
    15: figure15_insertion_threshold,
}

#: Named (non-numbered) studies runnable with ``run-figure <name>``.
NAMED_FIGURES = {
    "dram-types": figure_dram_types,
    "latency": figure_latency,
}
