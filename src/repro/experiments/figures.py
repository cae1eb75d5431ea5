"""Declarative runners: Figures 7–15, the named studies and the sweep.

Every runner is a thin experiment definition.  It declares the
``(label, configuration, overrides)`` points its plot compares, hands
them with its workloads to :func:`run_points` (one batch on the
process-wide :class:`~repro.experiments.engine.JobExecutor`, so
independent simulations run on parallel workers and cached points are
skipped), and aggregates the results into rows, mostly through the one
per-category row builder :func:`_category_rows`.

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
from dataclasses import replace

from repro.dram.standards import PROFILES, get_profile
from repro.experiments.engine import (JobExecutionError, SimJob,
                                      get_executor)
from repro.experiments.runner import (ExperimentScale, geometric_mean,
                                      multicore_suite, single_core_benchmarks)
from repro.sim.config import CONFIGURATION_NAMES
from repro.sim.metrics import SimulationResult
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

#: The energy components Figure 11 reports, in column order.
_ENERGY_COMPONENTS = ("CPU", "L1&L2", "LLC", "Off-Chip", "DRAM", "Total")


def run_points(points, workloads, scale: ExperimentScale
               ) -> dict[tuple, SimulationResult]:
    """Run every point on every workload as one engine batch.

    ``points`` are ``(label, configuration, overrides)`` triples, where
    ``overrides`` are ``make_system_config`` knobs.  A workload is a
    benchmark name (a single-core job) or a multiprogrammed workload (a
    multicore job).  Returns the results under ``(label, workload
    name)``.  A job skipped under ``--keep-going`` fails the batch: rows
    computed from part of it would be wrong.
    """
    jobs = {}
    for label, configuration, overrides in points:
        for workload in workloads:
            if isinstance(workload, str):
                jobs[(label, workload)] = SimJob.single_core(
                    configuration, workload, scale, **overrides)
            else:
                jobs[(label, workload.name)] = SimJob.multicore(
                    configuration, workload, scale, **overrides)
    executor = get_executor()
    results = executor.run(jobs.values())
    if executor.last_report.skipped:
        raise JobExecutionError.from_report(executor.last_report)
    return {key: results[job] for key, job in jobs.items()}


def _points(configurations, **overrides) -> list[tuple]:
    """One point per configuration, labelled with its name."""
    return [(configuration, configuration, overrides)
            for configuration in configurations]


def _category_rows(categories: dict, labels, cells) -> list[list]:
    """One ``[category, label, *cells(label, names)]`` row per pair.

    ``categories`` maps each category to the names of its workloads;
    rows run category by category, in the mapping's order, with the
    labels in their given order inside each category.
    """
    return [[category, label, *cells(label, names)]
            for category, names in categories.items() for label in labels]


def _speedup(results, label, names, base="Base") -> float:
    """Geometric-mean IPC-sum speedup of ``label`` over ``base``.

    On one core the IPC sum is the core's IPC, so this is the
    single-core speedup and the multicore weighted speedup alike.
    """
    return geometric_mean([results[(label, name)].ipc_sum
                           / results[(base, name)].ipc_sum
                           for name in names])


def _mean(results, label, names, metric: str) -> float:
    """Arithmetic mean of one result attribute over ``names``."""
    values = [getattr(results[(label, name)], metric) for name in names]
    return sum(values) / len(values)


def _mix_categories(suite) -> dict[str, list[str]]:
    """Mix names per intensity category, in ascending intensity."""
    return {f"{int(fraction * 100)}% intensive":
            [w.name for w in suite if w.intensive_fraction == fraction]
            for fraction in sorted({w.intensive_fraction for w in suite})}


def _one_and_multi_core(scale: ExperimentScale) -> tuple[dict, list]:
    """Figures 9–11's categories: the single-core classes, then the mixes.

    The mix categories carry the scale's core count (8 at paper scale).
    Returns the categories and every workload they name, for
    :func:`run_points`.
    """
    classes = single_core_benchmarks(scale)
    suite = multicore_suite(scale)
    categories = {f"1-core {category}": group
                  for category, group in classes.items()}
    categories.update({f"{scale.num_cores}-core {category}": names
                       for category, names
                       in _mix_categories(suite).items()})
    benchmarks = [b for group in classes.values() for b in group]
    return categories, benchmarks + suite


def _segment_label(blocks: int) -> str:
    """A row segment size of ``blocks`` 64 B blocks, as 512B or 1kB."""
    size = blocks * 64
    return f"{size}B" if size < 1024 else f"{size // 1024}kB"


def _speedup_rows(scale: ExperimentScale, categories: dict, workloads,
                  variants: list[tuple]) -> list[list]:
    """Each variant's geometric-mean speedup over Base, per category.

    ``variants`` are ``(label, configuration, overrides)`` points; they
    and the shared Base runs go to the engine as one batch, so a whole
    sensitivity sweep parallelises across workers.
    """
    results = run_points([("Base", "Base", {}), *variants], workloads, scale)
    return _category_rows(categories, [label for label, _, _ in variants],
                          lambda label, names:
                          [_speedup(results, label, names)])


def _mix_speedup_rows(scale: ExperimentScale, variants: list[tuple]
                      ) -> list[list]:
    """Figures 8 and 12–15: :func:`_speedup_rows` per mix category."""
    suite = multicore_suite(scale)
    return _speedup_rows(scale, _mix_categories(suite), suite, variants)


def figure7_single_core(scale: ExperimentScale | None = None,
                        configurations=CONFIGURATION_NAMES) -> dict:
    """Figure 7: single-core speedup over Base per intensity class."""
    scale = scale or ExperimentScale()
    categories = single_core_benchmarks(scale)
    return {
        "figure": "Figure 7",
        "metric": "speedup over Base (geometric mean per category)",
        "columns": ["category", "configuration", "speedup"],
        "rows": _speedup_rows(
            scale, categories,
            [b for group in categories.values() for b in group],
            _points(c for c in configurations if c != "Base")),
    }


def figure8_multicore(scale: ExperimentScale | None = None,
                      configurations=CONFIGURATION_NAMES) -> dict:
    """Figure 8: eight-core weighted speedup over Base per intensity mix."""
    return {
        "figure": "Figure 8",
        "metric": "weighted speedup over Base (geometric mean per category)",
        "columns": ["category", "configuration", "speedup"],
        "rows": _mix_speedup_rows(
            scale or ExperimentScale(),
            _points(c for c in configurations if c != "Base")),
    }


def figure9_cache_hit_rate(scale: ExperimentScale | None = None) -> dict:
    """Figure 9: in-DRAM cache hit rate of the caching mechanisms."""
    scale = scale or ExperimentScale()
    categories, workloads = _one_and_multi_core(scale)
    results = run_points(_points(_CACHE_CONFIGURATIONS), workloads, scale)
    return {
        "figure": "Figure 9",
        "metric": "in-DRAM cache hit rate",
        "columns": ["category", "configuration", "hit_rate"],
        "rows": _category_rows(
            categories, _CACHE_CONFIGURATIONS, lambda label, names:
            [_mean(results, label, names, "in_dram_cache_hit_rate")]),
    }


def figure10_row_buffer_hit_rate(scale: ExperimentScale | None = None) -> dict:
    """Figure 10: DRAM row-buffer hit rate of the caching mechanisms."""
    scale = scale or ExperimentScale()
    configurations = ("Base",) + _CACHE_CONFIGURATIONS
    categories, workloads = _one_and_multi_core(scale)
    results = run_points(_points(configurations), workloads, scale)
    return {
        "figure": "Figure 10",
        "metric": "DRAM row-buffer hit rate",
        "columns": ["category", "configuration", "row_buffer_hit_rate"],
        "rows": _category_rows(
            categories, configurations, lambda label, names:
            [_mean(results, label, names, "row_buffer_hit_rate")]),
    }


def figure11_energy(scale: ExperimentScale | None = None) -> dict:
    """Figure 11: system energy breakdown normalised to Base."""
    scale = scale or ExperimentScale()
    configurations = ("Base", "FIGCache-Slow", "FIGCache-Fast")
    categories, workloads = _one_and_multi_core(scale)
    results = run_points(_points(configurations), workloads, scale)

    def energy(label, names):
        """Each component's per-workload energy over Base, averaged."""
        components = defaultdict(float)
        for name in names:
            normalized = results[(label, name)].energy.normalized_to(
                results[("Base", name)].energy)
            for component, value in normalized.items():
                components[component] += value / len(names)
        return [components[component] for component in _ENERGY_COMPONENTS]

    return {
        "figure": "Figure 11",
        "metric": "energy normalised to Base",
        "columns": ["category", "configuration", *_ENERGY_COMPONENTS],
        "rows": _category_rows(categories, configurations, energy),
    }


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
        "rows": _mix_speedup_rows(scale, variants),
    }


def figure13_segment_size(scale: ExperimentScale | None = None,
                          segment_sizes_blocks=(8, 16, 32, 64, 128)) -> dict:
    """Figure 13: sensitivity to the row segment size (512 B ... 8 kB)."""
    scale = scale or ExperimentScale()
    variants = [(_segment_label(blocks), "FIGCache-Fast",
                 {"segment_blocks": blocks})
                for blocks in segment_sizes_blocks]
    variants.append(("LISA-VILLA", "LISA-VILLA", {}))
    return {
        "figure": "Figure 13",
        "metric": "weighted speedup over Base vs. row segment size",
        "columns": ["category", "segment_size", "speedup"],
        "rows": _mix_speedup_rows(scale, variants),
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
        "rows": _mix_speedup_rows(scale, variants),
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
        "rows": _mix_speedup_rows(scale, variants),
    }


def design_space_sweep(scale: ExperimentScale | None = None,
                       segment_blocks=(8, 16, 32),
                       cache_rows=(32, 64, 128)) -> dict:
    """Design-space sweep: FIGCache-Fast segment size x cache capacity.

    One row per (segment size, cache rows per bank) point: its weighted
    speedup over Base, as the geometric mean over the whole
    multiprogrammed suite.
    """
    scale = scale or ExperimentScale()
    suite = multicore_suite(scale)
    variants = [((blocks, capacity), "FIGCache-Fast",
                 {"segment_blocks": blocks, "cache_rows_per_bank": capacity})
                for blocks in segment_blocks for capacity in cache_rows]
    # One category, the whole suite; each label fills two columns.
    speedups = _speedup_rows(scale, {"suite": [w.name for w in suite]},
                             suite, variants)
    return {
        "figure": "Design-space sweep",
        "metric": "FIGCache-Fast weighted speedup over Base "
                  "(geomean over the multiprogrammed suite)",
        "columns": ["segment_size", "cache_rows_per_bank", "speedup"],
        "rows": [[_segment_label(blocks), capacity, speedup]
                 for _, (blocks, capacity), speedup in speedups],
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
    results = run_points([((standard, configuration), configuration,
                           {"standard": standard})
                          for standard in standards
                          for configuration in wanted], benchmarks, scale)
    rows = []
    for standard in standards:
        profile = get_profile(standard)
        for configuration in configurations:
            if configuration != "Base":
                rows.append([standard, profile.family, profile.refresh_mode,
                             configuration,
                             _speedup(results, (standard, configuration),
                                      benchmarks, base=(standard, "Base"))])
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
    scale = scale or ExperimentScale()
    pooled_scale = replace(
        scale, benchmarks_per_class=max(scale.benchmarks_per_class, 6))
    categories = single_core_benchmarks(pooled_scale)
    results = run_points(_points(configurations, telemetry=True),
                         [b for group in categories.values() for b in group],
                         scale)

    def percentiles(label, names):
        """Read-latency summary of the category's pooled histograms."""
        pooled = LatencyHistogram()
        for name in names:
            pooled.merge(results[(label, name)].telemetry.read_latency)
        summary = pooled.summary()
        return [summary[key] for key in ("p50", "p95", "p99", "max", "mean")]

    return {
        "figure": "Latency distributions",
        "metric": "read latency percentiles in CPU cycles "
                  "(pooled over the figure-7 single-core workloads)",
        "columns": ["category", "configuration", "p50", "p95", "p99",
                    "max", "mean"],
        "rows": _category_rows(categories, configurations, percentiles),
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
